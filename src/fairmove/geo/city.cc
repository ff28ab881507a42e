#include "fairmove/geo/city.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace fairmove {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

}  // namespace

City::City(std::vector<Region> regions, std::vector<ChargingStation> stations)
    : regions_(std::move(regions)), stations_(std::move(stations)) {
  FM_CHECK(!regions_.empty()) << "city needs at least one region";
  for (int i = 0; i < num_regions(); ++i) {
    FM_CHECK(regions_[static_cast<size_t>(i)].id == i)
        << "region ids must be dense and ordered";
  }
  for (int s = 0; s < num_stations(); ++s) {
    const ChargingStation& st = stations_[static_cast<size_t>(s)];
    FM_CHECK(st.id == s) << "station ids must be dense and ordered";
    FM_CHECK(st.region >= 0 && st.region < num_regions())
        << "station " << s << " in unknown region " << st.region;
    FM_CHECK(st.num_points > 0) << "station " << s << " has no points";
    total_charge_points_ += st.num_points;
  }
  for (const Region& r : regions_) {
    max_neighbors_ = std::max(max_neighbors_,
                              static_cast<int>(r.neighbors.size()));
  }
  BuildMatrices();
  BuildSpatialIndex();
}

void City::BuildSpatialIndex() {
  for (const Region& r : regions_) {
    index_max_x_ = std::max(index_max_x_, r.centroid_km.x);
    index_max_y_ = std::max(index_max_y_, r.centroid_km.y);
  }
  index_cols_ =
      std::max(1, static_cast<int>(index_max_x_ / index_cell_km_) + 1);
  index_rows_ =
      std::max(1, static_cast<int>(index_max_y_ / index_cell_km_) + 1);
  index_cells_.assign(
      static_cast<size_t>(index_cols_) * index_rows_, {});
  for (const Region& r : regions_) {
    const int cx = std::clamp(
        static_cast<int>(r.centroid_km.x / index_cell_km_), 0,
        index_cols_ - 1);
    const int cy = std::clamp(
        static_cast<int>(r.centroid_km.y / index_cell_km_), 0,
        index_rows_ - 1);
    index_cells_[static_cast<size_t>(cy) * index_cols_ + cx].push_back(r.id);
  }
}

RegionId City::NearestRegion(PointKm p) const {
  const int cx = std::clamp(static_cast<int>(p.x / index_cell_km_), 0,
                            index_cols_ - 1);
  const int cy = std::clamp(static_cast<int>(p.y / index_cell_km_), 0,
                            index_rows_ - 1);
  RegionId best = kInvalidRegion;
  double best_d = std::numeric_limits<double>::infinity();
  // Expand the search ring until a candidate is found, then one more ring
  // to guarantee correctness near cell borders.
  for (int ring = 0; ring < std::max(index_cols_, index_rows_); ++ring) {
    bool any_cell = false;
    for (int dy = -ring; dy <= ring; ++dy) {
      for (int dx = -ring; dx <= ring; ++dx) {
        if (std::max(std::abs(dx), std::abs(dy)) != ring) continue;
        const int x = cx + dx, y = cy + dy;
        if (x < 0 || x >= index_cols_ || y < 0 || y >= index_rows_) continue;
        any_cell = true;
        for (RegionId id :
             index_cells_[static_cast<size_t>(y) * index_cols_ + x]) {
          const double d =
              DistanceKm(p, regions_[static_cast<size_t>(id)].centroid_km);
          if (d < best_d) {
            best_d = d;
            best = id;
          }
        }
      }
    }
    if (best != kInvalidRegion &&
        best_d <= (ring)*index_cell_km_) {
      break;  // no farther ring can beat this
    }
    if (!any_cell && ring > 0 && best != kInvalidRegion) break;
  }
  FM_CHECK(best != kInvalidRegion);
  return best;
}

RegionId City::NearestRegion(LatLng position) const {
  return NearestRegion(LatLngToPlanar(position));
}

double City::ClassSpeedKmh(RegionClass cls) {
  switch (cls) {
    case RegionClass::kDowntownCore:
      return 20.0;  // congested CBD streets
    case RegionClass::kUrban:
      return 26.0;
    case RegionClass::kSuburb:
      return 36.0;
    case RegionClass::kAirport:
      return 42.0;  // expressway access
    case RegionClass::kPort:
      return 32.0;
  }
  return 30.0;
}

void City::BuildMatrices() {
  const size_t n = regions_.size();
  od_.assign(n * n, Edge{kInf, kInf});
  minutes_only_.assign(n * n, kInf);

  // Dijkstra from every region. Edge weight between adjacent regions:
  // centroid distance at the average of the two endpoint class speeds.
  using QueueEntry = std::pair<float, RegionId>;  // (minutes, region)
  std::vector<float> dist_min(n);
  std::vector<float> dist_km(n);
  for (size_t src = 0; src < n; ++src) {
    std::fill(dist_min.begin(), dist_min.end(), kInf);
    std::fill(dist_km.begin(), dist_km.end(), kInf);
    dist_min[src] = 0.0f;
    dist_km[src] = 0.0f;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<>> pq;
    pq.emplace(0.0f, static_cast<RegionId>(src));
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist_min[static_cast<size_t>(u)]) continue;
      const Region& ru = regions_[static_cast<size_t>(u)];
      for (RegionId v : ru.neighbors) {
        const Region& rv = regions_[static_cast<size_t>(v)];
        const double km = DistanceKm(ru.centroid_km, rv.centroid_km);
        const double kmh =
            0.5 * (ClassSpeedKmh(ru.cls) + ClassSpeedKmh(rv.cls));
        const float w = static_cast<float>(km / kmh * 60.0);
        const float nd = d + w;
        if (nd < dist_min[static_cast<size_t>(v)]) {
          dist_min[static_cast<size_t>(v)] = nd;
          dist_km[static_cast<size_t>(v)] =
              dist_km[static_cast<size_t>(u)] + static_cast<float>(km);
          pq.emplace(nd, v);
        }
      }
    }
    for (size_t dst = 0; dst < n; ++dst) {
      FM_CHECK(dist_min[dst] < kInf)
          << "region graph is disconnected: no path " << src << "->" << dst;
      od_[src * n + dst] = Edge{dist_min[dst], dist_km[dst]};
      minutes_only_[src * n + dst] = dist_min[dst];
    }
  }

  // k-nearest stations per region by travel time.
  nearest_stations_.assign(n, {});
  if (!stations_.empty()) {
    std::vector<StationId> order(stations_.size());
    for (size_t r = 0; r < n; ++r) {
      for (size_t s = 0; s < stations_.size(); ++s) {
        order[s] = static_cast<StationId>(s);
      }
      const RegionId rid = static_cast<RegionId>(r);
      std::sort(order.begin(), order.end(), [&](StationId a, StationId b) {
        const double ta = TravelMinutesToStation(rid, a);
        const double tb = TravelMinutesToStation(rid, b);
        if (ta != tb) return ta < tb;
        return a < b;  // deterministic tie-break
      });
      const size_t k =
          std::min<size_t>(kNearestStations, stations_.size());
      nearest_stations_[r].assign(order.begin(),
                                  order.begin() + static_cast<long>(k));
    }
  }
}

RegionId City::StepToward(RegionId id, RegionId target) const {
  if (id == target) return id;
  RegionId best = id;
  double best_time = TravelMinutes(id, target);
  for (RegionId v : Neighbors(id)) {
    const double t = TravelMinutes(v, target);
    if (t < best_time) {
      best_time = t;
      best = v;
    }
  }
  return best;
}

}  // namespace fairmove
