#include "fairmove/geo/city_builder.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fairmove/common/rng.h"

namespace fairmove {

namespace {

/// Share of regions (by distance rank from the nearest CBD centre) that are
/// downtown core / urban; the remainder is suburb.
constexpr double kDowntownShare = 0.10;
constexpr double kUrbanShare = 0.35;

/// Station-count weights per region class: stations concentrate downtown
/// (finding (iii) of §II-C depends on suburban stations being scarce but
/// uncongested).
double StationWeight(RegionClass cls) {
  switch (cls) {
    case RegionClass::kDowntownCore:
      return 6.0;
    case RegionClass::kUrban:
      return 3.0;
    case RegionClass::kSuburb:
      return 1.0;
    case RegionClass::kAirport:
      return 4.0;
    case RegionClass::kPort:
      return 2.0;
  }
  return 1.0;
}

/// Labels every usable (uncarved) cell with its connected component in the
/// 8-neighbourhood, numbered in row-major order of the components' first
/// cells; carved cells get -1. `sizes` receives each component's cell count.
std::vector<std::vector<int>> LabelComponents(
    const std::vector<std::vector<bool>>& carved, std::vector<int>* sizes) {
  const int rows = static_cast<int>(carved.size());
  const int cols = static_cast<int>(carved[0].size());
  std::vector<std::vector<int>> label(
      static_cast<size_t>(rows),
      std::vector<int>(static_cast<size_t>(cols), -1));
  sizes->clear();
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (carved[static_cast<size_t>(r)][static_cast<size_t>(c)] ||
          label[static_cast<size_t>(r)][static_cast<size_t>(c)] >= 0) {
        continue;
      }
      const int id = static_cast<int>(sizes->size());
      std::vector<std::pair<int, int>> frontier{{r, c}};
      label[static_cast<size_t>(r)][static_cast<size_t>(c)] = id;
      int size = 0;
      while (!frontier.empty()) {
        const auto [fr, fc] = frontier.back();
        frontier.pop_back();
        ++size;
        for (int dr = -1; dr <= 1; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            const int nr = fr + dr, nc = fc + dc;
            if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
            if (carved[static_cast<size_t>(nr)][static_cast<size_t>(nc)] ||
                label[static_cast<size_t>(nr)][static_cast<size_t>(nc)] >=
                    0) {
              continue;
            }
            label[static_cast<size_t>(nr)][static_cast<size_t>(nc)] = id;
            frontier.emplace_back(nr, nc);
          }
        }
      }
      sizes->push_back(size);
    }
  }
  return label;
}

}  // namespace

CityConfig CityConfig::Scaled(double scale) const {
  // Regions and stations shrink sub-linearly: a scaled instance keeps the
  // paper's spatial sparseness (taxis per region, station spacing) rather
  // than collapsing into a handful of giant regions where position no
  // longer matters. Charge-point capacity stays proportional to the fleet.
  CityConfig out = *this;
  out.num_regions = std::max(
      12, static_cast<int>(num_regions * std::pow(scale, 0.80)));
  out.num_stations = std::max(
      4, static_cast<int>(num_stations * std::pow(scale, 0.80)));
  out.total_charge_points =
      std::max(out.num_stations,
               static_cast<int>(total_charge_points * scale));
  return out;
}

StatusOr<City> CityBuilder::Build() const {
  const CityConfig& cfg = config_;
  if (cfg.num_regions < 4) {
    return Status::InvalidArgument("num_regions must be >= 4");
  }
  if (cfg.obstacle_fraction < 0.0 || cfg.obstacle_fraction > 0.4) {
    return Status::InvalidArgument("obstacle_fraction must be in [0, 0.4]");
  }
  if (cfg.obstacle_blobs < 1) {
    return Status::InvalidArgument("obstacle_blobs must be >= 1");
  }
  if (cfg.num_stations < 1) {
    return Status::InvalidArgument("num_stations must be >= 1");
  }
  if (cfg.total_charge_points < cfg.num_stations) {
    return Status::InvalidArgument(
        "total_charge_points must be >= num_stations");
  }
  if (cfg.aspect_ratio <= 0.0 || cfg.region_area_km2 <= 0.0) {
    return Status::InvalidArgument("aspect_ratio/region_area_km2 must be > 0");
  }
  if (cfg.centroid_jitter < 0.0 || cfg.centroid_jitter >= 0.5) {
    return Status::InvalidArgument("centroid_jitter must be in [0, 0.5)");
  }

  Rng rng(cfg.seed);

  // --- Lattice layout --------------------------------------------------
  // The grid is inflated so that num_regions usable cells remain after
  // terrain carving.
  const int target_cells = static_cast<int>(
      std::ceil(cfg.num_regions / (1.0 - cfg.obstacle_fraction)));
  const int rows = std::max(
      2, static_cast<int>(std::lround(
             std::sqrt(static_cast<double>(target_cells) /
                       cfg.aspect_ratio))));
  const int cols = std::max(2, (target_cells + rows - 1) / rows);
  const double cell_km = std::sqrt(cfg.region_area_km2);

  // Terrain: carve obstacle blobs (impassable cells). A cell is usable
  // when not carved.
  std::vector<std::vector<bool>> carved(
      static_cast<size_t>(rows), std::vector<bool>(static_cast<size_t>(cols),
                                                   false));
  if (cfg.obstacle_fraction > 0.0) {
    std::vector<int> sizes;
    const auto largest_component = [&] {
      LabelComponents(carved, &sizes);
      return sizes.empty() ? 0 : *std::max_element(sizes.begin(), sizes.end());
    };

    // Carve blob by blob; a blob that would split the city or leave fewer
    // than num_regions connected cells is rolled back.
    const int cells_to_carve = static_cast<int>(
        cfg.obstacle_fraction * rows * cols);
    int carved_count = 0;
    int attempts = 0;
    while (carved_count < cells_to_carve &&
           attempts < cfg.obstacle_blobs * 4) {
      ++attempts;
      const int cr = static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(rows)));
      const int cc = static_cast<int>(rng.NextBounded(
          static_cast<uint64_t>(cols)));
      const double radius = std::sqrt(
          static_cast<double>(cells_to_carve) /
          (cfg.obstacle_blobs * 3.14159)) + rng.Uniform(0.0, 1.0);
      std::vector<std::pair<int, int>> blob;
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
          const double dr = r - cr, dc = c - cc;
          if (dr * dr + dc * dc <= radius * radius &&
              !carved[static_cast<size_t>(r)][static_cast<size_t>(c)]) {
            blob.emplace_back(r, c);
          }
        }
      }
      for (const auto& [r, c] : blob) {
        carved[static_cast<size_t>(r)][static_cast<size_t>(c)] = true;
      }
      if (largest_component() < cfg.num_regions) {
        for (const auto& [r, c] : blob) {  // rollback
          carved[static_cast<size_t>(r)][static_cast<size_t>(c)] = false;
        }
        continue;
      }
      carved_count += static_cast<int>(blob.size());
    }
    if (largest_component() < cfg.num_regions) {
      return Status::InvalidArgument(
          "obstacle_fraction carves the city below num_regions usable "
          "connected cells; lower it or enlarge the city");
    }
    // Carve every cell outside the first of the largest components, so the
    // published City invariant (full connectivity) holds.
    const std::vector<std::vector<int>> label = LabelComponents(carved, &sizes);
    const int best = static_cast<int>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        if (label[static_cast<size_t>(r)][static_cast<size_t>(c)] != best) {
          carved[static_cast<size_t>(r)][static_cast<size_t>(c)] = true;
        }
      }
    }
  }

  std::vector<Region> regions;
  regions.reserve(static_cast<size_t>(cfg.num_regions));
  // cell_index[row][col] -> region id or -1 (carved terrain, or trailing
  // cells beyond num_regions).
  std::vector<std::vector<RegionId>> cell_index(
      static_cast<size_t>(rows),
      std::vector<RegionId>(static_cast<size_t>(cols), kInvalidRegion));
  {
    RegionId next = 0;
    for (int r = 0; r < rows && next < cfg.num_regions; ++r) {
      for (int c = 0; c < cols && next < cfg.num_regions; ++c) {
        if (carved[static_cast<size_t>(r)][static_cast<size_t>(c)]) continue;
        Region region;
        region.id = next;
        region.grid_row = r;
        region.grid_col = c;
        const double jitter = cfg.centroid_jitter * cell_km;
        region.centroid_km =
            PointKm{(c + 0.5) * cell_km + rng.Uniform(-jitter, jitter),
                    (r + 0.5) * cell_km + rng.Uniform(-jitter, jitter)};
        region.centroid = PlanarToLatLng(region.centroid_km);
        cell_index[static_cast<size_t>(r)][static_cast<size_t>(c)] = next;
        regions.push_back(region);
        ++next;
      }
    }
    if (next < cfg.num_regions) {
      return Status::InvalidArgument(
          "not enough usable cells for num_regions after carving");
    }
  }

  // --- Adjacency: 8-neighbourhood on the lattice -----------------------
  for (Region& region : regions) {
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        if (dr == 0 && dc == 0) continue;
        const int nr = region.grid_row + dr;
        const int nc = region.grid_col + dc;
        if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
        const RegionId nbr =
            cell_index[static_cast<size_t>(nr)][static_cast<size_t>(nc)];
        if (nbr != kInvalidRegion) region.neighbors.push_back(nbr);
      }
    }
  }

  // --- Region classes ---------------------------------------------------
  // Two CBD centres (east and west, like Futian/Luohu vs Nanshan), an
  // airport in the far west, a port in the south-east.
  const double width = cols * cell_km;
  const double height = rows * cell_km;
  const PointKm cbd_east{0.68 * width, 0.45 * height};
  const PointKm cbd_west{0.32 * width, 0.40 * height};
  auto cbd_distance = [&](const Region& region) {
    return std::min(DistanceKm(region.centroid_km, cbd_east),
                    DistanceKm(region.centroid_km, cbd_west));
  };
  std::vector<RegionId> by_cbd(regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    by_cbd[i] = static_cast<RegionId>(i);
  }
  std::sort(by_cbd.begin(), by_cbd.end(), [&](RegionId a, RegionId b) {
    return cbd_distance(regions[static_cast<size_t>(a)]) <
           cbd_distance(regions[static_cast<size_t>(b)]);
  });
  const size_t downtown_count = std::max<size_t>(
      1, static_cast<size_t>(kDowntownShare * regions.size()));
  const size_t urban_count = std::max<size_t>(
      1, static_cast<size_t>(kUrbanShare * regions.size()));
  for (size_t i = 0; i < by_cbd.size(); ++i) {
    Region& region = regions[static_cast<size_t>(by_cbd[i])];
    if (i < downtown_count) {
      region.cls = RegionClass::kDowntownCore;
    } else if (i < downtown_count + urban_count) {
      region.cls = RegionClass::kUrban;
    } else {
      region.cls = RegionClass::kSuburb;
    }
  }
  // Airport: region closest to the west-centre edge point.
  const PointKm airport_anchor{0.04 * width, 0.55 * height};
  const PointKm port_anchor{0.85 * width, 0.08 * height};
  auto closest_to = [&](PointKm anchor) {
    RegionId best = 0;
    double best_d = DistanceKm(regions[0].centroid_km, anchor);
    for (const Region& region : regions) {
      const double d = DistanceKm(region.centroid_km, anchor);
      if (d < best_d) {
        best_d = d;
        best = region.id;
      }
    }
    return best;
  };
  const RegionId airport = closest_to(airport_anchor);
  regions[static_cast<size_t>(airport)].cls = RegionClass::kAirport;
  RegionId port = closest_to(port_anchor);
  if (port == airport) {
    // Degenerate tiny city; put the port anywhere else.
    port = (airport + 1) % static_cast<RegionId>(regions.size());
  }
  regions[static_cast<size_t>(port)].cls = RegionClass::kPort;

  // --- Charging stations -------------------------------------------------
  // Regions are sampled with class weights; plug counts are drawn around
  // the mean needed to hit total_charge_points, then adjusted to match it
  // exactly so the instance is comparable across seeds.
  std::vector<double> weights(regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    weights[i] = StationWeight(regions[i].cls);
  }
  std::vector<ChargingStation> stations;
  stations.reserve(static_cast<size_t>(cfg.num_stations));
  const double mean_points = static_cast<double>(cfg.total_charge_points) /
                             cfg.num_stations;
  int points_so_far = 0;
  for (int s = 0; s < cfg.num_stations; ++s) {
    ChargingStation st;
    st.id = s;
    st.name = "CS-" + std::to_string(s);
    st.region = static_cast<RegionId>(rng.WeightedIndex(weights));
    const Region& host = regions[static_cast<size_t>(st.region)];
    const double off = 0.3 * cell_km;
    st.location_km = PointKm{host.centroid_km.x + rng.Uniform(-off, off),
                             host.centroid_km.y + rng.Uniform(-off, off)};
    st.location = PlanarToLatLng(st.location_km);
    st.num_points = std::max(
        2, static_cast<int>(std::lround(rng.LogNormal(
               std::log(mean_points) - 0.125, 0.5))));
    points_so_far += st.num_points;
    stations.push_back(std::move(st));
  }
  // Rescale plug counts to exactly total_charge_points (keep >= 1 each).
  if (points_so_far != cfg.total_charge_points) {
    const double ratio = static_cast<double>(cfg.total_charge_points) /
                         points_so_far;
    int adjusted = 0;
    for (ChargingStation& st : stations) {
      st.num_points = std::max(1, static_cast<int>(st.num_points * ratio));
      adjusted += st.num_points;
    }
    // Distribute the remaining delta one plug at a time, round-robin.
    int delta = cfg.total_charge_points - adjusted;
    size_t i = 0;
    while (delta != 0 && !stations.empty()) {
      ChargingStation& st = stations[i % stations.size()];
      if (delta > 0) {
        ++st.num_points;
        --delta;
      } else if (st.num_points > 1) {
        --st.num_points;
        ++delta;
      }
      ++i;
    }
  }

  return City(std::move(regions), std::move(stations));
}

}  // namespace fairmove
