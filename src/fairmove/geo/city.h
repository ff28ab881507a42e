#ifndef FAIRMOVE_GEO_CITY_H_
#define FAIRMOVE_GEO_CITY_H_

#include <vector>

#include "fairmove/common/status.h"
#include "fairmove/geo/region.h"

namespace fairmove {

/// Immutable road-network abstraction the rest of the system runs on:
/// regions with adjacency, charging stations, and precomputed all-pairs
/// travel time / distance over the region graph. Construct via CityBuilder.
class City {
 public:
  /// Number of candidate stations offered to each taxi (paper §III-C: "we
  /// consider the nearest five charging stations for each e-taxi").
  static constexpr int kNearestStations = 5;

  City(std::vector<Region> regions, std::vector<ChargingStation> stations);

  City(const City&) = delete;
  City& operator=(const City&) = delete;
  City(City&&) = default;
  City& operator=(City&&) = default;

  int num_regions() const { return static_cast<int>(regions_.size()); }
  int num_stations() const { return static_cast<int>(stations_.size()); }

  const Region& region(RegionId id) const {
    FM_CHECK(id >= 0 && id < num_regions()) << "region id " << id;
    return regions_[static_cast<size_t>(id)];
  }
  const ChargingStation& station(StationId id) const {
    FM_CHECK(id >= 0 && id < num_stations()) << "station id " << id;
    return stations_[static_cast<size_t>(id)];
  }
  const std::vector<Region>& regions() const { return regions_; }
  const std::vector<ChargingStation>& stations() const { return stations_; }

  /// Adjacent regions of `id` (never includes `id` itself).
  const std::vector<RegionId>& Neighbors(RegionId id) const {
    return region(id).neighbors;
  }

  /// Shortest-path travel time in minutes between region centroids,
  /// following the region graph with class-dependent speeds. 0 for a==b.
  /// Inline: this and DrivingKm are the hottest queries in the simulator.
  /// Minutes and km are interleaved per OD pair, so the common
  /// TravelMinutes + DrivingKm double lookup of a trip costs one cache
  /// line instead of two.
  double TravelMinutes(RegionId a, RegionId b) const {
    FM_CHECK(a >= 0 && a < num_regions()) << "region " << a;
    FM_CHECK(b >= 0 && b < num_regions()) << "region " << b;
    return od_[static_cast<size_t>(a) * regions_.size() +
               static_cast<size_t>(b)]
        .minutes;
  }

  /// Shortest-path driving distance in km along the region graph. 0 for a==b.
  double DrivingKm(RegionId a, RegionId b) const {
    FM_CHECK(a >= 0 && a < num_regions()) << "region " << a;
    FM_CHECK(b >= 0 && b < num_regions()) << "region " << b;
    return od_[static_cast<size_t>(a) * regions_.size() +
               static_cast<size_t>(b)]
        .km;
  }

  /// Dense minutes-only row `a` of the OD matrix, indexable by destination
  /// region. Row-sweep consumers (policy anchor fills) read this instead
  /// of TravelMinutes so they don't pay the interleaved stride.
  const float* TravelMinutesRow(RegionId a) const {
    FM_CHECK(a >= 0 && a < num_regions()) << "region " << a;
    return &minutes_only_[static_cast<size_t>(a) * regions_.size()];
  }

  /// Travel time from a region to a station (to the station's region).
  double TravelMinutesToStation(RegionId from, StationId s) const {
    return TravelMinutes(from, station(s).region);
  }
  double DrivingKmToStation(RegionId from, StationId s) const {
    return DrivingKm(from, station(s).region);
  }

  /// The kNearestStations station ids closest (by travel time) to `id`,
  /// nearest first. Fewer entries if the city has fewer stations.
  const std::vector<StationId>& NearestStations(RegionId id) const {
    return nearest_stations_.at(static_cast<size_t>(id));
  }

  /// Total number of charging points across all stations.
  int total_charge_points() const { return total_charge_points_; }

  /// Among `id` and its neighbours, the one closest to `target`
  /// (used for "move toward" actions). Returns `id` when already there.
  RegionId StepToward(RegionId id, RegionId target) const;

  /// Maximum neighbour count over all regions (action-space sizing).
  int max_neighbors() const { return max_neighbors_; }

  /// Region whose centroid is closest to `p` (planar km). Uses a coarse
  /// spatial hash, O(1) for points inside the city's bounding box.
  RegionId NearestRegion(PointKm p) const;

  /// Convenience: nearest region to a WGS-84 coordinate (projected into
  /// the city frame first).
  RegionId NearestRegion(LatLng position) const;

  /// Free-flow traffic speed (km/h) used for edges leaving a region of the
  /// given class. Exposed for tests and for energy calculations.
  static double ClassSpeedKmh(RegionClass cls);

 private:
  void BuildMatrices();
  void BuildSpatialIndex();

  std::vector<Region> regions_;
  std::vector<ChargingStation> stations_;
  // Row-major [num_regions x num_regions] OD matrix, minutes and km
  // interleaved (see TravelMinutes).
  struct Edge {
    float minutes;
    float km;
  };
  std::vector<Edge> od_;
  // Minutes duplicated densely for TravelMinutesRow (1MB at 491 regions).
  std::vector<float> minutes_only_;
  std::vector<std::vector<StationId>> nearest_stations_;
  int total_charge_points_ = 0;
  int max_neighbors_ = 0;
  // Coarse spatial hash over region centroids (NearestRegion).
  double index_cell_km_ = 2.0;
  int index_cols_ = 0;
  int index_rows_ = 0;
  double index_max_x_ = 0.0;
  double index_max_y_ = 0.0;
  std::vector<std::vector<RegionId>> index_cells_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_GEO_CITY_H_
