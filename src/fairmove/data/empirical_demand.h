#ifndef FAIRMOVE_DATA_EMPIRICAL_DEMAND_H_
#define FAIRMOVE_DATA_EMPIRICAL_DEMAND_H_

#include <vector>

#include "fairmove/common/status.h"
#include "fairmove/demand/demand_source.h"
#include "fairmove/data/records.h"
#include "fairmove/geo/city.h"

namespace fairmove {

/// Demand estimated *from data* rather than from a generative model — the
/// "data-driven" half of the paper's pipeline. Given a transaction log
/// (pickup coordinates and timestamps, e.g. imported from CSV or produced
/// by DatasetGenerator), it estimates
///   * per-region per-slot-of-day request rates (with Laplace smoothing),
///   * an empirical origin-destination distribution per hour bucket, with
///     a distance-decay fallback for (origin, bucket) pairs never observed.
/// Implements DemandSource, so the simulator can replay a recorded city's
/// demand and train policies against it.
class EmpiricalDemandModel : public DemandSource {
 public:
  struct Options {
    /// Number of observed days the transactions cover (normalises counts
    /// into per-day rates). Inferred from the data when 0.
    int days = 0;
    /// Laplace smoothing added to every (region, slot) count.
    double smoothing = 0.05;
    /// Hour-bucket width of the OD tables.
    int od_hour_bucket = 4;
    /// Distance scale of the OD fallback for unobserved origins.
    double fallback_scale_km = 8.0;
    double intra_region_km = 1.5;
  };

  /// Estimates the surface from `transactions`. `city` must outlive the
  /// model. InvalidArgument on empty input or bad options.
  static StatusOr<EmpiricalDemandModel> FromTransactions(
      const City* city, const std::vector<TransactionRecord>& transactions,
      Options options);

  /// Convenience: estimates from a CSV in the dataset_export schema
  /// (vehicle_id, pickup_time_s, dropoff_time_s, pickup_lat, pickup_lng,
  /// dropoff_lat, dropoff_lng, operating_km, cruising_km, fare_cny).
  /// Ingestion is hardened against corrupted record streams: truncated,
  /// mis-quoted, NUL-ridden, or non-numeric rows are quarantined (counted
  /// in `*quarantined` when non-null) and skipped; only a missing/broken
  /// header or a fully quarantined file fails. A missing file is NotFound.
  static StatusOr<EmpiricalDemandModel> FromCsvFile(
      const City* city, const std::string& path, Options options,
      int64_t* quarantined = nullptr);

  double Rate(RegionId r, TimeSlot slot) const override;
  RegionId SampleDestination(RegionId origin, TimeSlot slot,
                             Rng& rng) const override;
  double TripKm(RegionId origin, RegionId dest) const override;
  double TotalTripsPerDay() const override { return total_per_day_; }

  /// Number of transactions actually used in the estimate.
  int64_t observations() const { return observations_; }
  const Options& options() const { return options_; }

 private:
  EmpiricalDemandModel(const City* city, Options options);

  void Estimate(const std::vector<TransactionRecord>& transactions);

  size_t RateIndex(RegionId r, int slot_of_day) const {
    return static_cast<size_t>(r) * kSlotsPerDay +
           static_cast<size_t>(slot_of_day);
  }
  int NumBuckets() const { return kHoursPerDay / options_.od_hour_bucket; }
  size_t OdIndex(int bucket, RegionId origin) const {
    return (static_cast<size_t>(bucket) * num_regions_ +
            static_cast<size_t>(origin)) *
           num_regions_;
  }

  const City* city_;
  Options options_;
  size_t num_regions_;
  std::vector<float> rates_;    // [region][slot_of_day], per-day rates
  std::vector<float> od_cdf_;   // [bucket][origin][dest] cumulative counts
  std::vector<uint8_t> od_has_data_;  // [bucket][origin]
  double total_per_day_ = 0.0;
  int64_t observations_ = 0;
};

}  // namespace fairmove

#endif  // FAIRMOVE_DATA_EMPIRICAL_DEMAND_H_
