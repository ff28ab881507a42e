#include "fairmove/data/empirical_demand.h"

#include <algorithm>
#include <cmath>

#include "fairmove/common/config.h"
#include "fairmove/common/csv.h"
#include "fairmove/io/atomic_file.h"

namespace fairmove {

namespace {
constexpr int kSecondsPerSlot = kMinutesPerSlot * 60;
}  // namespace

EmpiricalDemandModel::EmpiricalDemandModel(const City* city, Options options)
    : city_(city),
      options_(options),
      num_regions_(static_cast<size_t>(city->num_regions())) {}

StatusOr<EmpiricalDemandModel> EmpiricalDemandModel::FromTransactions(
    const City* city, const std::vector<TransactionRecord>& transactions,
    Options options) {
  if (city == nullptr) return Status::InvalidArgument("city is null");
  if (transactions.empty()) {
    return Status::InvalidArgument("no transactions to estimate from");
  }
  if (options.smoothing < 0.0) {
    return Status::InvalidArgument("smoothing must be >= 0");
  }
  if (options.od_hour_bucket <= 0 ||
      kHoursPerDay % options.od_hour_bucket != 0) {
    return Status::InvalidArgument("od_hour_bucket must divide 24");
  }
  if (options.fallback_scale_km <= 0.0) {
    return Status::InvalidArgument("fallback_scale_km must be > 0");
  }
  if (options.days < 0) return Status::InvalidArgument("days must be >= 0");
  if (options.days == 0) {
    // Infer the covered horizon from the data.
    int64_t max_s = 0;
    for (const TransactionRecord& t : transactions) {
      max_s = std::max(max_s, t.pickup_time_s);
    }
    options.days =
        std::max<int>(1, static_cast<int>(max_s / (86400) + 1));
  }
  EmpiricalDemandModel model(city, options);
  model.Estimate(transactions);
  return model;
}

StatusOr<EmpiricalDemandModel> EmpiricalDemandModel::FromCsvFile(
    const City* city, const std::string& path, Options options,
    int64_t* quarantined) {
  FM_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  CsvQuarantine csv_quarantine;
  FM_ASSIGN_OR_RETURN(Table table, ParseCsvLenient(text, &csv_quarantine));
  int64_t bad_rows = 0;
  FM_ASSIGN_OR_RETURN(std::vector<TransactionRecord> transactions,
                      TransactionRecordsFromTable(table, &bad_rows));
  if (quarantined != nullptr) {
    *quarantined = csv_quarantine.total() + bad_rows;
  }
  return FromTransactions(city, transactions, options);
}

void EmpiricalDemandModel::Estimate(
    const std::vector<TransactionRecord>& transactions) {
  rates_.assign(num_regions_ * kSlotsPerDay,
                static_cast<float>(options_.smoothing / options_.days));
  std::vector<float> od_counts(
      static_cast<size_t>(NumBuckets()) * num_regions_ * num_regions_, 0.0f);
  od_has_data_.assign(static_cast<size_t>(NumBuckets()) * num_regions_, 0);

  for (const TransactionRecord& t : transactions) {
    const RegionId origin = city_->NearestRegion(t.pickup);
    const RegionId dest = city_->NearestRegion(t.dropoff);
    const int slot_of_day = static_cast<int>(
        (t.pickup_time_s / kSecondsPerSlot) % kSlotsPerDay);
    rates_[RateIndex(origin, slot_of_day)] +=
        1.0f / static_cast<float>(options_.days);
    const int bucket =
        slot_of_day / (options_.od_hour_bucket * kSlotsPerHour);
    od_counts[OdIndex(bucket, origin) + static_cast<size_t>(dest)] += 1.0f;
    od_has_data_[static_cast<size_t>(bucket) * num_regions_ +
                 static_cast<size_t>(origin)] = 1;
    ++observations_;
  }

  total_per_day_ = 0.0;
  for (float v : rates_) total_per_day_ += v;

  // Build cumulative OD tables; unobserved (bucket, origin) rows fall back
  // to distance decay at sampling time.
  od_cdf_.assign(od_counts.size(), 0.0f);
  for (int b = 0; b < NumBuckets(); ++b) {
    for (size_t o = 0; o < num_regions_; ++o) {
      const size_t base = OdIndex(b, static_cast<RegionId>(o));
      float cum = 0.0f;
      for (size_t d = 0; d < num_regions_; ++d) {
        cum += od_counts[base + d];
        od_cdf_[base + d] = cum;
      }
    }
  }
}

double EmpiricalDemandModel::Rate(RegionId r, TimeSlot slot) const {
  return rates_[RateIndex(r, slot.SlotOfDay())];
}

RegionId EmpiricalDemandModel::SampleDestination(RegionId origin,
                                                 TimeSlot slot,
                                                 Rng& rng) const {
  const int bucket =
      slot.SlotOfDay() / (options_.od_hour_bucket * kSlotsPerHour);
  const bool has_data =
      od_has_data_[static_cast<size_t>(bucket) * num_regions_ +
                   static_cast<size_t>(origin)] != 0;
  if (has_data) {
    const float* cdf = &od_cdf_[OdIndex(bucket, origin)];
    const float total = cdf[num_regions_ - 1];
    if (total > 0.0f) {
      const float r = static_cast<float>(rng.NextDouble()) * total;
      const float* it = std::lower_bound(cdf, cdf + num_regions_, r);
      size_t idx = static_cast<size_t>(it - cdf);
      if (idx >= num_regions_) idx = num_regions_ - 1;
      return static_cast<RegionId>(idx);
    }
  }
  // Fallback: distance-decayed choice over all regions.
  double total = 0.0;
  for (size_t d = 0; d < num_regions_; ++d) {
    total += std::exp(-TripKm(origin, static_cast<RegionId>(d)) /
                      options_.fallback_scale_km);
  }
  double r = rng.NextDouble() * total;
  for (size_t d = 0; d < num_regions_; ++d) {
    r -= std::exp(-TripKm(origin, static_cast<RegionId>(d)) /
                  options_.fallback_scale_km);
    if (r <= 0.0) return static_cast<RegionId>(d);
  }
  return static_cast<RegionId>(num_regions_ - 1);
}

double EmpiricalDemandModel::TripKm(RegionId origin, RegionId dest) const {
  if (origin == dest) return options_.intra_region_km;
  return city_->DrivingKm(origin, dest);
}

}  // namespace fairmove
