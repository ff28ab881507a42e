#include "fairmove/sim/station_queue.h"

#include <algorithm>

#include "fairmove/common/macros.h"

namespace fairmove {

StationQueue::StationQueue(int num_points)
    : num_points_(num_points), available_points_(num_points) {
  FM_CHECK(num_points > 0);
}

void StationQueue::SetAvailablePoints(int n) {
  FM_CHECK(n >= 0 && n <= num_points_)
      << "available points " << n << " outside [0, " << num_points_ << "]";
  available_points_ = n;
}

std::vector<TaxiId> StationQueue::DrainWaiting() {
  std::vector<TaxiId> drained;
  drained.reserve(queue_.size());
  for (size_t i = 0; i < queue_.size(); ++i) drained.push_back(queue_[i]);
  queue_.clear();
  return drained;
}

TaxiId StationQueue::PlugInNext() {
  FM_CHECK(CanPlugIn());
  const TaxiId taxi = queue_.front();
  queue_.pop_front();
  ++occupied_;
  return taxi;
}

void StationQueue::Release() {
  FM_CHECK(occupied_ > 0) << "release on an empty station";
  --occupied_;
}

void StationQueue::Clear() {
  occupied_ = 0;
  available_points_ = num_points_;
  queue_.clear();
}

}  // namespace fairmove
