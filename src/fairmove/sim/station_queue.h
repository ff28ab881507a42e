#ifndef FAIRMOVE_SIM_STATION_QUEUE_H_
#define FAIRMOVE_SIM_STATION_QUEUE_H_

#include <algorithm>
#include <vector>

#include "fairmove/common/ring_queue.h"
#include "fairmove/geo/region.h"
#include "fairmove/sim/taxi.h"

namespace fairmove {

/// Occupancy and FIFO waiting line of one charging station. The simulator
/// owns one per station; taxis enter via Enqueue, are plugged in as points
/// free up, and release their point when the session ends.
class StationQueue {
 public:
  explicit StationQueue(int num_points);

  int num_points() const { return num_points_; }
  int occupied() const { return occupied_; }
  /// Points currently usable; below num_points() while a fault-injection
  /// outage/derating window is active, 0 when the station is dark.
  int available_points() const { return available_points_; }
  int free_points() const { return std::max(0, available_points_ - occupied_); }
  int waiting() const { return static_cast<int>(queue_.size()); }

  /// Taxis plugged in or waiting (load signal for the global state).
  int load() const { return occupied_ + waiting(); }

  void Enqueue(TaxiId taxi) { queue_.push_back(taxi); }

  /// True when a point is free and someone is waiting.
  bool CanPlugIn() const { return free_points() > 0 && !queue_.empty(); }

  /// Pops the head of the line and occupies a point; CHECK-fails unless
  /// CanPlugIn().
  TaxiId PlugInNext();

  /// Releases one occupied point (a charging session finished).
  void Release();

  /// Sets the usable point count (outage/derating/restoration). Occupancy
  /// is untouched — the simulator unplugs sessions down to the new capacity.
  void SetAvailablePoints(int n);

  /// Empties the waiting line and returns it in FIFO order (the simulator
  /// re-routes the evicted taxis when the station goes dark).
  std::vector<TaxiId> DrainWaiting();

  void Clear();

 private:
  int num_points_;
  int available_points_;
  int occupied_ = 0;
  /// Ring, not deque: steady-state Enqueue/PlugInNext cycles must not touch
  /// the heap (Simulator::Step's zero-allocation contract).
  RingQueue<TaxiId> queue_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_SIM_STATION_QUEUE_H_
