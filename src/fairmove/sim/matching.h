#ifndef FAIRMOVE_SIM_MATCHING_H_
#define FAIRMOVE_SIM_MATCHING_H_

#include <cstdint>
#include <vector>

#include "fairmove/common/ring_queue.h"
#include "fairmove/common/time_types.h"
#include "fairmove/geo/region.h"

namespace fairmove {

/// One passenger request waiting in a region. It has no destination: the
/// server draws one at pickup time (see MatchingEngine).
struct Request {
  RegionId origin = kInvalidRegion;
  int64_t created_slot = 0;
};

/// Per-region FIFO request queues with patience-based expiry. The paper's
/// matching assumption (§III-C): "passengers in a region will always be
/// served by the vacant and available e-taxis" in that region, nearest
/// first — region-local FIFO is the slot-granular equivalent.
///
/// Requests are stored as *cohorts*: all requests spawned in one region in
/// one slot share an age, so the queue keeps (count, created_slot) pairs
/// instead of individual records. At full Shenzhen scale ~40% of spawned
/// requests expire unserved; cohorts mean those never cost a per-request
/// push, a per-request expiry pop, or a destination draw — destinations are
/// drawn lazily by the server only for trips that actually happen.
class MatchingEngine {
 public:
  /// `patience_slots`: a request unserved for this many whole slots expires.
  MatchingEngine(int num_regions, int patience_slots);

  /// Enqueues `count` same-age requests in `origin` as one cohort
  /// (one push per region per slot, however large the Poisson draw).
  void AddRequests(RegionId origin, int count, int64_t created_slot);

  /// Number of requests currently waiting in `region`. O(1): maintained
  /// incrementally, and region-pure — under region-sharded stepping,
  /// concurrent shards touch only their own regions' entries.
  int PendingCount(RegionId region) const {
    return pending_[static_cast<size_t>(region)];
  }

  /// Pops the oldest request of `region`; CHECK-fails when empty. The
  /// caller draws the destination from the region's demand distribution at
  /// serve time.
  Request PopOldest(RegionId region);

  /// Drops requests older than the patience window; returns how many
  /// expired (lost demand). Whole cohorts expire at once.
  int64_t ExpireOld(TimeSlot now);

  void Clear();

 private:
  struct Cohort {
    int32_t count = 0;
    int64_t created_slot = 0;
  };

  int patience_slots_;
  /// Rings, not deques: the per-slot add/pop/expire churn must not touch
  /// the heap once warm (Simulator::Step's zero-allocation contract). A
  /// region holds at most patience_slots_+1 live cohorts.
  std::vector<RingQueue<Cohort>> queues_;
  std::vector<int32_t> pending_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_SIM_MATCHING_H_
