#ifndef FAIRMOVE_COMMON_RING_QUEUE_H_
#define FAIRMOVE_COMMON_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "fairmove/common/macros.h"

namespace fairmove {

/// FIFO queue on a power-of-two ring buffer. Drop-in for the std::deque
/// use-cases in the simulator hot loop (station waiting lines, per-region
/// request queues) with one crucial difference: a deque allocates and frees
/// map blocks in steady state (every push after a pop touches the heap),
/// while the ring only ever grows — once warmed to its high-water mark,
/// push/pop cycles are allocation-free forever (asserted by the
/// sim_alloc_test counting hook). clear() retains capacity.
template <typename T>
class RingQueue {
 public:
  RingQueue() = default;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void push_back(const T& v) {
    if (size_ == buf_.size()) Grow();
    buf_[(head_ + size_) & mask_] = v;
    ++size_;
  }

  T& front() {
    FM_CHECK(size_ > 0) << "front() on an empty RingQueue";
    return buf_[head_];
  }
  const T& front() const {
    FM_CHECK(size_ > 0) << "front() on an empty RingQueue";
    return buf_[head_];
  }

  T& back() {
    FM_CHECK(size_ > 0) << "back() on an empty RingQueue";
    return buf_[(head_ + size_ - 1) & mask_];
  }
  const T& back() const {
    FM_CHECK(size_ > 0) << "back() on an empty RingQueue";
    return buf_[(head_ + size_ - 1) & mask_];
  }

  void pop_front() {
    FM_CHECK(size_ > 0) << "pop_front() on an empty RingQueue";
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Element `i` positions behind the front (0 = front).
  T& operator[](size_t i) {
    FM_CHECK(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](size_t i) const {
    FM_CHECK(i < size_);
    return buf_[(head_ + i) & mask_];
  }

  /// Empties the queue; capacity (and thus allocation-freeness) is kept.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  size_t capacity() const { return buf_.size(); }

 private:
  void Grow() {
    const size_t new_cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> grown(new_cap);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & mask_]);
    }
    buf_ = std::move(grown);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  static constexpr size_t kInitialCapacity = 8;

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_RING_QUEUE_H_
