// A vector-backed FIFO for small elements (trivial records, PacketPtr).
//
// std::deque is the obvious container for a push-back/pop-front queue, but
// libstdc++'s deque allocates its map block plus one 512-byte node the
// moment it is constructed — even when it never holds an element. With one
// queue per TCP endpoint that hidden allocation dominates bytes-per-flow at
// the 1M-connection scale point. FlatFifo keeps elements in a single
// contiguous vector with a popped-prefix head index: an empty queue owns no
// heap at all, and a drained queue rewinds to reuse its buffer.
//
// pop_front is O(1) (bump the head index); the dead prefix is reclaimed
// when the queue drains, or slid down when it exceeds both a fixed floor
// and half the buffer — so memory is bounded by 2x the high-water live
// count, amortized O(1) per operation.

#ifndef JUGGLER_SRC_UTIL_FLAT_FIFO_H_
#define JUGGLER_SRC_UTIL_FLAT_FIFO_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace juggler {

template <typename T>
class FlatFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  const T& front() const { return items_[head_]; }
  T& front() { return items_[head_]; }

  void push_back(const T& value) { items_.push_back(value); }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    items_.emplace_back(std::forward<Args>(args)...);
  }

  void pop_front() {
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ > kSlideFloor && head_ * 2 > items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }


 private:
  static constexpr size_t kSlideFloor = 64;

  std::vector<T> items_;
  size_t head_ = 0;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_UTIL_FLAT_FIFO_H_
