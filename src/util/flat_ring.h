// A ring buffer with indexed insert and erase, for short ordered queues that
// change at both ends and in the middle.
//
// Juggler's out-of-order queue is the user: its runs are kept sorted, and
// reordering fills holes near the front while new runs arrive at the back.
// A vector shifts everything behind an insert or erase point, so a hole
// filled at the front of an 88-run queue moves ~9 KB. The ring shifts
// whichever side of the index is shorter: an erase or insert at either end
// is O(1), and one in the middle moves at most half the elements.
//
// Layout: one heap array whose capacity is a power of two, plus a head
// index and a size, in 24 bytes. A ring that never held an element owns no
// heap (std::deque allocates a map and a 512-byte node on construction; see
// FlatFifo). clear() keeps the buffer for reuse, as vector's does.
//
// Elements are addressed by logical index 0..size()-1 from the front. T
// must be trivially copyable: slots are raw storage, a vacated slot keeps a
// stale copy that owns nothing, and neither growth, erase nor clear writes
// a default value into a slot (for a 104-byte SegmentBuilder each such
// write compiles to a `rep stos`, whose startup latency the hot path would
// pay per flush).

#ifndef JUGGLER_SRC_UTIL_FLAT_RING_H_
#define JUGGLER_SRC_UTIL_FLAT_RING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace juggler {

template <typename T>
class FlatRing {
  static_assert(std::is_trivially_copyable_v<T>, "a vacated slot must own nothing");

 public:
  FlatRing() = default;
  FlatRing(const FlatRing&) = delete;
  FlatRing& operator=(const FlatRing&) = delete;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) { return slots_.get()[Slot(i)]; }
  const T& operator[](size_t i) const { return slots_.get()[Slot(i)]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  // Opens a slot at index `i` (0 <= i <= size()) by shifting the shorter
  // side outward, and returns it; its contents are unspecified until the
  // caller fills it.
  T& Insert(size_t i) {
    if (size_ == capacity_) {
      Grow(i);
    } else if (i < size_ - i) {
      head_ = (head_ - 1) & (capacity_ - 1);
      for (size_t k = 0; k < i; ++k) {
        (*this)[k] = (*this)[k + 1];
      }
    } else {
      for (size_t k = size_; k > i; --k) {
        (*this)[k] = (*this)[k - 1];
      }
    }
    ++size_;
    return (*this)[i];
  }

  // Removes the element at index `i` (< size()) by shifting the shorter
  // side inward.
  void Erase(size_t i) {
    if (i < size_ - 1 - i) {
      for (size_t k = i; k > 0; --k) {
        (*this)[k] = (*this)[k - 1];
      }
      head_ = (head_ + 1) & (capacity_ - 1);
    } else {
      for (size_t k = i; k + 1 < size_; ++k) {
        (*this)[k] = (*this)[k + 1];
      }
    }
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  uint32_t Slot(size_t i) const { return (head_ + static_cast<uint32_t>(i)) & (capacity_ - 1); }

  // Doubles the capacity, copying the elements in logical order with a gap
  // left at index `gap`; the caller's Insert fills it. Out of line: growth
  // is rare, and Insert stays small where it inlines.
  [[gnu::noinline]] void Grow(size_t gap) {
    const uint32_t capacity = capacity_ == 0 ? 1 : 2 * capacity_;
    std::unique_ptr<T, FreeSlots> bigger(static_cast<T*>(::operator new(capacity * sizeof(T))));
    for (size_t k = 0; k < gap; ++k) {
      bigger.get()[k] = (*this)[k];
    }
    for (size_t k = gap; k < size_; ++k) {
      bigger.get()[k + 1] = (*this)[k];
    }
    slots_ = std::move(bigger);
    capacity_ = capacity;
    head_ = 0;
  }

  struct FreeSlots {
    void operator()(T* slots) const { ::operator delete(slots); }
  };

  std::unique_ptr<T, FreeSlots> slots_;
  uint32_t capacity_ = 0;  // a power of two, or 0 before the first insert
  uint32_t head_ = 0;      // slot of logical index 0
  uint32_t size_ = 0;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_UTIL_FLAT_RING_H_
