#pragma once

#include <cstddef>
#include <utility>
#include <vector>

/// A double-ended queue over a circular slot array that never releases
/// its slots.
///
/// std::deque allocates a map and a 512-byte node on construction and
/// then frees and allocates node blocks as the head crosses chunk
/// boundaries, which shows up as allocation churn on the zero-allocation
/// symbol path (wire::Pipe and wire::LossyChannel queues, the timed delay
/// line) and as four allocations per constructed link. RingBuffer
/// allocates nothing until its first push, grows by doubling and then
/// reuses the same slots forever: push/pop move values in and out, so a
/// popped std::vector's heap storage travels with it and the vacated slot
/// costs nothing to refill.
namespace icd::util {

template <typename T>
class RingBuffer {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Element `i` counted from the front (0 = next to pop).
  T& operator[](std::size_t i) { return slots_[index(i)]; }
  const T& operator[](std::size_t i) const { return slots_[index(i)]; }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  T& back() { return slots_[index(count_ - 1)]; }

  void push_back(T value) {
    if (count_ == slots_.size()) grow();
    slots_[index(count_)] = std::move(value);
    ++count_;
  }

  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --count_;
    return value;
  }

  T pop_back() {
    --count_;
    return std::move(slots_[index(count_)]);
  }

 private:
  std::size_t index(std::size_t i) const {
    return (head_ + i) % slots_.size();
  }

  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace icd::util
