// A compact FIFO of trivially copyable entries: one power-of-two ring in
// a single vector, no per-block allocation (unlike std::deque, whose
// first push costs a block map and a 512-byte block). An empty queue
// holds no storage; capacity doubles when full and is never less than
// the queue's high-water mark. Used for per-link transmit queues and the
// server's half-open expiry queue.
#pragma once

#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace adtc {

template <typename T>
class RingQueue {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  bool empty() const { return size_ == 0; }

  const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) Grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

 private:
  void Grow() {
    std::vector<T> grown(slots_.empty() ? 4 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = slots_[(head_ + i) & (slots_.size() - 1)];
    }
    slots_.swap(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace adtc
