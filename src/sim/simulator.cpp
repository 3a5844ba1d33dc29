#include "sim/simulator.h"

#include <utility>

namespace adtc {

void Simulator::Post(SimTime when, Callback cb) {
  if (when < now_) when = now_;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  queue_.push(Key{when, next_seq_++, slot});
}

void Simulator::RunNext() {
  const Key key = queue_.top();
  queue_.pop();
  Callback cb = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.when;
  running_seq_ = key.seq;
  cb();
}

std::uint64_t Simulator::RunUntil(SimTime until) {
  std::uint64_t ran = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    RunNext();
    ++ran;
  }
  if (now_ < until) now_ = until;
  running_seq_ = next_seq_;
  AddExecuted(ran);
  return ran;
}

std::uint64_t Simulator::RunToCompletion() {
  std::uint64_t ran = 0;
  while (!queue_.empty()) {
    RunNext();
    ++ran;
  }
  running_seq_ = next_seq_;
  AddExecuted(ran);
  return ran;
}

void Simulator::Clear() {
  queue_ = {};
  slots_.clear();
  free_slots_.clear();
}

}  // namespace adtc
