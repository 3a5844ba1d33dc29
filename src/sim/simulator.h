// Deterministic discrete-event simulation engine.
//
// A Simulator owns a priority queue of (time, sequence, callback) events.
// The sequence number breaks ties so that two events scheduled for the same
// instant always fire in scheduling order — this is what makes whole-world
// runs bit-reproducible regardless of platform.
//
// Storage: pending callbacks live in a slab of inline-storage slots
// (sim/callback.h) recycled through a free list; the heap orders 24-byte
// (when, seq, slot) keys only. Popping an event moves its callback out of
// the slab (freeing the slot for the callback's own posts) and runs it, so
// an event whose capture fits inline costs no allocation and no copy.
//
// Simulator implements the Scheduler interface (sim/scheduler.h): Post is
// the one scheduling primitive, PostIn/PostEvery are sugar on top of it.
// A Simulator is also the event loop of one shard inside ShardedSimulator
// (sim/sharded.h); a standalone Simulator is simply shard 0 of a
// one-shard world.
#pragma once

#include <atomic>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/units.h"
#include "sim/scheduler.h"

namespace adtc {

class Simulator final : public Scheduler {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const override { return now_; }

  /// Schedules `cb` to run at absolute time `when` (clamped to >= Now()).
  /// Single-writer: only the thread driving this simulator may post.
  void Post(SimTime when, Callback cb) override;

  ShardId shard_id() const override { return shard_id_; }
  /// Set by ShardedSimulator when this simulator drives shard k.
  void set_shard_id(ShardId id) { shard_id_ = id; }

  /// Runs until the queue drains or the clock passes `until`.
  /// Returns the number of events executed.
  std::uint64_t RunUntil(SimTime until);

  /// Runs until the event queue is empty.
  std::uint64_t RunToCompletion();

  /// Discards (and destroys) all pending events (used between experiment
  /// phases).
  void Clear();

  /// Takes the sequence number the next Post would use, without posting.
  /// Pair it with HasRun to ask later whether an event keyed
  /// (when, seq) — had it been posted now — would already have run: the
  /// link model drains its transmit queue this way instead of posting one
  /// drain event per packet (net/network.cpp).
  std::uint64_t TakeSeq() { return next_seq_++; }

  /// True iff an event keyed (when, seq) on this simulator would already
  /// have executed. While an event runs, that is every key ordered before
  /// the running event's (Now(), seq). Between runs, it is every key due
  /// at or before Now() that was taken before the last run returned (keys
  /// taken since then are due no earlier than Now() and have not run).
  bool HasRun(SimTime when, std::uint64_t seq) const {
    return when < now_ || (when == now_ && seq < running_seq_);
  }

  bool Empty() const { return queue_.empty(); }
  std::size_t PendingEvents() const { return queue_.size(); }
  /// Time of the earliest pending event, or kSimTimeMax if none.
  SimTime NextEventTime() const {
    return queue_.empty() ? kSimTimeMax : queue_.top().when;
  }
  /// Relaxed-atomic so telemetry collectors may read it mid-run from
  /// another thread; written only by the driving thread.
  std::uint64_t executed_events() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
  };
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Pops the earliest event, advances the clock and runs it.
  void RunNext();

  void AddExecuted(std::uint64_t ran) {
    executed_.store(executed_.load(std::memory_order_relaxed) + ran,
                    std::memory_order_relaxed);
  }

  SimTime now_ = 0;
  ShardId shard_id_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Seq of the running event; between runs, next_seq_ as the last run
  /// returned (see HasRun).
  std::uint64_t running_seq_ = 0;
  std::atomic<std::uint64_t> executed_{0};
  std::priority_queue<Key, std::vector<Key>, KeyLater> queue_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace adtc
