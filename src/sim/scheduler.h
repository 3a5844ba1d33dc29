// The single scheduling surface of the simulation engine.
//
// Every component that wants a timer or a deferred callback talks to a
// Scheduler — there is exactly one primitive, Post(when, cb), plus
// non-virtual sugar (PostIn, PostEvery) built on top of it. Both the
// single-threaded Simulator and each worker shard of a ShardedSimulator
// implement this interface, so component code is identical whether the
// world runs on one event loop or sixteen.
//
// Shard affinity: a Scheduler IS a shard. Components capture the
// ShardRef of the shard that owns their state and post all their work
// through it; posting onto a ShardRef from another shard's worker thread
// is legal (the event crosses at the next epoch barrier — see
// docs/sharding.md), but mutating another shard's component state
// directly is not.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/types.h"
#include "common/units.h"
#include "sim/callback.h"

namespace adtc {

class Scheduler {
 public:
  /// Move-only; callables up to a Packet-carrying closure are stored
  /// inline (sim/callback.h).
  using Callback = EventCallback;

  virtual ~Scheduler() = default;

  /// Current simulated time on this shard's clock.
  virtual SimTime Now() const = 0;

  /// Enqueues `cb` to run at absolute time `when` on this shard.
  /// Same-shard posts in the past are clamped to Now(); cross-shard posts
  /// are exchanged at the next epoch barrier (and clamped there if the
  /// target time has already passed — see ShardedStats::late_cross_events).
  virtual void Post(SimTime when, Callback cb) = 0;

  /// The shard this scheduler drives (0 for a plain Simulator).
  virtual ShardId shard_id() const = 0;

  // --- sugar (all lowered onto Post) ---------------------------------------

  /// Posts `cb` to run `delay` from now (delay < 0 treated as 0).
  void PostIn(SimDuration delay, Callback cb) {
    if (delay < 0) delay = 0;
    Post(Now() + delay, std::move(cb));
  }

  /// Periodic callback: first at Now()+period, then every period until it
  /// returns false or the simulation ends.
  void PostEvery(SimDuration period, std::function<bool()> cb);
};

/// Copyable value handle onto a shard's scheduler — the address a
/// component stores to say "my state lives here, run my timers here".
/// Default-constructed refs are invalid; components receive a bound ref
/// at attach/construction time.
class ShardRef {
 public:
  ShardRef() = default;
  explicit ShardRef(Scheduler* sched) : sched_(sched) {}

  bool valid() const { return sched_ != nullptr; }
  Scheduler* get() const { return sched_; }
  ShardId id() const {
    return sched_ == nullptr ? kInvalidShard : sched_->shard_id();
  }
  bool SameShard(const ShardRef& other) const {
    return sched_ == other.sched_;
  }

  SimTime Now() const { return sched_->Now(); }
  void Post(SimTime when, Scheduler::Callback cb) const {
    sched_->Post(when, std::move(cb));
  }
  void PostIn(SimDuration delay, Scheduler::Callback cb) const {
    sched_->PostIn(delay, std::move(cb));
  }
  void PostEvery(SimDuration period, std::function<bool()> cb) const {
    sched_->PostEvery(period, std::move(cb));
  }

 private:
  Scheduler* sched_ = nullptr;
};

}  // namespace adtc
