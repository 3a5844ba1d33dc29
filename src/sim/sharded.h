// Sharded multi-core discrete-event engine (conservative lock-step PDES).
//
// A ShardedSimulator owns N worker shards. Each shard is a full Scheduler
// (sim/scheduler.h) with its own event queue, sim clock and seeded RNG
// stream; components post all of their work onto the ShardRef of the
// shard that owns their state. The engine runs the world in lock-step
// epochs: every shard executes its local events up to a shared window
// end, all workers park at the barrier, and only then are cross-shard
// events exchanged.
//
// Safety argument (why the barrier exchange loses nothing): the epoch is
// sized to the minimum cross-shard link latency Δ (Network::
// FinalizeRouting computes it from the partitioned topology). An event
// executing at time t inside the window (B, B+Δ] can address another
// shard no earlier than t + Δ > B + Δ — strictly after the window end —
// so no cross-shard event can ever be needed inside the window it was
// produced in. Cross-shard posts that nevertheless target a time at or
// before the barrier (a component violating the latency contract) are
// clamped to the barrier and counted in stats().late_cross_events.
//
// Determinism: for a fixed shard count, runs are bit-reproducible — the
// barrier exchange merges outboxes in (destination, source, post order),
// so destination sequence numbers are assigned identically on every run.
// Identical results across *different* shard counts additionally require
// the world to follow the shard-affinity contract in docs/sharding.md
// (per-entity RNG streams, per-origin packet serials, cross-shard
// latencies >= epoch); the repo's seed-determinism differential test
// holds the engine to exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace adtc {

/// Engine-level accounting, readable between runs.
struct ShardedStats {
  std::uint64_t epochs = 0;             // barrier windows executed
  std::uint64_t cross_shard_events = 0; // events exchanged at barriers
  /// Cross-shard events whose target time had already passed at the
  /// exchange barrier (clamped forward). Always 0 for worlds honouring
  /// the "cross-shard latency >= epoch" contract.
  std::uint64_t late_cross_events = 0;
};

class ShardedSimulator {
 public:
  /// One shard of the engine: a Scheduler whose Post routes same-shard
  /// work into the local queue and cross-shard work into a lock-free
  /// per-(source,destination) outbox drained at the next barrier.
  class Shard final : public Scheduler {
   public:
    SimTime Now() const override { return sim_.Now(); }
    void Post(SimTime when, Callback cb) override;
    ShardId shard_id() const override { return id_; }

    /// This shard's private RNG stream (seeded from the engine seed and
    /// the shard index; independent of every other shard's stream).
    Rng& rng() { return rng_; }

   private:
    friend class ShardedSimulator;
    struct Pending {
      SimTime when;
      Callback cb;
    };

    Shard(ShardId id, std::uint64_t seed, std::size_t num_shards);

    ShardId id_;
    Simulator sim_;
    Rng rng_;
    /// outbox_[dst]: events this shard's thread posted onto shard `dst`
    /// during the current window, each carrying the same inline-storage
    /// callback a same-shard post would queue. Written only by this
    /// shard's worker — no locks — and drained by the main thread at the
    /// barrier.
    std::vector<std::vector<Pending>> outbox_;
  };

  /// `seed` feeds the per-shard RNG streams only; world-level randomness
  /// stays with the components (Network seed, per-host forks).
  explicit ShardedSimulator(std::size_t num_shards = 1,
                            std::uint64_t seed = 1);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  std::size_t shard_count() const { return shards_.size(); }

  /// Scheduler handle for shard `id`. Valid for the engine's lifetime.
  ShardRef shard(ShardId id) { return ShardRef(shards_[id].get()); }
  /// The control shard (shard 0): management-plane services live here.
  ShardRef control() { return shard(0); }
  /// Shard `id`'s event queue, for the engine primitives beyond Post
  /// (Simulator::TakeSeq/HasRun). Only code running on that shard, or
  /// the main thread between runs, may use it.
  Simulator& queue(ShardId id) { return shards_[id]->sim_; }

  /// Epoch length = the conservative lookahead (minimum cross-shard
  /// latency). 0 — the default — means "no cross-shard traffic expected":
  /// multi-shard runs then execute one timestamp per window, which is
  /// safe but slow, so worlds with cross-shard links must set it.
  void SetEpoch(SimDuration epoch) { epoch_ = epoch < 0 ? 0 : epoch; }
  SimDuration epoch() const { return epoch_; }

  /// Current time: the executing shard's clock on a worker thread, the
  /// last barrier time on the main thread.
  SimTime Now() const;

  /// Runs every shard in lock-step until all clocks reach `until`.
  /// Returns the number of events executed across all shards.
  std::uint64_t RunUntil(SimTime until);

  /// Runs until every shard's queue drains (clocks stop at the last
  /// event, as with Simulator::RunToCompletion).
  std::uint64_t RunToCompletion();

  /// Discards all pending events and outboxes.
  void Clear();

  bool Empty() const;
  std::uint64_t executed_events() const;
  const ShardedStats& stats() const { return stats_; }

  /// The shard whose worker thread is executing right now, or shard 0
  /// when called from the main thread (single-shard worlds and
  /// between-run setup code both land there by construction).
  ShardId CurrentShardIndex() const;

 private:
  SimTime EarliestPending() const;
  /// Parallel RunUntil(window) across shards (inline when single-shard).
  std::uint64_t RunShardsTo(SimTime window);
  /// Barrier merge: deterministic (destination, source, post-order) drain
  /// of every outbox into the destination queues.
  void ExchangeOutboxes();
  void EnsurePool();

  std::vector<std::unique_ptr<Shard>> shards_;
  SimDuration epoch_ = 0;
  SimTime barrier_ = 0;
  ShardedStats stats_;
  /// Shard worker pool (common/thread_pool.h), created lazily on the
  /// first multi-shard run; single-shard worlds never spawn threads.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::uint64_t> window_executed_;  // per-shard, per-window
};

}  // namespace adtc
