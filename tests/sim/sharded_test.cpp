// Unit tests of the sharded lock-step engine: clock semantics on the
// single-shard fast path, cross-shard exchange at epoch barriers, late
// clamping, per-shard RNG stream seeding, and run-to-run determinism.
#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.h"

namespace adtc {
namespace {

TEST(ShardedSingleTest, ClockAdvancesPerEventDuringInlineRun) {
  // Regression: the single-shard fast path runs events inline on the
  // main thread; ShardedSimulator::Now() must track the live per-event
  // clock there, not the stale pre-run barrier.
  ShardedSimulator engine(1);
  std::vector<SimTime> seen;
  engine.shard(0).Post(Milliseconds(10), [&] { seen.push_back(engine.Now()); });
  engine.shard(0).Post(Milliseconds(25), [&] { seen.push_back(engine.Now()); });
  engine.RunUntil(Milliseconds(100));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], Milliseconds(10));
  EXPECT_EQ(seen[1], Milliseconds(25));
  EXPECT_EQ(engine.Now(), Milliseconds(100));  // horizon after the run
}

TEST(ShardedSingleTest, EventsPostedMidRunExecuteAtTheirTime) {
  ShardedSimulator engine(1);
  ShardRef s = engine.shard(0);
  SimTime chained = -1;
  s.Post(Milliseconds(5), [&] {
    s.PostIn(Milliseconds(7), [&] { chained = s.Now(); });
  });
  engine.RunToCompletion();
  EXPECT_EQ(chained, Milliseconds(12));
}

TEST(ShardedSingleTest, SingleShardSpawnsNoPoolAndCountsEvents) {
  ShardedSimulator engine(1);
  int runs = 0;
  for (int i = 0; i < 5; ++i) {
    engine.shard(0).Post(Milliseconds(i), [&] { runs++; });
  }
  EXPECT_EQ(engine.RunToCompletion(), 5u);
  EXPECT_EQ(engine.executed_events(), 5u);
  EXPECT_EQ(runs, 5);
  EXPECT_TRUE(engine.Empty());
}

TEST(ShardedMultiTest, MainThreadPostsLandOnTheAddressedShard) {
  ShardedSimulator engine(2);
  engine.SetEpoch(Milliseconds(1));
  std::vector<ShardId> ran_on;
  // Per-shard recording cells: each worker writes only its own slot.
  ShardId cell0 = kInvalidShard, cell1 = kInvalidShard;
  engine.shard(0).Post(Milliseconds(1), [&] { cell0 = engine.shard(0).id(); });
  engine.shard(1).Post(Milliseconds(1), [&] { cell1 = engine.shard(1).id(); });
  engine.RunToCompletion();
  EXPECT_EQ(cell0, 0u);
  EXPECT_EQ(cell1, 1u);
  (void)ran_on;
}

TEST(ShardedMultiTest, CrossShardPostCrossesAtTheBarrier) {
  ShardedSimulator engine(2);
  const SimDuration epoch = Milliseconds(10);
  engine.SetEpoch(epoch);
  SimTime delivered_at = -1;
  ShardRef s0 = engine.shard(0);
  ShardRef s1 = engine.shard(1);
  // An event on shard 1 addresses shard 0 one full epoch ahead — the
  // legal pattern for cross-shard messages (latency >= epoch).
  s1.Post(Milliseconds(3), [&, s0, s1] {
    s0.Post(s1.Now() + epoch, [&, s0] { delivered_at = s0.Now(); });
  });
  engine.RunToCompletion();
  EXPECT_EQ(delivered_at, Milliseconds(13));
  EXPECT_EQ(engine.stats().cross_shard_events, 1u);
  EXPECT_EQ(engine.stats().late_cross_events, 0u);
  EXPECT_GE(engine.stats().epochs, 1u);
}

TEST(ShardedMultiTest, LateCrossShardPostIsClampedAndCounted) {
  ShardedSimulator engine(2);
  engine.SetEpoch(Milliseconds(10));
  SimTime delivered_at = -1;
  ShardRef s0 = engine.shard(0);
  ShardRef s1 = engine.shard(1);
  // Contract violation on purpose: the target time (t+1ms) is inside the
  // current window, so the event is only seen at the barrier, clamped
  // forward, and flagged.
  s1.Post(Milliseconds(2), [&, s0, s1] {
    s0.Post(s1.Now() + Milliseconds(1), [&, s0] { delivered_at = s0.Now(); });
  });
  engine.RunToCompletion();
  ASSERT_GE(delivered_at, Milliseconds(3));
  EXPECT_EQ(engine.stats().cross_shard_events, 1u);
  EXPECT_EQ(engine.stats().late_cross_events, 1u);
}

TEST(ShardedMultiTest, ZeroEpochFallbackStillDeliversCrossShard) {
  // No declared lookahead: the engine degrades to one timestamp per
  // window, which keeps cross-shard delivery correct (if slow).
  ShardedSimulator engine(2);
  SimTime delivered_at = -1;
  ShardRef s0 = engine.shard(0);
  ShardRef s1 = engine.shard(1);
  s1.Post(Milliseconds(1), [&, s0, s1] {
    s0.Post(s1.Now() + Milliseconds(5), [&, s0] { delivered_at = s0.Now(); });
  });
  engine.RunToCompletion();
  EXPECT_EQ(delivered_at, Milliseconds(6));
  EXPECT_EQ(engine.stats().late_cross_events, 0u);
}

TEST(ShardedMultiTest, PerShardRngStreamsAreSeededAndIndependent) {
  ShardedSimulator a(4, /*seed=*/42);
  ShardedSimulator b(4, /*seed=*/42);
  ShardedSimulator c(4, /*seed=*/43);
  for (ShardId i = 0; i < 4; ++i) {
    auto* sa = static_cast<ShardedSimulator::Shard*>(a.shard(i).get());
    auto* sb = static_cast<ShardedSimulator::Shard*>(b.shard(i).get());
    auto* sc = static_cast<ShardedSimulator::Shard*>(c.shard(i).get());
    // Same engine seed -> identical stream per shard; different engine
    // seed -> different stream.
    EXPECT_EQ(sa->rng().Next(), sb->rng().Next()) << "shard " << i;
    EXPECT_NE(sa->rng().Next(), sc->rng().Next()) << "shard " << i;
  }
  // Distinct shards of one engine draw distinct streams.
  auto* s0 = static_cast<ShardedSimulator::Shard*>(a.shard(0).get());
  auto* s1 = static_cast<ShardedSimulator::Shard*>(a.shard(1).get());
  EXPECT_NE(s0->rng().Next(), s1->rng().Next());
}

// One ping-pong world: events bounce between two shards, each hop one
// epoch ahead, recording (shard, time) on each execution.
std::vector<std::pair<ShardId, SimTime>> RunPingPong(std::size_t shards) {
  ShardedSimulator engine(shards);
  const SimDuration epoch = Milliseconds(5);
  engine.SetEpoch(epoch);
  // trace[i] is written only by shard i's worker; merged after the run.
  std::vector<std::vector<std::pair<ShardId, SimTime>>> trace(shards);
  std::function<void(ShardId, int)> hop = [&](ShardId at, int remaining) {
    ShardRef self = engine.shard(at);
    trace[at].emplace_back(at, self.Now());
    if (remaining == 0) return;
    const ShardId next = static_cast<ShardId>((at + 1) % shards);
    engine.shard(next).Post(self.Now() + epoch,
                            [&hop, next, remaining] { hop(next, remaining - 1); });
  };
  engine.shard(0).Post(Milliseconds(1), [&hop] { hop(0, 12); });
  engine.RunToCompletion();
  std::vector<std::pair<ShardId, SimTime>> merged;
  for (const auto& t : trace) merged.insert(merged.end(), t.begin(), t.end());
  return merged;
}

TEST(ShardedMultiTest, RepeatedRunsAreBitReproducible) {
  const auto first = RunPingPong(3);
  const auto second = RunPingPong(3);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 13u);  // initial hop + 12 bounces
}

TEST(ShardedMultiTest, RunUntilStopsEveryClockAtTheHorizon) {
  ShardedSimulator engine(2);
  engine.SetEpoch(Milliseconds(1));
  int runs = 0;
  engine.shard(1).Post(Milliseconds(2), [&] { runs++; });
  engine.shard(0).Post(Seconds(2), [&] { runs++; });  // beyond horizon
  engine.RunUntil(Seconds(1));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(engine.Now(), Seconds(1));
  EXPECT_EQ(engine.shard(0).Now(), Seconds(1));
  EXPECT_EQ(engine.shard(1).Now(), Seconds(1));
  EXPECT_FALSE(engine.Empty());  // the far event is still queued
  engine.Clear();
  EXPECT_TRUE(engine.Empty());
}

TEST(ShardedMultiTest, PacketSizedCrossShardPostsKeepExchangeOrder) {
  // Closures carrying a whole Packet (the per-hop arrival event) cross
  // shards inline and reach the destination in (source, post) order,
  // whatever order the worker threads ran in.
  auto run_once = [] {
    ShardedSimulator engine(3);
    const SimDuration epoch = Milliseconds(10);
    engine.SetEpoch(epoch);
    std::vector<PacketSerial> arrived;  // written by shard 0 only
    ShardRef s0 = engine.shard(0);
    for (const ShardId src : {2u, 1u}) {
      ShardRef from = engine.shard(src);
      from.Post(Milliseconds(1), [&arrived, s0, from, src, epoch] {
        for (PacketSerial k = 1; k <= 3; ++k) {
          Packet packet;
          packet.serial = src * 100 + k;
          auto arrival = [&arrived, p = packet]() mutable {
            arrived.push_back(p.serial);
          };
          static_assert(Scheduler::Callback::kFitsInline<decltype(arrival)>);
          s0.Post(from.Now() + epoch, std::move(arrival));
        }
      });
    }
    engine.RunToCompletion();
    EXPECT_EQ(engine.stats().cross_shard_events, 6u);
    EXPECT_EQ(engine.stats().late_cross_events, 0u);
    return arrived;
  };
  const std::vector<PacketSerial> expected = {101, 102, 103, 201, 202, 203};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(run_once(), expected);
}

}  // namespace
}  // namespace adtc
