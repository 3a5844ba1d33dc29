#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace adtc {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Post(Milliseconds(30), [&order] { order.push_back(3); });
  sim.Post(Milliseconds(10), [&order] { order.push_back(1); });
  sim.Post(Milliseconds(20), [&order] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Post(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.Post(Seconds(2), [&] { observed = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(observed, Seconds(2));
  EXPECT_EQ(sim.Now(), Seconds(2));
}

TEST(SimulatorTest, PostInIsRelative) {
  Simulator sim;
  SimTime at_inner = -1;
  sim.Post(Milliseconds(100), [&] {
    sim.PostIn(Milliseconds(50), [&] { at_inner = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(at_inner, Milliseconds(150));
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime ran_at = -1;
  sim.Post(Milliseconds(100), [&] {
    sim.Post(Milliseconds(10), [&] { ran_at = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_EQ(ran_at, Milliseconds(100));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.Post(Milliseconds(10), [&] { ran++; });
  sim.Post(Milliseconds(20), [&] { ran++; });
  sim.Post(Milliseconds(30), [&] { ran++; });
  const std::uint64_t executed = sim.RunUntil(Milliseconds(20));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.Now(), Milliseconds(20));
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulatorTest, PeriodicRunsUntilFalse) {
  Simulator sim;
  int ticks = 0;
  sim.PostEvery(Milliseconds(10), [&ticks] {
    ticks++;
    return ticks < 5;
  });
  sim.RunToCompletion();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.Now(), Milliseconds(50));
}

TEST(SimulatorTest, ClearDropsPendingEvents) {
  Simulator sim;
  int ran = 0;
  sim.Post(Milliseconds(10), [&] { ran++; });
  sim.Clear();
  sim.RunToCompletion();
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(sim.Empty());
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.PostIn(Milliseconds(1), recurse);
  };
  sim.PostIn(Milliseconds(1), recurse);
  sim.RunToCompletion();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.executed_events(), 100u);
}

TEST(SimulatorTest, MoveOnlyCapturesRun) {
  Simulator sim;
  int seen = 0;
  auto owned = std::make_unique<int>(7);
  sim.Post(Milliseconds(1), [&seen, owned = std::move(owned)] {
    seen = *owned;
  });
  sim.RunToCompletion();
  EXPECT_EQ(seen, 7);
}

TEST(SimulatorTest, CaptureLargerThanInlineBufferIsBoxed) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::array<char, 2 * Scheduler::Callback::kInlineBytes> big{};
  big.back() = 'x';
  char seen = 0;
  auto large = [&seen, big, token] { seen = big.back(); };
  static_assert(!Scheduler::Callback::kFitsInline<decltype(large)>);
  sim.Post(Milliseconds(1), std::move(large));
  EXPECT_EQ(token.use_count(), 2);
  sim.RunToCompletion();
  EXPECT_EQ(seen, 'x');
  EXPECT_EQ(token.use_count(), 1);  // the boxed capture died after running
}

TEST(SimulatorTest, SlotReuseUnderInterleavedPostAndPopKeepsOrder) {
  // Events posted from events reuse freed slots; execution must still
  // follow (when, post order) exactly.
  Simulator sim;
  Rng rng(5);
  struct Ran {
    SimTime when;
    int post_index;
  };
  std::vector<Ran> ran;
  std::vector<std::pair<SimTime, int>> posted;
  int next_index = 0;
  std::function<void(int)> post = [&](int budget) {
    const SimTime when =
        sim.Now() + static_cast<SimTime>(rng.NextBelow(5));
    const int index = next_index++;
    posted.emplace_back(when, index);
    sim.Post(when, [&, when, index, budget] {
      ran.push_back({when, index});
      for (int i = 0; i < 2 && budget > 0; ++i) post(budget - 1);
    });
  };
  for (int i = 0; i < 8; ++i) post(6);
  for (SimTime t = 0; !sim.Empty(); t += 3) sim.RunUntil(t);
  ASSERT_EQ(ran.size(), posted.size());
  std::sort(posted.begin(), posted.end());
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].when, posted[i].first) << i;
    EXPECT_EQ(ran[i].post_index, posted[i].second) << i;
  }
}

TEST(SimulatorTest, ClearDestroysPendingCaptures) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  std::array<char, 2 * Scheduler::Callback::kInlineBytes> big{};
  sim.Post(Milliseconds(1), [token] {});
  sim.Post(Milliseconds(2), [token, big] { (void)big; });
  EXPECT_EQ(token.use_count(), 3);
  sim.Clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(sim.Empty());
  // The freed slots take new events.
  int ran = 0;
  sim.Post(Milliseconds(3), [&ran] { ran++; });
  sim.RunToCompletion();
  EXPECT_EQ(ran, 1);
}

TEST(SimulatorTest, HasRunFollowsQueueOrderAtTies) {
  // A seq taken at time t for time T has run, as seen from an event at T,
  // exactly when an event posted in its place would have run first.
  Simulator sim;
  const SimTime t = Milliseconds(5);
  std::uint64_t taken = 0;
  bool seen_by_earlier = true, seen_by_later = false;
  sim.Post(t, [&] { seen_by_earlier = sim.HasRun(t, taken); });
  sim.Post(Milliseconds(1), [&] {
    taken = sim.TakeSeq();
    sim.Post(t, [&] { seen_by_later = sim.HasRun(t, taken); });
  });
  sim.RunUntil(t - 1);
  EXPECT_FALSE(sim.HasRun(t, taken));
  sim.RunUntil(t);
  EXPECT_FALSE(seen_by_earlier);
  EXPECT_TRUE(seen_by_later);
  // Between runs: everything due by Now() and taken before the run
  // returned has run; a seq taken since has not.
  EXPECT_TRUE(sim.HasRun(t, taken));
  EXPECT_FALSE(sim.HasRun(t, sim.TakeSeq()));
  EXPECT_FALSE(sim.HasRun(t + 1, taken));
}

}  // namespace
}  // namespace adtc
