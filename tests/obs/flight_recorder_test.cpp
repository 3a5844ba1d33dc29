#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.h"

namespace adtc::obs {
namespace {

VerdictRecord MakeRecord(SimTime at, bool dropped,
                         DatapathDropReason reason) {
  VerdictRecord record;
  record.at = at;
  record.node = 3;
  record.src = 0x0a000001;
  record.dst = 0x0a000002;
  record.src_port = 1234;
  record.dst_port = 80;
  record.protocol = 17;
  record.dropped = dropped;
  record.drop_reason = reason;
  record.redirected = true;
  record.stage2 = dropped;
  return record;
}

TEST(FlightRecorderTest, RecordsUpToCapacityThenOverwritesOldest) {
  FlightRecorder recorder(4);
  for (SimTime t = 0; t < 10; ++t) {
    recorder.Record(MakeRecord(t, false, DatapathDropReason::kNone));
  }
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.total_recorded(), 10u);
  EXPECT_EQ(recorder.dropped_records(), 6u);
  // Snapshot unrolls the ring oldest-first: the last 4 records survive.
  const auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].at, static_cast<SimTime>(6 + i));
  }
}

TEST(FlightRecorderTest, ClearResetsEverything) {
  FlightRecorder recorder(2);
  recorder.Record(MakeRecord(1, true, DatapathDropReason::kBlacklist));
  recorder.Record(MakeRecord(2, false, DatapathDropReason::kNone));
  recorder.Record(MakeRecord(3, false, DatapathDropReason::kNone));
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  EXPECT_EQ(recorder.dropped_records(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorderTest, WriteJsonlEmitsValidTaxonomyTaggedLines) {
  FlightRecorder recorder(8);
  recorder.Record(MakeRecord(100, true, DatapathDropReason::kRateLimit));
  recorder.Record(MakeRecord(200, false, DatapathDropReason::kNone));
  std::ostringstream out;
  recorder.WriteJsonl(out);

  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const auto doc = JsonParse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->GetString("type"), "verdict");
    EXPECT_EQ(doc->GetNumber("node"), 3.0);
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(out.str().find("\"reason\":\"rate-limit\""), std::string::npos);
  EXPECT_NE(out.str().find("\"dropped\":true"), std::string::npos);
}

}  // namespace
}  // namespace adtc::obs
