#include "obs/trace_analysis.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/span.h"

namespace adtc::obs {
namespace {

Span MakeSpan(SpanId id, SpanId parent, std::string name, SimTime start,
              SimTime end, bool ok = true,
              std::vector<std::pair<std::string, std::string>> attrs = {}) {
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  span.ok = ok;
  span.attributes = std::move(attrs);
  return span;
}

/// A well-formed single deployment: deploy -> call -> 2 attempts (first
/// lost its request) -> remote install; plus one untagged bystander.
std::vector<Span> WellFormedSpans() {
  const std::pair<std::string, std::string> tag{"deployment", "1:7"};
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, kNoSpan, "tcsp.deploy", 0, 400, true, {tag}));
  spans.push_back(MakeSpan(2, 1, "ctrl.call", 0, 300, true,
                           {tag, {"channel", "tcsp->nms:isp-0"}}));
  spans.push_back(MakeSpan(3, 2, "ctrl.attempt", 0, 100, false,
                           {tag,
                            {"channel", "tcsp->nms:isp-0"},
                            {"request", "lost"}}));
  spans.push_back(MakeSpan(4, 2, "ctrl.attempt", 100, 300, true,
                           {tag,
                            {"channel", "tcsp->nms:isp-0"},
                            {"request", "delivered"}}));
  spans.push_back(MakeSpan(5, 4, "nms.deploy", 150, 250, true, {tag}));
  spans.push_back(MakeSpan(6, kNoSpan, "tcsp.register", 0, 10));  // untagged
  return spans;
}

TEST(TraceAnalyzerTest, ReassemblesSingleRootedTimeline) {
  // The analyzer borrows the spans: they must outlive the reads below.
  const std::vector<Span> spans = WellFormedSpans();
  TraceAnalyzer analyzer;
  analyzer.Analyze(spans);

  ASSERT_EQ(analyzer.timelines().size(), 1u);
  const DeploymentTimeline& timeline = analyzer.timelines().at("1:7");
  EXPECT_TRUE(timeline.Complete());
  ASSERT_EQ(timeline.roots.size(), 1u);
  EXPECT_EQ(timeline.roots[0]->name, "tcsp.deploy");
  EXPECT_EQ(timeline.orphan_count, 0u);
  EXPECT_EQ(timeline.spans.size(), 5u);
  EXPECT_EQ(timeline.call_count, 1u);
  EXPECT_EQ(timeline.attempt_count, 2u);
  EXPECT_EQ(timeline.failed_span_count, 1u);
  EXPECT_EQ(timeline.ConvergenceLatency(), 400);
  EXPECT_DOUBLE_EQ(timeline.RetryAmplification(), 2.0);
  ASSERT_EQ(timeline.lost_by_channel.size(), 1u);
  EXPECT_EQ(timeline.lost_by_channel.at("tcsp->nms:isp-0"), 1u);

  const TraceSummary& summary = analyzer.summary();
  EXPECT_EQ(summary.deployment_count, 1u);
  EXPECT_EQ(summary.complete_count, 1u);
  EXPECT_EQ(summary.untagged_spans, 1u);
  EXPECT_TRUE(analyzer.AllComplete());
}

TEST(TraceAnalyzerTest, DetectsOrphansAndMultipleRoots) {
  const std::pair<std::string, std::string> tag{"deployment", "2:1"};
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, kNoSpan, "tcsp.deploy", 0, 100, true, {tag}));
  // Parent 99 is not part of this deployment's span set: severed.
  spans.push_back(MakeSpan(2, 99, "device.install", 50, 60, true, {tag}));

  TraceAnalyzer analyzer;
  analyzer.Analyze(spans);
  const DeploymentTimeline& timeline = analyzer.timelines().at("2:1");
  EXPECT_FALSE(timeline.Complete());
  EXPECT_EQ(timeline.roots.size(), 2u);
  EXPECT_EQ(timeline.orphan_count, 1u);
  EXPECT_FALSE(analyzer.AllComplete());
  EXPECT_EQ(analyzer.summary().orphan_spans, 1u);
}

TEST(TraceAnalyzerTest, GroupsIndependentDeployments) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, kNoSpan, "tcsp.deploy", 0, 100, true,
                           {{"deployment", "1:1"}}));
  spans.push_back(MakeSpan(2, kNoSpan, "nms.deploy", 0, 300, true,
                           {{"deployment", "3:9"}}));
  TraceAnalyzer analyzer;
  analyzer.Analyze(spans);
  EXPECT_EQ(analyzer.summary().deployment_count, 2u);
  EXPECT_EQ(analyzer.summary().complete_count, 2u);
  // Convergence percentiles come from per-deployment latencies {100,300}.
  EXPECT_EQ(analyzer.summary().convergence_p50, 100);
  EXPECT_EQ(analyzer.summary().convergence_p99, 300);
}

TEST(TraceAnalyzerTest, SendFateLostAttributesChannel) {
  const std::pair<std::string, std::string> tag{"deployment", "4:2"};
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, kNoSpan, "nms.deploy", 0, 50, true, {tag}));
  spans.push_back(MakeSpan(2, 1, "ctrl.send", 10, 10, false,
                           {tag,
                            {"channel", "nms:a->nms:b"},
                            {"fate", "lost"}}));
  spans.push_back(MakeSpan(3, 1, "ctrl.send", 10, 10, true,
                           {tag,
                            {"channel", "nms:a->nms:c"},
                            {"fate", "duplicated"}}));
  TraceAnalyzer analyzer;
  analyzer.Analyze(spans);
  const DeploymentTimeline& timeline = analyzer.timelines().at("4:2");
  EXPECT_EQ(timeline.send_count, 2u);
  // "duplicated" still got through — only the lost send is attributed.
  ASSERT_EQ(timeline.lost_by_channel.size(), 1u);
  EXPECT_EQ(timeline.lost_by_channel.at("nms:a->nms:b"), 1u);
}

TEST(TraceAnalyzerTest, RendersTimelineAndSummary) {
  TraceAnalyzer analyzer;
  const std::vector<Span> spans = WellFormedSpans();
  analyzer.Analyze(spans);
  const std::string rendered =
      analyzer.RenderTimeline(analyzer.timelines().at("1:7"));
  EXPECT_NE(rendered.find("tcsp.deploy"), std::string::npos);
  EXPECT_NE(rendered.find("ctrl.attempt"), std::string::npos);
  EXPECT_NE(rendered.find("request=lost"), std::string::npos);
  const std::string summary = analyzer.RenderSummary();
  EXPECT_NE(summary.find("deployments"), std::string::npos);
}

TEST(TraceAnalyzerTest, ReanalyzeReplacesPreviousState) {
  TraceAnalyzer analyzer;
  analyzer.Analyze(WellFormedSpans());
  analyzer.Analyze({});
  EXPECT_EQ(analyzer.summary().deployment_count, 0u);
  EXPECT_TRUE(analyzer.timelines().empty());
  EXPECT_TRUE(analyzer.AllComplete());  // vacuously
}

TEST(DurationPercentileTest, NearestRankOnUnsortedInput) {
  EXPECT_EQ(DurationPercentile({}, 50.0), 0);
  EXPECT_EQ(DurationPercentile({30, 10, 20}, 50.0), 20);
  EXPECT_EQ(DurationPercentile({30, 10, 20}, 99.0), 30);
  EXPECT_EQ(DurationPercentile({30, 10, 20}, 0.0), 10);
  EXPECT_EQ(DurationPercentile({5}, 95.0), 5);
}

}  // namespace
}  // namespace adtc::obs
