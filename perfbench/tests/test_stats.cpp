// Unit tests of the benchmark's own statistics and span recorder: the
// percentile-with-ten-beyond rule, self-time subtraction with nested
// children, the thread tiling check, and the Chrome trace export read
// back through the program's trace reader.

#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "obs/trace_io.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, CountsSamplesStrictlyBeyondTheRank) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(100, 0.5), 50u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(TailPercentile, PicksTheHighestPercentileWithTenBeyond) {
  const TailPercentile p99 = tail_percentile(ramp(1000));
  EXPECT_DOUBLE_EQ(p99.q, 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_EQ(p99.count, 1000u);

  // One sample short of p99: falls back to p95.
  const TailPercentile p95 = tail_percentile(ramp(999));
  EXPECT_DOUBLE_EQ(p95.q, 0.95);
  EXPECT_DOUBLE_EQ(p95.value, 950.0);

  EXPECT_DOUBLE_EQ(tail_percentile(ramp(10000)).q, 0.999);
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(200)).q, 0.95);
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(20)).q, 0.50);
}

TEST(TailPercentile, TooFewSamplesGiveNoTail) {
  const TailPercentile none = tail_percentile(ramp(19));
  EXPECT_DOUBLE_EQ(none.q, 0.0);
  EXPECT_EQ(none.count, 19u);
  EXPECT_DOUBLE_EQ(tail_percentile({}).q, 0.0);
}

TEST(TailPercentile, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = ramp(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_percentile(v).value, 990.0);
  EXPECT_DOUBLE_EQ(median(v), 500.0);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // parent [0,100) > a [10,30) > grandchild [12,14); parent > b [40,70).
  const std::vector<SpanExtent> spans = {
      {0, 100, -1}, {10, 30, 0}, {12, 14, 1}, {40, 70, 0}};
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100u - 20u - 30u);
  EXPECT_EQ(self[1], 20u - 2u);
  EXPECT_EQ(self[2], 2u);
  EXPECT_EQ(self[3], 30u);
  // Self times of a tree add up to the root's duration.
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100u);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  // Children overlap each other and one runs past the parent's end.
  const std::vector<SpanExtent> spans = {
      {100, 200, -1}, {110, 150, 0}, {140, 160, 0}, {190, 230, 0}};
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100u - 50u - 10u);
}

TEST(Tiling, CoverageOfTopLevelSpans) {
  // Two top-level spans leave a 4-unit gap in a 100-unit life; the
  // nested span adds nothing.
  const std::vector<SpanExtent> tiled = {
      {0, 50, -1}, {10, 20, 0}, {54, 100, -1}};
  EXPECT_DOUBLE_EQ(tiling_coverage(tiled, 0, 100), 0.96);
  EXPECT_TRUE(tiles(tiling_coverage(tiled, 0, 100)));

  const std::vector<SpanExtent> gappy = {{0, 50, -1}, {60, 100, -1}};
  EXPECT_DOUBLE_EQ(tiling_coverage(gappy, 0, 100), 0.9);
  EXPECT_FALSE(tiles(tiling_coverage(gappy, 0, 100)));

  // Spans outside the life window are clipped.
  const std::vector<SpanExtent> spill = {{0, 300, -1}};
  EXPECT_DOUBLE_EQ(tiling_coverage(spill, 100, 200), 1.0);
  EXPECT_DOUBLE_EQ(tiling_coverage({}, 5, 5), 1.0);
}

TEST(SpanRecorder, NestsThroughTheOpenStackAndCountsDrops) {
  SpanRecorder recorder;
  ThreadSpans& t = recorder.add_thread("worker", 3);
  t.mark_begin();
  {
    const SpanScope outer(t, "inference", SpanKind::kBusy, 1, 7);
    t.add("node", SpanKind::kBusy, 10, 20, 1, 7);
    const SpanScope inner(t, "engine.run", SpanKind::kBusy, 1, 7);
    const SpanScope full(t, "dropped", SpanKind::kBusy);
  }
  t.mark_end();
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_GE(t.spans()[0].t1, t.spans()[2].t1);
  EXPECT_EQ(recorder.dropped(), 1u);

  const std::vector<LayerTotals> totals = recorder.layer_totals();
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_EQ(std::string(totals[0].name), "inference");
  EXPECT_EQ(totals[0].count, 1u);
}

TEST(SpanRecorder, ChromeExportReadsBackWithLineageArgs) {
  SpanRecorder recorder;
  ThreadSpans& t = recorder.add_thread("ingress", 8);
  const std::uint64_t now = steady_ns();
  t.add("queue.push", SpanKind::kWait, now, now + 5000, 3, 42);
  t.add("ingress.e2sf", SpanKind::kBusy, now + 6000, now + 9000, 3, 43);
  const std::string path = "perfbench_test_trace.json";
  std::string error;
  ASSERT_TRUE(recorder.write_chrome_trace(path, &error)) << error;

  const std::vector<evedge::obs::ParsedEvent> events =
      evedge::obs::read_chrome_trace(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "queue.push");
  EXPECT_NEAR(events[0].dur_us, 5.0, 1e-6);
  const auto hops = evedge::obs::frame_lineage(events, 3, 42);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_EQ(hops[0].name, "queue.push");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench
