// Tests of the benchmark's own measurement rules: the percentile rule, the
// open-loop schedule and lateness, the metric registry against
// BENCHMARK.json, the tracer and the result line.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, RequestedRankWhenTenSamplesLieBeyond) {
  const Percentile p99 = tail_percentile(one_to(1000), 0.99);
  EXPECT_EQ(p99.value, 990.0);  // nearest rank: the 990th of 1000
  EXPECT_DOUBLE_EQ(p99.quantile, 0.99);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(tail_percentile(one_to(100), 0.5).value, 50.0);
}

TEST(Percentile, LowersTheRankUntilTenSamplesLieBeyond) {
  // p99 of 100 samples would rest on one sample; the rule reports p90.
  const Percentile p = tail_percentile(one_to(100), 0.99);
  EXPECT_EQ(p.value, 90.0);
  EXPECT_DOUBLE_EQ(p.quantile, 0.90);
  // Unsorted input, same answer.
  std::vector<double> shuffled = one_to(100);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(tail_percentile(shuffled, 0.99).value, 90.0);
}

TEST(Percentile, TooFewSamplesReportsTheSmallest) {
  const Percentile p = tail_percentile(one_to(5), 0.99);
  EXPECT_EQ(p.value, 1.0);
  EXPECT_EQ(tail_percentile({}, 0.5).samples, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Quartile, NearestRankFromTheGoodEnd) {
  EXPECT_EQ(lower_quartile({8, 1, 7, 2, 6, 3, 5, 4}), 3.0);
  EXPECT_EQ(upper_quartile({8, 1, 7, 2, 6, 3, 5, 4}), 6.0);
  EXPECT_EQ(lower_quartile({5, 1, 3}), 1.0);  // below four samples: the best
  EXPECT_EQ(upper_quartile({5, 1, 3}), 5.0);
  EXPECT_EQ(lower_quartile({}), 0.0);
}

TEST(OpenLoop, PoissonGapsHaveTheRequestedMeanAndRepeatPerSeed) {
  const auto start = Clock::now();
  OpenLoopSchedule a(1000.0, 7, start), b(1000.0, 7, start);
  auto prev = start;
  Clock::time_point last = start;
  for (int i = 0; i < 20000; ++i) {
    last = a.next();
    ASSERT_GE(last, prev);
    ASSERT_EQ(last, b.next());
    prev = last;
  }
  // 20000 arrivals at 1000/s take 20 s give or take a few percent.
  EXPECT_NEAR(seconds_between(start, last), 20.0, 0.6);
}

TEST(OpenLoop, LatenessCountsOnlySendsAfterTheDueTime) {
  const auto due = Clock::now();
  EXPECT_DOUBLE_EQ(lateness_ms(due, due + std::chrono::milliseconds(3)), 3.0);
  EXPECT_EQ(lateness_ms(due, due - std::chrono::milliseconds(3)), 0.0);
}

/// Names listed under `key` in BENCHMARK.json, in order (a scan of the
/// "name" fields between `key` and `next_key`; the file is ours and flat).
std::vector<std::string> json_names(const std::string& key,
                                    const std::string& next_key) {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t begin = text.find('"' + key + '"');
  const std::size_t end = next_key.empty() ? text.size()
                                           : text.find('"' + next_key + '"');
  std::vector<std::string> names;
  const std::string tag = "\"name\": \"";
  for (std::size_t at = text.find(tag, begin); at < end && at != std::string::npos;
       at = text.find(tag, at + 1)) {
    const std::size_t from = at + tag.size();
    names.push_back(text.substr(from, text.find('"', from) - from));
  }
  return names;
}

std::vector<std::string> registry_names(const std::vector<MetricSpec>& specs) {
  std::vector<std::string> names;
  for (const MetricSpec& spec : specs) names.emplace_back(spec.name);
  return names;
}

TEST(Registry, MatchesBenchmarkJson) {
  EXPECT_EQ(registry_names(end_to_end_metrics()),
            json_names("end_to_end", "per_layer"));
  EXPECT_EQ(registry_names(per_layer_metrics()), json_names("per_layer", ""));
}

std::map<std::string, double> fake_counters(const void* source) {
  return {{"launches", *static_cast<const double*>(source)}};
}

TEST(Tracer, RecordsNestingAndCounterDeltas) {
  Tracer tracer(true);
  double launches = 10;
  {
    Tracer::Span outer(tracer, "outer", &launches, fake_counters);
    launches += 5;
    {
      Tracer::Span inner(tracer, "inner", &launches, fake_counters);
      launches += 2;
    }
    tracer.record("phase", 0.25);
  }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  EXPECT_EQ(tracer.spans()[0].deltas.at("launches"), 7.0);
  EXPECT_EQ(tracer.median_delta("inner", "launches"), 2.0);
  EXPECT_DOUBLE_EQ(tracer.median_seconds("phase"), 0.25);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  double launches = 0;
  { Tracer::Span span(tracer, "x", &launches, fake_counters); }
  tracer.record("y", 1.0);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Result, LineHasEveryMetricAndReportsMissingOnes) {
  const std::vector<MetricSpec> specs = {{"a_s", "s"}, {"b", "count"}};
  Result result;
  result.attempted = 3;
  result.set("a_s", 0.125);
  std::string error;
  result.json_line(specs, false, &error);
  EXPECT_NE(error.find("b"), std::string::npos);
  result.set("b", 2);
  const std::string line = result.json_line(specs, false, &error);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": "
            "2, \"unit\": \"count\"}}}");
  result.check(false, "wrong answer");
  EXPECT_NE(result.json_line(specs, false, &error).find("\"correct\": false"),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
