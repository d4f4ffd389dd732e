// Unit coverage for the observability data plumbing: TimeSeries and
// Histogram edge cases, the minimal Json value type's exact output, and
// RunReport document structure.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/json.h"
#include "common/metric_names.h"
#include "common/report.h"

namespace dynastar {
namespace {

// --- TimeSeries -----------------------------------------------------------

TEST(TimeSeriesEdge, EmptySeriesReadsZero) {
  TimeSeries series;
  EXPECT_EQ(series.num_buckets(), 0u);
  EXPECT_EQ(series.at(0), 0.0);
  EXPECT_EQ(series.at(1000), 0.0);
  EXPECT_EQ(series.total(), 0.0);
}

TEST(TimeSeriesEdge, NegativeTimeClampsToFirstBucket) {
  TimeSeries series;
  series.add(-5, 2.0);
  EXPECT_EQ(series.at(0), 2.0);
  EXPECT_EQ(series.total(), 2.0);
}

TEST(TimeSeriesEdge, BucketBoundariesAreHalfOpen) {
  TimeSeries series(seconds(1));
  series.add(seconds(1) - 1, 1.0);  // last tick of bucket 0
  series.add(seconds(1), 1.0);      // first tick of bucket 1
  EXPECT_EQ(series.at(0), 1.0);
  EXPECT_EQ(series.at(1), 1.0);
  EXPECT_EQ(series.num_buckets(), 2u);
}

TEST(TimeSeriesEdge, SparseAddsZeroFillGaps) {
  TimeSeries series;
  series.add(seconds(5), 7.0);
  EXPECT_EQ(series.num_buckets(), 6u);
  for (std::size_t b = 0; b < 5; ++b) EXPECT_EQ(series.at(b), 0.0);
  EXPECT_EQ(series.at(5), 7.0);
}

// --- Histogram ------------------------------------------------------------

TEST(HistogramEdge, EmptyHistogramIsAllZero) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0);
  EXPECT_EQ(hist.max(), 0);
  EXPECT_EQ(hist.mean(), 0.0);
  EXPECT_EQ(hist.percentile(0.5), 0);
  EXPECT_TRUE(hist.cdf().empty());
}

TEST(HistogramEdge, NegativeSamplesClampToZero) {
  Histogram hist;
  hist.record(-100);
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.min(), 0);
  EXPECT_EQ(hist.max(), 0);
  EXPECT_EQ(hist.percentile(1.0), 0);
}

TEST(HistogramEdge, SingleSampleQuantilesCollapse) {
  Histogram hist;
  hist.record(milliseconds(10));
  EXPECT_EQ(hist.count(), 1u);
  // Log-bucketing: ~3% relative resolution around the sample.
  EXPECT_NEAR(static_cast<double>(hist.percentile(0.0)),
              static_cast<double>(milliseconds(10)), 0.03 * milliseconds(10));
  EXPECT_EQ(hist.percentile(0.5), hist.percentile(0.99));
  EXPECT_EQ(hist.mean(), static_cast<double>(milliseconds(10)));
}

TEST(HistogramEdge, ClearResetsEverything) {
  Histogram hist;
  hist.record(123456);
  hist.clear();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.max(), 0);
  EXPECT_EQ(hist.percentile(0.9), 0);
}

// --- Json -----------------------------------------------------------------

TEST(JsonValue, DumpIsDeterministicAndSorted) {
  Json obj;
  obj["zeta"] = Json(1.0);
  obj["alpha"] = Json(true);
  obj["mid"] = Json("s");
  EXPECT_EQ(obj.dump(), R"({"alpha":true,"mid":"s","zeta":1})");
}

TEST(JsonValue, IntegersPrintWithoutFraction) {
  EXPECT_EQ(Json(std::uint64_t{42}).dump(), "42");
  EXPECT_EQ(Json(-17).dump(), "-17");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
}

TEST(JsonValue, StringEscapesRoundTrip) {
  // Quote, backslash, the named control escapes, and \u00XX for the rest.
  const Json doc{Json::Array{Json("a\"b\\c\n\r\t\x01 d")}};
  EXPECT_EQ(doc.dump(), R"(["a\"b\\c\n\r\t\u0001 d"])");
}

TEST(JsonValue, PrettyPrintRoundTrips) {
  Json doc;
  doc["list"] = Json(Json::Array{Json(1), Json(Json::Object{})});
  doc["flag"] = Json(true);
  EXPECT_EQ(doc.dump(), R"({"flag":true,"list":[1,{}]})");
  EXPECT_EQ(doc.dump(2), R"({
  "flag": true,
  "list": [
    1,
    {}
  ]
})");
}

// --- RunReport ------------------------------------------------------------

Json sample_report() {
  MetricsRegistry metrics;
  metrics.series(metric::kCompleted).add(0, 2.0);
  metrics.series(metric::kServerExecuted, {{"partition", "0"}, {"replica", "0"}})
      .add(0, 2.0);
  metrics.histogram(metric::kLatency).record(milliseconds(3));
  metrics.add_counter(metric::kServerReplyCacheHits, 1.0);

  TraceCollector trace;
  trace.enable();
  // One command: issue at 0ms, route 1ms, deliver 2ms, execute 2ms,
  // reply 3ms, complete 4ms; plus one repartition and one chaos event.
  trace.record(TracePoint::kClientIssue, milliseconds(0), 1, 1, 9);
  trace.record(TracePoint::kClientRoute, milliseconds(1), 1, 1, 9);
  trace.record(TracePoint::kServerDeliver, milliseconds(2), 1, 1, 3);
  trace.record(TracePoint::kExecuteStart, milliseconds(2), 1, 1, 3);
  trace.record(TracePoint::kReplySent, milliseconds(3), 1, 1, 3);
  trace.record(TracePoint::kClientComplete, milliseconds(4), 1, 1, 9);
  trace.record(TracePoint::kPlanApplied, milliseconds(5), 1, 0, 0, UINT64_MAX);
  trace.record(TracePoint::kChaosEvent, milliseconds(6), 0, 0, 0);

  RunInfo info;
  info.workload = "kv";
  info.mode = "dynastar";
  info.seed = 7;
  info.duration_s = 1;
  info.partitions = 2;
  info.clients = 3;
  return build_run_report(metrics, trace, info);
}

TEST(RunReport, HasAllTopLevelSections) {
  const Json report = sample_report();
  for (const char* key : {"meta", "phases", "e2e", "series", "histograms",
                          "counters", "repartitions", "chaos"})
    EXPECT_NE(report.find(key), nullptr) << "missing section " << key;
  EXPECT_EQ(report.find("meta")->find("workload")->as_string(), "kv");
  EXPECT_EQ(report.find("meta")->find("trace_enabled")->as_bool(), true);
}

TEST(RunReport, PhaseMeansTelescopeToEndToEnd) {
  const Json report = sample_report();
  const Json* e2e = report.find("e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->find("source")->as_string(), "trace");
  EXPECT_EQ(e2e->find("commands")->as_number(), 1.0);
  EXPECT_EQ(e2e->find("mean_ms")->as_number(), 4.0);

  double sum = 0;
  for (const Json& phase : report.find("phases")->as_array())
    sum += phase.find("mean_ms")->as_number();
  EXPECT_NEAR(sum, 4.0, 1e-9);
}

TEST(RunReport, TimelinesComeFromTrace) {
  const Json report = sample_report();
  const auto& repartitions = report.find("repartitions")->as_array();
  ASSERT_EQ(repartitions.size(), 1u);
  EXPECT_EQ(repartitions[0].find("epoch")->as_number(), 1.0);
  EXPECT_EQ(repartitions[0].find("partition")->as_string(), "oracle");
  EXPECT_EQ(report.find("chaos")->as_array().size(), 1u);
}

TEST(RunReport, JsonRoundTripsThroughParser) {
  const Json report = sample_report();
  // Pretty-printing only adds whitespace outside strings.
  const std::string pretty = report.dump(2);
  std::string compacted;
  bool in_string = false;
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    const char c = pretty[i];
    if (in_string && c == '\\') {
      compacted += c;
      compacted += pretty[++i];
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string || (c != ' ' && c != '\n')) compacted += c;
  }
  EXPECT_EQ(compacted, report.dump());
  // Labeled series names are emitted verbatim as keys.
  EXPECT_NE(report.find("series")->find(
                "server.executed{partition=0,replica=0}"),
            nullptr);
  EXPECT_NE(pretty.find(R"("server.executed{partition=0,replica=0}": )"),
            std::string::npos);
}

TEST(RunReport, WithoutTraceFallsBackToLatencyHistogram) {
  MetricsRegistry metrics;
  metrics.histogram(metric::kLatency).record(milliseconds(2));
  TraceCollector trace;  // disabled, empty
  const Json report = build_run_report(metrics, trace, RunInfo{});
  EXPECT_EQ(report.find("e2e")->find("source")->as_string(), "histogram");
  EXPECT_EQ(report.find("e2e")->find("commands")->as_number(), 1.0);
  EXPECT_TRUE(report.find("repartitions")->as_array().empty());
}

TEST(RunReport, CsvRenderingContainsPhaseAndSeriesRows) {
  const Json report = sample_report();
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  write_report_csv(report, tmp);
  std::fseek(tmp, 0, SEEK_SET);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);
  EXPECT_NE(text.find("section,key,index,value"), std::string::npos);
  EXPECT_NE(text.find("phase,order,mean_ms"), std::string::npos);
  EXPECT_NE(text.find("e2e,latency,mean_ms,4.000000"), std::string::npos);
  EXPECT_NE(text.find("series,completed,0,2.000000"), std::string::npos);
}

}  // namespace
}  // namespace dynastar
