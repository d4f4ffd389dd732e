// Run-wide measurement: time-series counters and latency recording.
//
// The benchmark figures in the paper are either scalars (peak throughput),
// distributions (latency CDFs), or time series (throughput / moved objects /
// %multi-partition per second). MetricsRegistry supports all three without
// the protocols knowing what will be plotted.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"

namespace dynastar {

/// One metric label as (key, value). Labels qualify a base metric name into
/// a per-node/per-partition series without inventing ad-hoc name prefixes.
using MetricLabel = std::pair<std::string, std::string>;

/// Canonical rendering of a labeled metric: name{k1=v1,k2=v2} with keys
/// sorted, so the same label set always maps to the same series.
std::string labeled_metric_name(const std::string& name,
                                std::initializer_list<MetricLabel> labels);

/// A counter sampled into fixed-width time buckets (defaults to one simulated
/// second), yielding a per-second rate series.
class TimeSeries {
 public:
  explicit TimeSeries(SimTime bucket_width = seconds(1))
      : bucket_width_(bucket_width) {}

  void add(SimTime now, double amount = 1.0);

  /// Value accumulated in bucket i (bucket i covers
  /// [i*width, (i+1)*width)). Buckets never touched read as 0.
  [[nodiscard]] double at(std::size_t bucket) const;
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] SimTime bucket_width() const { return bucket_width_; }
  [[nodiscard]] double total() const;

 private:
  SimTime bucket_width_;
  std::vector<double> buckets_;
};

/// Central sink for everything the benches report. One instance per run;
/// protocol cores reach it through sim::Env::metrics() and record into
/// named series/histograms.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(SimTime bucket_width = seconds(1))
      : bucket_width_(bucket_width) {}

  /// Named counter series (created on first use).
  TimeSeries& series(const std::string& name);
  [[nodiscard]] const TimeSeries* find_series(const std::string& name) const;

  /// Labeled series: series("server.executed", {{"partition", "2"}}) is the
  /// series named server.executed{partition=2}.
  TimeSeries& series(const std::string& name,
                     std::initializer_list<MetricLabel> labels) {
    return series(labeled_metric_name(name, labels));
  }
  [[nodiscard]] const TimeSeries* find_series(
      const std::string& name,
      std::initializer_list<MetricLabel> labels) const {
    return find_series(labeled_metric_name(name, labels));
  }

  /// Named latency histogram (created on first use).
  Histogram& histogram(const std::string& name);
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  Histogram& histogram(const std::string& name,
                       std::initializer_list<MetricLabel> labels) {
    return histogram(labeled_metric_name(name, labels));
  }
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name,
      std::initializer_list<MetricLabel> labels) const {
    return find_histogram(labeled_metric_name(name, labels));
  }

  /// Plain scalar counters.
  void add_counter(const std::string& name, double amount = 1.0);
  [[nodiscard]] double counter(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, TimeSeries>& all_series() const {
    return series_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& all_histograms() const {
    return histograms_;
  }
  [[nodiscard]] const std::map<std::string, double>& all_counters() const {
    return counters_;
  }

 private:
  SimTime bucket_width_;
  std::map<std::string, TimeSeries> series_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, double> counters_;
};

}  // namespace dynastar
