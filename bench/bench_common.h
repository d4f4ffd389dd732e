// Shared helpers for the figure/table reproduction binaries.
//
// Conventions:
//  * Every binary prints the series/rows of one paper artifact, then a short
//    reading guide relating the output to the paper's claim.
//  * Default scales finish in tens of seconds on one core; set
//    DYNASTAR_BENCH_FULL=1 for paper-sized sweeps.
//  * A CI-gated bench writes one document (write_bench_json):
//      {"schema": "dynastar-bench-v1", "bench": NAME, "config": {...},
//       "metrics": {"flat.dotted.name": number, ...}, "detail": {...}}
//    Its bounds live in bench/baselines/BENCH_<NAME>.baseline.json under
//    "gates"; scripts/check_report.py --baseline compares the two.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metric_names.h"
#include "common/metrics.h"
#include "core/client.h"
#include "core/system.h"

namespace dynastar::bench {

inline bool full_mode() {
  const char* env = std::getenv("DYNASTAR_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : std::strtoull(env, nullptr, 10);
}

/// Sum of a series over simulated-seconds [from, to).
inline double window_total(const TimeSeries& series, std::size_t from,
                           std::size_t to) {
  double total = 0;
  for (std::size_t b = from; b < to && b < series.num_buckets(); ++b)
    total += series.at(b);
  return total;
}

/// Average per-second rate over [from, to).
inline double window_rate(const TimeSeries& series, std::size_t from,
                          std::size_t to) {
  if (to <= from) return 0;
  return window_total(series, from, to) / static_cast<double>(to - from);
}

/// Peak 1-second bucket in [from, to).
inline double window_peak(const TimeSeries& series, std::size_t from,
                          std::size_t to) {
  double peak = 0;
  for (std::size_t b = from; b < to && b < series.num_buckets(); ++b)
    peak = std::max(peak, series.at(b));
  return peak;
}

/// Prints one time series as "t value" rows (bucket = 1 simulated second).
inline void print_series(const char* label, const TimeSeries& series,
                         std::size_t seconds) {
  std::printf("# %s (per simulated second)\n", label);
  for (std::size_t b = 0; b < seconds; ++b)
    std::printf("%3zu  %.0f\n", b, series.at(b));
}

struct Measured {
  double throughput = 0;     // avg cmds / sim-second over the window
  double peak = 0;           // best 1s bucket
  double latency_avg_ms = 0;
  double latency_p95_ms = 0;
  double mpart_fraction = 0;
};

/// Steady-state measurement over [warmup, warmup+measure) sim-seconds.
inline Measured measure(core::System& system, std::size_t warmup_s,
                        std::size_t measure_s) {
  system.run_until(seconds(static_cast<std::int64_t>(warmup_s + measure_s)));
  Measured m;
  const auto& completed = system.metrics().series(metric::kCompleted);
  m.throughput = window_rate(completed, warmup_s, warmup_s + measure_s);
  m.peak = window_peak(completed, warmup_s, warmup_s + measure_s);
  if (const auto* latency = system.metrics().find_histogram(metric::kLatency)) {
    m.latency_avg_ms = to_millis(static_cast<SimTime>(latency->mean()));
    m.latency_p95_ms = to_millis(latency->percentile(0.95));
  }
  const auto& executed = system.metrics().series(metric::kExecuted);
  const auto& mpart = system.metrics().series(metric::kMultiPartition);
  const double exec_total = window_total(executed, warmup_s, warmup_s + measure_s);
  if (exec_total > 0)
    m.mpart_fraction =
        window_total(mpart, warmup_s, warmup_s + measure_s) / exec_total;
  return m;
}

/// Records every successful completion instant; `completed` alone would
/// also count kTimeout / kOverloaded completions, which are not goodput.
class GoodputDriver final : public core::ClientDriver {
 public:
  GoodputDriver(std::unique_ptr<core::ClientDriver> inner,
                std::vector<SimTime>* oks)
      : inner_(std::move(inner)), oks_(oks) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override {
    return inner_->next(rng, now);
  }

  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override {
    if (status == core::ReplyStatus::kOk) oks_->push_back(completed_at);
    inner_->on_result(spec, status, payload, issued_at, completed_at);
  }

 private:
  std::unique_ptr<core::ClientDriver> inner_;
  std::vector<SimTime>* oks_;
};

/// kOk completions inside the simulated-second window [from_s, to_s).
struct Window {
  std::int64_t from_s = 0;
  std::int64_t to_s = 0;
  std::uint64_t ok_commands = 0;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(to_s - from_s);
  }
  [[nodiscard]] double goodput() const {
    return static_cast<double>(ok_commands) / seconds();
  }
};

inline Window count_window(const std::vector<SimTime>& oks,
                           std::int64_t from_s, std::int64_t to_s) {
  Window w;
  w.from_s = from_s;
  w.to_s = to_s;
  const SimTime from = seconds(from_s), to = seconds(to_s);
  for (SimTime t : oks)
    if (t >= from && t < to) ++w.ok_commands;
  return w;
}

/// Adds `<name>.seconds`, `<name>.ok_commands` and `<name>.goodput_per_sec`.
inline void add_window_metrics(Json::Object& metrics, const std::string& name,
                               const Window& w) {
  metrics[name + ".seconds"] = w.seconds();
  metrics[name + ".ok_commands"] = w.ok_commands;
  metrics[name + ".goodput_per_sec"] = w.goodput();
}

/// Writes a gated bench document (shape above) to `path`. Returns the
/// process exit code: 0, or 1 with a message on stderr when the file cannot
/// be opened, written or closed — a full disk must not pass for a result.
inline int write_bench_json(const std::string& path, const char* bench,
                            Json config, Json::Object metrics,
                            Json detail = nullptr) {
  Json doc = Json::Object{};
  doc["schema"] = "dynastar-bench-v1";
  doc["bench"] = bench;
  doc["config"] = std::move(config);
  doc["metrics"] = std::move(metrics);
  if (!detail.is_null()) doc["detail"] = std::move(detail);
  const std::string text = doc.dump(2) + "\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  // fclose flushes the buffer, so it is where a full disk usually shows.
  const bool closed = std::fclose(f) == 0;
  if (!written || !closed) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace dynastar::bench
