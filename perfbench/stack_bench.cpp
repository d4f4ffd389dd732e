// stack_bench: host cost of the whole simulated DynaStar stack, measured
// from outside through the public core::ScenarioBuilder / core::System API.
//
//   stack_bench --workload kv-1p --seed 7 --seconds 10 --trace 0
//   stack_bench --workload chirper-4p --seed 7 --seconds 10 --trace 1
//               --trace-out spans.json
//
// One process, one simulator thread, closed-loop simulated clients, serial
// apply (exec_lanes = 1) on the deterministic sim backend. A run repeats
// whole episodes — generate the workload, build the system, run a fixed
// simulated plan, drain, check — until --seconds of wall time are used, and
// reports medians over episodes. Every episode of one seed must reach the
// same fingerprint, so the simulated metrics are exact for a seed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced episodes and prints the per-layer metrics: the traced episode
// arms the lifecycle TraceCollector, times the app and driver through
// decorators, counts heap allocations around run_until, slices run_until
// per simulated second, and times snapshot captures and the partitioner
// from outside. The last stdout line is one JSON object. README.md in this
// directory lists the workloads and metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "alloc_count.h"
#include "baselines/registry.h"
#include "common/json.h"
#include "common/metric_names.h"
#include "common/report.h"
#include "core/object.h"
#include "core/scenario.h"
#include "core/server.h"
#include "partitioning/partitioner.h"
#include "workloads/chirper.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"
#include "workloads/social_graph.h"
#include "workloads/tpcc.h"

using namespace dynastar;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr SimTime kNever = -1;
/// KV keys per partition: few enough that every client's location cache
/// is warm before the measured window opens.
constexpr std::uint64_t kKvKeysPerPartition = 256;
constexpr std::uint32_t kChirperUsers = 4000;
/// The Chirper social graph and its random initial placement are a fixed
/// dataset, as the paper's Higgs graph is: the seed drives the requests and
/// network jitter. The graph's heavy tail and the placement would otherwise
/// dominate the spread of every metric across seeds.
constexpr std::uint64_t kChirperDatasetSeed = 1;

/// One workload: its deployment and its fixed simulated plan. The measured
/// window is (window_start, window_end] in whole seconds; the remaining
/// instants, all on the kSliceStep grid, are where the bench acts on the
/// system between run_until slices.
struct Workload {
  std::string_view name;
  std::uint32_t partitions;
  std::uint32_t clients;
  SimTime window_start;
  SimTime window_end;
  SimTime repartition_at = kNever;  // request a plan from every oracle replica
  SimTime crash_at = kNever;        // crash partition 0's leader replica
  SimTime recover_at = kNever;      // ... and bring it back
};

const std::array<Workload, 4> kWorkloads = {{
    {"kv-1p", 1, 12, seconds(2), seconds(8)},
    {"tpcc-4p", 4, 48, seconds(1), seconds(3)},
    {"chirper-4p", 4, 48, seconds(1), seconds(3), milliseconds(1500)},
    {"kv-4p-recovery", 4, 48, seconds(1), seconds(4), kNever, seconds(2),
     milliseconds(2600)},
}};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Probe: what the decorators observe, shared with the episode runner
// ---------------------------------------------------------------------------

struct Probe {
  SimTime window_start = 0;
  SimTime window_end = 0;
  SimTime crash_at = kNever;
  std::uint32_t partitions = 1;
  bool timing = false;   // traced episode: time execute() and next()
  bool stopped = false;  // drain: clients issue nothing more

  std::uint64_t issued = 0;
  std::uint64_t finished = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<SimTime> window_latencies;  // kOk completions in the window
  SimTime first_ok_after_crash = kNever;
  std::uint64_t result_hash = 0xcbf29ce484222325ull;

  std::uint64_t exec_calls = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t next_calls = 0;
  std::uint64_t next_ns = 0;

  /// True when every key of a KV command lives on the crashed partition 0
  /// (kv-4p-recovery places key k on partition k mod P and never re-plans).
  [[nodiscard]] bool on_crashed_partition(const core::CommandSpec& spec) const {
    for (const auto& [object, vertex] : spec.objects)
      if (vertex.value() % partitions != 0) return false;
    return !spec.objects.empty();
  }

  void record(const core::CommandSpec& spec, core::ReplyStatus status,
              SimTime issued_at, SimTime completed_at) {
    ++finished;
    const bool is_ok = status == core::ReplyStatus::kOk;
    if (is_ok)
      ++ok;
    else
      ++failed;
    const SimTime latency = completed_at - issued_at;
    result_hash = core::digest_mix(result_hash, static_cast<std::uint64_t>(latency));
    result_hash = core::digest_mix(result_hash, static_cast<std::uint64_t>(status));
    if (is_ok && completed_at > window_start && completed_at <= window_end)
      window_latencies.push_back(latency);
    if (is_ok && crash_at != kNever && issued_at >= crash_at &&
        first_ok_after_crash == kNever && on_crashed_partition(spec))
      first_ok_after_crash = completed_at;
  }
};

/// Wraps a workload's driver: counts what is issued and how it ends, stops
/// issuing once the measured window is over, and (traced) times next().
class BenchDriver final : public core::ClientDriver {
 public:
  BenchDriver(std::unique_ptr<core::ClientDriver> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override {
    if (probe_->stopped) return std::nullopt;
    std::optional<core::CommandSpec> spec;
    if (probe_->timing) {
      const auto t0 = Clock::now();
      spec = inner_->next(rng, now);
      probe_->next_ns += ns_since(t0);
      ++probe_->next_calls;
    } else {
      spec = inner_->next(rng, now);
    }
    if (spec.has_value() && !spec->objects.empty()) ++probe_->issued;
    return spec;
  }

  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override {
    probe_->record(spec, status, issued_at, completed_at);
    inner_->on_result(spec, status, payload, issued_at, completed_at);
  }

 private:
  std::unique_ptr<core::ClientDriver> inner_;
  Probe* probe_;
};

/// Wraps the application state machine of a traced episode and times
/// execute() on every replica.
class TimedApp final : public core::AppStateMachine {
 public:
  TimedApp(std::unique_ptr<core::AppStateMachine> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  core::ExecResult execute(const core::Command& cmd,
                           core::ObjectStore& store) override {
    const auto t0 = Clock::now();
    core::ExecResult result = inner_->execute(cmd, store);
    probe_->exec_ns += ns_since(t0);
    ++probe_->exec_calls;
    return result;
  }

  core::ObjectPtr make_object(const core::Command& cmd) override {
    return inner_->make_object(cmd);
  }

 private:
  std::unique_ptr<core::AppStateMachine> inner_;
  Probe* probe_;
};

// ---------------------------------------------------------------------------
// Building a workload's system
// ---------------------------------------------------------------------------

struct Built {
  std::unique_ptr<core::System> system;
  double gen_s = 0;    // workload data generation
  double build_s = 0;  // ScenarioBuilder::build() with its preloads
};

Built build_workload(const Workload& w, std::uint64_t seed, Probe* probe,
                     bool traced) {
  namespace chirper = workloads::chirper;
  namespace tpcc = workloads::tpcc;
  Built built;
  const auto t_gen = Clock::now();

  core::ScenarioBuilder builder;
  builder.config(baselines::config_for("dynastar", w.partitions, seed))
      .exec_lanes(1);
  if (w.repartition_at == kNever) {
    builder.repartitioning(false);
  } else {
    // Exactly the plans the bench requests: no hint-count trigger.
    builder.tune([](core::SystemConfig& c) {
      c.repartition_hint_threshold = UINT64_MAX;
    });
  }
  if (w.crash_at != kNever) {
    // The victim stays down far longer than this window, so it must come
    // back through a chunked snapshot install rather than log catch-up.
    // Client timeouts shorter than the leader failover make the commands
    // caught by the crash time out and retry; the attempt budget still
    // outlasts the outage, so every command ends kOk.
    builder.checkpoint_interval(1024).catchup_window(64).tune(
        [](core::SystemConfig& c) {
          c.paxos.transfer_chunk_bytes = 1024;
          c.client_timeout_base = milliseconds(50);
          c.client_timeout_jitter = milliseconds(10);
          c.client_timeout_cap = seconds(1);
        });
  }

  core::AppFactory app;
  core::ScenarioBuilder::DriverFactory driver;
  if (w.name == "kv-1p" || w.name == "kv-4p-recovery") {
    const double multi = w.partitions > 1 ? 0.1 : 0.0;
    const std::uint64_t keys = kKvKeysPerPartition * w.partitions;
    app = workloads::kv_app_factory();
    builder.preload_kv(keys, workloads::KvObject(0));
    driver = [keys, multi](std::size_t) {
      return std::make_unique<workloads::RandomKvDriver>(keys, 0.5, multi);
    };
  } else if (w.name == "tpcc-4p") {
    const tpcc::Scale scale;
    const std::uint32_t warehouses = w.partitions;
    app = tpcc::tpcc_app_factory(scale);
    builder.preload([scale, warehouses, seed](core::System& system) {
      tpcc::setup(system, scale, warehouses,
                  tpcc::Placement::kWarehousePerPartition, seed);
    });
    driver = [scale, warehouses](std::size_t c) {
      const auto i = static_cast<std::uint32_t>(c);
      return std::make_unique<tpcc::TpccDriver>(
          scale, warehouses, i % warehouses + 1, i / warehouses % 10 + 1);
    };
  } else {
    auto graph = std::make_shared<const workloads::SocialGraph>(
        workloads::generate_social_graph(kChirperUsers, 4, kChirperDatasetSeed));
    chirper::Directory directory = chirper::make_directory(*graph);
    auto zipf = std::make_shared<const ZipfGenerator>(kChirperUsers, 0.95);
    chirper::WorkloadMix mix;
    mix.timeline_fraction = 0.85;
    app = chirper::chirper_app_factory();
    builder.preload([graph](core::System& system) {
      chirper::setup(system, *graph, chirper::Placement::kRandom,
                     kChirperDatasetSeed);
    });
    driver = [directory, mix, zipf](std::size_t) {
      return std::make_unique<chirper::ChirperDriver>(directory, mix, zipf);
    };
  }
  built.gen_s = since(t_gen);

  if (traced) {
    builder.app([app, probe] {
      return std::make_unique<TimedApp>(app(), probe);
    });
  } else {
    builder.app(app);
  }
  builder.clients(w.clients, [driver, probe](std::size_t i) {
    return std::make_unique<BenchDriver>(driver(i), probe);
  });
  builder.trace(traced);

  const auto t_build = Clock::now();
  built.system = builder.build();
  built.build_s = since(t_build);
  return built;
}

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

double rss_mb() {
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank quantile of exact samples.
SimTime quantile(std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Cumulative counters, read between run_until slices.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::size_t trace_events = 0;
  std::uint64_t ok = 0;
  std::uint64_t exec_calls = 0;
  std::uint64_t exec_ns = 0;
  perfbench::AllocStats allocs;
};

Counters read_counters(core::System& system, const Probe& probe) {
  Counters c;
  c.events = system.world().sim().executed_events();
  c.messages = system.world().network().messages_sent();
  c.bytes = system.world().network().bytes_sent();
  c.trace_events = system.world().trace().size();
  c.ok = probe.ok;
  c.exec_calls = probe.exec_calls;
  c.exec_ns = probe.exec_ns;
  c.allocs = perfbench::alloc_stats();
  return c;
}

/// Sum of a metric series over the buckets of (from, to] simulated time.
double window_total(core::System& system, const char* name, SimTime from,
                    SimTime to) {
  const TimeSeries* series = system.metrics().find_series(name);
  if (series == nullptr) return 0;
  double total = 0;
  const auto first = static_cast<std::size_t>(from / seconds(1));
  const auto last = static_cast<std::size_t>((to - 1) / seconds(1));
  for (std::size_t b = first; b <= last; ++b) total += series->at(b);
  return total;
}

double series_total(core::System& system, const char* name) {
  const TimeSeries* series = system.metrics().find_series(name);
  return series == nullptr ? 0 : series->total();
}

/// Digest of one replica's object store over the given vertices: every
/// object homed at each vertex, in id order.
std::uint64_t store_digest(const core::ObjectStore& store,
                           const std::vector<core::VertexId>& vertices) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (core::VertexId v : vertices) {
    auto ids = store.objects_of_vertex(v);
    if (ids.empty()) continue;
    std::sort(ids.begin(), ids.end());
    h = core::digest_mix(h, v.value());
    for (ObjectId id : ids) {
      const core::PRObject* object = store.find(id);
      h = core::digest_mix(h, id.value());
      h = core::digest_mix(h, object != nullptr ? object->digest() : 0);
    }
  }
  return h;
}

/// One simulated second of a traced episode.
struct SecondSample {
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t ok = 0;
  double rss_mb = 0;
  std::uint64_t allocs = 0;
  double alloc_kib = 0;
  double snapshot_ms = 0;  // every live replica's capture_snapshot()
};

struct EpisodeResult {
  bool traced = false;
  double gen_s = 0;
  double build_s = 0;
  double window_wall_s = 0;  // inside run_until over the measured window
  /// Normalized wall time of each kSliceStep slice of the window, in order;
  /// identical simulated work in every episode of one seed.
  std::vector<double> window_slices;
  std::uint64_t window_ok = 0;
  std::uint64_t window_events = 0;
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  double tput_cps = 0;
  double lat_p50_ms = 0;
  double lat_p999_ms = 0;
  std::size_t lat_samples = 0;
  std::size_t lat_beyond_p999 = 0;
  double outage_ms = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layers;  // traced episodes only
  std::vector<SecondSample> per_second;  // traced episodes only
  Json::Array spans;                     // traced episodes only
};

/// Episode-relative span record kept in memory and written at exit.
Json span(const char* name, Clock::time_point origin, Clock::time_point start,
          double sim_from_s = -1, double sim_to_s = -1) {
  Json s;
  s["name"] = name;
  s["start_ms"] =
      std::chrono::duration<double, std::milli>(start - origin).count();
  s["dur_ms"] =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  if (sim_from_s >= 0) {
    s["sim_from_s"] = sim_from_s;
    s["sim_to_s"] = sim_to_s;
  }
  return s;
}

// ---------------------------------------------------------------------------
// One episode
// ---------------------------------------------------------------------------

constexpr int kMaxDrainSeconds = 60;
/// The measured window runs in slices this long. Each slice is the same
/// simulated work in every episode, so the run can take each slice's
/// median over episodes and discard the moments another tenant of the
/// machine disturbed one of them.
constexpr SimTime kSliceStep = milliseconds(100);

/// Machine-speed reference. A VM that shares its CPU with other tenants runs
/// 30-50% slower for minutes at a time, longer than a run, so no statistic
/// over one run's own timings is steady. This fixed kernel — ordered-map
/// inserts and erases, i.e. allocation and pointer chasing like the
/// simulator's hot paths — runs after every timed slice and setup, and host
/// times are scaled by kReferenceNominalS over its measured time. It lives
/// in the benchmark, so no change to the simulator moves it.
class SpeedReference {
 public:
  SpeedReference() {
    for (int i = 0; i < kResident; ++i) map_.emplace(next() % kKeySpace, i);
  }

  /// Wall time of one fixed chunk of the kernel (about 2-3 ms).
  double sample_s() {
    const auto t0 = Clock::now();
    for (int i = 0; i < kOpsPerSample; ++i) {
      // One insert and one erase per step keep the map's size constant, so
      // every chunk does the same work however long the run.
      if (!map_.emplace(next() % kKeySpace, i).second) continue;
      auto victim = map_.lower_bound(next() % kKeySpace);
      if (victim == map_.end()) victim = map_.begin();
      map_.erase(victim);
    }
    return since(t0);
  }

 private:
  static constexpr int kResident = 20000;
  static constexpr int kOpsPerSample = 4000;
  static constexpr std::uint64_t kKeySpace = 1 << 20;

  std::uint64_t next() {  // xorshift64
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::uint64_t state_ = 88172645463325252ull;
  std::map<std::uint64_t, std::uint64_t> map_;
};

/// About the reference chunk's time between two slices (it shares the
/// caches with the simulator) on a quiet 4-vCPU Intel Xeon VM: normalized
/// host times read as wall time on a machine where the chunk takes this
/// long there.
constexpr double kReferenceNominalS = 2.5e-3;

EpisodeResult run_episode(const Workload& w, std::uint64_t seed, bool traced,
                          SpeedReference& reference, Clock::time_point origin) {
  EpisodeResult r;
  r.traced = traced;
  Probe probe;
  probe.window_start = w.window_start;
  probe.window_end = w.window_end;
  probe.crash_at = w.crash_at;
  probe.partitions = w.partitions;
  probe.timing = traced;

  const auto t_setup = Clock::now();
  Built built = build_workload(w, seed, &probe, traced);
  r.gen_s = built.gen_s;
  r.build_s = built.build_s;
  if (traced) r.spans.push_back(span("setup", origin, t_setup));
  core::System& system = *built.system;
  const std::uint32_t replicas = system.config().replicas_per_partition;
  const std::size_t oracle_replicas =
      system.topology().group(core::kOracleGroup).replicas.size();
  const ProcessId victim =
      system.topology().group(core::group_of(PartitionId{0})).replicas[0];
  bool victim_down = false;

  std::vector<SimTime> cuts = {w.window_start, w.window_end};
  for (SimTime t : {w.repartition_at, w.crash_at, w.recover_at})
    if (t != kNever) cuts.push_back(t);
  for (SimTime t = w.window_start; t < w.window_end; t += kSliceStep)
    cuts.push_back(t);
  if (traced)
    for (SimTime t = seconds(1); t < w.window_end; t += seconds(1))
      cuts.push_back(t);
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  Counters at_start;
  Counters at_end;
  Counters second_start = read_counters(system, probe);
  SecondSample second;
  double server_snapshot_ms = 0;
  double oracle_snapshot_ms = 0;
  std::uint64_t server_snapshots = 0;
  std::uint64_t oracle_snapshots = 0;
  double compact_ms = 0;
  double plan_ms = 0;
  double edge_cut_frac = 0;
  SimTime prev_cut = 0;

  std::vector<double> raw_slices;
  std::vector<double> reference_samples = {reference.sample_s()};
  for (SimTime cut : cuts) {
    const auto t0 = Clock::now();
    if (traced) perfbench::set_alloc_counting(true);
    system.run_until(cut);
    if (traced) perfbench::set_alloc_counting(false);
    const double wall = since(t0);
    if (cut > w.window_start && cut <= w.window_end) {
      r.window_wall_s += wall;
      raw_slices.push_back(wall);
      reference_samples.push_back(reference.sample_s());
    }
    if (traced) {
      second.wall_ms += wall * 1e3;
      r.spans.push_back(span("run_until", origin, t0, to_seconds(prev_cut),
                             to_seconds(cut)));
    }
    prev_cut = cut;
    if (cut == w.window_start) at_start = read_counters(system, probe);
    if (cut == w.window_end) at_end = read_counters(system, probe);

    if (traced && cut % seconds(1) == 0) {
      const Counters now = read_counters(system, probe);
      second.events = now.events - second_start.events;
      second.ok = now.ok - second_start.ok;
      second.allocs = now.allocs.calls - second_start.allocs.calls;
      second.alloc_kib =
          static_cast<double>(now.allocs.bytes - second_start.allocs.bytes) /
          1024.0;
      // Net of the trace buffer, which only the traced episode carries.
      second.rss_mb =
          rss_mb() - static_cast<double>(system.world().trace().size() *
                                         sizeof(TraceEvent)) /
                         (1024.0 * 1024.0);
      // capture_snapshot() is const: timing it leaves the run unchanged,
      // which the traced-vs-untraced fingerprint check confirms.
      auto time_capture = [&second](auto& core, double* total_ms,
                                    std::uint64_t* count) {
        const auto ts = Clock::now();
        auto snapshot = core.capture_snapshot();
        const double ms = since(ts) * 1e3;
        snapshot.reset();
        *total_ms += ms;
        second.snapshot_ms += ms;
        ++*count;
      };
      const auto t_capture = Clock::now();
      for (std::uint32_t p = 0; p < w.partitions; ++p)
        for (std::uint32_t rep = 0; rep < replicas; ++rep)
          if (!(victim_down && p == 0 && rep == 0))
            time_capture(system.server(PartitionId{p}, rep),
                         &server_snapshot_ms, &server_snapshots);
      for (std::size_t rep = 0; rep < oracle_replicas; ++rep)
        time_capture(system.oracle(rep), &oracle_snapshot_ms,
                     &oracle_snapshots);
      r.spans.push_back(span("snapshot_capture", origin, t_capture));
      r.per_second.push_back(second);
      second = SecondSample{};
      second_start = read_counters(system, probe);
    }

    if (cut == w.repartition_at) {
      if (traced) {
        // The partitioner on the live workload graph, called from outside
        // exactly as the oracle calls it when the plan is computed.
        const auto tc = Clock::now();
        const auto compact = system.oracle(0).graph().compact();
        compact_ms = since(tc) * 1e3;
        r.spans.push_back(span("graph_compact", origin, tc));
        const auto tp = Clock::now();
        const auto result = partitioning::partition_graph(
            compact.graph, w.partitions, system.config().partitioner);
        plan_ms = since(tp) * 1e3;
        r.spans.push_back(span("partition_graph", origin, tp));
        std::int64_t total_weight = 0;
        for (std::int64_t weight : compact.graph.edge_weights)
          total_weight += weight;
        edge_cut_frac = ratio(static_cast<double>(result.edge_cut),
                              static_cast<double>(total_weight) / 2.0);
      }
      for (std::size_t rep = 0; rep < oracle_replicas; ++rep)
        system.oracle(rep).request_repartition();
    }
    if (cut == w.crash_at) {
      system.world().crash(victim);
      victim_down = true;
    }
    if (cut == w.recover_at) {
      system.world().recover(victim);
      victim_down = false;
    }
  }

  // Slice k lies between reference samples k and k+1; it is scaled by the
  // median of the samples around it, which follows the machine's phases
  // without letting one disturbed sample set the scale.
  for (std::size_t k = 0; k < raw_slices.size(); ++k) {
    const std::size_t lo = k >= 2 ? k - 2 : 0;
    const std::size_t hi = std::min(k + 4, reference_samples.size());
    const double speed = median(std::vector<double>(
        reference_samples.begin() + lo, reference_samples.begin() + hi));
    r.window_slices.push_back(raw_slices[k] * kReferenceNominalS / speed);
  }

  // Window figures, read before the drain adds anything.
  double store_objects = 0;
  for (std::uint32_t p = 0; p < w.partitions; ++p)
    store_objects +=
        static_cast<double>(system.server(PartitionId{p}, 0).store().size());
  const double window_s = to_seconds(w.window_end - w.window_start);
  r.window_ok = at_end.ok - at_start.ok;
  r.window_events = at_end.events - at_start.events;
  r.tput_cps = static_cast<double>(r.window_ok) / window_s;
  std::vector<SimTime> latencies = probe.window_latencies;
  std::sort(latencies.begin(), latencies.end());
  r.lat_samples = latencies.size();
  r.lat_p50_ms = to_millis(quantile(latencies, 0.5));
  const SimTime p999 = quantile(latencies, 0.999);
  r.lat_p999_ms = to_millis(p999);
  r.lat_beyond_p999 = static_cast<std::size_t>(
      latencies.end() - std::upper_bound(latencies.begin(), latencies.end(), p999));
  if (probe.first_ok_after_crash != kNever)
    r.outage_ms = to_millis(probe.first_ok_after_crash - w.crash_at);

  // Drain: clients stop issuing, in-flight commands reach a final status,
  // then one more simulated second lets every replica apply the log tail.
  probe.stopped = true;
  SimTime t = w.window_end;
  for (int i = 0; i < kMaxDrainSeconds && probe.finished < probe.issued; ++i) {
    t += seconds(1);
    system.run_until(t);
  }
  system.run_until(t + seconds(1));
  r.issued = probe.issued;
  r.failed = probe.failed;

  // --- output checks ---
  if (probe.finished != probe.issued)
    r.errors.push_back(std::to_string(probe.issued - probe.finished) +
                       " issued commands never reached a final status");
  if (r.window_ok == 0) r.errors.push_back("no command completed in the window");
  std::vector<core::VertexId> vertices;
  for (const auto& [vertex, partition] : system.oracle(0).location_map())
    vertices.push_back(vertex);
  std::sort(vertices.begin(), vertices.end());
  std::uint64_t fp = 0xcbf29ce484222325ull;
  for (std::uint32_t p = 0; p < w.partitions; ++p) {
    const std::uint64_t d0 =
        store_digest(system.server(PartitionId{p}, 0).store(), vertices);
    for (std::uint32_t rep = 1; rep < replicas; ++rep) {
      if (store_digest(system.server(PartitionId{p}, rep).store(), vertices) !=
          d0)
        r.errors.push_back("replicas of partition " + std::to_string(p) +
                           " disagree on their store digest");
    }
    fp = core::digest_mix(fp, d0);
  }
  const double plans = series_total(system, metric::kOraclePlansApplied);
  const double installs =
      system.metrics().counter(metric::kServerSnapshotInstalls);
  if (w.repartition_at != kNever && plans < 1)
    r.errors.push_back("no repartitioning plan was applied");
  if (w.crash_at != kNever && installs < 1)
    r.errors.push_back("the recovered replica did no snapshot install");
  if (w.crash_at != kNever && probe.first_ok_after_crash == kNever)
    r.errors.push_back("the crashed partition never served a command again");

  // Fingerprint: event count plus key series and counters.
  for (double v :
       {static_cast<double>(system.world().sim().executed_events()),
        static_cast<double>(system.world().network().messages_sent()),
        static_cast<double>(system.world().network().bytes_sent()),
        series_total(system, metric::kCompleted),
        series_total(system, metric::kExecuted),
        series_total(system, metric::kMultiPartition),
        series_total(system, metric::kObjectsExchanged),
        series_total(system, metric::kOracleQueries),
        series_total(system, metric::kClientRetries),
        series_total(system, metric::kClientTimeouts),
        system.metrics().counter(metric::kVerticesMovedIn), plans, installs,
        system.metrics().counter(metric::kServerCheckpoints),
        static_cast<double>(probe.issued), static_cast<double>(probe.ok)})
    fp = core::digest_mix(fp, static_cast<std::uint64_t>(v));
  r.fingerprint = core::digest_mix(fp, probe.result_hash);

  if (!traced) return r;

  // --- per-layer metrics (traced episodes) ---
  const double cmds = static_cast<double>(r.window_ok);
  const double window_events = static_cast<double>(r.window_events);
  auto& L = r.layers;
  L["sim.events_per_cmd"] = ratio(window_events, cmds);
  L["sim.msgs_per_cmd"] =
      ratio(static_cast<double>(at_end.messages - at_start.messages), cmds);
  L["sim.kib_per_cmd"] =
      ratio(static_cast<double>(at_end.bytes - at_start.bytes) / 1024.0, cmds);
  const auto first_s = static_cast<std::size_t>(w.window_start / seconds(1));
  const SecondSample& last = r.per_second.back();
  L["sim.allocs_per_cmd"] = ratio(
      static_cast<double>(at_end.allocs.calls - at_start.allocs.calls), cmds);
  L["sim.alloc_kib_per_cmd"] = ratio(
      static_cast<double>(at_end.allocs.bytes - at_start.allocs.bytes) / 1024.0,
      cmds);
  L["sim.rss_mb_growth"] =
      last.rss_mb - r.per_second[first_s > 0 ? first_s - 1 : 0].rss_mb;

  std::uint64_t decisions = 0;
  std::uint64_t deliveries = 0;
  const auto& events = system.world().trace().events();
  for (std::size_t i = at_start.trace_events; i < at_end.trace_events; ++i) {
    if (events[i].point == TracePoint::kPaxosDecided) ++decisions;
    if (events[i].point == TracePoint::kMcastDelivered) ++deliveries;
  }
  L["paxos.decisions_per_cmd"] = ratio(static_cast<double>(decisions), cmds);
  L["multicast.deliveries_per_cmd"] =
      ratio(static_cast<double>(deliveries), cmds);
  L["common.trace_events_per_cmd"] = ratio(
      static_cast<double>(at_end.trace_events - at_start.trace_events), cmds);

  const PhaseBreakdown breakdown = compute_phase_breakdown(system.world().trace());
  for (const PhaseStats& phase : breakdown.phases) {
    const double ms = phase.mean_ns() / 1e6;
    if (phase.name == "order")
      L["multicast.order_ms"] = ms;
    else
      L["core." + phase.name + "_ms"] = ms;
  }

  const SimTime ws = w.window_start;
  const SimTime we = w.window_end;
  L["core.mpart_frac"] = ratio(window_total(system, metric::kMultiPartition, ws, we),
                               window_total(system, metric::kExecuted, ws, we));
  L["core.objects_exchanged_per_cmd"] =
      ratio(window_total(system, metric::kObjectsExchanged, ws, we), cmds);
  L["core.oracle_queries_per_cmd"] =
      ratio(window_total(system, metric::kOracleQueries, ws, we), cmds);
  L["core.retries_per_cmd"] =
      ratio(window_total(system, metric::kClientRetries, ws, we) +
                window_total(system, metric::kClientTimeouts, ws, we),
            cmds);
  L["core.snapshot_ms"] =
      ratio(server_snapshot_ms, static_cast<double>(server_snapshots));
  L["core.oracle_snapshot_ms"] =
      ratio(oracle_snapshot_ms, static_cast<double>(oracle_snapshots));
  L["core.store_objects"] = store_objects;
  L["core.checkpoints"] = system.metrics().counter(metric::kServerCheckpoints);
  L["core.snapshot_installs"] = installs;
  L["core.outage_ms"] = r.outage_ms;

  L["partitioning.compact_ms"] = compact_ms;
  L["partitioning.plan_ms"] = plan_ms;
  L["partitioning.edge_cut_frac"] = edge_cut_frac;
  L["partitioning.vertices_moved"] =
      system.metrics().counter(metric::kVerticesMovedIn);

  const double exec_calls = static_cast<double>(at_end.exec_calls - at_start.exec_calls);
  L["workloads.exec_ns"] = ratio(
      static_cast<double>(at_end.exec_ns - at_start.exec_ns), exec_calls);
  L["workloads.exec_calls_per_cmd"] = ratio(exec_calls, cmds);
  L["workloads.next_ns"] = ratio(static_cast<double>(probe.next_ns),
                                 static_cast<double>(probe.next_calls));
  L["workloads.gen_s"] = r.gen_s;
  L["workloads.build_s"] = r.build_s;
  for (const auto& [name, calls, ns] :
       {std::tuple{"app.execute", probe.exec_calls, probe.exec_ns},
        std::tuple{"driver.next", probe.next_calls, probe.next_ns}}) {
    Json aggregate;
    aggregate["name"] = name;
    aggregate["count"] = calls;
    aggregate["total_ms"] = static_cast<double>(ns) / 1e6;
    r.spans.push_back(aggregate);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: stack_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:");
  for (const Workload& w : kWorkloads)
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  std::fprintf(stderr, "\n");
}

/// Setup-only repetitions before each untraced episode: at least
/// kMinSetupReps, more while the batch is shorter than kSetupBatchSeconds,
/// normalized by the median of speed-reference samples taken after each.
/// setup_s is their median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 50;
constexpr double kSetupBatchSeconds = 0.25;

void repeat_setup(const Workload& w, std::uint64_t seed,
                  SpeedReference& reference, std::vector<double>* samples) {
  std::vector<double> walls;
  std::vector<double> speeds;
  const auto t_batch = Clock::now();
  for (int i = 0; i < kMaxSetupReps &&
                  (i < kMinSetupReps || since(t_batch) < kSetupBatchSeconds);
       ++i) {
    {
      Probe probe;  // declared first: the system's drivers point at it
      const auto t0 = Clock::now();
      Built built = build_workload(w, seed, &probe, false);
      walls.push_back(since(t0));
    }
    speeds.push_back(reference.sample_s());
  }
  const double scale = kReferenceNominalS / median(speeds);
  for (double wall : walls) samples->push_back(wall * scale);
}

constexpr int kMinEpisodes = 2;

void put_metric(Json& metrics, const std::string& name, double value) {
  std::printf("  %-34s %.6f\n", name.c_str(), value);
  metrics[name] = value;
}

/// Normalized wall time of each window slice, the median over the traced
/// (or untraced) episodes, in slice order. A median rather than the fastest
/// episode: normalization errs both ways, and the minimum of a ratio picks
/// its errors (it doubled the spread across seeds on kv-1p).
std::vector<double> median_slices(const std::vector<EpisodeResult>& episodes,
                                  bool traced) {
  std::vector<std::vector<double>> by_slice;
  for (const EpisodeResult& e : episodes) {
    if (e.traced != traced) continue;
    by_slice.resize(e.window_slices.size());
    for (std::size_t k = 0; k < by_slice.size(); ++k)
      by_slice[k].push_back(e.window_slices[k]);
  }
  std::vector<double> medians;
  for (const std::vector<double>& samples : by_slice)
    medians.push_back(median(samples));
  return medians;
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    usage();
    return 2;
  }
  const Workload& w = *workload;
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  SpeedReference reference;
  std::vector<double> setup_samples;
  // Start another episode (or untraced+traced pair) only while the last
  // one would still fit in --seconds, so a run ends close to its budget.
  std::vector<EpisodeResult> episodes;
  double last_round_s = 0;
  while (episodes.size() < kMinEpisodes ||
         since(origin) + last_round_s <= args.seconds) {
    const auto t_round = Clock::now();
    if (!args.trace) repeat_setup(w, args.seed, reference, &setup_samples);
    episodes.push_back(run_episode(w, args.seed, false, reference, origin));
    if (args.trace)
      episodes.push_back(run_episode(w, args.seed, true, reference, origin));
    last_round_s = since(t_round);
  }

  // --- checks across episodes ---
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const EpisodeResult& ref = episodes.front();
  for (const EpisodeResult& e : episodes) {
    attempted += e.issued;
    failed += e.failed;
    errors.insert(errors.end(), e.errors.begin(), e.errors.end());
    if (e.fingerprint != ref.fingerprint)
      errors.push_back(e.traced ? "traced fingerprint differs from untraced"
                                : "same-seed episodes reached different fingerprints");
  }
  const bool correct = errors.empty();
  for (const std::string& error : errors)
    std::printf("CHECK FAILED: %s\n", error.c_str());

  std::printf("episodes=%zu fingerprint=%016llx attempted=%llu failed=%llu "
              "failed_frac=%.6f\n",
              episodes.size(), static_cast<unsigned long long>(ref.fingerprint),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("window: %llu kOk commands, latency samples %zu (%zu beyond p99.9)",
              static_cast<unsigned long long>(ref.window_ok), ref.lat_samples,
              ref.lat_beyond_p999);
  if (w.crash_at != kNever) std::printf(", sim_outage_ms %.6f", ref.outage_ms);
  std::printf("\n");

  Json metrics = Json::Object{};
  if (!args.trace) {
    std::printf("unnormalized whole-window us/cmd by episode:");
    for (const EpisodeResult& e : episodes)
      std::printf(" %.3f", ratio(e.window_wall_s * 1e6,
                                 static_cast<double>(e.window_ok)));
    std::printf("\nsetup: %zu samples\n", setup_samples.size());
    put_metric(metrics, "host_us_per_cmd",
               ratio(sum(median_slices(episodes, false)) * 1e6,
                     static_cast<double>(ref.window_ok)));
    put_metric(metrics, "peak_rss_mb", peak_rss_mb());
    put_metric(metrics, "setup_s", median(setup_samples));
    put_metric(metrics, "sim_tput_cps", ref.tput_cps);
    put_metric(metrics, "sim_lat_p50_ms", ref.lat_p50_ms);
    put_metric(metrics, "sim_lat_p999_ms", ref.lat_p999_ms);
  } else {
    std::map<std::string, std::vector<double>> layers;
    const EpisodeResult* last_traced = nullptr;
    for (const EpisodeResult& e : episodes) {
      if (!e.traced) continue;
      last_traced = &e;
      for (const auto& [name, value] : e.layers) layers[name].push_back(value);
    }
    // Host-time figures come from the untraced episodes' median slices, so
    // tracing overhead and disturbed moments stay out of them.
    const std::vector<double> untraced = median_slices(episodes, false);
    const std::size_t per_second = seconds(1) / kSliceStep;
    double first_ms = 0;
    double last_ms = 0;
    for (std::size_t k = 0; k < per_second && k < untraced.size(); ++k) {
      first_ms += untraced[k] * 1e3;
      last_ms += untraced[untraced.size() - 1 - k] * 1e3;
    }
    layers["sim.wall_ms_first_s"] = {first_ms};
    layers["sim.wall_ms_last_s"] = {last_ms};
    layers["sim.wall_growth"] = {ratio(last_ms, first_ms)};
    layers["sim.ns_per_event"] = {
        ratio(sum(untraced) * 1e9, static_cast<double>(ref.window_events))};
    layers["common.trace_overhead"] = {
        ratio(sum(median_slices(episodes, true)), sum(untraced)) - 1.0};
    for (const auto& [name, values] : layers)
      put_metric(metrics, name, median(values));

    std::printf("per simulated second (last traced episode):\n");
    std::printf("  %4s %10s %10s %9s %9s %10s %12s %12s\n", "t", "wall_ms",
                "events", "kOk", "rss_mb", "allocs", "alloc_kib", "snapshot_ms");
    Json::Array series;
    for (std::size_t s = 0; s < last_traced->per_second.size(); ++s) {
      const SecondSample& x = last_traced->per_second[s];
      std::printf("  %4zu %10.2f %10llu %9llu %9.1f %10llu %12.1f %12.3f\n",
                  s + 1, x.wall_ms, static_cast<unsigned long long>(x.events),
                  static_cast<unsigned long long>(x.ok), x.rss_mb,
                  static_cast<unsigned long long>(x.allocs), x.alloc_kib,
                  x.snapshot_ms);
      Json row;
      row["sim_second"] = static_cast<std::uint64_t>(s + 1);
      row["wall_ms"] = x.wall_ms;
      row["events"] = x.events;
      row["ok"] = x.ok;
      row["rss_mb"] = x.rss_mb;
      row["allocs"] = x.allocs;
      row["alloc_kib"] = x.alloc_kib;
      row["snapshot_ms"] = x.snapshot_ms;
      series.push_back(row);
    }
    if (!args.trace_out.empty()) {
      Json doc;
      doc["workload"] = args.workload;
      doc["seed"] = args.seed;
      doc["per_second"] = series;
      Json::Array spans;
      for (const EpisodeResult& e : episodes)
        spans.insert(spans.end(), e.spans.begin(), e.spans.end());
      doc["spans"] = spans;
      Json aggregates;
      aggregates["layers"] = metrics;
      doc["aggregates"] = aggregates;
      if (!write_report_json(doc, args.trace_out))
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }

  Json result;
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = metrics;
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}
