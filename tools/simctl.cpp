// simctl: command-line driver for the DynaStar simulator.
//
// Runs one configuration of {workload, system, partitions, clients,
// duration, placement} and prints either a human summary or CSV time series
// (for plotting the paper's figures from custom sweeps). With --trace/--report
// it also exports the command-lifecycle trace and a RunReport JSON document
// (see docs/OBSERVABILITY.md). Systems are resolved through the baseline
// registry (src/baselines/registry.h), so --system accepts exactly the
// registered names and --help enumerates them.
//
// Examples:
//   simctl --workload=chirper --system=dynastar --partitions=4 --duration=30
//   simctl --workload=tpcc --system=ssmr --partitions=8 --clients=96
//          --placement=optimized --csv=series.csv
//   simctl --workload=kv --system=star --duration=5 --report=report.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/metric_names.h"
#include "common/report.h"
#include "core/scenario.h"
#include "sim/chaos.h"
#include "workloads/chirper.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"
#include "workloads/smallbank.h"
#include "workloads/social_graph.h"
#include "workloads/tpcc.h"

using namespace dynastar;

namespace {

struct Options {
  std::string workload = "chirper";   // kv | tpcc | chirper | smallbank
  std::string system = "dynastar";    // a baseline-registry name
  std::string placement = "random";   // random | optimized
  std::uint32_t partitions = 4;
  std::uint32_t clients = 0;          // 0 = 12 per partition
  std::uint32_t duration = 20;        // simulated seconds
  std::uint64_t seed = 1;
  std::uint32_t users = 4000;         // chirper graph size
  std::uint64_t keys = 1024;          // kv keyspace
  double timeline_fraction = 0.85;    // chirper mix
  std::uint64_t repartition_threshold = 60'000;
  std::string csv;                    // write per-second series here
  std::string trace_file;             // write lifecycle trace CSV here
  std::string report_json;            // write RunReport JSON here
  bool chaos = false;                 // arm the nemesis
  std::uint64_t chaos_seed = 42;
  std::int64_t catchup_window = -1;      // -1 = keep preset default
  std::int64_t checkpoint_interval = -1; // -1 = keep preset default
  std::string surge_spec;                // "N@START+DUR" (empty = no surge)
  std::int64_t queue_cap = -1;           // -1 = keep preset default (off)
  std::int64_t exec_lanes = -1;          // -1 = keep preset default (serial)
  std::int64_t read_leases = -1;         // -1 = keep preset default (off)
  std::string net;                       // "" = keep preset (lan) | wan:<N>dc
  std::uint64_t long_crashes = 0;        // chaos: long-downtime crash events
};

/// Parsed --surge=N@START+DUR: N extra surge-only clients active during
/// [START, START+DUR) simulated seconds.
struct SurgeSpec {
  std::uint32_t clients = 0;
  std::uint32_t start_s = 0;
  std::uint32_t duration_s = 0;
};

bool parse_surge(const std::string& spec, SurgeSpec* out) {
  return std::sscanf(spec.c_str(), "%u@%u+%u", &out->clients, &out->start_s,
                     &out->duration_s) == 3 &&
         out->clients > 0 && out->duration_s > 0;
}

/// One command-line flag: spelling, value placeholder, help line, and the
/// action run on its value. --help is generated from this table, so adding
/// a flag is one entry here and nothing else.
struct Flag {
  const char* name;   // including "--" and trailing "="
  const char* value;  // metavariable shown in --help
  std::string help;   // may embed generated text (e.g. the baseline names)
  std::function<void(const char*)> apply;
};

std::vector<Flag> flag_table(Options* o) {
  return {
      {"--workload=", "NAME", "kv | tpcc | chirper | smallbank",
       [o](const char* v) { o->workload = v; }},
      {"--system=", "NAME", baselines::baseline_names(),
       [o](const char* v) { o->system = v; }},
      {"--placement=", "NAME", "random | optimized initial placement",
       [o](const char* v) { o->placement = v; }},
      {"--partitions=", "N", "number of partitions",
       [o](const char* v) { o->partitions = std::atoi(v); }},
      {"--clients=", "N", "total clients (0 = 12 per partition)",
       [o](const char* v) { o->clients = std::atoi(v); }},
      {"--duration=", "SECONDS", "simulated run length",
       [o](const char* v) { o->duration = std::atoi(v); }},
      {"--seed=", "N", "root RNG seed",
       [o](const char* v) { o->seed = std::atoll(v); }},
      {"--users=", "N", "chirper social-graph size",
       [o](const char* v) { o->users = std::atoi(v); }},
      {"--keys=", "N", "kv keyspace / smallbank accounts",
       [o](const char* v) { o->keys = std::atoll(v); }},
      {"--timeline=", "F", "chirper timeline fraction of the mix",
       [o](const char* v) { o->timeline_fraction = std::atof(v); }},
      {"--threshold=", "N", "dynastar repartition hint threshold",
       [o](const char* v) { o->repartition_threshold = std::atoll(v); }},
      {"--csv=", "FILE", "write per-second series CSV",
       [o](const char* v) { o->csv = v; }},
      {"--trace=", "FILE", "write command-lifecycle trace CSV",
       [o](const char* v) { o->trace_file = v; }},
      {"--report=", "FILE", "write RunReport JSON",
       [o](const char* v) { o->report_json = v; }},
      {"--chaos=", "SEED", "arm the chaos nemesis with this seed",
       [o](const char* v) {
         o->chaos = true;
         o->chaos_seed = std::atoll(v);
       }},
      {"--catchup-window=", "SLOTS",
       "applied-log suffix retained for peer catch-up (0 = unbounded)",
       [o](const char* v) { o->catchup_window = std::atoll(v); }},
      {"--checkpoint-interval=", "SLOTS",
       "decided slots between durable checkpoints (0 = disabled)",
       [o](const char* v) { o->checkpoint_interval = std::atoll(v); }},
      {"--surge=", "N@START+DUR",
       "N surge clients active [START, START+DUR) seconds (e.g. 24@8+4)",
       [o](const char* v) { o->surge_spec = v; }},
      {"--queue-cap=", "N",
       "admission high-water mark for servers + oracle (0 = shedding off)",
       [o](const char* v) { o->queue_cap = std::atoll(v); }},
      {"--exec-lanes=", "N",
       "parallel-executor simulated lanes per replica (1 = serial apply)",
       [o](const char* v) { o->exec_lanes = std::atoll(v); }},
      {"--read-leases=", "0|1",
       "serve read-only multi-partition commands from epoch-validated leases "
       "(dynastar / dssmr only)",
       [o](const char* v) { o->read_leases = std::atoll(v); }},
      {"--net=", "SPEC",
       "network topology: lan (default) | wan:<N>dc (N datacenters with "
       "bandwidth-modeled links)",
       [o](const char* v) { o->net = v; }},
      {"--long-crashes=", "N",
       "with --chaos: N crash events with multi-second downtime, forcing "
       "snapshot installs on recovery",
       [o](const char* v) { o->long_crashes = std::atoll(v); }},
  };
}

void usage(const std::vector<Flag>& flags) {
  std::puts("usage: simctl [flags]\n");
  for (const auto& flag : flags) {
    std::string spelling = std::string(flag.name) + flag.value;
    std::printf("  %-22s %s\n", spelling.c_str(), flag.help.c_str());
  }
  std::puts("  --help                 show this message");
}

bool parse(int argc, char** argv, const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(flags);
      std::exit(0);
    }
    bool matched = false;
    for (const auto& flag : flags) {
      const std::size_t n = std::strlen(flag.name);
      if (arg.compare(0, n, flag.name) == 0) {
        flag.apply(arg.c_str() + n);
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

core::SystemConfig make_config(const Options& options) {
  const baselines::Baseline* baseline = baselines::find_baseline(options.system);
  if (baseline == nullptr) {
    std::fprintf(stderr, "unknown system %s (expected %s)\n",
                 options.system.c_str(), baselines::baseline_names().c_str());
    std::exit(2);
  }
  core::SystemConfig config = baseline->config(options.partitions, options.seed);
  // The hint threshold only matters to the system that re-plans.
  if (config.mode == core::ExecutionMode::kDynaStar)
    config.repartition_hint_threshold = options.repartition_threshold;
  if (options.catchup_window >= 0)
    config.paxos.catchup_window =
        static_cast<paxos::Slot>(options.catchup_window);
  if (options.checkpoint_interval >= 0)
    config.paxos.checkpoint_interval =
        static_cast<paxos::Slot>(options.checkpoint_interval);
  if (options.queue_cap >= 0) {
    config.server_queue_cap = static_cast<std::size_t>(options.queue_cap);
    config.oracle_inflight_cap = static_cast<std::size_t>(options.queue_cap);
  }
  if (options.exec_lanes >= 0)
    config.exec_lanes = static_cast<std::uint32_t>(options.exec_lanes);
  if (options.read_leases >= 0) config.read_leases = options.read_leases != 0;
  return config;
}

std::unique_ptr<core::System> make_system(const Options& options,
                                          std::uint32_t clients,
                                          std::uint32_t surge_clients) {
  core::ScenarioBuilder builder;
  builder.config(make_config(options));
  if (!options.net.empty()) builder.net_preset(options.net);
  if (!options.trace_file.empty() || !options.report_json.empty())
    builder.trace();

  // Each workload contributes an app + preload + a driver factory; the
  // factory is shared by the regular clients and any --surge clients.
  core::ScenarioBuilder::DriverFactory factory;
  if (options.workload == "kv") {
    builder.app(workloads::kv_app_factory())
        .preload([&](core::System& system) {
          core::Assignment assignment;
          workloads::KvObject zero(0);
          Rng rng(options.seed);
          for (std::uint64_t k = 0; k < options.keys; ++k) {
            const PartitionId p{options.placement == "optimized"
                                    ? k % options.partitions
                                    : rng.uniform(0, options.partitions - 1)};
            assignment[core::VertexId{k}] = p;
            system.preload_object(ObjectId{k}, core::VertexId{k}, p, zero);
          }
          system.preload_assignment(assignment);
        });
    factory = [&](std::size_t) {
      return std::make_unique<workloads::RandomKvDriver>(options.keys, 0.5,
                                                         0.2);
    };
  } else if (options.workload == "tpcc") {
    workloads::tpcc::Scale scale;
    builder.app(workloads::tpcc::tpcc_app_factory(scale))
        .preload([&, scale](core::System& system) {
          workloads::tpcc::setup(
              system, scale, options.partitions,
              options.placement == "optimized"
                  ? workloads::tpcc::Placement::kWarehousePerPartition
                  : workloads::tpcc::Placement::kRandom,
              options.seed);
        });
    factory = [&, scale](std::size_t c) {
      return std::make_unique<workloads::tpcc::TpccDriver>(
          scale, options.partitions,
          static_cast<std::uint32_t>(c) % options.partitions + 1,
          static_cast<std::uint32_t>(c) / options.partitions % 10 + 1);
    };
  } else if (options.workload == "chirper") {
    auto graph = std::make_shared<workloads::SocialGraph>(
        workloads::generate_social_graph(options.users, 4, options.seed));
    auto directory = std::make_shared<workloads::chirper::Directory>(
        workloads::chirper::make_directory(*graph));
    auto zipf = std::make_shared<ZipfGenerator>(options.users, 0.95);
    workloads::chirper::WorkloadMix mix;
    mix.timeline_fraction = options.timeline_fraction;
    builder.app(workloads::chirper::chirper_app_factory())
        .preload([&, graph](core::System& system) {
          workloads::chirper::setup(
              system, *graph,
              options.placement == "optimized"
                  ? workloads::chirper::Placement::kOptimized
                  : workloads::chirper::Placement::kRandom,
              options.seed);
        });
    factory = [directory, mix, zipf](std::size_t) {
      return std::make_unique<workloads::chirper::ChirperDriver>(*directory,
                                                                 mix, zipf);
    };
  } else if (options.workload == "smallbank") {
    builder.app(workloads::smallbank::smallbank_app_factory())
        .preload([&](core::System& system) {
          workloads::smallbank::setup(
              system, static_cast<std::uint32_t>(options.keys));
        });
    factory = [&](std::size_t) {
      return std::make_unique<workloads::smallbank::SmallBankDriver>(
          static_cast<std::uint32_t>(options.keys));
    };
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return nullptr;
  }
  builder.clients(clients, factory);
  if (surge_clients > 0) builder.surge_clients(surge_clients, factory);
  return builder.build();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const auto flags = flag_table(&options);
  if (!parse(argc, argv, flags)) {
    usage(flags);
    return 2;
  }
  const std::uint32_t clients =
      options.clients != 0 ? options.clients : options.partitions * 12;

  SurgeSpec surge;
  if (!options.surge_spec.empty() && !parse_surge(options.surge_spec, &surge)) {
    std::fprintf(stderr, "bad --surge spec: %s (want N@START+DUR)\n",
                 options.surge_spec.c_str());
    return 2;
  }

  auto system = make_system(options, clients, surge.clients);
  if (system == nullptr) {
    usage(flags);
    return 2;
  }

  if (surge.clients > 0) {
    sim::World& world = system->world();
    world.sim().schedule_at(seconds(surge.start_s),
                            [&world] { world.begin_surge(); });
    world.sim().schedule_at(seconds(surge.start_s + surge.duration_s),
                            [&world] { world.end_surge(); });
  }

  std::unique_ptr<sim::ChaosInjector> injector;
  if (options.chaos) {
    // Default nemesis over the deployed topology: crash/recover replicas
    // (at most one per group at a time) plus drop bursts and latency
    // spikes across the middle of the run.
    sim::ChaosConfig chaos;
    chaos.seed = options.chaos_seed;
    chaos.start = seconds(1);
    chaos.horizon = options.duration > 3 ? seconds(options.duration - 2)
                                         : seconds(1);
    chaos.crash_groups.push_back(
        system->topology().group(core::kOracleGroup).replicas);
    for (std::uint32_t p = 0; p < options.partitions; ++p) {
      const auto& replicas =
          system->topology().group(core::group_of(PartitionId{p})).replicas;
      chaos.crash_groups.push_back(replicas);
      chaos.link_pool.insert(chaos.link_pool.end(), replicas.begin(),
                             replicas.end());
    }
    chaos.crash_events = 2 + options.partitions;
    chaos.long_crash_events = options.long_crashes;
    chaos.link_cut_events = 2;
    chaos.drop_burst_events = 2;
    chaos.latency_spike_events = 2;
    if (!options.net.empty() && options.net != "lan") {
      // WAN runs get the bandwidth nemeses too: global collapses plus
      // per-link degrade windows over the same replica pool.
      chaos.bandwidth_drop_events = 2;
      chaos.link_degrade_events = 2;
    }
    injector = std::make_unique<sim::ChaosInjector>(system->world(), chaos);
    injector->arm();
  }

  system->run_until(seconds(options.duration));

  auto& metrics = system->metrics();
  const auto& completed = metrics.series(metric::kCompleted);
  const auto& mpart = metrics.series(metric::kMultiPartition);
  const auto& executed = metrics.series(metric::kExecuted);
  const auto& exchanged = metrics.series(metric::kObjectsExchanged);
  const auto* latency = metrics.find_histogram(metric::kLatency);

  std::printf("workload=%s system=%s partitions=%u clients=%u duration=%us seed=%llu\n",
              options.workload.c_str(), options.system.c_str(),
              options.partitions, clients, options.duration,
              static_cast<unsigned long long>(options.seed));
  std::printf("completed commands : %.0f (%.0f/s)\n", completed.total(),
              completed.total() / options.duration);
  const double exec_total = executed.total();
  std::printf("multi-partition    : %.1f%%\n",
              exec_total > 0 ? 100.0 * mpart.total() / exec_total : 0.0);
  std::printf("objects exchanged  : %.0f\n", exchanged.total());
  std::printf("plans applied      : %.0f\n",
              metrics.series(metric::kOraclePlansApplied).total());
  std::printf("client retries     : %.0f\n",
              metrics.series(metric::kClientRetries).total());
  std::printf("client timeouts    : %.0f (retransmits %.0f)\n",
              metrics.series(metric::kClientTimeouts).total(),
              metrics.series(metric::kClientRetransmits).total());
  std::printf("reply cache hits   : server %.0f, oracle %.0f\n",
              metrics.counter(metric::kServerReplyCacheHits),
              metrics.counter(metric::kOracleReplyCacheHits));
  std::printf("shed at admission  : server %.0f, oracle %.0f (budgets exhausted %.0f)\n",
              metrics.counter(metric::kServerShed),
              metrics.counter(metric::kOracleShed),
              metrics.counter(metric::kClientRetriesExhausted));
  if (injector != nullptr) {
    std::printf("chaos events       : %.0f\n",
                metrics.counter(metric::kChaosEvents));
    for (const auto& line : injector->log())
      std::printf("  chaos: %s\n", line.c_str());
  }
  if (latency != nullptr) {
    std::printf("latency avg/p95/p99: %.2f / %.2f / %.2f ms\n",
                to_millis(static_cast<SimTime>(latency->mean())),
                to_millis(latency->percentile(0.95)),
                to_millis(latency->percentile(0.99)));
  }
  const auto& trace = system->world().trace();
  if (trace.enabled()) {
    const auto breakdown = compute_phase_breakdown(trace);
    std::printf("phase means (ms)   :");
    for (const auto& phase : breakdown.phases)
      std::printf(" %s=%.2f", phase.name.c_str(), phase.mean_ns() / 1e6);
    std::printf(" (e2e %.2f over %llu cmds)\n", breakdown.e2e_mean_ns() / 1e6,
                static_cast<unsigned long long>(breakdown.commands));
  }

  if (!options.csv.empty()) {
    FILE* file = std::fopen(options.csv.c_str(), "w");
    if (file == nullptr) {
      std::perror("fopen");
      return 1;
    }
    std::fprintf(file,
                 "t,completed,mpart,objects_exchanged,oracle_queries,retries\n");
    const auto& queries = metrics.series(metric::kOracleQueries);
    const auto& retries = metrics.series(metric::kClientRetries);
    for (std::uint32_t t = 0; t < options.duration; ++t) {
      std::fprintf(file, "%u,%.0f,%.0f,%.0f,%.0f,%.0f\n", t, completed.at(t),
                   mpart.at(t), exchanged.at(t), queries.at(t), retries.at(t));
    }
    std::fclose(file);
    std::printf("per-second series written to %s\n", options.csv.c_str());
  }

  if (!options.trace_file.empty()) {
    FILE* file = std::fopen(options.trace_file.c_str(), "w");
    if (file == nullptr) {
      std::perror("fopen");
      return 1;
    }
    trace.write_csv(file);
    std::fclose(file);
    std::printf("lifecycle trace (%zu events) written to %s\n", trace.size(),
                options.trace_file.c_str());
  }

  if (!options.report_json.empty()) {
    RunInfo info;
    info.workload = options.workload;
    info.mode = options.system;
    info.seed = options.seed;
    info.duration_s = options.duration;
    info.partitions = options.partitions;
    info.clients = clients;
    const Json report = build_run_report(metrics, trace, info);
    if (!write_report_json(report, options.report_json)) {
      std::perror("fopen");
      return 1;
    }
    std::printf("run report written to %s\n", options.report_json.c_str());
  }
  return 0;
}
