// Allocation budget: heap allocations per completed command on two
// fixed-seed runs (Chirper on 4 partitions, KV on 1 partition), checked
// against a budget. The counting global operator new and delete below are
// defined in this executable only, so no other binary's allocator is
// replaced.
//
// Allocation counts are deterministic for a given compiler and standard
// library: the same seed runs the same code. A budget sits a little above
// the count measured when it was set; a change that needs more allocations
// per command raises it deliberately.
//
// Teardown check: each run is built, run and destroyed twice, and the
// second episode must free every allocation it made. (The first may leave
// one-time statics behind.) Growth of a process's RSS across episodes is
// then the allocator keeping freed memory, not a leak.
//
// Growth check: live heap bytes (malloc_usable_size of every block still
// allocated) are read at the start of a run's measured window and again a
// few simulated seconds later. Where a run has a growth budget, the growth
// must stay under it. Replica bookkeeping should be bounded by in-flight
// work, so a table that gains an entry per command shows up here as a
// deterministic byte count, not as noisy RSS. On kv-1p most of the growth
// up to 6 s is the Paxos log filling its bounded catchup window.
//
//   ./build/tests/alloc_budget        # prints measured vs budget per run
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <memory>
#include <new>
#include <optional>

#include "baselines/registry.h"
#include "common/rng.h"
#include "core/scenario.h"
#include "workloads/chirper.h"
#include "workloads/kv.h"
#include "workloads/kv_drivers.h"
#include "workloads/social_graph.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
/// Allocations made and not yet freed, counted always.
std::atomic<std::int64_t> g_live{0};
/// Their usable bytes, counted always.
std::atomic<std::int64_t> g_live_bytes{0};

std::int64_t usable_bytes(void* p) noexcept {
  return static_cast<std::int64_t>(malloc_usable_size(p));
}

void* counted_malloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_live.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_add(usable_bytes(p), std::memory_order_relaxed);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr) {
    g_live.fetch_sub(1, std::memory_order_relaxed);
    g_live_bytes.fetch_sub(usable_bytes(p), std::memory_order_relaxed);
  }
  std::free(p);
}

void* counted_new(std::size_t size) {
  void* p = counted_malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace {

using namespace dynastar;

/// Forwards to a workload driver and counts kOk completions.
class CountingDriver final : public core::ClientDriver {
 public:
  CountingDriver(std::unique_ptr<core::ClientDriver> inner,
                 std::uint64_t* completed)
      : inner_(std::move(inner)), completed_(completed) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override {
    return inner_->next(rng, now);
  }
  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override {
    if (status == core::ReplyStatus::kOk) ++*completed_;
    inner_->on_result(spec, status, payload, issued_at, completed_at);
  }

 private:
  std::unique_ptr<core::ClientDriver> inner_;
  std::uint64_t* completed_;
};

struct Measured {
  double allocs_per_cmd;
  double growth_mib;  // live heap gained over (start, grow_end]
};

/// Runs the built system to `start` uncounted, then counts allocations and
/// completed commands over (start, end], and live heap bytes gained over
/// (start, grow_end], grow_end >= end.
Measured measure(core::ScenarioBuilder& builder,
                 const core::ScenarioBuilder::DriverFactory& driver,
                 std::size_t clients, SimTime start, SimTime end,
                 SimTime grow_end) {
  std::uint64_t completed = 0;
  builder.clients(clients, [&driver, &completed](std::size_t i) {
    return std::make_unique<CountingDriver>(driver(i), &completed);
  });
  auto system = builder.build();
  system->run_until(start);
  const std::uint64_t completed_before = completed;
  const std::int64_t live_bytes_before = g_live_bytes.load();
  g_allocs.store(0);
  g_counting.store(true);
  system->run_until(end);
  g_counting.store(false);
  const std::uint64_t commands = completed - completed_before;
  system->run_until(grow_end);
  const std::int64_t growth = g_live_bytes.load() - live_bytes_before;
  return {commands == 0 ? 1e9
                        : static_cast<double>(g_allocs.load()) /
                              static_cast<double>(commands),
          static_cast<double>(growth) / (1024.0 * 1024.0)};
}

Measured chirper_4p() {
  namespace chirper = workloads::chirper;
  constexpr std::uint32_t kUsers = 2000;
  constexpr std::uint64_t kSeed = 1;
  auto graph = std::make_shared<const workloads::SocialGraph>(
      workloads::generate_social_graph(kUsers, 4, kSeed));
  chirper::Directory directory = chirper::make_directory(*graph);
  auto zipf = std::make_shared<const ZipfGenerator>(kUsers, 0.95);
  chirper::WorkloadMix mix;
  mix.timeline_fraction = 0.85;

  core::ScenarioBuilder builder;
  builder.config(baselines::config_for("dynastar", 4, kSeed))
      .repartitioning(false)
      .app(chirper::chirper_app_factory())
      .preload([graph](core::System& system) {
        chirper::setup(system, *graph, chirper::Placement::kRandom, kSeed);
      });
  return measure(
      builder,
      [directory, mix, zipf](std::size_t) {
        return std::make_unique<chirper::ChirperDriver>(directory, mix, zipf);
      },
      24, seconds(1), seconds(2), seconds(2));
}

constexpr std::uint64_t kKvKeys = 256;

Measured kv_1p() {
  core::ScenarioBuilder builder;
  builder.config(baselines::config_for("dynastar", 1, 1))
      .repartitioning(false)
      .app(workloads::kv_app_factory())
      .preload_kv(kKvKeys, workloads::KvObject(0));
  return measure(
      builder,
      [](std::size_t) {
        return std::make_unique<workloads::RandomKvDriver>(kKvKeys, 0.5, 0.0);
      },
      12, seconds(1), seconds(2), seconds(6));
}

}  // namespace

int main() {
  struct Run {
    const char* name;
    Measured (*measure)();
    double budget;  // allocations per command; a measured value above fails
    // Live heap MiB gained over the growth window; above fails. 0: ungated.
    // Set at 1.10 x the measured growth, and never closer to it than 1 MiB
    // (the floor for allocator differences between toolchains).
    double growth_budget;
  };
  const Run runs[] = {
      {"chirper-4p", chirper_4p, 37.4, 0},
      {"kv-1p", kv_1p, 14.2, 32.5},
  };
  int failures = 0;
  for (const Run& run : runs) {
    const Measured measured = run.measure();
    const std::int64_t live_before = g_live.load();
    run.measure();
    const std::int64_t leaked = g_live.load() - live_before;
    const bool gated = run.growth_budget > 0;
    const bool ok = measured.allocs_per_cmd <= run.budget && leaked == 0 &&
                    (!gated || measured.growth_mib <= run.growth_budget);
    std::printf("%-11s %8.2f allocs/cmd  budget %8.2f  leaked %lld", run.name,
                measured.allocs_per_cmd, run.budget,
                static_cast<long long>(leaked));
    if (gated) {
      std::printf("  growth %7.2f MiB  budget %7.2f", measured.growth_mib,
                  run.growth_budget);
    }
    std::printf("  %s\n", ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  return failures == 0 ? 0 : 1;
}
