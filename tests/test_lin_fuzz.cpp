// Seeded linearizability fuzzing: each seed deterministically derives a
// whole scenario — workload mix, execution mode, parallel-executor lanes,
// read leases, chaos nemesis, repartition churn — and the harness checks
// that every command completes and the observed history stays linearizable.
//
// The derivation is a pure function of the seed, so a failing seed is a
// one-line repro: LinFuzz/LinFuzz.SeededScenarioIsLinearizable/<seed>.
#include <gtest/gtest.h>

#include <string>

#include "tests/lin_harness.h"

namespace dynastar {
namespace {

using testutil::LinScenario;

/// splitmix64: cheap, well-mixed bits from a seed (deterministic; the sim's
/// own RNGs are seeded separately via system_seed / chaos_seed below).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

LinScenario scenario_for(std::uint64_t seed) {
  const std::uint64_t bits = mix(seed);
  LinScenario s;
  // Weight DynaStar: it owns the borrow/return + lease + repartition paths.
  // STAR takes a share of the non-repartitioning draws below.
  switch (bits % 4) {
    case 0: s.mode = core::ExecutionMode::kSSMR; break;
    case 1: s.mode = core::ExecutionMode::kDSSMR; break;
    default: s.mode = core::ExecutionMode::kDynaStar; break;
  }
  s.partitions = 2 + ((bits >> 2) & 1);
  s.system_seed = 1 + seed;
  s.multi_fraction = 0.2 + 0.2 * ((bits >> 3) % 3);   // 0.2 / 0.4 / 0.6
  s.write_fraction = 0.3 + 0.2 * ((bits >> 5) % 3);   // 0.3 / 0.5 / 0.7
  s.read_leases = ((bits >> 7) & 1) != 0;  // no-op under S-SMR and STAR
  s.exec_lanes = ((bits >> 8) & 1) != 0 ? 4 : 1;
  s.chaos = ((bits >> 9) & 1) != 0;
  s.chaos_seed = 100 + seed;
  s.repartition_mid_run =
      s.mode == core::ExecutionMode::kDynaStar && ((bits >> 10) & 1) != 0;
  if (!s.repartition_mid_run && ((bits >> 13) & 3) == 3)
    s.mode = core::ExecutionMode::kStar;
  s.clients = 3;
  s.ops_per_client = 25;
  s.run_for = seconds(45);
  return s;
}

class LinFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinFuzz, SeededScenarioIsLinearizable) {
  const std::uint64_t seed = GetParam();
  const LinScenario s = scenario_for(seed);
  SCOPED_TRACE("fuzz seed " + std::to_string(seed) + " mode " +
               std::to_string(static_cast<int>(s.mode)) + " leases " +
               std::to_string(s.read_leases) + " lanes " +
               std::to_string(s.exec_lanes) + " chaos " +
               std::to_string(s.chaos));

  const auto run = testutil::run_lin_scenario(s);

  // Liveness: every scripted command completed successfully by the horizon.
  EXPECT_EQ(run.tally.completions, run.expected_ops);
  EXPECT_EQ(run.tally.ok, run.expected_ops);
  ASSERT_EQ(run.history.size(), run.expected_ops);

  // Safety: the history admits a legal sequential witness.
  EXPECT_TRUE(run.lin.linearizable)
      << "non-linearizable fuzz history; stuck op index "
      << (run.lin.stuck_operation
              ? static_cast<long>(*run.lin.stuck_operation)
              : -1);
}

INSTANTIATE_TEST_SUITE_P(LinFuzz, LinFuzz,
                         ::testing::Range<std::uint64_t>(0, 32));

TEST(LinFuzzHarness, SameScenarioIsBitIdentical) {
  // The harness itself must be a pure function of the scenario, or a failing
  // fuzz seed would not reproduce. Exercise the most stateful combination:
  // chaos + leases + repartition churn.
  LinScenario s = scenario_for(3);
  s.mode = core::ExecutionMode::kDynaStar;
  s.read_leases = true;
  s.chaos = true;
  s.repartition_mid_run = true;
  const auto a = testutil::run_lin_scenario(s);
  const auto b = testutil::run_lin_scenario(s);
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "lin harness run is not a pure function of its scenario";
}

TEST(LinFuzzHarness, LeasesActuallyEngageAcrossTheSweep) {
  // Guard against the sweep silently fuzzing nothing: at least one derived
  // scenario must execute commands off validated leases.
  double lease_reads = 0;
  for (std::uint64_t seed = 0; seed < 32 && lease_reads == 0; ++seed) {
    const LinScenario s = scenario_for(seed);
    if (!s.read_leases || !core::mode_supports_leases(s.mode)) continue;
    lease_reads += testutil::run_lin_scenario(s).lease_reads;
  }
  EXPECT_GT(lease_reads, 0) << "no fuzz scenario ever took the lease path";
}

}  // namespace
}  // namespace dynastar
