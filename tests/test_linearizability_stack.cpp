// Full-stack linearizability: concurrent clients issue single- and
// multi-key reads/writes against the complete system (atomic multicast,
// Paxos, borrow/return, STAR epoch batches, repartitioning plans mid-run),
// and the recorded history must admit a legal sequential witness.
//
// This is the repository's strongest correctness property: it exercises the
// cross-partition execution path and the relocation machinery at once. The
// scenarios are expressed through tests/lin_harness.h, which the LinFuzz
// sweep shares.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "tests/lin_harness.h"

namespace dynastar {
namespace {

// The discovered test names are a byte dump of this struct, so it must have
// no padding: the six bytes the compiler would pad with are spelled out and
// zeroed, which keeps every case's name the same from one build to the next.
struct LinParam {
  LinParam(core::ExecutionMode m, bool repartition, std::uint64_t s)
      : mode(m), repartition_mid_run(repartition), seed(s) {}

  core::ExecutionMode mode;
  bool repartition_mid_run;
  std::uint8_t reserved[6] = {};
  std::uint64_t seed;
};
static_assert(sizeof(LinParam) == 16 &&
              std::has_unique_object_representations_v<LinParam>);

class StackLinearizability : public ::testing::TestWithParam<LinParam> {};

TEST_P(StackLinearizability, HistoryIsLinearizable) {
  const auto param = GetParam();
  testutil::LinScenario scenario;
  scenario.mode = param.mode;
  scenario.partitions = 3;
  scenario.system_seed = param.seed;
  scenario.ops_per_client = 60;
  scenario.repartition_mid_run = param.repartition_mid_run;
  scenario.run_for = seconds(20);

  const auto run = testutil::run_lin_scenario(scenario);

  ASSERT_GT(run.history.size(), 100u);
  EXPECT_TRUE(run.lin.linearizable)
      << "non-linearizable history; stuck op index "
      << (run.lin.stuck_operation
              ? static_cast<long>(*run.lin.stuck_operation)
              : -1)
      << " mode " << static_cast<int>(param.mode) << " seed " << param.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StackLinearizability,
    ::testing::Values(
        LinParam{core::ExecutionMode::kDynaStar, false, 1},
        LinParam{core::ExecutionMode::kDynaStar, false, 2},
        LinParam{core::ExecutionMode::kDynaStar, true, 3},
        LinParam{core::ExecutionMode::kDynaStar, true, 4},
        LinParam{core::ExecutionMode::kSSMR, false, 5},
        LinParam{core::ExecutionMode::kSSMR, false, 6},
        LinParam{core::ExecutionMode::kDSSMR, false, 7},
        LinParam{core::ExecutionMode::kDSSMR, false, 8},
        LinParam{core::ExecutionMode::kStar, false, 9},
        LinParam{core::ExecutionMode::kStar, false, 10}));

}  // namespace
}  // namespace dynastar
