// SmallBank on DynaStar: the standard OLTP microbenchmark used across the
// SMR literature (Alomari et al., ICDE'08). Each customer has a checking
// and a savings account; four single-customer and two two-customer
// transaction types. The two-customer transactions (Amalgamate,
// SendPayment) are the cross-partition commands; the location-map vertex is
// the customer.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>

#include "core/app.h"
#include "core/client.h"
#include "core/object.h"
#include "core/system.h"
#include "sim/message.h"

namespace dynastar::workloads::smallbank {

/// One object per customer holding both balances.
class CustomerAccounts final : public core::PRObject {
 public:
  CustomerAccounts(double checking_balance, double savings_balance)
      : checking(checking_balance), savings(savings_balance) {}
  [[nodiscard]] core::ObjectPtr clone() const override {
    return std::make_shared<CustomerAccounts>(*this);
  }
  [[nodiscard]] std::size_t size_bytes() const override { return 32; }
  [[nodiscard]] std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(checking));
    h = core::digest_mix(h, std::bit_cast<std::uint64_t>(savings));
    return h;
  }

  double checking;
  double savings;
};

inline ObjectId customer_object(std::uint32_t customer) {
  return ObjectId{customer};
}
inline core::VertexId customer_vertex(std::uint32_t customer) {
  return core::VertexId{customer};
}

struct Op final : sim::Message {
  enum class Kind : std::uint8_t {
    kBalance,         // read checking + savings           (1 customer)
    kDepositChecking, // checking += amount                (1 customer)
    kTransactSavings, // savings += amount (may reject)    (1 customer)
    kWriteCheck,      // checking -= amount (overdraft fee) (1 customer)
    kAmalgamate,      // move all of A's money to B        (2 customers)
    kSendPayment,     // checking A -> checking B          (2 customers)
  };
  Kind kind = Kind::kBalance;
  double amount = 0;
};

struct Reply final : sim::Message {
  bool ok = true;
  double balance = 0;  // combined balance observed
};

class SmallBankApp final : public core::AppStateMachine {
 public:
  core::ExecResult execute(const core::Command& cmd,
                           core::ObjectStore& store) override;
  core::ObjectPtr make_object(const core::Command& cmd) override;
};

inline core::AppFactory smallbank_app_factory() {
  return [] { return std::make_unique<SmallBankApp>(); };
}

/// Creates `customers` accounts (round-robin placement) with the given
/// initial balances.
void setup(core::System& system, std::uint32_t customers,
           double initial_checking = 100.0, double initial_savings = 1000.0);

/// Standard SmallBank mix; `hotspot_fraction` of accesses hit the first
/// `hotspot_size` customers (the benchmark's classic contention knob).
struct Mix {
  double balance = 0.15;
  double deposit_checking = 0.15;
  double transact_savings = 0.15;
  double write_check = 0.25;
  double amalgamate = 0.15;
  double send_payment = 0.15;
  double hotspot_fraction = 0.9;
  std::uint32_t hotspot_size = 100;
};

class SmallBankDriver final : public core::ClientDriver {
 public:
  SmallBankDriver(std::uint32_t customers, Mix mix = {})
      : customers_(customers), mix_(mix) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override;

 private:
  std::uint32_t pick_customer(Rng& rng) const;

  std::uint32_t customers_;
  Mix mix_;
};

}  // namespace dynastar::workloads::smallbank
