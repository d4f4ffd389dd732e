// Bank example: linearizable transfers between accounts sharded over
// partitions — the classic "x := y" cross-partition command family from the
// paper's §3, built directly on the public API (custom PRObject +
// AppStateMachine, not one of the bundled workloads).
//
// Run:  ./bank_transfer
#include <cstdio>
#include <memory>
#include <vector>

#include "core/system.h"

using namespace dynastar;

namespace {

class Account final : public core::PRObject {
 public:
  explicit Account(std::int64_t b) : balance(b) {}
  core::ObjectPtr clone() const override {
    return std::make_shared<Account>(balance);
  }
  std::int64_t balance;
};

struct Transfer final : sim::Message {
  Transfer(std::int64_t a) : amount(a) {}
  std::int64_t amount;  // objects[0] -> objects[1]
};

struct Audit final : sim::Message {};

struct BankReply final : sim::Message {
  bool ok = true;
  std::int64_t total = 0;
};

class BankApp final : public core::AppStateMachine {
 public:
  core::ExecResult execute(const core::Command& cmd,
                           core::ObjectStore& store) override {
    auto reply = sim::make_mutable_message<BankReply>();
    if (auto* transfer = dynamic_cast<const Transfer*>(cmd.payload.get())) {
      auto* from = dynamic_cast<Account*>(store.get_mut(cmd.objects[0]));
      auto* to = dynamic_cast<Account*>(store.get_mut(cmd.objects[1]));
      if (from == nullptr || to == nullptr || from->balance < transfer->amount) {
        reply->ok = false;
      } else {
        from->balance -= transfer->amount;
        to->balance += transfer->amount;
      }
      return {reply, microseconds(8)};
    }
    if (dynamic_cast<const Audit*>(cmd.payload.get()) != nullptr) {
      for (ObjectId id : cmd.objects) {
        if (const auto* account = dynamic_cast<const Account*>(store.find(id)))
          reply->total += account->balance;
      }
      return {reply, microseconds(5)};
    }
    reply->ok = false;
    return {reply, microseconds(2)};
  }

  core::ObjectPtr make_object(const core::Command&) override {
    return std::make_shared<Account>(0);
  }
};

class TellerDriver final : public core::ClientDriver {
 public:
  TellerDriver(std::uint64_t accounts, int ops) : accounts_(accounts), ops_(ops) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime) override {
    if (ops_-- <= 0) return std::nullopt;
    core::CommandSpec spec;
    std::uint64_t from = rng.uniform(0, accounts_ - 1);
    std::uint64_t to = rng.uniform(0, accounts_ - 1);
    if (to == from) to = (to + 1) % accounts_;
    spec.objects.emplace_back(ObjectId{from}, core::VertexId{from});
    spec.objects.emplace_back(ObjectId{to}, core::VertexId{to});
    spec.payload = sim::make_message<Transfer>(
        static_cast<std::int64_t>(rng.uniform(1, 50)));
    return spec;
  }

  void on_result(const core::CommandSpec&, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime, SimTime) override {
    if (status != core::ReplyStatus::kOk) return;
    if (auto* reply = dynamic_cast<const BankReply*>(payload.get()))
      reply->ok ? ++succeeded : ++declined;
  }

  int succeeded = 0;
  int declined = 0;

 private:
  std::uint64_t accounts_;
  int ops_;
};

class AuditDriver final : public core::ClientDriver {
 public:
  AuditDriver(std::uint64_t accounts, SimTime start)
      : accounts_(accounts), start_(start) {}

  std::optional<core::CommandSpec> next(Rng&, SimTime now) override {
    if (done_) return std::nullopt;
    if (now < start_) return core::CommandSpec::pause_for(milliseconds(100));
    done_ = true;
    core::CommandSpec spec;
    for (std::uint64_t a = 0; a < accounts_; ++a)
      spec.objects.emplace_back(ObjectId{a}, core::VertexId{a});
    spec.payload = sim::make_message<Audit>();
    return spec;
  }

  void on_result(const core::CommandSpec&, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime, SimTime) override {
    if (status != core::ReplyStatus::kOk) return;
    if (auto* reply = dynamic_cast<const BankReply*>(payload.get()))
      audited_total = reply->total;
  }

  std::int64_t audited_total = -1;

 private:
  std::uint64_t accounts_;
  SimTime start_;
  bool done_ = false;
};

}  // namespace

int main() {
  constexpr std::uint64_t kAccounts = 16;
  constexpr std::int64_t kInitialBalance = 1000;

  core::SystemConfig config;
  config.num_partitions = 4;
  core::System system(config,
                      [] { return std::make_unique<BankApp>(); });
  core::Assignment assignment;
  for (std::uint64_t a = 0; a < kAccounts; ++a) {
    const PartitionId p{a % 4};
    assignment[core::VertexId{a}] = p;
    system.preload_object(ObjectId{a}, core::VertexId{a}, p,
                          Account(kInitialBalance));
  }
  system.preload_assignment(assignment);

  std::vector<TellerDriver*> tellers;
  for (int c = 0; c < 8; ++c) {
    auto driver = std::make_unique<TellerDriver>(kAccounts, 100);
    tellers.push_back(driver.get());
    system.add_client(std::move(driver));
  }
  // One global audit across ALL partitions, concurrent with the transfers:
  // linearizability means it must still see exactly the total money supply.
  auto audit = std::make_unique<AuditDriver>(kAccounts, seconds(1));
  auto* audit_ptr = audit.get();
  system.add_client(std::move(audit));

  system.run_until(seconds(10));

  int ok = 0, declined = 0;
  for (auto* teller : tellers) {
    ok += teller->succeeded;
    declined += teller->declined;
  }
  std::printf("transfers: %d succeeded, %d declined (insufficient funds)\n",
              ok, declined);
  std::printf("concurrent audit total: %lld (expected %lld)\n",
              static_cast<long long>(audit_ptr->audited_total),
              static_cast<long long>(kAccounts * kInitialBalance));
  const bool conserved =
      audit_ptr->audited_total ==
      static_cast<std::int64_t>(kAccounts * kInitialBalance);
  std::printf(conserved ? "money conserved — the audit linearized between "
                          "transfers.\n"
                        : "MONEY NOT CONSERVED — bug!\n");
  return conserved ? 0 : 1;
}
