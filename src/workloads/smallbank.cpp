#include "workloads/smallbank.h"

namespace dynastar::workloads::smallbank {

namespace {
CustomerAccounts* account(core::ObjectStore& store, ObjectId id) {
  return dynamic_cast<CustomerAccounts*>(store.get_mut(id));
}
}  // namespace

core::ExecResult SmallBankApp::execute(const core::Command& cmd,
                                       core::ObjectStore& store) {
  auto reply = sim::make_mutable_message<Reply>();
  const auto* op = dynamic_cast<const Op*>(cmd.payload.get());
  if (op == nullptr || cmd.objects.empty()) {
    reply->ok = false;
    return {reply, microseconds(2)};
  }
  if (op->kind == Op::Kind::kBalance) {  // read-only: never get_mut
    const auto* a =
        dynamic_cast<const CustomerAccounts*>(store.find(cmd.objects[0]));
    if (a == nullptr) {
      reply->ok = false;
      return {reply, microseconds(2)};
    }
    reply->balance = a->checking + a->savings;
    return {reply, microseconds(4)};
  }
  CustomerAccounts* a = account(store, cmd.objects[0]);
  CustomerAccounts* b =
      cmd.objects.size() > 1 ? account(store, cmd.objects[1]) : nullptr;
  if (a == nullptr) {
    reply->ok = false;
    return {reply, microseconds(2)};
  }

  switch (op->kind) {
    case Op::Kind::kBalance:
      break;  // answered above
    case Op::Kind::kDepositChecking:
      if (op->amount < 0) {
        reply->ok = false;
      } else {
        a->checking += op->amount;
        reply->balance = a->checking;
      }
      return {reply, microseconds(5)};
    case Op::Kind::kTransactSavings:
      if (a->savings + op->amount < 0) {
        reply->ok = false;  // would overdraw savings
      } else {
        a->savings += op->amount;
        reply->balance = a->savings;
      }
      return {reply, microseconds(5)};
    case Op::Kind::kWriteCheck: {
      // Overdraft allowed with a $1 penalty (SmallBank semantics).
      const double total = a->checking + a->savings;
      a->checking -= (op->amount > total) ? op->amount + 1.0 : op->amount;
      reply->balance = a->checking;
      return {reply, microseconds(6)};
    }
    case Op::Kind::kAmalgamate:
      if (b == nullptr) {
        reply->ok = false;
        return {reply, microseconds(3)};
      }
      b->checking += a->checking + a->savings;
      a->checking = 0;
      a->savings = 0;
      reply->balance = b->checking;
      return {reply, microseconds(8)};
    case Op::Kind::kSendPayment:
      if (b == nullptr || a->checking < op->amount) {
        reply->ok = false;
        return {reply, microseconds(3)};
      }
      a->checking -= op->amount;
      b->checking += op->amount;
      reply->balance = a->checking;
      return {reply, microseconds(8)};
  }
  reply->ok = false;
  return {reply, microseconds(2)};
}

core::ObjectPtr SmallBankApp::make_object(const core::Command& /*cmd*/) {
  return std::make_shared<CustomerAccounts>(0.0, 0.0);
}

void setup(core::System& system, std::uint32_t customers,
           double initial_checking, double initial_savings) {
  core::Assignment assignment;
  const std::uint32_t k = system.config().num_partitions;
  // One shared version; the first write to an account clones it.
  const core::ObjectPtr prototype =
      std::make_shared<CustomerAccounts>(initial_checking, initial_savings);
  for (std::uint32_t c = 0; c < customers; ++c) {
    const PartitionId p{c % k};
    assignment[customer_vertex(c)] = p;
    system.preload_object(customer_object(c), customer_vertex(c), p, prototype);
  }
  system.preload_assignment(assignment);
}

std::uint32_t SmallBankDriver::pick_customer(Rng& rng) const {
  if (mix_.hotspot_size < customers_ && rng.chance(mix_.hotspot_fraction)) {
    return static_cast<std::uint32_t>(rng.uniform(0, mix_.hotspot_size - 1));
  }
  return static_cast<std::uint32_t>(rng.uniform(0, customers_ - 1));
}

std::optional<core::CommandSpec> SmallBankDriver::next(Rng& rng,
                                                       SimTime /*now*/) {
  auto op = sim::make_mutable_message<Op>();
  const double roll = rng.uniform01();
  double cumulative = mix_.balance;
  if (roll < cumulative) {
    op->kind = Op::Kind::kBalance;
  } else if (roll < (cumulative += mix_.deposit_checking)) {
    op->kind = Op::Kind::kDepositChecking;
    op->amount = 1.0 + rng.uniform01() * 99.0;
  } else if (roll < (cumulative += mix_.transact_savings)) {
    op->kind = Op::Kind::kTransactSavings;
    op->amount = rng.uniform01() * 100.0 - 20.0;  // mostly deposits
  } else if (roll < (cumulative += mix_.write_check)) {
    op->kind = Op::Kind::kWriteCheck;
    op->amount = 1.0 + rng.uniform01() * 50.0;
  } else if (roll < (cumulative += mix_.amalgamate)) {
    op->kind = Op::Kind::kAmalgamate;
  } else {
    op->kind = Op::Kind::kSendPayment;
    op->amount = 1.0 + rng.uniform01() * 5.0;
  }

  core::CommandSpec spec;
  const std::uint32_t a = pick_customer(rng);
  spec.objects.emplace_back(customer_object(a), customer_vertex(a));
  if (op->kind == Op::Kind::kAmalgamate || op->kind == Op::Kind::kSendPayment) {
    std::uint32_t b = pick_customer(rng);
    if (b == a) b = (b + 1) % customers_;
    spec.objects.emplace_back(customer_object(b), customer_vertex(b));
  }
  spec.read_only = op->kind == Op::Kind::kBalance;
  spec.payload = std::move(op);
  return spec;
}

}  // namespace dynastar::workloads::smallbank
