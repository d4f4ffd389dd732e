// Key-value application on top of DynaStar: the simplest PRObject /
// AppStateMachine pair. Used by the quickstart example and by the
// correctness tests (its histories feed the linearizability checker).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/app.h"
#include "core/client.h"
#include "core/object.h"
#include "sim/message.h"

namespace dynastar::workloads {

/// A 64-bit register.
class KvObject final : public core::PRObject {
 public:
  explicit KvObject(std::uint64_t v = 0) : value(v) {}
  [[nodiscard]] core::ObjectPtr clone() const override {
    return std::make_shared<KvObject>(value);
  }
  [[nodiscard]] std::size_t size_bytes() const override { return 16; }
  [[nodiscard]] std::uint64_t digest() const override {
    return core::digest_mix(0xcbf29ce484222325ull, value);
  }

  std::uint64_t value;
};

/// Command payload: read all of omega, then (for writes) set every object
/// in omega to `value`. A multi-object put is the classic cross-partition
/// command ("x := y" family from the paper's §3).
struct KvOp final : sim::Message {
  enum class Kind : std::uint8_t { kGet, kPut };
  KvOp(Kind k, std::uint64_t v) : kind(k), value(v) {}
  Kind kind;
  std::uint64_t value;
};

/// Reply: the value of each omega object as observed before any write
/// (nullopt = object absent).
struct KvReply final : sim::Message {
  explicit KvReply(std::vector<std::optional<std::uint64_t>> vs)
      : values(std::move(vs)) {}
  std::size_t size_bytes() const override { return 16 + values.size() * 9; }
  std::vector<std::optional<std::uint64_t>> values;
};

class KvApp final : public core::AppStateMachine {
 public:
  explicit KvApp(SimTime op_cost = microseconds(5)) : op_cost_(op_cost) {}

  core::ExecResult execute(const core::Command& cmd,
                           core::ObjectStore& store) override {
    const auto* op = dynamic_cast<const KvOp*>(cmd.payload.get());
    std::vector<std::optional<std::uint64_t>> observed;
    observed.reserve(cmd.objects.size());
    const bool put = op != nullptr && op->kind == KvOp::Kind::kPut;
    for (std::size_t i = 0; i < cmd.objects.size(); ++i) {
      const auto* obj =
          dynamic_cast<const KvObject*>(store.find(cmd.objects[i]));
      observed.push_back(obj ? std::optional<std::uint64_t>(obj->value)
                             : std::nullopt);
      if (!put) continue;
      if (obj == nullptr) {
        store.put(cmd.objects[i], cmd.vertices[i],
                  std::make_shared<KvObject>(op->value));
      } else {
        static_cast<KvObject*>(store.get_mut(cmd.objects[i]))->value =
            op->value;
      }
    }
    return core::ExecResult{sim::make_message<KvReply>(std::move(observed)),
                            op_cost_};
  }

  core::ObjectPtr make_object(const core::Command& cmd) override {
    const auto* op = dynamic_cast<const KvOp*>(cmd.payload.get());
    return std::make_shared<KvObject>(op ? op->value : 0);
  }

 private:
  SimTime op_cost_;
};

inline core::AppFactory kv_app_factory(SimTime op_cost = microseconds(5)) {
  return [op_cost] { return std::make_unique<KvApp>(op_cost); };
}

}  // namespace dynastar::workloads
