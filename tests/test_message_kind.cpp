// The message-kind tag: every stack message type names a distinct
// sim::Kind, copies keep it, and sim::as<T> downcasts only on a match.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "core/oracle.h"
#include "core/protocol.h"
#include "core/server.h"
#include "core/types.h"
#include "multicast/messages.h"
#include "paxos/messages.h"
#include "sim/message.h"
#include "sim/reliable.h"

namespace dynastar {
namespace {

using sim::Kind;

template <typename... Ts>
struct TypeList {};

using StackMessages = TypeList<
    sim::ReliableMsg, sim::ReliableAck, sim::ResendReq, sim::StableNotice,
    paxos::ProposeReq, paxos::Prepare, paxos::Promise, paxos::Nack,
    paxos::Accept, paxos::Accepted, paxos::Decision, paxos::Heartbeat,
    paxos::CatchupReq, paxos::Batch, paxos::InstallSnapshotReq,
    paxos::ChunkManifest, paxos::StateChunkReq, paxos::StateChunk,
    paxos::StateChunkAck, paxos::InstallSnapshotResp, multicast::McastData,
    multicast::McastSend, multicast::McastAck, multicast::StartEntry,
    multicast::TsProposal, multicast::FinalEntry, core::Command,
    core::OracleRequest, core::ExecCommand, core::HintReport, core::PlanMsg,
    core::LocationUpdate, core::StarEpochMsg, core::Prophecy,
    core::CommandReply, core::VarTransfer, core::VarReturn,
    core::ObjectHandoff, core::HandoffChunk, core::FetchVertex,
    core::AbortNotice, core::StarEpochUpdate, core::LeaseGrant,
    core::LeaseRevoke, core::OracleSnapshotMsg, core::ServerSnapshotMsg>;

/// True when no two types share a kind and none is kOpaque. A copy-pasted
/// base clause would otherwise let sim::as<T> static_cast to the wrong type.
template <typename... Ts>
constexpr bool kinds_distinct(TypeList<Ts...> /*types*/) {
  constexpr std::array<Kind, sizeof...(Ts)> kinds = {Ts::kKind...};
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == Kind::kOpaque) return false;
    for (std::size_t j = i + 1; j < kinds.size(); ++j)
      if (kinds[i] == kinds[j]) return false;
  }
  return true;
}

template <typename... Ts>
constexpr std::size_t count(TypeList<Ts...> /*types*/) {
  return sizeof...(Ts);
}

static_assert(kinds_distinct(StackMessages{}),
              "two stack message types name the same sim::Kind");
// With the check above: every Kind up to the enum's last value names
// exactly one type of the list.
static_assert(count(StackMessages{}) ==
                  static_cast<std::size_t>(Kind::kServerSnapshotMsg),
              "a sim::Kind names no stack message type");

struct AppPayload final : sim::Message {};

TEST(MessageKind, CopyKeepsKind) {
  // The copy PartitionServerCore::on_handoff buffers for a future epoch.
  auto original = sim::make_message<core::ObjectHandoff>(
      core::Epoch{3}, PartitionId{1}, core::VertexId{7},
      std::vector<core::ObjectEnvelope>{});
  auto copy = sim::make_message<core::ObjectHandoff>(*original);
  ASSERT_NE(copy.get(), original.get());
  EXPECT_EQ(copy->kind(), Kind::kObjectHandoff);
  const auto* as_handoff = sim::as<core::ObjectHandoff>(copy.get());
  ASSERT_EQ(as_handoff, copy.get());
  EXPECT_EQ(as_handoff->vertex, core::VertexId{7});
}

TEST(MessageKind, AsRejectsOtherKinds) {
  const sim::MessagePtr prepare =
      sim::make_message<paxos::Prepare>(GroupId{1}, 4, 0);
  EXPECT_EQ(prepare->kind(), Kind::kPrepare);
  EXPECT_NE(sim::as<paxos::Prepare>(prepare.get()), nullptr);
  EXPECT_EQ(sim::as<paxos::Accept>(prepare.get()), nullptr);
  EXPECT_EQ(sim::as<paxos::Promise>(prepare).get(), nullptr);
  const auto shared = sim::as<paxos::Prepare>(prepare);
  ASSERT_NE(shared.get(), nullptr);
  EXPECT_EQ(shared->ballot, 4U);

  const sim::MessagePtr payload = sim::make_message<AppPayload>();
  EXPECT_EQ(payload->kind(), Kind::kOpaque);
  EXPECT_EQ(sim::as<paxos::Prepare>(payload.get()), nullptr);

  EXPECT_EQ(sim::as<paxos::Prepare>(sim::MessagePtr{}).get(), nullptr);
  EXPECT_EQ(sim::as<paxos::Prepare>(static_cast<const sim::Message*>(nullptr)),
            nullptr);
}

}  // namespace
}  // namespace dynastar
