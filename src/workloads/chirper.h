// Chirper: the paper's Twitter-like social network service (§5.4).
//
// One PRObject (and one location-map vertex) per user. post writes the
// message reference into the timeline object of every follower — the
// multi-partition command that drives the entire social-network evaluation;
// timeline reads touch only the reader's own object; follow/unfollow touch
// two objects.
//
// Drivers know the (ground-truth) social graph — as in the paper's harness,
// where the workload generator owns the dataset — and use it to build each
// post's omega. Zipfian user selection with rho = 0.95 matches §6.4.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/app.h"
#include "core/client.h"
#include "core/object.h"
#include "core/system.h"
#include "sim/message.h"
#include "workloads/social_graph.h"

namespace dynastar::workloads::chirper {

inline ObjectId user_object(std::uint32_t user) { return ObjectId{user}; }
inline core::VertexId user_vertex(std::uint32_t user) {
  return core::VertexId{user};
}

/// A user's replicated state: their timeline plus counters.
class UserObject final : public core::PRObject {
 public:
  static constexpr std::size_t kTimelineCap = 20;

  /// The newest kTimelineCap post references, oldest first. Held inline,
  /// so a clone of the object is one allocation and an append makes none.
  class Timeline {
   public:
    /// Appends `ref`, dropping the oldest reference when full.
    void push(std::uint64_t ref) {
      if (size_ == kTimelineCap) {
        std::copy(refs_.begin() + 1, refs_.end(), refs_.begin());
        --size_;
      }
      refs_[size_++] = ref;
    }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::uint64_t operator[](std::size_t i) const {
      return refs_[i];
    }
    [[nodiscard]] std::uint64_t front() const { return refs_[0]; }
    [[nodiscard]] std::uint64_t back() const { return refs_[size_ - 1]; }
    [[nodiscard]] const std::uint64_t* begin() const { return refs_.data(); }
    [[nodiscard]] const std::uint64_t* end() const {
      return refs_.data() + size_;
    }

   private:
    std::array<std::uint64_t, kTimelineCap> refs_{};
    std::uint32_t size_ = 0;
  };

  [[nodiscard]] core::ObjectPtr clone() const override {
    return std::make_shared<UserObject>(*this);
  }
  [[nodiscard]] std::size_t size_bytes() const override {
    return 48 + timeline.size() * 8;
  }
  [[nodiscard]] std::uint64_t digest() const override {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t ref : timeline) h = core::digest_mix(h, ref);
    h = core::digest_mix(h, posts);
    h = core::digest_mix(h, followers_count);
    h = core::digest_mix(h, following_count);
    return h;
  }

  void append(std::uint64_t post_ref) { timeline.push(post_ref); }

  Timeline timeline;
  std::uint64_t posts = 0;
  std::uint32_t followers_count = 0;
  std::uint32_t following_count = 0;
};

struct ChirperOp final : sim::Message {
  enum class Kind : std::uint8_t { kPost, kTimeline, kFollow, kUnfollow };
  Kind kind = Kind::kTimeline;
  std::uint32_t author = 0;   // post: whose message (objects[0])
  std::uint64_t post_ref = 0; // post: 140-char message reference
};

struct ChirperReply final : sim::Message {
  bool ok = true;
  std::uint32_t timeline_len = 0;
  std::uint64_t newest = 0;
};

class ChirperApp final : public core::AppStateMachine {
 public:
  core::ExecResult execute(const core::Command& cmd,
                           core::ObjectStore& store) override;
  core::ObjectPtr make_object(const core::Command& cmd) override;
};

inline core::AppFactory chirper_app_factory() {
  return [] { return std::make_unique<ChirperApp>(); };
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

enum class Placement {
  kRandom,     // DynaStar's starting point in §6.4
  kOptimized,  // S-SMR*: METIS on the social graph, computed in advance
};

/// Creates all user objects and installs the initial assignment.
void setup(core::System& system, const SocialGraph& graph, Placement placement,
           std::uint64_t seed = 11);

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Mutable ground-truth follower lists shared by all drivers of a run.
using Directory = std::shared_ptr<SocialGraph>;

inline Directory make_directory(const SocialGraph& graph) {
  return std::make_shared<SocialGraph>(graph);
}

struct WorkloadMix {
  /// Fraction of timeline reads; the rest are posts (paper: 1.0 and 0.85).
  double timeline_fraction = 0.85;
  /// Fraction of commands that follow/unfollow a random pair (two-object,
  /// possibly cross-partition commands; §5.4). Taken off the top before the
  /// timeline/post split.
  double follow_fraction = 0.0;
  double zipf_theta = 0.95;
  /// Posts name at most this many follower timelines (bounds omega).
  std::uint32_t fanout_cap = 2000;
  /// Dynamic scenario (Fig. 6): after celebrity_start, each command first
  /// rolls to follow the celebrity user.
  std::optional<std::uint32_t> celebrity;
  SimTime celebrity_start = 0;
  double follow_celebrity_prob = 0.02;
};

class ChirperDriver final : public core::ClientDriver {
 public:
  ChirperDriver(Directory directory, WorkloadMix mix,
                std::shared_ptr<const ZipfGenerator> zipf)
      : directory_(std::move(directory)),
        mix_(mix),
        zipf_(std::move(zipf)) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override;
  void on_result(const core::CommandSpec& spec, core::ReplyStatus status,
                 const sim::MessagePtr& payload, SimTime issued_at,
                 SimTime completed_at) override;

 private:
  Directory directory_;
  WorkloadMix mix_;
  std::shared_ptr<const ZipfGenerator> zipf_;
};

/// Fig. 6's celebrity: created at `start`, then posts continuously.
class CelebrityDriver final : public core::ClientDriver {
 public:
  CelebrityDriver(Directory directory, std::uint32_t user, SimTime start,
                  SimTime post_interval, std::uint32_t fanout_cap = 2000)
      : directory_(std::move(directory)),
        user_(user),
        start_(start),
        post_interval_(post_interval),
        fanout_cap_(fanout_cap) {}

  std::optional<core::CommandSpec> next(Rng& rng, SimTime now) override;

 private:
  Directory directory_;
  std::uint32_t user_;
  SimTime start_;
  SimTime post_interval_;
  std::uint32_t fanout_cap_;
  bool created_ = false;
  std::uint64_t posts_ = 0;
};

/// Builds the omega of a post by `author` from the directory.
core::CommandSpec make_post_spec(const SocialGraph& directory,
                                 std::uint32_t author, std::uint64_t post_ref,
                                 std::uint32_t fanout_cap);

}  // namespace dynastar::workloads::chirper
