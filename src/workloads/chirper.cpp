#include "workloads/chirper.h"

#include <algorithm>

#include "partitioning/graph.h"
#include "partitioning/partitioner.h"

namespace dynastar::workloads::chirper {

core::ExecResult ChirperApp::execute(const core::Command& cmd,
                                     core::ObjectStore& store) {
  auto reply = sim::make_mutable_message<ChirperReply>();
  const auto* op = dynamic_cast<const ChirperOp*>(cmd.payload.get());
  if (op == nullptr) {
    reply->ok = false;
    return {reply, microseconds(2)};
  }

  switch (op->kind) {
    case ChirperOp::Kind::kPost: {
      for (std::size_t i = 0; i < cmd.objects.size(); ++i) {
        auto* user = dynamic_cast<UserObject*>(store.get_mut(cmd.objects[i]));
        if (user == nullptr) continue;
        if (cmd.objects[i].value() == op->author) {
          user->posts += 1;
        } else {
          user->append(op->post_ref);
        }
      }
      return {reply, microseconds(4) +
                         nanoseconds(500) *
                             static_cast<SimTime>(cmd.objects.size())};
    }
    case ChirperOp::Kind::kTimeline: {
      const auto* user =
          dynamic_cast<const UserObject*>(store.find(cmd.objects.front()));
      if (user == nullptr) {
        reply->ok = false;
      } else {
        reply->timeline_len = static_cast<std::uint32_t>(user->timeline.size());
        if (!user->timeline.empty()) reply->newest = user->timeline.back();
      }
      return {reply, microseconds(3)};
    }
    case ChirperOp::Kind::kFollow:
    case ChirperOp::Kind::kUnfollow: {
      const int delta = op->kind == ChirperOp::Kind::kFollow ? 1 : -1;
      // objects[0] = follower, objects[1] = followee.
      if (auto* follower =
              dynamic_cast<UserObject*>(store.get_mut(cmd.objects[0]))) {
        follower->following_count =
            static_cast<std::uint32_t>(
                std::max(0, static_cast<int>(follower->following_count) + delta));
      }
      if (cmd.objects.size() > 1) {
        if (auto* followee =
                dynamic_cast<UserObject*>(store.get_mut(cmd.objects[1]))) {
          followee->followers_count = static_cast<std::uint32_t>(std::max(
              0, static_cast<int>(followee->followers_count) + delta));
        }
      }
      return {reply, microseconds(4)};
    }
  }
  reply->ok = false;
  return {reply, microseconds(2)};
}

core::ObjectPtr ChirperApp::make_object(const core::Command& /*cmd*/) {
  return std::make_shared<UserObject>();
}

void setup(core::System& system, const SocialGraph& graph, Placement placement,
           std::uint64_t seed) {
  const std::uint32_t k = system.config().num_partitions;
  const auto n = static_cast<std::uint32_t>(graph.num_users());
  std::vector<std::uint32_t> part_of(n, 0);

  if (placement == Placement::kRandom || k == 1) {
    Rng rng(seed);
    for (std::uint32_t u = 0; u < n; ++u)
      part_of[u] = static_cast<std::uint32_t>(rng.uniform(0, k - 1));
  } else {
    // S-SMR*: METIS on the follower graph, computed with full workload
    // knowledge before the run (paper §5.5).
    partitioning::GraphBuilder builder(n);
    for (std::uint32_t u = 0; u < n; ++u) {
      builder.set_vertex_weight(u, 1 + static_cast<std::int64_t>(
                                          graph.followers[u].size()));
      for (std::uint32_t f : graph.followers[u]) builder.add_edge(u, f, 1);
    }
    partitioning::PartitionerConfig config;
    config.seed = seed;
    auto result = partitioning::partition_graph(builder.build(), k, config);
    part_of = std::move(result.assignment);
  }

  core::Assignment assignment;
  assignment.reserve(n);
  UserObject prototype;
  for (std::uint32_t u = 0; u < n; ++u) {
    const PartitionId p{part_of[u]};
    assignment[user_vertex(u)] = p;
    prototype.followers_count =
        static_cast<std::uint32_t>(graph.followers[u].size());
    prototype.following_count =
        static_cast<std::uint32_t>(graph.following[u].size());
    system.preload_object(user_object(u), user_vertex(u), p, prototype);
  }
  system.preload_assignment(assignment);
}

core::CommandSpec make_post_spec(const SocialGraph& directory,
                                 std::uint32_t author, std::uint64_t post_ref,
                                 std::uint32_t fanout_cap) {
  core::CommandSpec spec;
  spec.objects.emplace_back(user_object(author), user_vertex(author));
  const auto& followers = directory.followers[author];
  const std::size_t fanout =
      std::min<std::size_t>(followers.size(), fanout_cap);
  for (std::size_t i = 0; i < fanout; ++i) {
    spec.objects.emplace_back(user_object(followers[i]),
                              user_vertex(followers[i]));
  }
  auto op = sim::make_mutable_message<ChirperOp>();
  op->kind = ChirperOp::Kind::kPost;
  op->author = author;
  op->post_ref = post_ref;
  spec.payload = std::move(op);
  return spec;
}

std::optional<core::CommandSpec> ChirperDriver::next(Rng& rng, SimTime now) {
  const auto n = static_cast<std::uint32_t>(directory_->num_users());
  const auto active = static_cast<std::uint32_t>(zipf_->next(rng));

  // Dynamic scenario: maybe follow the celebrity first (Fig. 6).
  if (mix_.celebrity.has_value() && now >= mix_.celebrity_start &&
      *mix_.celebrity < directory_->num_users() && active != *mix_.celebrity &&
      rng.chance(mix_.follow_celebrity_prob)) {
    const std::uint32_t celebrity = *mix_.celebrity;
    const auto& already = directory_->followers[celebrity];
    if (std::find(already.begin(), already.end(), active) == already.end()) {
      core::CommandSpec spec;
      spec.objects.emplace_back(user_object(active), user_vertex(active));
      spec.objects.emplace_back(user_object(celebrity),
                                user_vertex(celebrity));
      auto op = sim::make_mutable_message<ChirperOp>();
      op->kind = ChirperOp::Kind::kFollow;
      op->author = active;
      spec.payload = std::move(op);
      return spec;
    }
  }

  if (mix_.follow_fraction > 0 && n > 1 && rng.chance(mix_.follow_fraction)) {
    // Follow (or, if already following, unfollow) another Zipf-chosen user.
    std::uint32_t other = static_cast<std::uint32_t>(zipf_->next(rng));
    if (other == active) other = (other + 1) % n;
    const auto& already = directory_->following[active];
    const bool unfollow =
        std::find(already.begin(), already.end(), other) != already.end();
    core::CommandSpec spec;
    spec.objects.emplace_back(user_object(active), user_vertex(active));
    spec.objects.emplace_back(user_object(other), user_vertex(other));
    auto op = sim::make_mutable_message<ChirperOp>();
    op->kind =
        unfollow ? ChirperOp::Kind::kUnfollow : ChirperOp::Kind::kFollow;
    op->author = active;
    spec.payload = std::move(op);
    return spec;
  }

  if (rng.chance(mix_.timeline_fraction)) {
    core::CommandSpec spec;
    spec.objects.emplace_back(user_object(active), user_vertex(active));
    auto op = sim::make_mutable_message<ChirperOp>();
    op->kind = ChirperOp::Kind::kTimeline;
    spec.payload = std::move(op);
    spec.read_only = true;  // timeline reads; posts/follows write
    return spec;
  }
  return make_post_spec(*directory_, active,
                        (static_cast<std::uint64_t>(active) << 32) |
                            rng.uniform(0, UINT32_MAX),
                        mix_.fanout_cap);
}

void ChirperDriver::on_result(const core::CommandSpec& spec,
                              core::ReplyStatus status,
                              const sim::MessagePtr& /*payload*/,
                              SimTime /*issued_at*/, SimTime /*completed_at*/) {
  if (status != core::ReplyStatus::kOk) return;
  const auto* op = dynamic_cast<const ChirperOp*>(spec.payload.get());
  if (op == nullptr || spec.objects.size() < 2) return;
  const auto follower = static_cast<std::uint32_t>(spec.objects[0].first.value());
  const auto followee = static_cast<std::uint32_t>(spec.objects[1].first.value());
  if (op->kind == ChirperOp::Kind::kFollow) {
    auto& list = directory_->followers[followee];
    if (std::find(list.begin(), list.end(), follower) == list.end())
      list.push_back(follower);
    directory_->following[follower].push_back(followee);
  } else if (op->kind == ChirperOp::Kind::kUnfollow) {
    auto& list = directory_->followers[followee];
    list.erase(std::remove(list.begin(), list.end(), follower), list.end());
    auto& fol = directory_->following[follower];
    fol.erase(std::remove(fol.begin(), fol.end(), followee), fol.end());
  }
}

std::optional<core::CommandSpec> CelebrityDriver::next(Rng& rng,
                                                       SimTime now) {
  if (now < start_) {
    return core::CommandSpec::pause_for(
        std::min<SimTime>(start_ - now, milliseconds(200)));
  }
  if (!created_) {
    created_ = true;
    if (user_ >= directory_->num_users()) {
      directory_->followers.resize(user_ + 1);
      directory_->following.resize(user_ + 1);
    }
    core::CommandSpec spec;
    spec.type = core::CommandType::kCreate;
    spec.objects.emplace_back(user_object(user_), user_vertex(user_));
    auto op = sim::make_mutable_message<ChirperOp>();
    op->kind = ChirperOp::Kind::kPost;
    op->author = user_;
    spec.payload = std::move(op);
    return spec;
  }
  if (post_interval_ > 0 && rng.chance(0.5)) {
    // Pace the celebrity's stream a little so follows interleave.
    return core::CommandSpec::pause_for(post_interval_);
  }
  return make_post_spec(*directory_, user_,
                        (static_cast<std::uint64_t>(user_) << 32) | ++posts_,
                        fanout_cap_);
}

}  // namespace dynastar::workloads::chirper
