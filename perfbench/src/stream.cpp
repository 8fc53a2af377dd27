#include "stream.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using sp::core::Context;
using sp::core::Knowledge;
using sp::crypto::Drbg;

const std::vector<WorkloadSpec>& workloads() {
  // Rates keep the seed commit well below saturation on a 4-core machine
  // (no growing backlog), so latency is measured under load, not overload.
  static const std::vector<WorkloadSpec> specs = {
      {.name = "hot_feed", .offered_rate = 400, .catalog_posts = 64},
      // Seven in ten new posts use Construction 2, so the sharer-side median
      // sits inside the CP-ABE share population rather than on the edge
      // between the 2 ms and 60 ms populations. 300 ms apart, a post's
      // accesses seldom start while its first, cold one still runs, so they
      // rarely compute the cold path again beside it.
      {.name = "fresh_posts",
       .offered_rate = 8,
       .catalog_posts = 8,
       .c2_fraction = 0.7,
       .new_post_fraction = 1.0,
       .burst_accesses = 6,
       .burst_gap_ms = 300,
       .revoke_share = 0.1,
       .refresh_share = 0.1},
  };
  return specs;
}

const WorkloadSpec& workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

double WorkloadSpec::expected_accesses(double seconds) const {
  const double events = offered_rate * seconds;
  const double per_post = static_cast<double>(burst_accesses) + revoke_share + refresh_share;
  return events * (1 - new_post_fraction) + events * new_post_fraction * per_post;
}

double WorkloadSpec::expected_writes(double seconds) const {
  return offered_rate * seconds * new_post_fraction * (1 + revoke_share + refresh_share);
}

namespace {

Context make_context(std::uint64_t seed, std::uint32_t post) {
  Drbg rng("perfbench-context-" + std::to_string(seed) + "-" + std::to_string(post));
  Context ctx;
  for (std::size_t i = 0; i < kQuestions; ++i) {
    ctx.add("post " + std::to_string(post) + " question " + std::to_string(i),
            sp::crypto::to_hex(rng.bytes(6)));
  }
  return ctx;
}

std::uint32_t draw_known(Drbg& rng) {
  if (rng.uniform_real() < kDeniedShare) return static_cast<std::uint32_t>(rng.uniform(kThreshold));
  return static_cast<std::uint32_t>(kThreshold + rng.uniform(kQuestions - kThreshold + 1));
}

}  // namespace

sp::crypto::Bytes object_bytes(std::uint64_t seed, std::uint32_t post, std::uint32_t version) {
  Drbg rng("perfbench-object-" + std::to_string(seed) + "-" + std::to_string(post) + "-" +
           std::to_string(version));
  return rng.bytes(kObjectBytes);
}

Stream make_stream(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  sp::workload::WorkloadConfig config;
  config.graph.users = kGraphUsers;
  config.graph.max_degree = kGraphMaxDegree;
  // The friend graph is part of the deployment, the same for every seed, so
  // set-up (which registers the users the stream touches) does not swing
  // with the graph's degree draw. The seed drives the traffic.
  config.graph.seed = "perfbench-graph";
  config.catalog_posts = spec.catalog_posts;
  config.c2_fraction = spec.c2_fraction;
  const sp::workload::TraceGenerator gen(config);
  const sp::workload::LazyGraph& graph = gen.graph();
  const sp::workload::ZipfSampler zipf(std::max<std::uint64_t>(1, spec.catalog_posts), kZipfS);
  Drbg rng("perfbench-stream-" + std::to_string(seed));

  Stream stream;
  std::set<std::uint64_t> users;
  std::set<std::pair<std::uint64_t, std::uint64_t>> friendships;
  const auto add_post = [&](std::uint64_t sharer, bool c2, bool in_catalog) {
    const auto index = static_cast<std::uint32_t>(stream.posts.size());
    stream.posts.push_back({sharer, c2, in_catalog, make_context(seed, index)});
    users.insert(sharer);
    return index;
  };
  const auto make_access = [&](std::uint32_t post, std::uint64_t receiver, double due_s) {
    Op op;
    op.kind = OpKind::kAccess;
    op.post = post;
    op.receiver = receiver;
    op.known = draw_known(rng);
    op.knowledge = Knowledge::partial(stream.posts[post].context, op.known, rng);
    op.due_s = due_s;
    users.insert(receiver);
    const std::uint64_t sharer = stream.posts[post].sharer;
    if (receiver != sharer) friendships.emplace(std::min(sharer, receiver), std::max(sharer, receiver));
    return op;
  };

  for (std::uint64_t rank = 0; rank < spec.catalog_posts; ++rank) {
    add_post(gen.sharer_of(rank), gen.post_is_c2(rank), true);
  }

  // New posts come in blocks of ten holding exactly the workload's share of
  // C2 posts, in a seeded order. Every stretch of the stream then has the
  // workload's mix, and a run's CPU time per op does not follow its own
  // draw of C2 posts (a C2 share costs some 50 times a C1 share).
  std::vector<char> c2_block;
  const auto next_is_c2 = [&] {
    if (c2_block.empty()) {
      c2_block.assign(10, 0);
      std::fill_n(c2_block.begin(), std::lround(10 * spec.c2_fraction), 1);
      for (std::size_t i = c2_block.size() - 1; i > 0; --i) {
        std::swap(c2_block[i], c2_block[rng.uniform(i + 1)]);
      }
    }
    const bool c2 = c2_block.back() != 0;
    c2_block.pop_back();
    return c2;
  };

  std::uint64_t new_posts = 0;
  double t = 0;
  for (;;) {
    t += -std::log1p(-rng.uniform_real()) / spec.offered_rate;  // Poisson arrivals
    if (t >= seconds) break;
    if (rng.uniform_real() < spec.new_post_fraction) {
      const std::uint64_t slot = new_posts % kActiveSharers;
      const bool c2 = next_is_c2();
      ++new_posts;
      const std::uint64_t sharer = gen.sharer_of(slot);
      Op share;
      share.kind = OpKind::kShare;
      share.post = add_post(sharer, c2, false);
      share.due_s = t;
      share.first_child = static_cast<std::uint32_t>(stream.bursts.size());
      const auto gap = [&] { return -std::log1p(-rng.uniform_real()) * spec.burst_gap_ms / 1000.0; };
      const auto friend_of = [&] { return graph.out_friend(sharer, rng.uniform(graph.out_degree(sharer))); };
      double delay = 0;
      for (std::uint64_t i = 0; i < spec.burst_accesses; ++i) {
        delay += gap();
        stream.bursts.push_back(make_access(share.post, friend_of(), delay));
      }
      const double write_draw = rng.uniform_real();
      if (write_draw < spec.revoke_share + spec.refresh_share) {
        delay += gap();
        const OpKind kind = write_draw < spec.revoke_share ? OpKind::kRevoke : OpKind::kRefresh;
        stream.bursts.push_back(Op{.kind = kind, .post = share.post, .knowledge = {}, .due_s = delay});
        delay += gap();
        stream.bursts.push_back(make_access(share.post, friend_of(), delay));
      }
      share.child_count = static_cast<std::uint32_t>(stream.bursts.size() - share.first_child);
      stream.ops.push_back(std::move(share));
      continue;
    }
    const std::uint64_t rank = zipf.sample(rng);
    const std::uint64_t sharer = gen.sharer_of(rank);
    const std::uint64_t receiver = graph.out_friend(sharer, rng.uniform(graph.out_degree(sharer)));
    stream.ops.push_back(make_access(static_cast<std::uint32_t>(rank), receiver, t));
  }
  stream.users.assign(users.begin(), users.end());
  stream.friendships.assign(friendships.begin(), friendships.end());
  return stream;
}

std::string Stream::digest() const {
  sp::crypto::Sha256 h;
  const auto feed = [&h](const std::string& s) {
    h.update(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  for (const PostInfo& p : posts) {
    feed("post " + std::to_string(p.sharer) + " " + std::to_string(p.c2) + "\n");
    for (const auto& pair : p.context.pairs()) feed(pair.question + "=" + pair.answer + "\n");
  }
  const auto feed_op = [&](const Op& op) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "op %u %u %llu %u %.17g %u %u\n",
                  static_cast<unsigned>(op.kind), op.post,
                  static_cast<unsigned long long>(op.receiver), op.known, op.due_s,
                  op.first_child, op.child_count);
    feed(buf);
    for (const auto& [q, a] : op.knowledge.answers()) feed(q + "=" + a + "\n");
  };
  for (const Op& op : ops) feed_op(op);
  for (const Op& op : bursts) feed_op(op);
  return sp::crypto::to_hex(h.finish());
}

}  // namespace perfbench
