// Chaos coverage for the cached serving path (PR 10): the PR 5 fault plans
// driven through a cache-enabled session. Invariants: a fault during a fill
// never caches a partial or poisoned entry (corrupted blobs must not mint
// DEM-key entries; injected misses on live blobs must not mint negative
// markers), and same-seed fault runs stay byte-identical with the cache on.
// The ChaosHammer suite name keeps these inside the TSan CI filter.
#include <gtest/gtest.h>

#include <string>

#include "core/serve_cache.hpp"
#include "core/session.hpp"
#include "crypto/drbg.hpp"
#include "support/fixtures.hpp"

namespace sp::core {
namespace {

using crypto::to_bytes;
using Kind = ServeCache::Kind;

constexpr auto kDem = static_cast<std::size_t>(Kind::kC2Dem);
constexpr auto kNeg = static_cast<std::size_t>(Kind::kDhNegative);

SessionConfig cached_fault_config(const std::string& seed, net::FaultPlan plan) {
  SessionConfig cfg = testsupport::toy_config(seed);
  cfg.cache = CacheConfig{};
  plan.partial_drop_frac = 1.0;  // whole-reply drops: outcomes are schedule-pure
  cfg.faults = std::move(plan);
  cfg.retry.max_attempts = 3;
  return cfg;
}

TEST(CacheChaosHammer, CorruptedFillNeverCachesDemKey) {
  // Every CT download corrupts: Construction 2's GCM open fails on every
  // attempt, so no DEM key was ever authenticated — the cache must stay
  // empty of kC2Dem entries. One poisoned entry here would replay a
  // corrupted key to every later request.
  net::FaultPlan plan;
  plan.p_dh_corrupt = 1.0;
  plan.seed = "cache-chaos-corrupt";
  testsupport::FanoutRig rig(cached_fault_config("cache-chaos-corrupt", plan), 2);
  const Knowledge knows = Knowledge::full(rig.ctx_);
  for (int i = 0; i < 4; ++i) {
    const auto result = rig.session_.access_with_retries(rig.receivers_[i % 2], rig.c2_post_,
                                                         knows, net::pc_profile(), 2);
    EXPECT_FALSE(result.success());
  }
  const auto stats = rig.session_.serve_cache()->stats();
  EXPECT_EQ(stats.insertions[kDem], 0u);
  EXPECT_EQ(stats.hits[kDem], 0u);
}

TEST(CacheChaosHammer, InjectedMissOnLiveBlobNeverCachesNegative) {
  // p_dh_miss = 1 makes every fetch *look* like a missing blob, but the blob
  // is alive — only authoritative absence may mint a negative marker, or a
  // transient fault would turn into a persistent fast-fail.
  net::FaultPlan plan;
  plan.p_dh_miss = 1.0;
  plan.seed = "cache-chaos-miss";
  testsupport::FanoutRig rig(cached_fault_config("cache-chaos-miss", plan), 2);
  const Knowledge knows = Knowledge::full(rig.ctx_);
  for (int i = 0; i < 4; ++i) {
    const auto result = rig.session_.access_with_retries(rig.receivers_[i % 2], rig.c2_post_,
                                                         knows, net::pc_profile(), 2);
    EXPECT_FALSE(result.success());
  }
  const auto stats = rig.session_.serve_cache()->stats();
  EXPECT_EQ(stats.insertions[kNeg], 0u);
  EXPECT_EQ(rig.session_.serve_cache()->negative_size(), 0u);
}

TEST(CacheChaosHammer, FaultsDelayButNeverWrongBytes) {
  // 10% mixed faults through the cached path: whatever is granted must be
  // the true plaintext — transient faults may cost retries, never bytes.
  testsupport::FanoutRig rig(cached_fault_config(
                                 "cache-chaos-mixed",
                                 net::FaultPlan::uniform(0.10, "cache-chaos-mixed-plan")),
                             4);
  const Knowledge knows = Knowledge::full(rig.ctx_);
  std::size_t granted = 0;
  for (int i = 0; i < 24; ++i) {
    const bool is_c1 = i % 2 == 0;
    const auto result = rig.session_.access_with_retries(
        rig.receivers_[i % 4], is_c1 ? rig.c1_post_ : rig.c2_post_, knows, net::pc_profile(), 4);
    if (result.success()) {
      ++granted;
      EXPECT_EQ(*result.object, is_c1 ? to_bytes("c1 object") : to_bytes("c2 object"));
    }
  }
  EXPECT_GT(granted, 0u);
  const auto stats = rig.session_.serve_cache()->stats();
  EXPECT_GT(stats.hits[kDem] + stats.hits[static_cast<std::size_t>(Kind::kC1Sig)], 0u);
}

TEST(CacheChaosHammer, SameSeedFaultReplayIsByteIdenticalWithCacheOn) {
  // Two rigs, same seed, same fault plan, cache on: identical grant/deny/
  // error streams, identical object bytes, identical cache counters. The
  // cache must not introduce scheduling- or address-dependent behavior into
  // the deterministic replay contract PR 5 established.
  const auto build = [] {
    return testsupport::FanoutRig(
        cached_fault_config("cache-chaos-replay",
                            net::FaultPlan::uniform(0.15, "cache-chaos-replay-plan")),
        2);
  };
  testsupport::FanoutRig a = build();
  testsupport::FanoutRig b = build();
  const Knowledge knows = Knowledge::full(a.ctx_);
  for (int i = 0; i < 16; ++i) {
    const bool is_c1 = i % 2 == 0;
    const auto ra = a.session_.access_with_retries(
        a.receivers_[i % 2], is_c1 ? a.c1_post_ : a.c2_post_, knows, net::pc_profile(), 4);
    const auto rb = b.session_.access_with_retries(
        b.receivers_[i % 2], is_c1 ? b.c1_post_ : b.c2_post_, knows, net::pc_profile(), 4);
    ASSERT_EQ(ra.granted, rb.granted) << "request " << i;
    ASSERT_EQ(ra.error, rb.error) << "request " << i;
    ASSERT_EQ(ra.attempts, rb.attempts) << "request " << i;
    ASSERT_EQ(ra.object.has_value(), rb.object.has_value()) << "request " << i;
    if (ra.object) {
      ASSERT_EQ(*ra.object, *rb.object) << "request " << i;
    }
    // Modeled network cost is schedule-pure, so it must replay exactly too.
    ASSERT_DOUBLE_EQ(ra.cost.network_ms(), rb.cost.network_ms()) << "request " << i;
  }
  const auto sa = a.session_.serve_cache()->stats();
  const auto sb = b.session_.serve_cache()->stats();
  for (std::size_t k = 0; k < ServeCache::kKindCount; ++k) {
    EXPECT_EQ(sa.hits[k], sb.hits[k]) << "kind " << k;
    EXPECT_EQ(sa.misses[k], sb.misses[k]) << "kind " << k;
    EXPECT_EQ(sa.insertions[k], sb.insertions[k]) << "kind " << k;
  }
  EXPECT_EQ(sa.entries, sb.entries);
  EXPECT_EQ(sa.negative_entries, sb.negative_entries);
}

}  // namespace
}  // namespace sp::core
