// Serving-cache invariants (PR 10): the standalone LRU/admission/invalidation
// semantics, then the Session integration contract — a cache hit may only
// shortcut work the SP already granted, churn (refresh/revoke) must evict,
// and the sp_cache_* metric deltas must match the per-instance counters.
#include "core/serve_cache.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "support/fixtures.hpp"

namespace sp::core {
namespace {

using crypto::Bytes;
using crypto::to_bytes;
using testsupport::party_context;
using testsupport::toy_config;
using Kind = ServeCache::Kind;

constexpr auto kSig = static_cast<std::size_t>(Kind::kC1Sig);
constexpr auto kDem = static_cast<std::size_t>(Kind::kC2Dem);
constexpr auto kNeg = static_cast<std::size_t>(Kind::kDhNegative);

// ------------------------------------------------------------- standalone

TEST(ServeCacheTest, KeySegmentsAreDistinct) {
  // Epoch, class and suffix each rotate the key; no pair may collide.
  const std::string a = ServeCache::key("post-1", 0, Kind::kC1Sig);
  EXPECT_NE(a, ServeCache::key("post-1", 1, Kind::kC1Sig));
  EXPECT_NE(a, ServeCache::key("post-1", 0, Kind::kC2Dem));
  EXPECT_NE(a, ServeCache::key("post-1", 0, Kind::kC1Sig, "url"));
  // Post ids embedding other ids must not prefix-collide after the
  // separator: "post-1" vs "post-10".
  EXPECT_NE(ServeCache::key("post-10", 0, Kind::kC1Sig), a);
}

TEST(ServeCacheTest, GetPutRoundTripAndStats) {
  ServeCache cache(CacheConfig{.capacity = 16, .shards = 2});
  const std::string key = ServeCache::key("p", 0, Kind::kC2Dem);
  EXPECT_FALSE(cache.get(key, Kind::kC2Dem).has_value());
  cache.put(key, Kind::kC2Dem, to_bytes("dem-key"));
  const auto hit = cache.get(key, Kind::kC2Dem);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, to_bytes("dem-key"));
  const auto s = cache.stats();
  EXPECT_EQ(s.misses[kDem], 1u);
  EXPECT_EQ(s.hits[kDem], 1u);
  EXPECT_EQ(s.insertions[kDem], 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ServeCacheTest, PutRefreshesInPlace) {
  ServeCache cache(CacheConfig{.capacity = 8, .shards = 1});
  const std::string key = ServeCache::key("p", 0, Kind::kC2Dem);
  cache.put(key, Kind::kC2Dem, to_bytes("old"));
  cache.put(key, Kind::kC2Dem, to_bytes("new"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get(key, Kind::kC2Dem), to_bytes("new"));
}

TEST(ServeCacheTest, CapacityBoundNeverExceededAndLruEvicts) {
  ServeCache cache(CacheConfig{.capacity = 8, .shards = 1, .admission = false});
  for (int i = 0; i < 50; ++i) {
    cache.put(ServeCache::key("p" + std::to_string(i), 0, Kind::kC1Sig), Kind::kC1Sig, Bytes{1});
    ASSERT_LE(cache.size(), cache.capacity());
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, cache.capacity());
  EXPECT_EQ(s.evictions, 50u - cache.capacity());
  // Oldest entries are gone, newest survive.
  EXPECT_FALSE(cache.get(ServeCache::key("p0", 0, Kind::kC1Sig), Kind::kC1Sig).has_value());
  EXPECT_TRUE(cache.get(ServeCache::key("p49", 0, Kind::kC1Sig), Kind::kC1Sig).has_value());
}

TEST(ServeCacheTest, LruRecencyProtectsTouchedEntries) {
  ServeCache cache(CacheConfig{.capacity = 2, .shards = 1, .admission = false});
  const std::string a = ServeCache::key("a", 0, Kind::kC1Sig);
  const std::string b = ServeCache::key("b", 0, Kind::kC1Sig);
  cache.put(a, Kind::kC1Sig, Bytes{1});
  cache.put(b, Kind::kC1Sig, Bytes{1});
  ASSERT_TRUE(cache.get(a, Kind::kC1Sig).has_value());  // a is now most recent
  cache.put(ServeCache::key("c", 0, Kind::kC1Sig), Kind::kC1Sig, Bytes{1});
  EXPECT_TRUE(cache.get(a, Kind::kC1Sig).has_value());
  EXPECT_FALSE(cache.get(b, Kind::kC1Sig).has_value());  // b was the LRU victim
}

TEST(ServeCacheTest, AdmissionRejectsColdNewcomerKeepsHotResident) {
  ServeCache cache(CacheConfig{.capacity = 1, .shards = 1, .admission = true});
  const std::string hot = ServeCache::key("hot", 0, Kind::kC2Dem);
  cache.put(hot, Kind::kC2Dem, to_bytes("v"));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(cache.get(hot, Kind::kC2Dem).has_value());
  // A one-hit wonder arrives at a full shard: its sketch estimate (1-2
  // touches) is below the resident's, so it must be turned away.
  cache.put(ServeCache::key("cold", 0, Kind::kC2Dem), Kind::kC2Dem, to_bytes("w"));
  EXPECT_TRUE(cache.get(hot, Kind::kC2Dem).has_value());
  EXPECT_GE(cache.stats().admission_rejected, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ServeCacheTest, NegativeCacheFifoBound) {
  ServeCache cache(CacheConfig{.negative_capacity = 4, .shards = 1});
  for (int i = 0; i < 20; ++i) {
    cache.negative_put(ServeCache::key("p" + std::to_string(i), 0, Kind::kDhNegative, "url"));
    ASSERT_LE(cache.negative_size(), cache.negative_capacity());
  }
  EXPECT_EQ(cache.stats().negative_evictions, 20u - cache.negative_capacity());
  // FIFO: earliest markers rolled out, latest are live.
  EXPECT_FALSE(cache.negative_hit(ServeCache::key("p0", 0, Kind::kDhNegative, "url")));
  EXPECT_TRUE(cache.negative_hit(ServeCache::key("p19", 0, Kind::kDhNegative, "url")));
}

TEST(ServeCacheTest, NegativePutIsIdempotent) {
  ServeCache cache(CacheConfig{.negative_capacity = 4, .shards = 1});
  const std::string key = ServeCache::key("p", 0, Kind::kDhNegative, "url");
  cache.negative_put(key);
  cache.negative_put(key);
  EXPECT_EQ(cache.negative_size(), 1u);
}

TEST(ServeCacheTest, InvalidatePostSweepsAllClassesEpochsAndSuffixes) {
  ServeCache cache(CacheConfig{.capacity = 64, .shards = 4});
  cache.put(ServeCache::key("doomed", 0, Kind::kC1Sig, "url-a"), Kind::kC1Sig, Bytes{1});
  cache.put(ServeCache::key("doomed", 1, Kind::kC1Sig, "url-b"), Kind::kC1Sig, Bytes{1});
  cache.put(ServeCache::key("doomed", 1, Kind::kC2Dem), Kind::kC2Dem, to_bytes("k"));
  cache.negative_put(ServeCache::key("doomed", 2, Kind::kDhNegative, "url-c"));
  cache.put(ServeCache::key("doomed-sibling", 0, Kind::kC1Sig), Kind::kC1Sig, Bytes{1});
  EXPECT_EQ(cache.invalidate_post("doomed"), 4u);
  EXPECT_EQ(cache.size(), 1u);  // the sibling post (prefix-distinct) survives
  EXPECT_EQ(cache.negative_size(), 0u);
  EXPECT_EQ(cache.stats().invalidated, 4u);
  EXPECT_EQ(cache.invalidate_post("doomed"), 0u);  // idempotent
}

TEST(ServeCacheTest, ClearWipesEverything) {
  ServeCache cache(CacheConfig{.capacity = 16, .shards = 2});
  cache.put(ServeCache::key("a", 0, Kind::kC1Sig), Kind::kC1Sig, Bytes{1});
  cache.negative_put(ServeCache::key("b", 0, Kind::kDhNegative, "u"));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.negative_size(), 0u);
}

// ------------------------------------------------------ session integration

SessionConfig cached_config(const std::string& seed) {
  SessionConfig cfg = toy_config(seed);
  cfg.cache = CacheConfig{};
  return cfg;
}

class CachedSessionTest : public testsupport::SessionFixture {
 protected:
  CachedSessionTest() : SessionFixture(cached_config("serve-cache-tests")) {}
};

TEST_F(CachedSessionTest, RepeatC1AccessHitsSignatureMemo) {
  const Context ctx = party_context();
  const auto receipt = session_.share_c1(sharer_, to_bytes("c1 obj"), ctx, 2, 4, net::pc_profile());
  ServeCache* cache = session_.serve_cache();
  ASSERT_NE(cache, nullptr);

  const auto first = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(first.success());
  const auto after_first = cache->stats();
  EXPECT_EQ(after_first.insertions[kSig], 1u);
  EXPECT_EQ(after_first.hits[kSig], 0u);

  const auto second = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(second.success());
  EXPECT_EQ(*second.object, *first.object);
  EXPECT_EQ(cache->stats().hits[kSig], after_first.hits[kSig] + 1);
}

TEST_F(CachedSessionTest, RepeatC2AccessHitsDemMemoAndSkipsKeyFileDownloads) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("abe object under cache");
  const auto receipt = session_.share_c2(sharer_, object, ctx, 2, net::pc_profile());
  ServeCache* cache = session_.serve_cache();

  const auto cold = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(cold.success());
  EXPECT_EQ(cache->stats().insertions[kDem], 1u);

  const auto warm = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(warm.success());
  EXPECT_EQ(*warm.object, object);
  EXPECT_EQ(cache->stats().hits[kDem], 1u);
  // The hit path skips the PK/MK exchanges: strictly fewer bytes moved.
  EXPECT_LT(warm.cost.bytes_transferred(), cold.cost.bytes_transferred());
}

TEST_F(CachedSessionTest, DeniedRequestNeverFillsTheCache) {
  // The cache sits behind the SP's Verify: a denial must leave no trace that
  // could later shortcut anything.
  const Context ctx = party_context();
  const auto receipt = session_.share_c2(sharer_, to_bytes("obj"), ctx, 3, net::pc_profile());
  crypto::Drbg krng("cache-denied");
  const Knowledge weak = Knowledge::partial(ctx, 1, krng);
  const auto result = session_.access(friend_, receipt.post_id, weak, net::pc_profile());
  EXPECT_FALSE(result.granted);
  EXPECT_EQ(session_.serve_cache()->size(), 0u);
}

TEST_F(CachedSessionTest, RevocationAlwaysEvicts) {
  // THE correctness invariant of this PR: no cached grant survives
  // revocation. If this test fails the cache is serving revoked objects —
  // treat as a release blocker, not a flake.
  const Context ctx = party_context();
  const Bytes object = to_bytes("to be revoked");
  const auto receipt = session_.share_c2(sharer_, object, ctx, 2, net::pc_profile());
  ServeCache* cache = session_.serve_cache();

  ASSERT_TRUE(session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile()).success());
  ASSERT_GE(cache->size(), 1u);
  const std::uint64_t epoch_before = session_.puzzle_epoch(receipt.post_id);
  const std::string dem_key = ServeCache::key(receipt.post_id, epoch_before, Kind::kC2Dem);

  session_.revoke(sharer_, receipt.post_id);
  // Belt: the epoch rotated, so the old key is unreachable from the serving
  // path. Suspenders: the entry itself is gone.
  EXPECT_EQ(session_.puzzle_epoch(receipt.post_id), epoch_before + 1);
  EXPECT_FALSE(cache->get(dem_key, Kind::kC2Dem).has_value());
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_GE(cache->stats().invalidated, 1u);

  const auto after = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  EXPECT_FALSE(after.success());
  EXPECT_EQ(after.error, net::ServeError::kDhMiss);
}

TEST_F(CachedSessionTest, RefreshEvictsAndOldEpochKeysAreUnreachable) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("refresh target");
  const auto receipt = session_.share_c2(sharer_, object, ctx, 2, net::pc_profile());
  ServeCache* cache = session_.serve_cache();

  ASSERT_TRUE(session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile()).success());
  ASSERT_GE(cache->size(), 1u);
  session_.refresh(sharer_, receipt.post_id, object, ctx, net::pc_profile());
  EXPECT_EQ(cache->size(), 0u);

  // Post still serves (fresh fill under the new epoch), and the re-access
  // is a miss, not a stale hit.
  const auto before = cache->stats();
  const auto result = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(result.success());
  EXPECT_EQ(*result.object, object);
  EXPECT_EQ(cache->stats().hits[kDem], before.hits[kDem]);
  EXPECT_EQ(cache->stats().insertions[kDem], before.insertions[kDem] + 1);
}

TEST_F(CachedSessionTest, NegativeCacheFillsAfterRevokeAndExpiresOnReupload) {
  const Context ctx = party_context();
  const Bytes object = to_bytes("negative lifecycle");
  const auto receipt = session_.share_c1(sharer_, object, ctx, 2, 4, net::pc_profile());
  ServeCache* cache = session_.serve_cache();
  session_.revoke(sharer_, receipt.post_id);

  // First post-revoke access pays the DH round trip and records the
  // authoritative miss; the second fails fast off the marker.
  const auto miss1 = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  EXPECT_EQ(miss1.error, net::ServeError::kDhMiss);
  EXPECT_EQ(cache->negative_size(), 1u);
  const auto neg_hits_before = cache->stats().hits[kNeg];
  const auto miss2 = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  EXPECT_EQ(miss2.error, net::ServeError::kDhMiss);
  EXPECT_EQ(cache->stats().hits[kNeg], neg_hits_before + 1);

  // The restoring re-upload must clear the marker — a successful refresh
  // that still fails fast would be the negative-cache staleness bug.
  session_.refresh(sharer_, receipt.post_id, object, ctx, net::pc_profile());
  EXPECT_EQ(cache->negative_size(), 0u);
  const auto restored = session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile());
  ASSERT_TRUE(restored.success());
  EXPECT_EQ(*restored.object, object);
}

TEST_F(CachedSessionTest, RevokeIsIdempotentAndSharerOnly) {
  const Context ctx = party_context();
  const auto receipt = session_.share_c1(sharer_, to_bytes("obj"), ctx, 2, 4, net::pc_profile());
  EXPECT_THROW(session_.revoke(friend_, receipt.post_id), std::logic_error);
  const std::uint64_t e0 = session_.puzzle_epoch(receipt.post_id);
  session_.revoke(sharer_, receipt.post_id);
  session_.revoke(sharer_, receipt.post_id);  // second revoke is a no-op
  EXPECT_EQ(session_.puzzle_epoch(receipt.post_id), e0 + 1);
  EXPECT_THROW(session_.revoke(sharer_, "puzzle-999"), std::out_of_range);
}

TEST_F(CachedSessionTest, GlobalMetricDeltasMatchInstanceStats) {
  // The sp_cache_* series aggregate across instances; around a driven load
  // on one session their deltas must equal the instance's own counters.
  auto& reg = obs::MetricsRegistry::global();
  auto& dem_hit = reg.counter("sp_cache_requests_total", "",
                              {{"class", "c2_dem"}, {"result", "hit"}});
  auto& dem_miss = reg.counter("sp_cache_requests_total", "",
                               {{"class", "c2_dem"}, {"result", "miss"}});
  auto& dem_ins = reg.counter("sp_cache_insertions_total", "", {{"class", "c2_dem"}});
  auto& invalidated = reg.counter("sp_cache_invalidated_total", "");

  const Context ctx = party_context();
  const auto receipt = session_.share_c2(sharer_, to_bytes("metric obj"), ctx, 2, net::pc_profile());
  ServeCache* cache = session_.serve_cache();
  const auto s0 = cache->stats();
  const auto g0_hit = dem_hit.value();
  const auto g0_miss = dem_miss.value();
  const auto g0_ins = dem_ins.value();
  const auto g0_inv = invalidated.value();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        session_.access(friend_, receipt.post_id, Knowledge::full(ctx), net::pc_profile())
            .success());
  }
  session_.revoke(sharer_, receipt.post_id);

  const auto s1 = cache->stats();
  EXPECT_EQ(s1.hits[kDem] - s0.hits[kDem], 2u);
  EXPECT_EQ(dem_hit.value() - g0_hit, s1.hits[kDem] - s0.hits[kDem]);
  EXPECT_EQ(dem_miss.value() - g0_miss, s1.misses[kDem] - s0.misses[kDem]);
  EXPECT_EQ(dem_ins.value() - g0_ins, s1.insertions[kDem] - s0.insertions[kDem]);
  EXPECT_EQ(invalidated.value() - g0_inv, s1.invalidated - s0.invalidated);
}

TEST(CachedSessionEquivalence, CacheOnAndOffServeIdenticalResults) {
  // The cache is a pure accelerator: with the same seed, cache-on and
  // cache-off sessions must agree on every grant, denial and object byte.
  testsupport::FanoutRig with(cached_config("cache-ab"), 2);
  testsupport::FanoutRig without(toy_config("cache-ab"), 2);
  const Knowledge knows = Knowledge::full(with.ctx_);
  crypto::Drbg weak_rng("cache-ab-weak");
  const Knowledge weak = Knowledge::partial(with.ctx_, 1, weak_rng);

  for (int round = 0; round < 3; ++round) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (const bool c1 : {true, false}) {
        const std::string& post_a = c1 ? with.c1_post_ : with.c2_post_;
        const std::string& post_b = c1 ? without.c1_post_ : without.c2_post_;
        const Knowledge& k = round == 2 ? weak : knows;
        const auto a = with.session_.access(with.receivers_[r], post_a, k, net::pc_profile());
        const auto b =
            without.session_.access(without.receivers_[r], post_b, k, net::pc_profile());
        ASSERT_EQ(a.granted, b.granted);
        ASSERT_EQ(a.object.has_value(), b.object.has_value());
        if (a.object) {
          EXPECT_EQ(*a.object, *b.object);
        }
        EXPECT_EQ(a.error, b.error);
        // Modeled network time may legitimately differ (hits skip
        // exchanges) — the contract is outcomes, not cost.
      }
    }
  }
  EXPECT_GT(with.session_.serve_cache()->stats().hits[kSig] +
                with.session_.serve_cache()->stats().hits[kDem],
            0u);
}

}  // namespace
}  // namespace sp::core
