// Self-tests of the benchmark: stream determinism, the oracle's rejections,
// the registry reader, and each workload's stated traffic property.
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "driver.hpp"
#include "oracle.hpp"
#include "registry.hpp"
#include "stats.hpp"
#include "stream.hpp"

namespace perfbench {
namespace {

TEST(Stream, SameSeedSameOperations) {
  for (const WorkloadSpec& spec : workloads()) {
    const Stream a = make_stream(spec, 7, 2.0);
    const Stream b = make_stream(spec, 7, 2.0);
    const Stream c = make_stream(spec, 8, 2.0);
    EXPECT_EQ(a.digest(), b.digest()) << spec.name;
    EXPECT_NE(a.digest(), c.digest()) << spec.name;
    EXPECT_FALSE(a.ops.empty()) << spec.name;
  }
}

TEST(Stream, ShapesMatchTheirWorkload) {
  const auto count = [](const std::vector<Op>& ops, OpKind kind) {
    std::size_t n = 0;
    for (const Op& op : ops) n += op.kind == kind ? 1 : 0;
    return n;
  };
  const Stream hot = make_stream(workload("hot_feed"), 3, 5.0);
  EXPECT_TRUE(hot.bursts.empty());
  EXPECT_EQ(count(hot.ops, OpKind::kShare), 0u);  // read-only
  std::size_t denied = 0;
  for (const Op& op : hot.ops) denied += op.kind == OpKind::kAccess && op.known < kThreshold;
  EXPECT_GT(denied, 0u);

  const WorkloadSpec& spec = workload("fresh_posts");
  const Stream fresh = make_stream(spec, 3, 20.0);
  EXPECT_EQ(count(fresh.ops, OpKind::kShare), fresh.ops.size());
  // Each block of ten new posts holds exactly seven C2 posts.
  std::size_t c2 = 0;
  for (std::size_t i = 0; i < fresh.ops.size(); ++i) {
    c2 += fresh.posts[fresh.ops[i].post].c2 ? 1 : 0;
    if (i % 10 == 9) {
      EXPECT_EQ(c2, (i + 1) / 10 * 7);
    }
  }
  const std::size_t revokes = count(fresh.bursts, OpKind::kRevoke);
  const std::size_t refreshes = count(fresh.bursts, OpKind::kRefresh);
  EXPECT_GT(revokes, 0u);
  EXPECT_GT(refreshes, 0u);
  // Every post gets its burst; a revoked or refreshed one one more access.
  EXPECT_EQ(count(fresh.bursts, OpKind::kAccess),
            fresh.ops.size() * spec.burst_accesses + revokes + refreshes);
}

TEST(Oracle, WriteStillRunningMayBeSeen) {
  constexpr std::int64_t kRunning = std::numeric_limits<std::int64_t>::max();
  PostHistory history;
  history.append({{1, 2, 3}, false, 0, 10});
  history.append({{}, true, 20, kRunning});  // a revoke that has not returned
  EXPECT_EQ(history.acceptable(15, 25).size(), 2u);
  EXPECT_EQ(history.acceptable(30, 40).size(), 2u);
  history.finish_last(30);
  EXPECT_EQ(history.acceptable(35, 40).size(), 1u);
  EXPECT_TRUE(history.revoked_now());
  history.retract_last();  // as after a failed write
  EXPECT_EQ(history.acceptable(35, 40).size(), 1u);
  EXPECT_FALSE(history.revoked_now());
}

sp::core::AccessResult granted(sp::crypto::Bytes object) {
  sp::core::AccessResult r;
  r.granted = true;
  r.object = std::move(object);
  return r;
}

TEST(Oracle, AcceptsCorrectOutcomes) {
  const std::vector<PostVersion> live = {{{1, 2, 3}, false, 0, 10}};
  const AccessExpectation knows{3, 3, 5, false};
  EXPECT_EQ(judge_access(knows, live, nullptr, false).verdict, Verdict::kFailed);
  const auto ok = granted({1, 2, 3});
  EXPECT_EQ(judge_access(knows, live, &ok, false).verdict, Verdict::kOk);
  sp::core::AccessResult denied;
  EXPECT_EQ(judge_access({2, 3, 5, false}, live, &denied, false).verdict, Verdict::kOk);
  sp::core::AccessResult miss;
  miss.granted = true;
  miss.error = sp::net::ServeError::kDhMiss;
  const std::vector<PostVersion> revoked = {{{}, true, 0, 10}};
  EXPECT_EQ(judge_access(knows, revoked, &miss, false).verdict, Verdict::kOk);
  // An access overlapping a refresh may see either version.
  const std::vector<PostVersion> both = {{{1, 2, 3}, false, 0, 10}, {{4, 5, 6}, false, 20, 30}};
  const auto fresh = granted({4, 5, 6});
  EXPECT_EQ(judge_access(knows, both, &fresh, false).verdict, Verdict::kOk);
}

TEST(Oracle, RejectsWrongResults) {
  const std::vector<PostVersion> live = {{{1, 2, 3}, false, 0, 10}};
  const auto ok = granted({1, 2, 3});
  // A grant with m < k.
  EXPECT_EQ(judge_access({2, 3, 5, false}, live, &ok, false).verdict, Verdict::kViolation);
  // Altered bytes.
  const auto altered = granted({1, 2, 4});
  EXPECT_EQ(judge_access({3, 3, 5, false}, live, &altered, false).verdict, Verdict::kViolation);
  // A served revoked post.
  const std::vector<PostVersion> revoked = {{{1, 2, 3}, false, 0, 10}, {{}, true, 20, 30}};
  PostHistory history;
  for (const PostVersion& v : revoked) history.append(v);
  const std::vector<PostVersion> after_revoke = history.acceptable(40, 50);
  ASSERT_EQ(after_revoke.size(), 1u);
  EXPECT_EQ(judge_access({3, 3, 5, false}, after_revoke, &ok, false).verdict, Verdict::kViolation);
  // Errors the oracle did not expect are failures, not violations.
  sp::core::AccessResult miss;
  miss.granted = true;
  miss.error = sp::net::ServeError::kDhMiss;
  EXPECT_EQ(judge_access({3, 3, 5, false}, live, &miss, false).verdict, Verdict::kFailed);
  sp::core::AccessResult denied;
  EXPECT_EQ(judge_access({5, 3, 5, false}, live, &denied, false).verdict, Verdict::kFailed);
  EXPECT_EQ(judge_access({5, 3, 5, true}, live, &denied, false).verdict, Verdict::kFailed);
}

TEST(Oracle, OverlapWindow) {
  PostHistory history;
  history.append({{1}, false, 0, 10});
  history.append({{2}, false, 20, 30});
  history.append({{}, true, 40, 50});
  EXPECT_EQ(history.acceptable(11, 15).size(), 1u);  // settled: version 0
  EXPECT_EQ(history.acceptable(15, 25).size(), 2u);  // overlaps the refresh
  EXPECT_EQ(history.acceptable(25, 45).size(), 3u);  // starts mid-refresh, overlaps the revoke
  EXPECT_EQ(history.acceptable(60, 70).size(), 1u);
  EXPECT_TRUE(history.revoked_now());
}

TEST(Registry, ParsesAndSumsSeries) {
  const RegistrySnapshot a = RegistrySnapshot::parse(
      "# TYPE x counter\nx{class=\"c1\",result=\"hit\"} 3\nx{class=\"c2\",result=\"hit\"} 4\n"
      "x{class=\"c2\",result=\"miss\"} 1\nh_sum 2.5\nh_count 2\nh_bucket{le=\"1\"} 1\n");
  EXPECT_EQ(a.sum("x"), 8.0);
  EXPECT_EQ(a.sum("x", {"result=\"hit\""}), 7.0);
  EXPECT_EQ(a.sum("h_count"), 2.0);
  EXPECT_EQ(a.sum("h"), std::nullopt);
  EXPECT_EQ(a.sum("missing"), std::nullopt);
}

TEST(Stats, LadderKeepsTenSamplesBeyond) {
  EXPECT_EQ(ladder_percentile(1000), 99);
  EXPECT_EQ(ladder_percentile(999), 90);
  EXPECT_EQ(ladder_percentile(19), 50);
  EXPECT_EQ(window_count(100), 1u);
  EXPECT_EQ(window_count(1600), 3u);
  EXPECT_EQ(window_count(1e6), 2000u);
}

TEST(Stats, LeastDisturbedKeepsAtLeastAQuarter) {
  const std::vector<double> scores = {0.01, 0.05, 0.02, 0.2, 0.04, 0.06, 0.1, 0.08};
  EXPECT_EQ(least_disturbed(scores, 0.03),
            (std::vector<bool>{true, false, true, false, false, false, false, false}));
  // One window is within the limit; the two least disturbed are used.
  EXPECT_EQ(least_disturbed(scores, 0.015),
            (std::vector<bool>{true, false, true, false, false, false, false, false}));
  EXPECT_EQ(least_disturbed({0.5, 0.5, 0.4}, 0.03), (std::vector<bool>{false, false, true}));
  EXPECT_EQ(least_disturbed({}, 0.03), std::vector<bool>{});
}

TEST(Stats, WindowedPercentileIsTheMedianOverWindows) {
  // Five windows; the third is disturbed. The median over windows ignores it.
  std::vector<TimedSample> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 100; ++i) {
      samples.push_back({w + i / 100.0, w == 2 ? 100.0 : static_cast<double>(i)});
    }
  }
  const Windowed p99 = windowed_percentile(samples, 5.0, 5, 99);
  EXPECT_EQ(p99.windows, 5u);
  EXPECT_EQ(p99.min_beyond, 1u);
  EXPECT_NEAR(p99.value, 98.01, 1e-9);
  EXPECT_NEAR(windowed_percentile(samples, 5.0, 5, 50).value, 49.5, 1e-9);
  // Windows the keep predicate rejects (host steal) are left out.
  const auto keep = [](double t0, double) { return t0 < 1.5 || t0 > 2.5; };
  const Windowed kept = windowed_percentile(samples, 5.0, 5, 100, keep);
  EXPECT_EQ(kept.windows, 4u);
  EXPECT_EQ(kept.skipped, 1u);
  EXPECT_EQ(kept.samples, 400u);
  EXPECT_NEAR(kept.value, 99.0, 1e-9);
  // A predicate that rejects every window falls back to all of them.
  const Windowed none = windowed_percentile(samples, 5.0, 5, 100, [](double, double) { return false; });
  EXPECT_EQ(none.windows, 5u);
  EXPECT_EQ(none.skipped, 0u);
}

/// Runs a short workload at the reduced preset.
Report short_run(const std::string& name, double seconds, bool trace) {
  Options opt;
  opt.workload = name;
  opt.seed = 11;
  opt.seconds = seconds;
  opt.settle_s = 1;
  opt.trace = trace;
  opt.workdir = "perfbench-selftest-run";
  opt.preset = sp::ec::ParamPreset::kTest;
  opt.setups = 1;
  opt.restarts = 1;
  return run_benchmark(opt);
}

void expect_clean(const Report& r) {
  EXPECT_TRUE(r.correct()) << r.violation;
  EXPECT_EQ(r.failed, 0u) << r.meta.at("first_failure");
  EXPECT_EQ(r.invalid_reason, "");
}

bool has(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return true;
  }
  return false;
}

TEST(Workloads, CacheHitShareHighOnHotFeedLowOnFreshPosts) {
  const Report hot = short_run("hot_feed", 3, false);
  const Report fresh = short_run("fresh_posts", 3, false);
  std::printf("serve-cache hit share: hot_feed %.3f, fresh_posts %.3f\n", hot.cache_hit_share,
              fresh.cache_hit_share);
  expect_clean(hot);
  expect_clean(fresh);
  EXPECT_GT(hot.cache_hit_share, 0.95);
  EXPECT_LT(fresh.cache_hit_share, hot.cache_hit_share - 0.1);
  EXPECT_TRUE(has(fresh.extras, "core.access.c2_miss_ms"));
  EXPECT_FALSE(has(hot.extras, "core.access.c2_miss_ms"));  // the catalogue stays cached
}

TEST(Workloads, FreshPostsRevokeAndRefreshUnderTheOracle) {
  const Report fresh = short_run("fresh_posts", 8, false);
  expect_clean(fresh);
  EXPECT_TRUE(has(fresh.extras, "core.refresh_ms"));
  EXPECT_TRUE(has(fresh.extras, "core.revoke_ms"));
  EXPECT_TRUE(has(fresh.extras, "core.access.revoked_ms"));
}

TEST(Workloads, TracedRunReportsEveryLayer) {
  const Report traced = short_run("hot_feed", 4, true);
  expect_clean(traced);
  for (const char* name : {"trace.coverage", "trace.overhead", "core.session.residual_ms",
                           "abe.decrypt_ms", "core.c1.sig_verify_ms", "ec.multi_pairing_ms",
                           "storage.fsync_ms", "core.serve_cache.hit_ratio"}) {
    EXPECT_TRUE(has(traced.metrics, name)) << name;
  }
}

}  // namespace
}  // namespace perfbench
