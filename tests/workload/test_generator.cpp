// Property suite for the workload generator (PR 10 satellite): the
// generator is test infrastructure, so it gets the full treatment —
// byte-identical determinism, distribution-shape bounds, and lazy-vs-oracle
// agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "workload/generator.hpp"

namespace sp::workload {
namespace {

WorkloadConfig small_config(const std::string& seed) {
  WorkloadConfig cfg;
  cfg.graph.users = 5000;
  cfg.graph.seed = seed;
  cfg.catalog_posts = 500;
  return cfg;
}

// ---------------------------------------------------------- determinism

TEST(WorkloadGenerator, SameSeedByteIdenticalTrace) {
  TraceGenerator a(small_config("seed-A"));
  TraceGenerator b(small_config("seed-A"));
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(TraceGenerator::encode(a.next()), TraceGenerator::encode(b.next())) << "event " << i;
  }
}

TEST(WorkloadGenerator, DifferentSeedsDiverge) {
  TraceGenerator a(small_config("seed-A"));
  TraceGenerator b(small_config("seed-B"));
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = TraceGenerator::encode(a.next()) != TraceGenerator::encode(b.next());
  }
  EXPECT_TRUE(diverged);
}

TEST(WorkloadGenerator, GraphQueriesArePureFunctions) {
  const GraphConfig cfg{.users = 100000, .seed = "pure"};
  const LazyGraph g1(cfg);
  const LazyGraph g2(cfg);
  for (std::uint64_t u : {0ULL, 1ULL, 31337ULL, 99999ULL}) {
    ASSERT_EQ(g1.out_degree(u), g2.out_degree(u));
    ASSERT_EQ(g1.out_friends(u), g2.out_friends(u));
  }
}

// ----------------------------------------------------- degree distribution

// KS-style bound on the out-degree tail: the configured bounded Pareto has
// P(D >= d) = (min/d)^(gamma-1) well below the clip. With n = 20000 users
// the empirical CCDF at any fixed point has sd <= 0.0036, so |diff| < 0.02
// is a > 5-sigma bound — a real shape regression trips it, noise cannot.
TEST(WorkloadGenerator, DegreeDistributionMatchesPowerLawExponent) {
  GraphConfig cfg;
  cfg.users = 20000;
  cfg.gamma = 2.5;
  cfg.min_degree = 4;
  cfg.max_degree = 4096;
  cfg.seed = "degrees";
  const LazyGraph graph(cfg);
  const double alpha = cfg.gamma - 1.0;
  for (const double d : {8.0, 16.0, 32.0, 64.0}) {
    std::size_t at_least = 0;
    for (std::uint64_t u = 0; u < cfg.users; ++u) {
      if (static_cast<double>(graph.out_degree(u)) >= d) ++at_least;
    }
    const double empirical = static_cast<double>(at_least) / static_cast<double>(cfg.users);
    const double theoretical = std::pow(static_cast<double>(cfg.min_degree) / d, alpha);
    EXPECT_NEAR(empirical, theoretical, 0.02) << "CCDF at degree " << d;
  }
  // And the hard clip really is hard.
  for (std::uint64_t u = 0; u < cfg.users; ++u) {
    const std::uint64_t degree = graph.out_degree(u);
    ASSERT_GE(degree, cfg.min_degree);
    ASSERT_LE(degree, cfg.max_degree);
  }
}

// ------------------------------------------------------- zipf frequencies

TEST(WorkloadGenerator, ZipfFrequenciesWithinTolerance) {
  constexpr std::uint64_t kRanks = 1000;
  constexpr double kS = 1.2;
  constexpr std::size_t kSamples = 200000;
  ZipfSampler zipf(kRanks, kS);
  crypto::Drbg rng("zipf-freq");
  std::vector<std::size_t> counts(kRanks, 0);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const std::uint64_t rank = zipf.sample(rng);
    ASSERT_LT(rank, kRanks);
    ++counts[rank];
  }
  double harmonic = 0;
  for (std::uint64_t r = 1; r <= kRanks; ++r) harmonic += std::pow(static_cast<double>(r), -kS);
  // Head ranks: empirical frequency within 5% relative of 1/(r^s H_n(s)).
  for (std::uint64_t r = 1; r <= 5; ++r) {
    const double expected = std::pow(static_cast<double>(r), -kS) / harmonic;
    const double actual = static_cast<double>(counts[r - 1]) / kSamples;
    EXPECT_NEAR(actual, expected, 0.05 * expected) << "rank " << r;
  }
  // Tail mass (beyond rank 100) within +/-0.01 absolute of theory.
  double tail_expected = 0;
  for (std::uint64_t r = 101; r <= kRanks; ++r) {
    tail_expected += std::pow(static_cast<double>(r), -kS) / harmonic;
  }
  std::size_t tail_count = 0;
  for (std::uint64_t r = 100; r < kRanks; ++r) tail_count += counts[r];
  EXPECT_NEAR(static_cast<double>(tail_count) / kSamples, tail_expected, 0.01);
}

TEST(WorkloadGenerator, ZipfSingleRankAndSteepSkewEdges) {
  crypto::Drbg rng("zipf-edge");
  ZipfSampler one(1, 1.1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(one.sample(rng), 0u);
  ZipfSampler steep(100, 3.0);
  std::size_t head = 0;
  for (int i = 0; i < 2000; ++i) head += steep.sample(rng) == 0 ? 1 : 0;
  // At s = 3, rank 0 holds ~83% of the mass.
  EXPECT_GT(head, 1500u);
}

// ------------------------------------------------- lazy vs oracle agreement

// Materialize the full symmetric adjacency of a small graph and check the
// lazy membership test agrees everywhere — the O(1)-RAM path must be the
// same graph, not an approximation of it.
TEST(WorkloadGenerator, LazyAdjacencyAgreesWithMaterializedOracle) {
  GraphConfig cfg;
  cfg.users = 300;
  cfg.min_degree = 2;
  cfg.max_degree = 32;
  cfg.seed = "oracle";
  const LazyGraph graph(cfg);
  std::vector<std::set<std::uint64_t>> oracle(cfg.users);
  for (std::uint64_t u = 0; u < cfg.users; ++u) {
    for (const std::uint64_t v : graph.out_friends(u)) {
      ASSERT_NE(u, v) << "self-edge";
      ASSERT_LT(v, cfg.users);
      oracle[u].insert(v);
      oracle[v].insert(u);
    }
  }
  for (std::uint64_t u = 0; u < cfg.users; ++u) {
    for (std::uint64_t v = 0; v < cfg.users; ++v) {
      ASSERT_EQ(graph.are_friends(u, v), oracle[u].count(v) == 1) << u << "~" << v;
    }
  }
}

TEST(WorkloadGenerator, ReceiverIsAlwaysAFriendOfTheSharer) {
  TraceGenerator gen(small_config("friends"));
  for (int i = 0; i < 500; ++i) {
    const Event event = gen.next();
    if (event.kind != Event::Kind::kAccess) continue;
    ASSERT_TRUE(gen.graph().are_friends(event.sharer, event.receiver))
        << "sharer " << event.sharer << " receiver " << event.receiver;
  }
}

TEST(WorkloadGenerator, ChurnFractionsRoughlyHonored) {
  WorkloadConfig cfg = small_config("churn");
  cfg.refresh_fraction = 0.10;
  cfg.revoke_fraction = 0.05;
  TraceGenerator gen(cfg);
  std::map<Event::Kind, std::size_t> kinds;
  constexpr int kEvents = 20000;
  for (int i = 0; i < kEvents; ++i) ++kinds[gen.next().kind];
  EXPECT_NEAR(static_cast<double>(kinds[Event::Kind::kRefresh]) / kEvents, 0.10, 0.01);
  EXPECT_NEAR(static_cast<double>(kinds[Event::Kind::kRevoke]) / kEvents, 0.05, 0.01);
}

}  // namespace
}  // namespace sp::workload
