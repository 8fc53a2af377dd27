// Million-user workload generator (ROADMAP item 4).
//
// Everything is a pure function of a seed: the friend graph, the post
// catalog, the popularity skew, and the event stream are all derived by
// PRF-style mixing from one 256-bit DRBG fork, so
//   * a 10^6-user topology costs O(1) RAM — adjacency is computed on
//     demand, never materialized;
//   * the same seed replays the same workload byte for byte (the property
//     suite pins this), which makes the generator test infrastructure, not
//     just bench infrastructure.
//
// Shapes (PAPERS.md: Pang & Zhang on OSN graphs, Armknecht et al. on post
// popularity):
//   * out-degrees follow a bounded Pareto (power-law exponent `gamma`,
//     clipped to [min_degree, max_degree]) via inverse-CDF of a per-user
//     PRF draw;
//   * the i-th out-friend of u is a PRF target; the undirected friendship
//     relation is the symmetric closure u~v iff v in out(u) or u in out(v),
//     so membership is O(deg), not O(users);
//   * post popularity is Zipfian, sampled in O(1) with Hörmann-style
//     rejection-inversion — no O(catalog) CDF table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/drbg.hpp"

namespace sp::workload {

/// Power-law friend-graph shape. Defaults give a mean degree ~9 with a
/// heavy tail — Facebook-like at the scales the benches drive.
struct GraphConfig {
  std::uint64_t users = 1'000'000;
  double gamma = 2.5;  ///< power-law exponent (> 1); degree tail ~ d^-gamma
  std::uint64_t min_degree = 4;
  std::uint64_t max_degree = 4096;  ///< clip (also capped at users - 1)
  std::string seed = "sp-workload";
};

/// Seed-derived lazy graph: no per-user state, every query recomputed from
/// the PRF. Deterministic for the life of the config.
class LazyGraph {
 public:
  explicit LazyGraph(GraphConfig config);

  [[nodiscard]] std::uint64_t users() const { return config_.users; }
  [[nodiscard]] const GraphConfig& config() const { return config_; }

  /// Out-degree of `u`: bounded-Pareto inverse CDF of PRF(u).
  [[nodiscard]] std::uint64_t out_degree(std::uint64_t u) const;
  /// i-th out-friend of `u` (i < out_degree(u)); never returns u itself.
  [[nodiscard]] std::uint64_t out_friend(std::uint64_t u, std::uint64_t i) const;
  /// Materialized out-list (tests and small-scale driving only).
  [[nodiscard]] std::vector<std::uint64_t> out_friends(std::uint64_t u) const;
  /// Symmetric friendship: v in out(u) or u in out(v). O(deg(u) + deg(v)).
  [[nodiscard]] bool are_friends(std::uint64_t u, std::uint64_t v) const;

 private:
  [[nodiscard]] std::uint64_t prf(std::uint64_t tag, std::uint64_t a, std::uint64_t b) const;

  GraphConfig config_;
  std::uint64_t key_ = 0;  ///< derived from Drbg(seed): one key, all queries
};

/// O(1) Zipf(s) sampler over ranks {0, .., n-1} by rejection-inversion
/// (Hörmann & Derflinger): invert the integral envelope of x^-s and accept
/// with the ratio to the true mass. No table, so a 10^6-post catalog costs
/// nothing to skew.
class ZipfSampler {
 public:
  /// `s` > 0, s != 1 handled exactly; s == 1 uses the log envelope.
  ZipfSampler(std::uint64_t n, double s);

  /// Zero-based rank; rank 0 is the hottest.
  [[nodiscard]] std::uint64_t sample(crypto::Drbg& rng) const;

  [[nodiscard]] double s() const { return s_; }
  [[nodiscard]] std::uint64_t n() const { return n_; }

 private:
  [[nodiscard]] double h_integral(double x) const;  ///< ∫ envelope
  [[nodiscard]] double h_inverse(double y) const;

  std::uint64_t n_;
  double s_;
  double h_x1_;        ///< h_integral(1.5)
  double h_n_;         ///< h_integral(n + 0.5)
  double threshold_;   ///< shortcut acceptance bound for rank 0
};

/// One workload event. `interarrival_unit` is a unit-mean exponential draw:
/// a caller divides it by the offered arrival rate, so one trace serves
/// every point of a rate ladder.
struct Event {
  enum class Kind : std::uint8_t { kAccess = 0, kRefresh = 1, kRevoke = 2 };
  Kind kind = Kind::kAccess;
  std::uint64_t post_rank = 0;  ///< Zipf rank into the catalog (0 = hottest)
  std::uint64_t sharer = 0;     ///< graph user owning the post
  std::uint64_t receiver = 0;   ///< a graph friend of the sharer (access only)
  bool c2 = false;              ///< scheme of the post (per-rank, stable)
  double interarrival_unit = 0; ///< Exp(1) gap to the previous event
};

/// Workload mix: a Zipf-skewed access stream with refresh/revocation churn
/// (paper §V dynamic context). Fractions are of all events.
struct WorkloadConfig {
  GraphConfig graph;
  std::uint64_t catalog_posts = 10'000;
  double zipf_s = 1.1;            ///< popularity skew
  double c2_fraction = 0.5;       ///< share of posts using Construction 2
  double refresh_fraction = 0.02; ///< sharer-side refresh events
  double revoke_fraction = 0.005; ///< sharer-side revocations
};

/// Deterministic event stream over a LazyGraph. Same config + seed =>
/// byte-identical stream (encode() canonicalizes an event for digests).
class TraceGenerator {
 public:
  explicit TraceGenerator(WorkloadConfig config);

  [[nodiscard]] Event next();
  [[nodiscard]] const LazyGraph& graph() const { return graph_; }
  [[nodiscard]] const WorkloadConfig& config() const { return config_; }

  /// Stable per-rank post attributes (independent of the event stream).
  [[nodiscard]] std::uint64_t sharer_of(std::uint64_t post_rank) const;
  [[nodiscard]] bool post_is_c2(std::uint64_t post_rank) const;

  /// Canonical text form, for byte-identity property tests.
  [[nodiscard]] static std::string encode(const Event& event);

 private:
  WorkloadConfig config_;
  LazyGraph graph_;
  ZipfSampler zipf_;
  crypto::Drbg rng_;
};

}  // namespace sp::workload
