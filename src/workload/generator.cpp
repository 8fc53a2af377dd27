#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sp::workload {

namespace {

/// splitmix64 finalizer: the PRF core. Statistically strong enough for
/// workload shaping (this is load, not key material).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Top 53 bits as a uniform double in [0, 1).
double unit_from(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kTagDegree = 0x6465677265650001ULL;
constexpr std::uint64_t kTagFriend = 0x667269656e640002ULL;

}  // namespace

// ------------------------------------------------------------- LazyGraph

LazyGraph::LazyGraph(GraphConfig config) : config_(std::move(config)) {
  if (config_.users < 2) throw std::invalid_argument("LazyGraph: need >= 2 users");
  if (config_.gamma <= 1.0) throw std::invalid_argument("LazyGraph: gamma must be > 1");
  if (config_.min_degree < 1 || config_.min_degree > config_.max_degree) {
    throw std::invalid_argument("LazyGraph: need 1 <= min_degree <= max_degree");
  }
  // One 64-bit key from the repo's standard DRBG; all topology queries mix
  // from it. (The DRBG itself is too slow for O(deg) adjacency probes.)
  crypto::Drbg rng(config_.seed + "-graph");
  key_ = rng.next_u64();
}

std::uint64_t LazyGraph::prf(std::uint64_t tag, std::uint64_t a, std::uint64_t b) const {
  return mix64(mix64(mix64(key_ ^ tag) + a) ^ (b + 0x5851f42d4c957f2dULL));
}

std::uint64_t LazyGraph::out_degree(std::uint64_t u) const {
  // Bounded Pareto on [min_degree, max_degree] by inverse CDF: the tail
  // P(D >= d) = (min/d)^(gamma-1) until the clip. Exponent alpha = gamma-1
  // because out-degree is the *complementary* draw of the density ~d^-gamma.
  const double alpha = config_.gamma - 1.0;
  const double lo = static_cast<double>(config_.min_degree);
  const double hi = static_cast<double>(std::min(config_.max_degree, config_.users - 1));
  const double ratio = std::pow(lo / hi, alpha);
  const double u01 = unit_from(prf(kTagDegree, u, 0));
  const double draw = lo / std::pow(1.0 - u01 * (1.0 - ratio), 1.0 / alpha);
  const auto degree = static_cast<std::uint64_t>(draw);
  return std::clamp<std::uint64_t>(degree, config_.min_degree,
                                   static_cast<std::uint64_t>(hi));
}

std::uint64_t LazyGraph::out_friend(std::uint64_t u, std::uint64_t i) const {
  // PRF target in [0, users) \ {u}: draw over users-1 slots and shift past u.
  std::uint64_t t = prf(kTagFriend, u, i) % (config_.users - 1);
  if (t >= u) ++t;
  return t;
}

std::vector<std::uint64_t> LazyGraph::out_friends(std::uint64_t u) const {
  const std::uint64_t degree = out_degree(u);
  std::vector<std::uint64_t> friends;
  friends.reserve(degree);
  for (std::uint64_t i = 0; i < degree; ++i) friends.push_back(out_friend(u, i));
  return friends;
}

bool LazyGraph::are_friends(std::uint64_t u, std::uint64_t v) const {
  if (u == v || u >= config_.users || v >= config_.users) return false;
  const std::uint64_t du = out_degree(u);
  for (std::uint64_t i = 0; i < du; ++i) {
    if (out_friend(u, i) == v) return true;
  }
  const std::uint64_t dv = out_degree(v);
  for (std::uint64_t i = 0; i < dv; ++i) {
    if (out_friend(v, i) == u) return true;
  }
  return false;
}

// ----------------------------------------------------------- ZipfSampler

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  if (n < 1) throw std::invalid_argument("ZipfSampler: need n >= 1");
  if (s <= 0) throw std::invalid_argument("ZipfSampler: need s > 0");
  h_x1_ = h_integral(1.5) - 1.0;
  h_n_ = h_integral(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - h_inverse(h_integral(2.5) - std::pow(2.0, -s));
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  // ∫ t^-s dt with the s == 1 limit handled by expm1/log1p stability.
  const double t = (1.0 - s_) * log_x;
  return (std::abs(t) < 1e-8 ? log_x * (1.0 + t / 2.0) : std::expm1(t) / (1.0 - s_));
}

double ZipfSampler::h_inverse(double y) const {
  const double t = std::max(y * (1.0 - s_), -1.0 + 1e-12);
  return std::exp(std::abs(t) < 1e-8 ? y * (1.0 - t / 2.0) : std::log1p(t) / (1.0 - s_));
}

std::uint64_t ZipfSampler::sample(crypto::Drbg& rng) const {
  if (n_ == 1) return 0;
  // Hörmann–Derflinger rejection-inversion: invert the integral envelope,
  // round to the nearest rank, accept by the envelope/mass ratio. Expected
  // iterations < 2 for every (n, s); the cap keeps pathological streams
  // deterministic rather than unbounded.
  for (int iter = 0; iter < 128; ++iter) {
    const double u = h_n_ + rng.uniform_real() * (h_x1_ - h_n_);
    const double x = h_inverse(u);
    auto k = static_cast<std::uint64_t>(std::clamp(
        x + 0.5, 1.0, static_cast<double>(n_)));
    const auto kd = static_cast<double>(k);
    if (kd - x <= threshold_) return k - 1;
    if (u >= h_integral(kd + 0.5) - std::pow(kd, -s_)) return k - 1;
  }
  return 0;  // unreachable in practice
}

// -------------------------------------------------------- TraceGenerator

TraceGenerator::TraceGenerator(WorkloadConfig config)
    : config_(std::move(config)),
      graph_(config_.graph),
      zipf_(std::max<std::uint64_t>(1, config_.catalog_posts), config_.zipf_s),
      rng_(config_.graph.seed + "-trace") {
  if (config_.refresh_fraction < 0 || config_.revoke_fraction < 0 ||
      config_.refresh_fraction + config_.revoke_fraction >= 1.0) {
    throw std::invalid_argument("TraceGenerator: churn fractions must fit in [0, 1)");
  }
}

std::uint64_t TraceGenerator::sharer_of(std::uint64_t post_rank) const {
  return mix64(mix64(post_rank + 1) ^ 0x706f737473686100ULL ^ graph_.config().users) %
         graph_.users();
}

bool TraceGenerator::post_is_c2(std::uint64_t post_rank) const {
  const std::uint64_t bits = mix64((post_rank + 1) * 0x9e3779b97f4a7c15ULL ^ 0xc2c2c2c2ULL);
  return static_cast<double>(bits >> 11) * 0x1.0p-53 < config_.c2_fraction;
}

Event TraceGenerator::next() {
  Event event;
  // -log(1-U) with U in [0, 1): a unit-mean exponential gap. A caller
  // divides by the offered rate, so one trace serves a whole rate ladder.
  event.interarrival_unit = -std::log1p(-rng_.uniform_real());
  event.post_rank = zipf_.sample(rng_);
  event.sharer = sharer_of(event.post_rank);
  event.c2 = post_is_c2(event.post_rank);
  const double kind_draw = rng_.uniform_real();
  if (kind_draw < config_.revoke_fraction) {
    event.kind = Event::Kind::kRevoke;
  } else if (kind_draw < config_.revoke_fraction + config_.refresh_fraction) {
    event.kind = Event::Kind::kRefresh;
  } else {
    event.kind = Event::Kind::kAccess;
    const std::uint64_t degree = graph_.out_degree(event.sharer);
    event.receiver = graph_.out_friend(event.sharer, rng_.uniform(degree));
  }
  return event;
}

std::string TraceGenerator::encode(const Event& event) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "k=%u rank=%llu sharer=%llu recv=%llu c2=%d dt=%.17g",
                static_cast<unsigned>(event.kind),
                static_cast<unsigned long long>(event.post_rank),
                static_cast<unsigned long long>(event.sharer),
                static_cast<unsigned long long>(event.receiver), event.c2 ? 1 : 0,
                event.interarrival_unit);
  return buf;
}

}  // namespace sp::workload
