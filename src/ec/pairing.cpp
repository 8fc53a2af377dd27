#include "ec/pairing.hpp"

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::ec {

using field::Fp;

namespace {

// One recorded Miller-loop step for a fixed first argument P. The line
// through the loop's running point, evaluated at φ(Q) = (−x_q, i·y_q), is
// always of the form (a·x_q + b) + (c·y_q)·i with (a, b, c) depending only
// on P — so replaying a table is pure F_{p²} accumulator work. `tangent`
// distinguishes the doubling step (f ← f²·l) from the addition step
// (f ← f·l); degenerate additions (vertical chord, eliminated by the final
// exponentiation) record no step, exactly like the live loop adds no factor.
struct MillerStep {
  Fp a, b, c;
  bool tangent;
};

struct MillerTable {
  std::vector<MillerStep> steps;
};

// Process-wide Miller-line table registry, mirroring the fixed-base scalar
// table registry in curve.cpp: keyed by (p, P) so tables outlive the
// Pairing/Curve/Session that built them, FIFO-evicted so key churn cannot
// grow memory without bound. A 512-bit table is ~770 steps × 3 Fp ≈ 150 KB,
// so the cap bounds the registry at a few MB.
constexpr std::size_t kMaxMillerTables = 64;

struct MillerTableRegistry {
  sp::Mutex mutex;
  std::unordered_map<std::string, std::shared_ptr<const MillerTable>> map
      SP_GUARDED_BY(mutex);
  std::deque<std::string> fifo SP_GUARDED_BY(mutex);

  static MillerTableRegistry& get() {
    static MillerTableRegistry* const instance = new MillerTableRegistry();  // leaked on purpose
    return *instance;
  }
};

std::shared_ptr<const MillerTable> find_miller_table(const std::string& key) {
  MillerTableRegistry& reg = MillerTableRegistry::get();
  const sp::MutexLock lock(reg.mutex);
  auto it = reg.map.find(key);
  return it == reg.map.end() ? nullptr : it->second;
}

void register_miller_table(const std::string& key, std::shared_ptr<const MillerTable> table) {
  MillerTableRegistry& reg = MillerTableRegistry::get();
  const sp::MutexLock lock(reg.mutex);
  if (reg.map.find(key) == reg.map.end()) {
    reg.fifo.push_back(key);
    if (reg.fifo.size() > kMaxMillerTables) {
      reg.map.erase(reg.fifo.front());
      reg.fifo.pop_front();
    }
  }
  reg.map[key] = std::move(table);
}

// (p, P) registry key; serialize() embeds the field byte length, so the
// concatenation is collision-free (same scheme as Curve::table_key).
std::string miller_key(const Curve& curve, const Point& p) {
  const crypto::Bytes pb = curve.fp()->p().to_bytes();
  const crypto::Bytes bb = curve.serialize(p);
  std::string id(pb.begin(), pb.end());
  id.append(bb.begin(), bb.end());
  return id;
}

/// The inversion-free Jacobian Miller loop, WITHOUT the final
/// exponentiation: T = (X, Y, Z) with x_t = X/Z², y_t = Y/Z³. Each line
/// value is the affine one scaled by a non-zero F_p factor (Z3·Z2 for
/// tangents, Z3 for chords); conj fixes F_p, so the scale factors cancel in
/// final_exponentiation() and the exponentiated result is bit-identical to
/// the affine reference().
Fp2 miller_loop(const Curve& curve, const Point& p, const Point& q) {
  const auto& fp = curve.fp();
  const Curve::Consts& cs = curve.consts();
  const Fp& x_p = p.x();
  const Fp& y_p = p.y();
  const Fp& x_q = q.x();
  const Fp& y_q = q.y();
  const crypto::BigInt& order = curve.order();
  Fp2 f = Fp2::one(fp);
  Fp tx = p.x();
  Fp ty = p.y();
  Fp tz = cs.one;
  const std::size_t nbits = order.bit_length();
  for (std::size_t i = nbits - 1; i-- > 0;) {
    {
      // Tangent step: doubling on y² = x³ + x with M = 3X² + Z⁴.
      const Fp z2 = tz * tz;
      const Fp y2 = ty * ty;
      const Fp m = cs.three * tx * tx + z2 * z2;
      const Fp s = cs.four * tx * y2;
      const Fp x3 = m * m - s - s;
      const Fp y3 = m * (s - x3) - cs.eight * y2 * y2;
      const Fp z3 = (ty + ty) * tz;
      // Affine tangent line at T, evaluated at φ(Q) and scaled by Z3·Z2.
      const Fp l_re = m * (z2 * x_q + tx) - (y2 + y2);
      const Fp l_im = z3 * z2 * y_q;
      f = f * f * Fp2(l_re, l_im);
      tx = x3;
      ty = y3;
      tz = z3;
    }
    if (order.bit(i)) {
      const Fp z2 = tz * tz;
      const Fp u2 = x_p * z2;
      const Fp s2 = y_p * z2 * tz;
      const Fp h = u2 - tx;
      const Fp r = s2 - ty;
      if (h.is_zero()) {
        // T = ±P: chord is vertical (value in F_p, eliminated) or tangent
        // (cannot occur mid-loop for order-q P). Update via group law.
        if (r.is_zero()) {
          const Fp y2 = ty * ty;
          const Fp m = cs.three * tx * tx + z2 * z2;
          const Fp s = cs.four * tx * y2;
          const Fp x3 = m * m - s - s;
          const Fp y3 = m * (s - x3) - cs.eight * y2 * y2;
          const Fp z3 = (ty + ty) * tz;
          tx = x3;
          ty = y3;
          tz = z3;
        } else {
          // T + (−P) = O; mirrors the affine loop, which also leaves the
          // accumulator untouched and lets the next step fail loudly.
          tx = Fp::zero(fp);
          ty = Fp::zero(fp);
          tz = Fp::zero(fp);
        }
      } else {
        const Fp h2 = h * h;
        const Fp h3 = h2 * h;
        const Fp uh2 = tx * h2;
        const Fp x3 = r * r - h3 - uh2 - uh2;
        const Fp y3 = r * (uh2 - x3) - ty * h3;
        const Fp z3 = tz * h;
        // Chord through T and P, evaluated at φ(Q) and scaled by Z3.
        const Fp l_re = r * (x_q + x_p) - y_p * z3;
        const Fp l_im = z3 * y_q;
        f = f * Fp2(l_re, l_im);
        tx = x3;
        ty = y3;
        tz = z3;
      }
    }
  }
  return f;
}

/// Runs the same loop as miller_loop() but only the point arithmetic,
/// capturing each line's (a, b, c) so the x_q/y_q evaluation can be
/// replayed later: tangent l_re = m·(z2·x_q + tx) − 2y2 = (m·z2)·x_q +
/// (m·tx − 2y2), chord l_re = r·(x_q + x_p) − y_p·z3 = r·x_q +
/// (r·x_p − y_p·z3). Distributivity over F_p makes the replayed values
/// (and hence every downstream byte) identical to the live loop's.
MillerTable build_miller_table(const Curve& curve, const Point& p) {
  const auto& fp = curve.fp();
  const Curve::Consts& cs = curve.consts();
  const Fp& x_p = p.x();
  const Fp& y_p = p.y();
  const crypto::BigInt& order = curve.order();
  MillerTable table;
  table.steps.reserve(order.bit_length() + order.bit_length() / 2);
  Fp tx = p.x();
  Fp ty = p.y();
  Fp tz = cs.one;
  const std::size_t nbits = order.bit_length();
  for (std::size_t i = nbits - 1; i-- > 0;) {
    {
      const Fp z2 = tz * tz;
      const Fp y2 = ty * ty;
      const Fp m = cs.three * tx * tx + z2 * z2;
      const Fp s = cs.four * tx * y2;
      const Fp x3 = m * m - s - s;
      const Fp y3 = m * (s - x3) - cs.eight * y2 * y2;
      const Fp z3 = (ty + ty) * tz;
      table.steps.push_back({m * z2, m * tx - (y2 + y2), z3 * z2, true});
      tx = x3;
      ty = y3;
      tz = z3;
    }
    if (order.bit(i)) {
      const Fp z2 = tz * tz;
      const Fp u2 = x_p * z2;
      const Fp s2 = y_p * z2 * tz;
      const Fp h = u2 - tx;
      const Fp r = s2 - ty;
      if (h.is_zero()) {
        if (r.is_zero()) {
          const Fp y2 = ty * ty;
          const Fp m = cs.three * tx * tx + z2 * z2;
          const Fp s = cs.four * tx * y2;
          const Fp x3 = m * m - s - s;
          const Fp y3 = m * (s - x3) - cs.eight * y2 * y2;
          const Fp z3 = (ty + ty) * tz;
          tx = x3;
          ty = y3;
          tz = z3;
        } else {
          tx = Fp::zero(fp);
          ty = Fp::zero(fp);
          tz = Fp::zero(fp);
        }
      } else {
        const Fp h2 = h * h;
        const Fp h3 = h2 * h;
        const Fp uh2 = tx * h2;
        const Fp x3 = r * r - h3 - uh2 - uh2;
        const Fp y3 = r * (uh2 - x3) - ty * h3;
        const Fp z3 = tz * h;
        table.steps.push_back({r, r * x_p - y_p * z3, z3, false});
        tx = x3;
        ty = y3;
        tz = z3;
      }
    }
  }
  return table;
}

Fp2 replay_miller_table(const MillerTable& table, const field::FpCtxPtr& fp, const Point& q) {
  const Fp& x_q = q.x();
  const Fp& y_q = q.y();
  Fp2 f = Fp2::one(fp);
  for (const MillerStep& step : table.steps) {
    const Fp2 l(step.a * x_q + step.b, step.c * y_q);
    f = step.tangent ? f * f * l : f * l;
  }
  return f;
}

}  // namespace

Fp2 Pairing::miller(const Point& p, const Point& q) const {
  const auto& fp = curve_->fp();
  if (p.is_infinity() || q.is_infinity()) return Fp2::one(fp);
  if (!curve_->on_curve(p) || !curve_->on_curve(q)) {
    throw std::invalid_argument("Pairing: input not on curve");
  }
  if (const auto table = find_miller_table(miller_key(*curve_, p))) {
    static obs::Counter& hits = obs::MetricsRegistry::global().counter(
        "crypto_miller_table_hits_total", "Miller loops served from a precomputed line table");
    hits.inc();
    return replay_miller_table(*table, fp, q);
  }
  return miller_loop(*curve_, p, q);
}

Fp2 Pairing::final_exponentiation(const Fp2& f) const {
  // f^((p²−1)/q) = (conj(f)·f^{-1})^(h) with h = (p+1)/q, because
  // f^p = conj(f) in F_p[i] when p ≡ 3 (mod 4).
  const Fp2 f_p_minus_1 = f.conj() * f.inv();
  return f_p_minus_1.pow(curve_->params().h);
}

void Pairing::precompute(const Point& p) const {
  if (p.is_infinity()) return;
  if (!curve_->on_curve(p)) {
    throw std::invalid_argument("Pairing::precompute: input not on curve");
  }
  // Registry index, not key material: P here is a fixed PUBLIC pairing
  // argument (ciphertext components), serialized coordinates.
  const std::string table_id = miller_key(*curve_, p);
  if (find_miller_table(table_id)) return;
  static obs::Counter& builds = obs::MetricsRegistry::global().counter(
      "crypto_miller_table_builds_total", "Miller-line tables built and registered");
  builds.inc();
  auto table = std::make_shared<const MillerTable>(build_miller_table(*curve_, p));
  register_miller_table(table_id, std::move(table));
}

bool Pairing::has_precomputed(const Point& p) const {
  if (p.is_infinity()) return false;
  return find_miller_table(miller_key(*curve_, p)) != nullptr;
}

Fp2 Pairing::operator()(const Point& p, const Point& q) const {
  const auto& fp = curve_->fp();
  if (p.is_infinity() || q.is_infinity()) return Fp2::one(fp);
  // Hot-path instrumentation: a pairing is ~3 ms at the 512-bit preset, the
  // span costs two clock reads + three relaxed fetch_adds (and nothing at
  // all against a disabled registry on an untraced request). Magic-static
  // init is thread-safe.
  static obs::Histogram& pairing_ms = obs::MetricsRegistry::global().histogram(
      "crypto_pairing_ms", "Full pairing evaluations (Miller loop + final exp)");
  const obs::Span span(obs::Tracer::current(), "ec.pairing", pairing_ms);
  return final_exponentiation(miller(p, q));
}

Fp2 Pairing::product(std::span<const Term> terms, const Runner& runner) const {
  const auto& fp = curve_->fp();
  static obs::Histogram& multi_ms = obs::MetricsRegistry::global().histogram(
      "crypto_multi_pairing_ms",
      "Multi-pairing products (one Miller loop per pair, one shared final exp)");
  static obs::Counter& products = obs::MetricsRegistry::global().counter(
      "crypto_multi_pairing_products_total", "Multi-pairing product evaluations");
  static obs::Counter& pairs = obs::MetricsRegistry::global().counter(
      "crypto_multi_pairing_pairs_total", "Pairs folded into multi-pairing products");
  const obs::Span span(obs::Tracer::current(), "ec.multi_pairing", multi_ms);
  products.inc();

  // Evaluate every term's Miller loop, inline or through the runner. Each
  // closure owns a disjoint output slot, so the batch is embarrassingly
  // parallel; table builds happen up front on this thread because the
  // registry would serialize concurrent builders anyway. Inverses are
  // conjugated BEFORE the shared final exponentiation — p ≡ −1 (mod q)
  // makes FE(conj(f)) = FE(f)^{-1} (header comment) — so no term ever pays
  // an F_{p²} inversion.
  std::vector<Fp2> values(terms.size());
  std::vector<char> evaluable(terms.size(), 0);
  std::uint64_t evaluated = 0;
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const Term& term = terms[i];
    if (term.p.is_infinity() || term.q.is_infinity()) continue;  // ê = 1
    evaluable[i] = 1;
    ++evaluated;
    // Long-lived first arguments (ciphertext components, CP-ABE params) are
    // exactly the ones that recur across requests; building the table costs
    // about one table-driven evaluation, so first use is break-even.
    precompute(term.p);
    auto eval = [this, &term, &values, i] {
      Fp2 m = miller(term.p, term.q);
      values[i] = term.inverse ? m.conj() : m;
    };
    if (runner) {
      jobs.emplace_back(std::move(eval));
    } else {
      eval();
    }
  }
  if (!jobs.empty()) runner(jobs);
  pairs.inc(evaluated);

  // Bucket the Miller values by exponent so a numerator/denominator pair
  // sharing one Lagrange coefficient costs a single F_{p²} pow. The term
  // count is small (CP-ABE: 2 per satisfied leaf + 1), so the linear bucket
  // scan is noise next to a Miller loop.
  std::vector<std::pair<BigInt, Fp2>> buckets;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!evaluable[i]) continue;
    bool found = false;
    for (auto& [exponent, acc] : buckets) {
      if (exponent == terms[i].exponent) {
        acc = acc * values[i];
        found = true;
        break;
      }
    }
    if (!found) buckets.emplace_back(terms[i].exponent, std::move(values[i]));
  }

  const BigInt one_exp{1};
  Fp2 f = Fp2::one(fp);
  for (const auto& [exponent, acc] : buckets) {
    f = f * (exponent == one_exp ? acc : acc.pow(exponent));
  }
  return final_exponentiation(f);
}

Fp2 Pairing::reference(const Point& p, const Point& q) const {
  const auto& fp = curve_->fp();
  if (p.is_infinity() || q.is_infinity()) return Fp2::one(fp);
  if (!curve_->on_curve(p) || !curve_->on_curve(q)) {
    throw std::invalid_argument("Pairing: input not on curve");
  }

  // Affine Miller loop with the slope shared between the line evaluation
  // and the point update — one field inversion per step instead of two.
  const Fp one = Fp::one(fp);
  const Fp two = Fp(fp, crypto::BigInt{2});
  const Fp three = Fp(fp, crypto::BigInt{3});
  // Line through a with slope `lambda`, evaluated at φ(Q) = (−x_q, i·y_q):
  // value = (λ·x_q − (y_a − λ·x_a)) + i·y_q.
  auto eval_line = [&](const Point& a, const Fp& lambda) {
    const Fp c = a.y() - lambda * a.x();
    return Fp2(lambda * q.x() - c, q.y());
  };
  const crypto::BigInt& order = curve_->order();
  Fp2 f = Fp2::one(fp);
  Point t = p;
  const std::size_t nbits = order.bit_length();
  for (std::size_t i = nbits - 1; i-- > 0;) {
    {
      // Tangent at T: λ = (3x² + 1) / 2y  (y ≠ 0 for odd-order points).
      const Fp lambda = (three * t.x() * t.x() + one) * (two * t.y()).inv();
      f = f * f * eval_line(t, lambda);
      const Fp x3 = lambda * lambda - t.x() - t.x();
      t = Point(x3, lambda * (t.x() - x3) - t.y());
    }
    if (order.bit(i)) {
      if (t.x() == p.x()) {
        // T = ±P: chord is vertical (value in F_p, eliminated) or tangent
        // (cannot occur mid-loop for order-q P). Update via group law.
        t = curve_->add(t, p);
      } else {
        const Fp lambda = (p.y() - t.y()) * (p.x() - t.x()).inv();
        f = f * eval_line(t, lambda);
        const Fp x3 = lambda * lambda - t.x() - p.x();
        t = Point(x3, lambda * (t.x() - x3) - t.y());
      }
    }
  }

  // Final exponentiation: f^((p²−1)/q) = (conj(f)·f^{-1})^(h) with
  // h = (p+1)/q, because f^p = conj(f) in F_p[i] when p ≡ 3 (mod 4).
  const Fp2 f_p_minus_1 = f.conj() * f.inv();
  return f_p_minus_1.pow(curve_->params().h);
}

}  // namespace sp::ec
