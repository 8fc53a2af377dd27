#include "ec/pairing.hpp"

#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ec/jacobian.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::ec {

using field::Fp;

namespace {

using field::Fe;
using field::Fe2;
using field::MontField;

// One recorded Miller-loop step for a fixed first argument P. The line
// through the loop's running point, evaluated at φ(Q) = (−x_q, i·y_q), is
// (a·x_q + b) + (c·y_q)·i with (a, b, c) depending only on P — so replaying
// a table is pure F_{p²} accumulator work. `tangent` distinguishes the
// doubling step (f ← f²·l) from the addition step (f ← f·l).
struct MillerStep {
  jac::Line line;
  bool tangent;
};

struct MillerTable {
  std::vector<MillerStep> steps;
};

// Process-wide Miller-line table registry, mirroring the fixed-base scalar
// table registry in curve.cpp: keyed by (p, P) so tables outlive the
// Pairing/Curve/Session that built them, FIFO-evicted so key churn cannot
// grow memory without bound. A table holds one tangent per bit of q below
// the top one and one chord per set bit of q except the top and the last
// (that chord is vertical): 159 + 77 = 236 steps of 200 bytes (three
// 64-byte limb arrays and a flag), about 46 KiB, at the kFull preset's
// 160-bit q, so the cap bounds the registry at about 3 MiB.
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

// Walks T from P to [q]P by double-and-add over the bits of q, handing
// each tangent and chord to `visit` in loop order. The line values are the
// affine ones scaled by non-zero F_p factors (Z3·Z² for tangents, Z3 for
// chords); conj fixes F_p, so the factors cancel in the final
// exponentiation and the pairing equals the affine reference() exactly.
// Vertical chords (T = −P, at the last step) lie in F_p and are eliminated
// by the final exponentiation, so — as in reference() — they add no factor.
template <class Visit>
void walk_miller(const MontField& f, const BigInt& order, const jac::Affine& p, Visit&& visit) {
  jac::Jac t{p.x, p.y, f.one(), false};
  jac::Line line;
  for (std::size_t i = order.bit_length() - 1; i-- > 0;) {
    t = jac::dbl(f, t, &line);
    if (!MontField::is_zero(line.c)) visit(MillerStep{line, true});
    if (order.bit(i)) {
      t = jac::add_affine(f, t, p, &line);
      if (!MontField::is_zero(line.c)) visit(MillerStep{line, false});
    }
  }
}

Fe2 apply_step(const MontField& f, const Fe2& acc, const MillerStep& step, const jac::Affine& q) {
  const Fe2 l{f.add(f.mul(step.line.a, q.x), step.line.b), f.mul(step.line.c, q.y)};
  return f.mul(step.tangent ? f.sqr(acc) : acc, l);
}

MillerTable build_miller_table(const Curve& curve, const Point& p) {
  const MontField& f = curve.mont_field();
  MillerTable table;
  table.steps.reserve(curve.order().bit_length() + curve.order().bit_length() / 2);
  walk_miller(f, curve.order(), jac::to_affine(f, p),
              [&table](const MillerStep& step) { table.steps.push_back(step); });
  return table;
}

/// f_{q,P}(φ(Q)) on limbs, replaying P's Miller-line table when one is
/// registered (the replayed values equal the live loop's exactly).
Fe2 miller_limbs(const Curve& curve, const Point& p, const Point& q) {
  const MontField& f = curve.mont_field();
  if (p.is_infinity() || q.is_infinity()) return f.one2();
  if (!curve.on_curve(p) || !curve.on_curve(q)) {
    throw std::invalid_argument("Pairing: input not on curve");
  }
  const jac::Affine aq = jac::to_affine(f, q);
  Fe2 acc = f.one2();
  if (const auto table = find_miller_table(miller_key(curve, p))) {
    static obs::Counter& hits = obs::MetricsRegistry::global().counter(
        "crypto_miller_table_hits_total", "Miller loops served from a precomputed line table");
    hits.inc();
    for (const MillerStep& step : table->steps) acc = apply_step(f, acc, step, aq);
    return acc;
  }
  walk_miller(f, curve.order(), jac::to_affine(f, p),
              [&](const MillerStep& step) { acc = apply_step(f, acc, step, aq); });
  return acc;
}

/// f^((p²−1)/q) = (conj(f)·f^{-1})^h with h = (p+1)/q, because f^p = conj(f)
/// in F_p[i] when p ≡ 3 (mod 4).
Fe2 final_exp(const MontField& f, const Fe2& m, const BigInt& h) {
  return f.pow(f.mul(f.conj(m), f.inv(m)), h);
}

Fe2 to_fe2(const MontField& f, const Fp2& x) {
  return {f.from_big(x.re().value()), f.from_big(x.im().value())};
}

Fp2 to_fp2(const MontField& f, const field::FpCtxPtr& fp, const Fe2& x) {
  return Fp2(Fp(fp, f.to_big(x.re)), Fp(fp, f.to_big(x.im)));
}

}  // namespace

Fp2 Pairing::miller(const Point& p, const Point& q) const {
  return to_fp2(curve_->mont_field(), curve_->fp(), miller_limbs(*curve_, p, q));
}

Fp2 Pairing::gt_pow(const Fp2& x, const BigInt& e) const {
  const MontField& mf = curve_->mont_field();
  return to_fp2(mf, curve_->fp(), mf.pow(to_fe2(mf, x), e));
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
  const MontField& mf = curve_->mont_field();
  if (p.is_infinity() || q.is_infinity()) return one();
  // Hot-path instrumentation: a pairing is ~1 ms at the 512-bit preset, the
  // span costs two clock reads + three relaxed fetch_adds (and nothing at
  // all against a disabled registry on an untraced request). Magic-static
  // init is thread-safe.
  static obs::Histogram& pairing_ms = obs::MetricsRegistry::global().histogram(
      "crypto_pairing_ms", "Full pairing evaluations (Miller loop + final exp)");
  const obs::Span span(obs::Tracer::current(), "ec.pairing", pairing_ms);
  return to_fp2(mf, curve_->fp(),
                final_exp(mf, miller_limbs(*curve_, p, q), curve_->params().h));
}

Fp2 Pairing::product(std::span<const Term> terms, const Runner& runner) const {
  const MontField& mf = curve_->mont_field();
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
  std::vector<Fe2> values(terms.size());
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
    auto eval = [this, &mf, &term, &values, i] {
      const Fe2 m = miller_limbs(*curve_, term.p, term.q);
      values[i] = term.inverse ? mf.conj(m) : m;
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
  std::vector<std::pair<BigInt, Fe2>> buckets;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!evaluable[i]) continue;
    bool found = false;
    for (auto& [exponent, acc] : buckets) {
      if (exponent == terms[i].exponent) {
        acc = mf.mul(acc, values[i]);
        found = true;
        break;
      }
    }
    if (!found) buckets.emplace_back(terms[i].exponent, values[i]);
  }

  const BigInt one_exp{1};
  Fe2 f = mf.one2();
  for (const auto& [exponent, acc] : buckets) {
    f = mf.mul(f, exponent == one_exp ? acc : mf.pow(acc, exponent));
  }
  return to_fp2(mf, curve_->fp(), final_exp(mf, f, curve_->params().h));
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
