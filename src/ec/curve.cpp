#include "ec/curve.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "crypto/sha256.hpp"
#include "ec/jacobian.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"

namespace sp::ec {

Curve::Curve(CurveParams params) : params_(std::move(params)) {
  if (!params_.fp) throw std::invalid_argument("Curve: null field");
  if (!params_.fp->p_is_3_mod_4()) {
    throw std::invalid_argument("Curve: y^2 = x^3 + x needs p == 3 (mod 4)");
  }
  if ((params_.h * params_.q) != params_.fp->p() + BigInt{1}) {
    throw std::invalid_argument("Curve: h * q must equal p + 1");
  }
  if (!params_.fp->mont_field()) throw std::invalid_argument("Curve: p must be below 2^512");
  one_ = Fp::one(params_.fp);
  two_ = Fp(params_.fp, BigInt{2});
  three_ = Fp(params_.fp, BigInt{3});
}

Fp Curve::rhs(const Fp& x) const { return x * x * x + x; }

bool Curve::on_curve(const Point& pt) const {
  if (pt.is_infinity()) return true;
  return pt.y() * pt.y() == rhs(pt.x());
}

Point Curve::negate(const Point& pt) const {
  if (pt.is_infinity()) return pt;
  return Point(pt.x(), -pt.y());
}

Point Curve::dbl(const Point& a) const {
  if (a.is_infinity()) return a;
  if (a.y().is_zero()) return Point{};  // order-2 point doubles to infinity
  // λ = (3x² + 1) / 2y   (curve coefficient a = 1, b = 0)
  const Fp lambda = (three_ * a.x() * a.x() + one_) * (two_ * a.y()).inv();
  const Fp x3 = lambda * lambda - two_ * a.x();
  const Fp y3 = lambda * (a.x() - x3) - a.y();
  return Point(x3, y3);
}

Point Curve::add(const Point& a, const Point& b) const {
  if (a.is_infinity()) return b;
  if (b.is_infinity()) return a;
  if (a.x() == b.x()) {
    if (a.y() == b.y()) return dbl(a);
    return Point{};  // P + (−P) = O
  }
  const Fp lambda = (b.y() - a.y()) * (b.x() - a.x()).inv();
  const Fp x3 = lambda * lambda - a.x() - b.x();
  const Fp y3 = lambda * (a.x() - x3) - a.y();
  return Point(x3, y3);
}

namespace jac {

Affine to_affine(const MontField& f, const Point& p) {
  return {f.from_big(p.x().value()), f.from_big(p.y().value())};
}

Point to_point(const MontField& f, const FpCtxPtr& fp, const Jac& p) {
  if (p.inf) return Point{};
  const Fe zi = f.inv(p.z);
  const Fe zi2 = f.sqr(zi);
  return Point(Fp(fp, f.to_big(f.mul(p.x, zi2))), Fp(fp, f.to_big(f.mul(f.mul(p.y, zi2), zi))));
}

std::vector<Affine> to_affine_batch(const MontField& f, const std::vector<Jac>& pts) {
  std::vector<Affine> out(pts.size());
  if (pts.empty()) return out;
  // prefix[i] = z_0 · … · z_i; invert the total, then peel the factors off
  // back to front: z_i^{-1} = inv(z_0·…·z_i) · prefix[i−1].
  std::vector<Fe> prefix(pts.size());
  prefix[0] = pts[0].z;
  for (std::size_t i = 1; i < pts.size(); ++i) prefix[i] = f.mul(prefix[i - 1], pts[i].z);
  Fe inv = f.inv(prefix.back());
  for (std::size_t i = pts.size(); i-- > 0;) {
    const Fe zi = i == 0 ? inv : f.mul(inv, prefix[i - 1]);
    const Fe zi2 = f.sqr(zi);
    out[i] = {f.mul(pts[i].x, zi2), f.mul(f.mul(pts[i].y, zi2), zi)};
    inv = f.mul(inv, pts[i].z);
  }
  return out;
}

// Doubling on y² = x³ + a·x with a = 1: M = 3X² + Z⁴, S = 4XY²,
// X3 = M² − 2S, Y3 = M(S − X3) − 8Y⁴, Z3 = 2YZ. The tangent at p, scaled
// by Z3·Z², is (M·Z²)·x + (M·X − 2Y²) + (Z3·Z²)·y·i at φ(Q).
Jac dbl(const MontField& f, const Jac& p, Line* tangent) {
  if (tangent) *tangent = Line{};
  if (p.inf || MontField::is_zero(p.y)) return Jac{};
  const Fe y2 = f.sqr(p.y);
  const Fe z2 = f.sqr(p.z);
  const Fe xx = f.sqr(p.x);
  const Fe m = f.add(f.add(f.add(xx, xx), xx), f.sqr(z2));
  Fe s = f.mul(p.x, y2);
  s = f.add(s, s);
  s = f.add(s, s);
  Fe y4 = f.sqr(y2);
  y4 = f.add(y4, y4);
  y4 = f.add(y4, y4);
  y4 = f.add(y4, y4);
  Jac out;
  out.x = f.sub(f.sub(f.sqr(m), s), s);
  out.y = f.sub(f.mul(m, f.sub(s, out.x)), y4);
  out.z = f.mul(f.add(p.y, p.y), p.z);
  out.inf = false;
  if (tangent) *tangent = {f.mul(m, z2), f.sub(f.mul(m, p.x), f.add(y2, y2)), f.mul(out.z, z2)};
  return out;
}

// The shared tail of both additions: with H = U2 − U1 and R = S2 − S1,
// X3 = R² − H³ − 2·U1·H², Y3 = R(U1·H² − X3) − S1·H³; Z3 is the caller's.
Jac add_tail(const MontField& f, const Jac& p, const Fe& u1, const Fe& s1, const Fe& h,
             const Fe& r, const Fe& z3) {
  if (MontField::is_zero(h)) return MontField::is_zero(r) ? dbl(f, p) : Jac{};  // p = ±q
  const Fe h2 = f.sqr(h);
  const Fe h3 = f.mul(h2, h);
  const Fe u1h2 = f.mul(u1, h2);
  Jac out;
  out.x = f.sub(f.sub(f.sub(f.sqr(r), h3), u1h2), u1h2);
  out.y = f.sub(f.mul(r, f.sub(u1h2, out.x)), f.mul(s1, h3));
  out.z = z3;
  out.inf = false;
  return out;
}

Jac add(const MontField& f, const Jac& p, const Jac& q) {
  if (p.inf) return q;
  if (q.inf) return p;
  const Fe z1z1 = f.sqr(p.z);
  const Fe z2z2 = f.sqr(q.z);
  const Fe u1 = f.mul(p.x, z2z2);
  const Fe s1 = f.mul(f.mul(p.y, z2z2), q.z);
  const Fe h = f.sub(f.mul(q.x, z1z1), u1);
  const Fe r = f.sub(f.mul(f.mul(q.y, z1z1), p.z), s1);
  return add_tail(f, p, u1, s1, h, r, f.mul(f.mul(p.z, q.z), h));
}

// Mixed addition (q has Z = 1). The chord through p and q, scaled by Z3, is
// R·x + (R·x_q − y_q·Z3) + Z3·y·i at φ(Q).
Jac add_affine(const MontField& f, const Jac& p, const Affine& q, Line* chord) {
  if (chord) *chord = Line{};
  if (p.inf) return Jac{q.x, q.y, f.one(), false};
  const Fe z2 = f.sqr(p.z);
  const Fe h = f.sub(f.mul(q.x, z2), p.x);
  const Fe r = f.sub(f.mul(f.mul(q.y, z2), p.z), p.y);
  const Fe z3 = f.mul(p.z, h);
  if (chord && !MontField::is_zero(h)) *chord = {r, f.sub(f.mul(r, q.x), f.mul(q.y, z3)), z3};
  return add_tail(f, p, p.x, p.y, h, r, z3);
}

}  // namespace jac

namespace {

using jac::Affine;
using jac::Jac;
using field::Fe;
using field::MontField;

// Width-4 NAF: digits odd in {±1, ±3, ±5, ±7}, average density 1/5 versus
// 1/2 for the binary expansion. k must be positive.
std::vector<int> wnaf4(BigInt k) {
  std::vector<int> digits;
  digits.reserve(k.bit_length() + 1);
  while (!k.is_zero()) {
    if (k.is_odd()) {
      int d = static_cast<int>(k.low_u64() & 15u);
      if (d > 8) d -= 16;
      digits.push_back(d);
      k = d > 0 ? k - BigInt{d} : k + BigInt{-d};
    } else {
      digits.push_back(0);
    }
    k = k >> 1;
  }
  return digits;
}

// Fixed-base window table for a long-lived base point B: row j holds the
// affine points d·16^j·B for d = 1..15, in Montgomery limbs, so B^k costs one
// mixed addition per non-zero nibble of k and no doublings at all. Entries
// are never infinity: q is prime and > 16, so q never divides d·16^j.
struct FixedBaseTable {
  std::size_t rows = 0;
  std::vector<Affine> entries;  // rows × 15, entry(j, d) = d·16^j·B

  [[nodiscard]] const Affine& at(std::size_t j, unsigned d) const {
    return entries[j * 15 + (d - 1)];
  }
};

FixedBaseTable build_fixed_base(const MontField& f, const Point& base, const BigInt& q) {
  FixedBaseTable t;
  t.rows = (q.bit_length() + 3) / 4;
  std::vector<Jac> jacs;
  jacs.reserve(t.rows * 15);
  const Affine b = jac::to_affine(f, base);
  Jac row_base{b.x, b.y, f.one(), false};  // 16^j · B
  for (std::size_t j = 0; j < t.rows; ++j) {
    const std::size_t start = jacs.size();
    jacs.push_back(row_base);
    for (unsigned d = 2; d <= 15; ++d) {
      jacs.push_back(d % 2 == 0 ? jac::dbl(f, jacs[start + d / 2 - 1])
                                : jac::add(f, jacs[start + d - 2], row_base));
    }
    if (j + 1 < t.rows) row_base = jac::dbl(f, jacs[start + 7]);  // 2·(8·16^j·B)
  }
  t.entries = jac::to_affine_batch(f, jacs);
  return t;
}

// Process-wide table registry. Keyed by (p, base) so tables outlive the
// Curve/Session that built them; FIFO eviction bounds memory if a workload
// registers many distinct bases. One magic-static instance so the guarded
// members and their mutex share a lifetime (and the analysis can tie them
// together via SP_GUARDED_BY).
constexpr std::size_t kMaxFixedBaseTables = 64;

struct FixedBaseRegistry {
  sp::Mutex mutex;
  std::unordered_map<std::string, std::shared_ptr<const FixedBaseTable>> map
      SP_GUARDED_BY(mutex);
  std::deque<std::string> fifo SP_GUARDED_BY(mutex);

  static FixedBaseRegistry& get() {
    static FixedBaseRegistry* const instance = new FixedBaseRegistry();  // leaked on purpose
    return *instance;
  }
};

std::shared_ptr<const FixedBaseTable> find_fixed_base(const std::string& key) {
  FixedBaseRegistry& reg = FixedBaseRegistry::get();
  const sp::MutexLock lock(reg.mutex);
  auto it = reg.map.find(key);
  return it == reg.map.end() ? nullptr : it->second;
}

void register_fixed_base(const std::string& key, std::shared_ptr<const FixedBaseTable> table) {
  FixedBaseRegistry& reg = FixedBaseRegistry::get();
  const sp::MutexLock lock(reg.mutex);
  if (reg.map.find(key) == reg.map.end()) {
    reg.fifo.push_back(key);
    if (reg.fifo.size() > kMaxFixedBaseTables) {
      reg.map.erase(reg.fifo.front());
      reg.fifo.pop_front();
    }
  }
  reg.map[key] = std::move(table);
}

}  // namespace

std::string Curve::table_key(const Point& base) const {
  // p disambiguates equal coordinate bytes across fields; serialize() embeds
  // the field byte length, so (p, 0x04||x||y) is collision-free.
  const Bytes pb = params_.fp->p().to_bytes();
  const Bytes bb = serialize(base);
  std::string id(pb.begin(), pb.end());
  id.append(bb.begin(), bb.end());
  return id;
}

void Curve::precompute_fixed_base(const Point& base) const {
  if (base.is_infinity()) return;
  const std::string id = table_key(base);
  if (find_fixed_base(id)) return;
  auto table =
      std::make_shared<const FixedBaseTable>(build_fixed_base(mont_field(), base, params_.q));
  register_fixed_base(id, std::move(table));
}

bool Curve::has_fixed_base(const Point& base) const {
  if (base.is_infinity()) return false;
  return find_fixed_base(table_key(base)) != nullptr;
}

Point Curve::mul(const Point& pt, const BigInt& k) const {
  if (k.is_negative()) return mul(negate(pt), -k);
  if (k.is_zero() || pt.is_infinity()) return Point{};
  const MontField& f = mont_field();

  // Fixed-base path: one mixed addition per non-zero nibble, no doublings.
  if (const auto table = find_fixed_base(table_key(pt))) {
    const std::size_t nnibs = (k.bit_length() + 3) / 4;
    if (nnibs <= table->rows) {
      Jac acc{};
      for (std::size_t j = 0; j < nnibs; ++j) {
        unsigned d = 0;
        for (unsigned b = 0; b < 4; ++b) {
          d |= static_cast<unsigned>(k.bit(4 * j + b)) << b;
        }
        if (d != 0) acc = jac::add_affine(f, acc, table->at(j, d));
      }
      return jac::to_point(f, params_.fp, acc);
    }
    // Scalar wider than the table (k >= 16^rows ≥ q): fall through to wNAF.
  }

  // Generic path: width-4 wNAF with an odd-multiple table {1,3,5,7}·P.
  const Affine a = jac::to_affine(f, pt);
  Jac odd[4];
  odd[0] = Jac{a.x, a.y, f.one(), false};
  const Jac p2 = jac::dbl(f, odd[0]);
  odd[1] = jac::add_affine(f, p2, a);                 // 3P
  odd[2] = jac::add_affine(f, jac::dbl(f, p2), a);      // 5P = 4P + P
  odd[3] = jac::add_affine(f, jac::dbl(f, odd[1]), a);  // 7P = 6P + P
  const std::vector<int> digits = wnaf4(k);
  Jac acc{};
  for (std::size_t i = digits.size(); i-- > 0;) {
    acc = jac::dbl(f, acc);
    const int d = digits[i];
    if (d > 0) {
      acc = jac::add(f, acc, odd[(d - 1) / 2]);
    } else if (d < 0) {
      Jac neg = odd[(-d - 1) / 2];
      neg.y = f.neg(neg.y);
      acc = jac::add(f, acc, neg);
    }
  }
  return jac::to_point(f, params_.fp, acc);
}

Point Curve::mul_binary(const Point& pt, const BigInt& k) const {
  if (k.is_negative()) return mul_binary(negate(pt), -k);
  Point acc;
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = dbl(acc);
    if (k.bit(i)) acc = add(acc, pt);
  }
  return acc;
}

Point Curve::hash_to_group(std::span<const std::uint8_t> data) const {
  // Try-and-increment over a hash counter; then clear the cofactor to land
  // in the order-q subgroup. Each iteration succeeds with probability ~1/2.
  const Bytes base(data.begin(), data.end());
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes attempt = base;
    attempt.push_back(static_cast<std::uint8_t>(counter >> 24));
    attempt.push_back(static_cast<std::uint8_t>(counter >> 16));
    attempt.push_back(static_cast<std::uint8_t>(counter >> 8));
    attempt.push_back(static_cast<std::uint8_t>(counter));
    // Widen the digest so the reduction mod p is near-uniform.
    Bytes wide = crypto::Sha256::hash(attempt);
    Bytes wide2 = crypto::Sha256::hash(wide);
    wide.insert(wide.end(), wide2.begin(), wide2.end());
    const Fp x = Fp::from_bytes(params_.fp, wide);
    const Fp y2 = rhs(x);
    if (y2.is_zero()) continue;  // would yield a low-order point
    if (y2.legendre() != 1) continue;
    Fp y = y2.sqrt();
    // Deterministic sign choice from the digest.
    if ((wide2[0] & 1) == 1) y = -y;
    const Point candidate = mul(Point(x, y), params_.h);
    if (candidate.is_infinity()) continue;
    return candidate;
  }
}

Point Curve::random_group_element(crypto::Drbg& rng) const {
  return hash_to_group(rng.bytes(32));
}

Bytes Curve::serialize(const Point& pt) const {
  if (pt.is_infinity()) return Bytes{0x00};
  Bytes out{0x04};
  Bytes xb = pt.x().to_bytes();
  Bytes yb = pt.y().to_bytes();
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

Point Curve::deserialize(std::span<const std::uint8_t> data) const {
  if (data.empty()) throw std::invalid_argument("Curve::deserialize: empty");
  if (data[0] == 0x00) {
    if (data.size() != 1) throw std::invalid_argument("Curve::deserialize: bad infinity");
    return Point{};
  }
  const std::size_t flen = params_.fp->byte_length();
  if (data[0] != 0x04 || data.size() != 1 + 2 * flen) {
    throw std::invalid_argument("Curve::deserialize: bad encoding");
  }
  Point pt(Fp::from_bytes(params_.fp, data.subspan(1, flen)),
           Fp::from_bytes(params_.fp, data.subspan(1 + flen, flen)));
  if (!on_curve(pt)) throw std::invalid_argument("Curve::deserialize: point not on curve");
  return pt;
}

}  // namespace sp::ec
