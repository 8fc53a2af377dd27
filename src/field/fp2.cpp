#include "field/fp2.hpp"

#include <stdexcept>

namespace sp::field {

Fp2::Fp2(Fp a, Fp b) : a_(std::move(a)), b_(std::move(b)) {
  if (!a_.ctx() || !b_.ctx()) throw std::invalid_argument("Fp2: null components");
}

Fp2::Fp2(const Fp& a) : a_(a), b_(Fp::zero(a.ctx())) {}

Fp2 Fp2::zero(const FpCtxPtr& ctx) { return Fp2(Fp::zero(ctx), Fp::zero(ctx)); }
Fp2 Fp2::one(const FpCtxPtr& ctx) { return Fp2(Fp::one(ctx), Fp::zero(ctx)); }

Fp2 Fp2::random(const FpCtxPtr& ctx, crypto::Drbg& rng) {
  return Fp2(Fp::random(ctx, rng), Fp::random(ctx, rng));
}

bool Fp2::is_one() const {
  return !a_.is_zero() && a_ == Fp::one(a_.ctx()) && b_.is_zero();
}

Bytes Fp2::to_bytes() const {
  Bytes out = a_.to_bytes();
  Bytes im = b_.to_bytes();
  out.insert(out.end(), im.begin(), im.end());
  return out;
}

Fp2 Fp2::from_bytes(const FpCtxPtr& ctx, std::span<const std::uint8_t> data) {
  const std::size_t half = ctx->byte_length();
  if (data.size() != 2 * half) throw std::invalid_argument("Fp2::from_bytes: bad length");
  return Fp2(Fp::from_bytes(ctx, data.first(half)), Fp::from_bytes(ctx, data.subspan(half)));
}

Fp2 operator+(const Fp2& x, const Fp2& y) { return Fp2(x.a_ + y.a_, x.b_ + y.b_); }
Fp2 operator-(const Fp2& x, const Fp2& y) { return Fp2(x.a_ - y.a_, x.b_ - y.b_); }

Fp2 operator*(const Fp2& x, const Fp2& y) {
  // (a + bi)(c + di) = (ac − bd) + (ad + bc)i, via 3 multiplications
  // (Karatsuba): ac, bd, (a+b)(c+d).
  const Fp ac = x.a_ * y.a_;
  const Fp bd = x.b_ * y.b_;
  const Fp cross = (x.a_ + x.b_) * (y.a_ + y.b_);
  return Fp2(ac - bd, cross - ac - bd);
}

Fp2 Fp2::operator-() const { return Fp2(-a_, -b_); }

bool operator==(const Fp2& x, const Fp2& y) { return x.a_ == y.a_ && x.b_ == y.b_; }

Fp2 Fp2::conj() const { return Fp2(a_, -b_); }

Fp Fp2::norm() const { return a_ * a_ + b_ * b_; }

Fp2 Fp2::inv() const {
  // (a + bi)^-1 = (a − bi) / (a² + b²).
  const Fp n = norm();
  if (n.is_zero()) throw std::domain_error("Fp2::inv: zero has no inverse");
  const Fp ninv = n.inv();
  return Fp2(a_ * ninv, -(b_ * ninv));
}

Fp2 Fp2::pow(const BigInt& e) const {
  if (e.is_negative()) return inv().pow(-e);
  Fp2 result = Fp2::one(a_.ctx());
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = result * result;
    if (e.bit(i)) result = result * *this;
  }
  return result;
}

}  // namespace sp::field
