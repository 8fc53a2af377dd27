#include "field/mont_field.hpp"

#include <stdexcept>

namespace sp::field {

namespace {

// Big-endian 64-byte encoding <-> little-endian limbs. The inputs are
// reduced below p < 2^512, so they always fit.
Fe load(const BigInt& x) {
  const crypto::Bytes be = x.to_bytes(8 * kFeLimbs);
  Fe out{};
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::size_t pos = be.size() - 1 - i;  // byte i from the little end
    out[i / 8] |= static_cast<std::uint64_t>(be[pos]) << (8 * (i % 8));
  }
  return out;
}

BigInt store(const Fe& a) {
  crypto::Bytes be(8 * kFeLimbs);
  for (std::size_t i = 0; i < be.size(); ++i) {
    be[be.size() - 1 - i] = static_cast<std::uint8_t>(a[i / 8] >> (8 * (i % 8)));
  }
  return BigInt::from_bytes(be);
}

// Fixed-window (w = 4) left-to-right exponentiation, shared by Fe and Fe2:
// 14 table multiplies, then 4 squarings and at most one multiply per nibble.
template <class T, class Mul, class Sqr>
T window_pow(const T& base, const T& one, const BigInt& e, Mul mul, Sqr sqr) {
  const std::size_t nbits = e.bit_length();
  if (nbits == 0) return one;
  std::array<T, 16> table;
  table[0] = one;
  table[1] = base;
  for (std::size_t d = 2; d < table.size(); ++d) table[d] = mul(table[d - 1], base);
  const auto nibble = [&e](std::size_t k) {
    unsigned d = 0;
    for (unsigned b = 0; b < 4; ++b) d |= static_cast<unsigned>(e.bit(4 * k + b)) << b;
    return d;
  };
  const std::size_t nnibs = (nbits + 3) / 4;
  T acc = table[nibble(nnibs - 1)];
  for (std::size_t k = nnibs - 1; k-- > 0;) {
    acc = sqr(sqr(sqr(sqr(acc))));
    const unsigned d = nibble(k);
    if (d != 0) acc = mul(acc, table[d]);
  }
  return acc;
}

}  // namespace

bool MontField::fits(const BigInt& p) {
  return !p.is_negative() && p.is_odd() && p >= BigInt{3} && p.bit_length() <= 64 * kFeLimbs;
}

MontField::MontField(const BigInt& p) : p_big_(p), p_minus_2_(p - BigInt{2}) {
  if (!fits(p)) throw std::invalid_argument("MontField: modulus must be odd, >= 3 and < 2^512");
  p_ = load(p);
  // −p^{-1} mod 2^64 by Newton iteration: for odd p0, x = p0 is already an
  // inverse mod 8, and each step doubles the number of correct low bits.
  const std::uint64_t p0 = p_[0];
  std::uint64_t x = p0;
  for (int i = 0; i < 5; ++i) x *= 2 - p0 * x;
  pinv_ = 0 - x;
  one_ = load((BigInt{1} << (64 * kFeLimbs)).mod(p));
  r2_ = load((BigInt{1} << (128 * kFeLimbs)).mod(p));
}

Fe MontField::from_big(const BigInt& x) const { return mul(load(x.mod(p_big_)), r2_); }

BigInt MontField::to_big(const Fe& a) const { return store(mul(a, Fe{1})); }

Fe MontField::inv(const Fe& a) const {
  if (is_zero(a)) throw std::domain_error("MontField::inv: zero has no inverse");
  return pow(a, p_minus_2_);
}

Fe MontField::pow(const Fe& a, const BigInt& e) const {
  if (e.is_negative()) throw std::domain_error("MontField::pow: negative exponent");
  return window_pow(
      a, one_, e, [this](const Fe& x, const Fe& y) { return mul(x, y); },
      [this](const Fe& x) { return sqr(x); });
}

Fe2 MontField::mul(const Fe2& x, const Fe2& y) const {
  // (a + bi)(c + di) = (ac − bd) + ((a + b)(c + d) − ac − bd)i.
  const Fe ac = mul(x.re, y.re);
  const Fe bd = mul(x.im, y.im);
  const Fe cross = mul(add(x.re, x.im), add(y.re, y.im));
  return {sub(ac, bd), sub(sub(cross, ac), bd)};
}

Fe2 MontField::sqr(const Fe2& x) const {
  const Fe ab = mul(x.re, x.im);
  return {mul(add(x.re, x.im), sub(x.re, x.im)), add(ab, ab)};
}

Fe2 MontField::inv(const Fe2& x) const {
  const Fe norm = add(sqr(x.re), sqr(x.im));
  if (is_zero(norm)) throw std::domain_error("MontField::inv: zero has no inverse");
  const Fe ninv = inv(norm);
  return {mul(x.re, ninv), neg(mul(x.im, ninv))};
}

Fe2 MontField::pow(const Fe2& x, const BigInt& e) const {
  if (e.is_negative()) return pow(inv(x), -e);
  return window_pow(
      x, one2(), e, [this](const Fe2& a, const Fe2& b) { return mul(a, b); },
      [this](const Fe2& a) { return sqr(a); });
}

}  // namespace sp::field
