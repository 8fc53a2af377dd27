// Fixed-width, Montgomery-resident arithmetic for primes p < 2^512.
//
// Fp (fp.hpp) is the arbitrary-width canonical field type: a shared pointer
// to its modulus plus a heap BigInt, converted into and out of Montgomery
// form on every multiply. That suits Shamir shares and wire encodings, but
// one pairing is thousands of multiplies. The curve and pairing loops run on
// Fe instead: eight 64-bit limbs holding x·R mod p (R = 2^512) that stay in
// Montgomery form from the first conversion to the last, so a multiply is
// one fixed-size CIOS pass with no heap traffic. Fe2 is the matching
// F_{p²} = F_p[i]/(i² + 1) element.
//
// Elements carry no context: every operation goes through the MontField of
// their prime, which FpCtx builds once (FpCtx::mont_field()). Smaller primes
// zero-pad to eight limbs. Every result is fully reduced into [0, p), so
// equal field values have equal limbs.
//
// Not constant-time (conditional final subtraction, windowed exponent
// scanning): this is a research reproduction, not a hardened library.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>

#include "crypto/bigint.hpp"

namespace sp::field {

using crypto::BigInt;

inline constexpr std::size_t kFeLimbs = 8;

/// An F_p element x·R mod p in little-endian 64-bit limbs, always in [0, p).
using Fe = std::array<std::uint64_t, kFeLimbs>;

/// re + im·i in F_{p²}, both halves Montgomery-resident.
struct Fe2 {
  Fe re{};
  Fe im{};
  friend bool operator==(const Fe2&, const Fe2&) = default;
};

static_assert(std::is_trivially_copyable_v<Fe>, "Fe should be a plain limb array");
static_assert(std::is_nothrow_move_constructible_v<Fe>, "Fe should be noexcept MoveConstructible");
static_assert(std::is_trivially_copyable_v<Fe2>, "Fe2 should be two plain limb arrays");
static_assert(std::is_nothrow_move_constructible_v<Fe2>,
              "Fe2 should be noexcept MoveConstructible");

/// The Montgomery arithmetic of one prime field. Outputs never alias inputs
/// (every operation returns by value), so `a = f.mul(a, a)` is safe.
class MontField {
 public:
  /// True when p is odd, at least 3 and below 2^512.
  [[nodiscard]] static bool fits(const BigInt& p);
  /// Throws std::invalid_argument unless fits(p).
  explicit MontField(const BigInt& p);

  /// x mod p (any sign or width) into Montgomery form.
  [[nodiscard]] Fe from_big(const BigInt& x) const;
  /// The canonical value in [0, p).
  [[nodiscard]] BigInt to_big(const Fe& a) const;
  /// R mod p: the multiplicative identity in Montgomery form.
  [[nodiscard]] const Fe& one() const { return one_; }
  [[nodiscard]] static bool is_zero(const Fe& a) { return a == Fe{}; }

  [[nodiscard]] Fe add(const Fe& a, const Fe& b) const;
  [[nodiscard]] Fe sub(const Fe& a, const Fe& b) const;
  [[nodiscard]] Fe neg(const Fe& a) const { return sub(Fe{}, a); }
  /// (a·b)·R^{-1} mod p: one CIOS pass, so Montgomery form is preserved.
  [[nodiscard]] Fe mul(const Fe& a, const Fe& b) const;
  [[nodiscard]] Fe sqr(const Fe& a) const { return mul(a, a); }
  /// a^{-1} = a^{p−2} (Fermat). Throws std::domain_error on zero.
  [[nodiscard]] Fe inv(const Fe& a) const;
  /// a^e for e >= 0, fixed window w = 4.
  [[nodiscard]] Fe pow(const Fe& a, const BigInt& e) const;

  // ---- F_{p²} = F_p[i] / (i² + 1) (p ≡ 3 mod 4 makes −1 a non-residue) --
  [[nodiscard]] Fe2 one2() const { return {one_, Fe{}}; }
  /// Karatsuba: three F_p multiplies.
  [[nodiscard]] Fe2 mul(const Fe2& x, const Fe2& y) const;
  /// (a + b)(a − b) + 2ab·i: two F_p multiplies.
  [[nodiscard]] Fe2 sqr(const Fe2& x) const;
  [[nodiscard]] Fe2 conj(const Fe2& x) const { return {x.re, neg(x.im)}; }
  /// (a − b·i) / (a² + b²). Throws std::domain_error on zero.
  [[nodiscard]] Fe2 inv(const Fe2& x) const;
  /// x^e, fixed window w = 4; a negative e inverts x first.
  [[nodiscard]] Fe2 pow(const Fe2& x, const BigInt& e) const;

 private:
  /// (carry:t) − p when that is non-negative, else t; (carry:t) < 2p.
  [[nodiscard]] Fe reduce_once(const std::uint64_t* t, std::uint64_t carry) const;

  Fe p_{};
  Fe one_{};                 ///< R mod p
  Fe r2_{};                  ///< R² mod p (from_big multiplier)
  std::uint64_t pinv_ = 0;   ///< −p^{-1} mod 2^64
  BigInt p_big_;
  BigInt p_minus_2_;         ///< Fermat inversion exponent
};

// The kernel is inline: the curve and pairing loops call it thousands of
// times per operation, and the limb loops have a fixed trip count.

inline Fe MontField::reduce_once(const std::uint64_t* t, std::uint64_t carry) const {
  using u128 = unsigned __int128;
  Fe d;
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kFeLimbs; ++i) {
    const u128 diff = static_cast<u128>(t[i]) - p_[i] - borrow;
    d[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 127);
  }
  // The subtraction underflows exactly when (carry:t) < p.
  if (borrow > carry) std::copy(t, t + kFeLimbs, d.begin());
  return d;
}

inline Fe MontField::add(const Fe& a, const Fe& b) const {
  using u128 = unsigned __int128;
  std::uint64_t t[kFeLimbs];
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kFeLimbs; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    t[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  return reduce_once(t, carry);
}

inline Fe MontField::sub(const Fe& a, const Fe& b) const {
  using u128 = unsigned __int128;
  Fe r;
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kFeLimbs; ++i) {
    const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
    r[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 127);
  }
  // a − b < 0: add p back (the sum wraps past 2^512 exactly once).
  const std::uint64_t mask = 0 - borrow;
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kFeLimbs; ++i) {
    const u128 s = static_cast<u128>(r[i]) + (p_[i] & mask) + carry;
    r[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  return r;
}

// Coarsely Integrated Operand Scanning (Koç/Acar/Kaliski): the schoolbook
// product interleaved with one REDC step per limb of b, so the accumulator
// never exceeds kFeLimbs + 2 limbs. With a, b < p < 2^512 the result is
// below 2p and one conditional subtraction canonicalizes it; the extra
// carry limb is what lets p use all 512 bits.
inline Fe MontField::mul(const Fe& a, const Fe& b) const {
  using u128 = unsigned __int128;
  constexpr std::size_t n = kFeLimbs;
  std::uint64_t t[n + 2] = {};
#pragma GCC unroll 8
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bi = b[i];
    std::uint64_t carry = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(s);
    t[n + 1] = static_cast<std::uint64_t>(s >> 64);

    const std::uint64_t m = t[0] * pinv_;
    u128 cur = static_cast<u128>(m) * p_[0] + t[0];  // low limb cancels to 0
    carry = static_cast<std::uint64_t>(cur >> 64);
#pragma GCC unroll 8
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(m) * p_[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    s = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<std::uint64_t>(s);
    t[n] = t[n + 1] + static_cast<std::uint64_t>(s >> 64);
  }
  return reduce_once(t, t[n]);
}

}  // namespace sp::field
