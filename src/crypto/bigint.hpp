// Arbitrary-precision integers, written from scratch for this reproduction.
//
// The paper's two constructions both bottom out in modular arithmetic over a
// large prime field: Shamir secret sharing (Construction 1) and the BSW07
// CP-ABE pairing groups (Construction 2). BigInt supplies magnitude + sign
// arithmetic with Knuth Algorithm-D division, modular exponentiation,
// modular inverse, gcd, Miller–Rabin primality and byte/hex codecs.
//
// Representation: little-endian vector of 64-bit limbs, normalized (no
// trailing zero limbs), with an explicit sign flag; zero is { {}, positive }.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/bytes.hpp"

namespace sp::crypto {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a native signed value.
  BigInt(std::int64_t v);  // NOLINT(google-explicit-constructor): numeric literal ergonomics
  /// From a native unsigned value.
  static BigInt from_u64(std::uint64_t v);
  /// Parses decimal (optionally signed) — throws std::invalid_argument.
  static BigInt from_dec(std::string_view s);
  /// Parses hex without 0x prefix (optionally signed).
  static BigInt from_hex(std::string_view s);
  /// Big-endian unsigned bytes -> non-negative BigInt.
  static BigInt from_bytes(std::span<const std::uint8_t> be);

  /// Uniform value in [0, bound) using `rand_bytes(n)` as entropy source.
  /// `bound` must be positive.
  static BigInt random_below(const BigInt& bound,
                             const std::function<Bytes(std::size_t)>& rand_bytes);

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  [[nodiscard]] bool is_negative() const { return negative_; }
  [[nodiscard]] bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;
  [[nodiscard]] bool bit(std::size_t i) const;
  /// Low 64 bits of the magnitude.
  [[nodiscard]] std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  [[nodiscard]] std::string to_dec() const;
  [[nodiscard]] std::string to_hex() const;
  /// Big-endian magnitude, exactly `width` bytes (throws if it does not fit);
  /// width 0 means minimal width (at least one byte).
  [[nodiscard]] Bytes to_bytes(std::size_t width = 0) const;

  friend BigInt operator+(const BigInt& a, const BigInt& b);
  friend BigInt operator-(const BigInt& a, const BigInt& b);
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  /// Truncated quotient (C++ semantics: rounds toward zero).
  friend BigInt operator/(const BigInt& a, const BigInt& b);
  /// Remainder with the sign of the dividend (C++ semantics).
  friend BigInt operator%(const BigInt& a, const BigInt& b);
  BigInt operator-() const;
  BigInt& operator+=(const BigInt& b) { return *this = *this + b; }
  BigInt& operator-=(const BigInt& b) { return *this = *this - b; }
  BigInt& operator*=(const BigInt& b) { return *this = *this * b; }

  friend BigInt operator<<(const BigInt& a, std::size_t n);
  friend BigInt operator>>(const BigInt& a, std::size_t n);

  friend bool operator==(const BigInt& a, const BigInt& b) = default;
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  /// Quotient and remainder in one division (Knuth D). rem has dividend sign.
  static void div_mod(const BigInt& a, const BigInt& b, BigInt& quot, BigInt& rem);

  /// Canonical residue in [0, m): works for negative `a` too. m must be > 0.
  [[nodiscard]] BigInt mod(const BigInt& m) const;
  /// (a * b) mod m with all operands reduced.
  static BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m);
  /// (base ^ exp) mod m, exp >= 0, via left-to-right square-and-multiply.
  static BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m);
  /// Modular inverse via extended Euclid; throws std::domain_error if
  /// gcd(a, m) != 1.
  static BigInt mod_inv(const BigInt& a, const BigInt& m);
  static BigInt gcd(BigInt a, BigInt b);

  /// Miller–Rabin with `rounds` random bases (plus small-prime sieve).
  static bool is_probable_prime(const BigInt& n, int rounds,
                                const std::function<Bytes(std::size_t)>& rand_bytes);

  /// Zeroises the limb storage (optimizer-proof) and resets to zero. For
  /// secret scalars — M_O, Schnorr nonces — whose value must not survive in
  /// the allocation after use.
  void wipe() noexcept;

 private:
  friend class MontCtx;
  void trim();
  [[nodiscard]] static int cmp_mag(const BigInt& a, const BigInt& b);
  static BigInt add_mag(const BigInt& a, const BigInt& b);
  /// Requires |a| >= |b|.
  static BigInt sub_mag(const BigInt& a, const BigInt& b);

  std::vector<std::uint64_t> limbs_;  // little-endian, normalized
  bool negative_ = false;             // never true for zero
};

/// Montgomery-form modular arithmetic for a fixed odd modulus m.
///
/// Values in the Montgomery domain are x·R mod m with R = 2^(64·n) for the
/// modulus's limb count n. Multiplication is CIOS (coarsely integrated
/// operand scanning) over the 64-bit limb vector — one interleaved
/// multiply-and-REDC pass, no divisions and no heap traffic beyond the
/// result — and exponentiation is fixed-window (w = 4). This is the
/// substrate under the value-API FpCtx, at any width up to kMaxLimbs; its
/// inputs and outputs are BigInts, so each canonical-domain multiply pays
/// two passes plus heap traffic. The curve and pairing loops instead run on
/// the fixed-width, Montgomery-resident field::MontField
/// (field/mont_field.hpp). The Barrett path in field/fp stays alive as the
/// randomized-equivalence oracle.
///
/// Not constant-time (final conditional subtraction, windowed exponent
/// scanning): this is a research reproduction, not a hardened library.
class MontCtx {
 public:
  /// Largest supported modulus in 64-bit limbs (1024 bits). Anything wider
  /// falls back to the callers' Barrett/Knuth paths.
  static constexpr std::size_t kMaxLimbs = 16;

  /// True when `m` is odd, >= 3 and at most kMaxLimbs wide.
  [[nodiscard]] static bool usable(const BigInt& m);

  /// Throws std::invalid_argument unless usable(modulus).
  explicit MontCtx(const BigInt& modulus);

  // Inputs and outputs are canonical values in [0, m).
  /// (a·b) mod m via two REDC passes.
  [[nodiscard]] BigInt mul(const BigInt& a, const BigInt& b) const;
  /// base^exp mod m (exp non-negative), windowed in the Montgomery domain.
  [[nodiscard]] BigInt pow(const BigInt& base, const BigInt& exp) const;

 private:
  /// Pads a reduced BigInt into an n_-limb little-endian array.
  void load(const BigInt& x, std::uint64_t* out) const;
  [[nodiscard]] BigInt store(const std::uint64_t* limbs) const;
  /// CIOS multiply-and-reduce: out = (a·b)·R^{-1} mod m, all n_-limb arrays.
  void cios(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out) const;
  /// Raw-array windowed pow behind pow().
  void pow_raw(const std::uint64_t* base_mont, const BigInt& exp, std::uint64_t* out) const;
  /// |x| >= m (used to decide whether an input needs a reducing mod()).
  [[nodiscard]] bool cmp_arg_ge(const BigInt& x) const;

  BigInt m_;
  BigInt one_;                        ///< R mod m
  std::vector<std::uint64_t> mlimbs_; ///< modulus, padded to n_
  std::vector<std::uint64_t> r2limbs_; ///< R² mod m (into-Montgomery multiplier)
  std::uint64_t m0inv_ = 0;           ///< -m^{-1} mod 2^64
  std::size_t n_ = 0;
};

}  // namespace sp::crypto
