// Prime field F_p arithmetic.
//
// Construction 1 runs Shamir secret sharing over F_p; Construction 2's
// pairing groups live on an elliptic curve over F_p. Fp is the canonical,
// arbitrary-width element: a shared pointer to its modulus (so mixed-field
// operations are caught early) plus a BigInt in [0, p). It serves Shamir,
// serialization and every prime wider than 512 bits. The curve and pairing
// loops do not run on Fp: they convert once into the fixed-width,
// Montgomery-resident Fe of mont_field.hpp, whose context FpCtx builds
// (mont_field()) when p < 2^512.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/bigint.hpp"
#include "crypto/drbg.hpp"
#include "field/mont_field.hpp"

namespace sp::field {

using crypto::BigInt;
using crypto::Bytes;

/// Immutable modulus context shared by all elements of one field instance.
class FpCtx {
 public:
  /// p must be an odd prime (primality is the caller's responsibility; use
  /// BigInt::is_probable_prime when constructing parameters).
  explicit FpCtx(BigInt p);

  [[nodiscard]] const BigInt& p() const { return p_; }
  [[nodiscard]] std::size_t byte_length() const { return byte_len_; }
  /// True when p ≡ 3 (mod 4) — enables the fast square-root path and the
  /// i² = −1 representation of F_{p²}.
  [[nodiscard]] bool p_is_3_mod_4() const { return p3mod4_; }

  /// Barrett reduction of x in [0, p²) — division-free, precomputed μ.
  /// Falls back to plain mod for out-of-range or negative inputs.
  [[nodiscard]] BigInt reduce(const BigInt& x) const;
  /// (a*b) mod p — Montgomery CIOS when p fits MontCtx, else Barrett.
  /// Operands must already be reduced.
  [[nodiscard]] BigInt mul_mod(const BigInt& a, const BigInt& b) const;
  /// base^exp mod p (exp >= 0) — fixed-window Montgomery when available,
  /// else Barrett square-and-multiply.
  [[nodiscard]] BigInt pow_mod(const BigInt& base, const BigInt& exp) const;
  /// a^{-1} mod p via Fermat (a^{p-2}) on the Montgomery path, extended
  /// Euclid otherwise. Throws std::domain_error on zero.
  [[nodiscard]] BigInt inv_mod(const BigInt& a) const;

  // Barrett-only paths, kept alive as the randomized-equivalence oracle for
  // the Montgomery rewrite (tests/crypto/test_montgomery.cpp).
  [[nodiscard]] BigInt mul_mod_barrett(const BigInt& a, const BigInt& b) const;
  [[nodiscard]] BigInt pow_mod_barrett(const BigInt& base, const BigInt& exp) const;

  /// Montgomery context for p, if p fits (always true for the presets).
  [[nodiscard]] const std::optional<crypto::MontCtx>& mont() const { return mont_; }
  /// Fixed-width limb arithmetic for p, when p < 2^512 (every preset).
  [[nodiscard]] const std::optional<MontField>& mont_field() const { return mont_field_; }

 private:
  BigInt p_;
  BigInt mu_;             ///< floor(2^(2·shift) / p) for Barrett
  BigInt p_minus_2_;      ///< Fermat inversion exponent
  std::optional<crypto::MontCtx> mont_;
  std::optional<MontField> mont_field_;
  std::size_t shift_ = 0; ///< bit shift = bit_length(p) rounded up usage
  std::size_t byte_len_;
  bool p3mod4_;
};

using FpCtxPtr = std::shared_ptr<const FpCtx>;

/// Makes a field context; validates p > 2 and p odd.
FpCtxPtr make_fp(BigInt p);

class Fp {
 public:
  Fp() = default;  // "null" element; usable only after assignment
  Fp(FpCtxPtr ctx, const BigInt& value);

  /// Additive / multiplicative identities.
  static Fp zero(const FpCtxPtr& ctx);
  static Fp one(const FpCtxPtr& ctx);
  /// Uniform random element.
  static Fp random(const FpCtxPtr& ctx, crypto::Drbg& rng);
  /// Uniform random non-zero element (for polynomial leading coefficients
  /// and blinding factors).
  static Fp random_nonzero(const FpCtxPtr& ctx, crypto::Drbg& rng);
  /// Maps arbitrary bytes into the field (mod p).
  static Fp from_bytes(const FpCtxPtr& ctx, std::span<const std::uint8_t> data);

  [[nodiscard]] const BigInt& value() const { return v_; }
  [[nodiscard]] const FpCtxPtr& ctx() const { return ctx_; }
  [[nodiscard]] bool is_zero() const { return v_.is_zero(); }
  /// Fixed-width big-endian encoding (ctx byte length).
  [[nodiscard]] Bytes to_bytes() const;
  [[nodiscard]] std::string to_string() const { return v_.to_dec(); }

  friend Fp operator+(const Fp& a, const Fp& b);
  friend Fp operator-(const Fp& a, const Fp& b);
  friend Fp operator*(const Fp& a, const Fp& b);
  Fp operator-() const;
  friend bool operator==(const Fp& a, const Fp& b);
  friend bool operator!=(const Fp& a, const Fp& b) { return !(a == b); }

  /// Multiplicative inverse; throws std::domain_error on zero.
  [[nodiscard]] Fp inv() const;
  /// Exponentiation by a non-negative BigInt.
  [[nodiscard]] Fp pow(const BigInt& e) const;
  /// Legendre symbol: +1 quadratic residue, -1 non-residue, 0 for zero.
  [[nodiscard]] int legendre() const;
  /// Square root (Tonelli–Shanks; fast path when p ≡ 3 mod 4). Throws
  /// std::domain_error if no root exists. Returns the even-valued root's
  /// canonical choice (smaller of r, p−r).
  [[nodiscard]] Fp sqrt() const;

  /// Zeroises the element's value (for secret polynomial coefficients and
  /// share ordinates). The element becomes 0 in-field, residue-free.
  void wipe() noexcept { v_.wipe(); }

 private:
  void require_same_field(const Fp& other) const;

  FpCtxPtr ctx_;
  BigInt v_;  // canonical representative in [0, p)
};

/// Montgomery batch inversion: inverts every element for the cost of ONE
/// field inversion plus 3(n−1) multiplications (prefix products, invert the
/// total, back-substitute) — same trick as the Jacobian batch-normalization
/// in ec. Throws std::domain_error if any input is zero (nothing is
/// partially inverted). The prefix-product scratch is wiped before
/// returning, since callers feed it secret-derived values (Shamir share
/// abscissa differences). Returns {} for empty input.
std::vector<Fp> batch_inv(std::span<const Fp> xs);

}  // namespace sp::field
