// Supersingular elliptic curve E: y² = x³ + x over F_p with p ≡ 3 (mod 4).
//
// This is the same curve family as PBC's "Type A" parameters used by the
// cpabe toolkit the paper builds Implementation 2 on. The curve has
// #E(F_p) = p + 1 = h·q points; the pairing groups are the order-q subgroup
// G together with the distortion map φ(x, y) = (−x, i·y) into E(F_{p²}).
#pragma once

#include <optional>

#include "field/fp2.hpp"

namespace sp::ec {

using crypto::BigInt;
using crypto::Bytes;
using field::Fp;
using field::FpCtxPtr;

/// Pairing-friendly curve parameters: p + 1 = h · q, p ≡ 3 (mod 4), q prime.
struct CurveParams {
  FpCtxPtr fp;  ///< base field F_p
  BigInt q;     ///< prime order of the pairing subgroup G
  BigInt h;     ///< cofactor
};

/// Affine point on E(F_p); the point at infinity has `infinity == true` and
/// unspecified coordinates.
class Point {
 public:
  Point() : infinity_(true) {}
  Point(Fp x, Fp y) : x_(std::move(x)), y_(std::move(y)), infinity_(false) {}

  [[nodiscard]] bool is_infinity() const { return infinity_; }
  [[nodiscard]] const Fp& x() const { return x_; }
  [[nodiscard]] const Fp& y() const { return y_; }

  friend bool operator==(const Point& a, const Point& b) {
    if (a.infinity_ != b.infinity_) return false;
    if (a.infinity_) return true;
    return a.x_ == b.x_ && a.y_ == b.y_;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }

 private:
  Fp x_;
  Fp y_;
  bool infinity_;
};

class Curve {
 public:
  /// Throws std::invalid_argument unless p ≡ 3 (mod 4), h·q = p + 1 and
  /// p < 2^512 (the width of the limb arithmetic every loop runs on).
  explicit Curve(CurveParams params);

  [[nodiscard]] const CurveParams& params() const { return params_; }
  [[nodiscard]] const FpCtxPtr& fp() const { return params_.fp; }
  /// The Montgomery limb arithmetic of F_p, shared with the pairing.
  [[nodiscard]] const field::MontField& mont_field() const { return *params_.fp->mont_field(); }
  /// Group order q of the pairing subgroup.
  [[nodiscard]] const BigInt& order() const { return params_.q; }

  [[nodiscard]] bool on_curve(const Point& pt) const;
  [[nodiscard]] Point negate(const Point& pt) const;
  /// Affine group law (one field inversion each).
  [[nodiscard]] Point add(const Point& a, const Point& b) const;
  [[nodiscard]] Point dbl(const Point& a) const;
  /// Scalar multiplication: width-4 wNAF over Jacobian coordinates on
  /// Montgomery limbs, or a fixed-base windowed table when `pt` has been
  /// registered via precompute_fixed_base(). Not constant-time — this is a
  /// research reproduction, not a hardened implementation.
  [[nodiscard]] Point mul(const Point& pt, const BigInt& k) const;
  /// Plain binary double-and-add on the affine add()/dbl() — the
  /// randomized-equivalence oracle for mul() (tests/ec/test_scalar_mul.cpp).
  [[nodiscard]] Point mul_binary(const Point& pt, const BigInt& k) const;

  /// Builds (or refreshes) a fixed-base window table for `base` in a
  /// process-wide cache keyed by (p, base); subsequent mul(base, k) calls
  /// use it. Tables survive across Curve instances so long-lived generators
  /// (CP-ABE g/h/f, the Schnorr generator) pay the build cost once per
  /// process, not once per Session. Thread-safe; no-op for infinity.
  void precompute_fixed_base(const Point& base) const;
  /// True when mul(base, ·) would hit a cached fixed-base table.
  [[nodiscard]] bool has_fixed_base(const Point& base) const;

  /// Deterministically maps bytes to a point in the order-q subgroup
  /// (try-and-increment x, then cofactor clearing). Never returns infinity.
  [[nodiscard]] Point hash_to_group(std::span<const std::uint8_t> data) const;
  /// Random generator of the order-q subgroup.
  [[nodiscard]] Point random_group_element(crypto::Drbg& rng) const;

  /// Uncompressed encoding: 0x04 || x || y, or single 0x00 for infinity.
  [[nodiscard]] Bytes serialize(const Point& pt) const;
  [[nodiscard]] Point deserialize(std::span<const std::uint8_t> data) const;

 private:
  [[nodiscard]] Fp rhs(const Fp& x) const;  // x³ + x
  [[nodiscard]] std::string table_key(const Point& base) const;

  CurveParams params_;
  Fp one_, two_, three_;  ///< affine group-law constants
};

}  // namespace sp::ec
