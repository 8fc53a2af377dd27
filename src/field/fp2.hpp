// Quadratic extension field F_{p²} = F_p[i] / (i² + 1), valid when
// p ≡ 3 (mod 4) so that −1 is a non-residue.
//
// The modified Tate pairing on the supersingular curve maps into F_{p²}:
// the distortion map sends (x, y) → (−x, i·y), and Miller-loop line values
// therefore live here. CP-ABE's e(g,g)^αs blinding factors are F_{p²}
// elements.
#pragma once

#include "field/fp.hpp"

namespace sp::field {

class Fp2 {
 public:
  Fp2() = default;
  /// a + b·i.
  Fp2(Fp a, Fp b);
  /// Embeds an F_p element (imaginary part zero).
  explicit Fp2(const Fp& a);

  static Fp2 zero(const FpCtxPtr& ctx);
  static Fp2 one(const FpCtxPtr& ctx);
  static Fp2 random(const FpCtxPtr& ctx, crypto::Drbg& rng);

  [[nodiscard]] const Fp& re() const { return a_; }
  [[nodiscard]] const Fp& im() const { return b_; }
  [[nodiscard]] bool is_zero() const { return a_.is_zero() && b_.is_zero(); }
  [[nodiscard]] bool is_one() const;
  /// Fixed-width encoding: re || im.
  [[nodiscard]] Bytes to_bytes() const;
  static Fp2 from_bytes(const FpCtxPtr& ctx, std::span<const std::uint8_t> data);

  friend Fp2 operator+(const Fp2& x, const Fp2& y);
  friend Fp2 operator-(const Fp2& x, const Fp2& y);
  friend Fp2 operator*(const Fp2& x, const Fp2& y);
  Fp2 operator-() const;
  friend bool operator==(const Fp2& x, const Fp2& y);
  friend bool operator!=(const Fp2& x, const Fp2& y) { return !(x == y); }

  /// Conjugate a − b·i.
  [[nodiscard]] Fp2 conj() const;
  /// Norm a² + b² ∈ F_p.
  [[nodiscard]] Fp norm() const;
  [[nodiscard]] Fp2 inv() const;
  /// Square-and-multiply; the limb pow (MontField) is the fast path.
  [[nodiscard]] Fp2 pow(const BigInt& e) const;

 private:
  Fp a_;
  Fp b_;
};

}  // namespace sp::field
