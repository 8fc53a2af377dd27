// Modified Tate pairing ê: G × G → F_{p²} on the supersingular curve,
// computed as ê(P, Q) = f_{q,P}(φ(Q))^((p²−1)/q) with the distortion map
// φ(x, y) = (−x, i·y) and Miller's algorithm.
//
// Denominator elimination applies: every vertical-line value lies in F_p and
// is annihilated by the (p−1) factor of the final exponentiation, so only
// the tangent/chord numerators are accumulated. The final exponentiation
// uses the Frobenius shortcut f^(p−1) = conj(f) · f^{-1}.
//
// Arithmetic: the Miller loop, table build and replay, final
// exponentiation, product()'s bucket pows and gt_pow() all run on the
// fixed-width Montgomery limbs of field/mont_field.hpp (Fe, Fe2) and the
// Jacobian group law of ec/jacobian.hpp. Points and Fp2 values convert to
// limbs on entry and back once on exit; Fp2's value ops and reference()
// stay as the equivalence oracles.
//
// Batch verification (PR 7): product() evaluates ∏ ê(P_i, Q_i)^(±e_i) with
// one Miller loop per pair but a SINGLE shared final exponentiation.
// Soundness of the sharing (DESIGN.md "Batch verification pipeline"):
//   - FE(f) = f^((p²−1)/q) is a group homomorphism, so the product of
//     exponentiated Miller values exponentiates to the product of pairings.
//   - p ≡ −1 (mod q) (p + 1 = h·q), so FE(conj(f)) = FE(f^p) = FE(f)^p =
//     FE(f)^{-1}: an inverse pair costs one conjugation BEFORE the shared
//     final exponentiation instead of an F_{p²} inversion after it.
//   - FE output has order dividing q, so per-term exponents already reduced
//     mod q commute with FE: FE(f^e) = FE(f)^e.
// All three identities hold exactly over canonical field representations,
// so product() is byte-identical to the per-pair reference composition.
//
// precompute() builds a Miller-line table for a fixed FIRST argument P: the
// loop's tangent/chord line coefficients depend only on P, so they are
// recorded once and each later ê(P, ·) replays them against φ(Q), skipping
// all of the point arithmetic. Tables live in a process-wide FIFO-capped
// registry keyed by (p, P) — same policy as the fixed-base scalar tables.
#pragma once

#include <functional>
#include <span>

#include "ec/curve.hpp"
#include "field/fp2.hpp"

namespace sp::ec {

using field::Fp2;

class Pairing {
 public:
  explicit Pairing(const Curve& curve) : curve_(&curve) {}

  /// ê(P, Q). Both points must lie in the order-q subgroup; ê(P, P) ≠ 1 for
  /// P ≠ O (the distortion map makes the "self-pairing" non-degenerate).
  /// Returns 1 ∈ F_{p²} when either argument is infinity. Inversion-free
  /// Jacobian Miller loop; the per-step F_p scale factors it introduces
  /// cancel exactly in the final exponentiation, so the value is identical
  /// to reference(). Uses a Miller-line table when P has one registered.
  [[nodiscard]] Fp2 operator()(const Point& p, const Point& q) const;

  /// The original affine Miller loop (one field inversion per step), kept
  /// as the equivalence oracle for the Jacobian rewrite.
  [[nodiscard]] Fp2 reference(const Point& p, const Point& q) const;

  /// One factor of a multi-pairing: contributes ê(p, q)^(exponent), or
  /// ê(p, q)^(−exponent) when `inverse` is set. `exponent` must already be
  /// reduced mod the group order q (the callers' Lagrange coefficients are).
  struct Term {
    Point p;  ///< first argument — Miller-line tables key on this side
    Point q;
    bool inverse = false;
    BigInt exponent = BigInt{1};
  };

  /// Executes a batch of independent closures, each evaluating one term's
  /// Miller loop. An empty Runner means "run inline"; a non-empty one must
  /// run EVERY closure exactly once before returning and rethrow (or
  /// propagate) any exception a closure throws. sp::core's VerifyQueue
  /// provides one; the indirection keeps ec free of core dependencies.
  using Runner = std::function<void(std::span<const std::function<void()>>)>;

  /// ∏ ê(p_i, q_i)^(±e_i) with one Miller loop per term and ONE shared
  /// final exponentiation. Terms with an infinity point contribute 1 and
  /// are skipped; off-curve points throw. Equal exponents are bucketed so
  /// a numerator/denominator pair sharing a Lagrange coefficient costs one
  /// F_{p²} pow, not two. First arguments without a registered Miller-line
  /// table get one built and registered on the way (the build costs about
  /// as much as the table-driven evaluation saves, so the first use is
  /// break-even and every later use is pure profit; the FIFO cap bounds
  /// the registry under churn). Returns 1 for an empty product. The
  /// optional runner evaluates the per-term Miller loops concurrently;
  /// bucketing, pows and the shared final exponentiation stay on the
  /// calling thread, so the result is identical either way.
  [[nodiscard]] Fp2 product(std::span<const Term> terms, const Runner& runner = {}) const;

  /// The un-exponentiated Miller accumulator f_{q,P}(φ(Q)) — the building
  /// block product() combines. Returns 1 when either argument is infinity.
  /// NOT a pairing until the final exponentiation f^((p²−1)/q) is applied.
  [[nodiscard]] Fp2 miller(const Point& p, const Point& q) const;

  /// x^e in the target group (any F_{p²} element; a negative e inverts),
  /// on limbs: the CP-ABE exponentiations of e(g,g) and its powers.
  [[nodiscard]] Fp2 gt_pow(const Fp2& x, const BigInt& e) const;

  /// Builds (or refreshes) the Miller-line table for first argument `p` in
  /// the process-wide registry (FIFO-capped, keyed by (field prime, p), so
  /// tables survive across Pairing/Curve instances). No-op for infinity.
  void precompute(const Point& p) const;
  /// True when ê(p, ·) would replay a registered Miller-line table.
  [[nodiscard]] bool has_precomputed(const Point& p) const;

  /// The pairing target group's identity, for comparisons.
  [[nodiscard]] Fp2 one() const { return Fp2::one(curve_->fp()); }

 private:
  const Curve* curve_;
};

}  // namespace sp::ec
