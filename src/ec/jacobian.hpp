// Jacobian group law on Montgomery-resident limbs, shared by curve.cpp's
// scalar multiplications and pairing.cpp's Miller loop (internal to ec).
//
// (X, Y, Z) stands for the affine point (X/Z², Y/Z³), which makes the group
// law division-free: one field inversion when leaving a loop instead of one
// per step. Conversion to and from the value types (Point, Fp) happens only
// at the edges of those loops.
#pragma once

#include <vector>

#include "ec/curve.hpp"
#include "field/mont_field.hpp"

namespace sp::ec::jac {

using field::Fe;
using field::MontField;

struct Jac {
  Fe x{};
  Fe y{};
  Fe z{};
  bool inf = true;
};

/// A finite affine point in Montgomery limbs.
struct Affine {
  Fe x{};
  Fe y{};
};

/// The Miller loop's line through the running point T, evaluated at
/// φ(Q) = (−x_q, i·y_q): (a·x_q + b) + (c·y_q)·i, scaled by a non-zero F_p
/// factor that the final exponentiation removes. c = 0 marks "no line": a
/// vertical chord (its value lies in F_p and is eliminated) or a
/// degenerate input.
struct Line {
  Fe a{};
  Fe b{};
  Fe c{};
};

/// Precondition: p is not infinity.
Affine to_affine(const MontField& f, const Point& p);
/// One inversion; infinity maps to Point{}.
Point to_point(const MontField& f, const FpCtxPtr& fp, const Jac& p);
/// Montgomery's trick: one inversion for the whole batch. Precondition: no
/// input is infinity.
std::vector<Affine> to_affine_batch(const MontField& f, const std::vector<Jac>& pts);

/// 2·p. With `tangent`, also the tangent at p, scaled by Z3·Z².
Jac dbl(const MontField& f, const Jac& p, Line* tangent = nullptr);
/// p + q for two Jacobian points.
Jac add(const MontField& f, const Jac& p, const Jac& q);
/// p + q for an affine q. With `chord`, also the chord through p and q,
/// scaled by Z3 (c = 0 when p = ±q).
Jac add_affine(const MontField& f, const Jac& p, const Affine& q, Line* chord = nullptr);

}  // namespace sp::ec::jac
