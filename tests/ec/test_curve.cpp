#include "ec/curve.hpp"

#include <gtest/gtest.h>

#include "ec/params.hpp"

namespace sp::ec {
namespace {

using crypto::BigInt;
using crypto::Drbg;

const Curve& toy_curve() {
  static const Curve c(preset_params(ParamPreset::kToy));
  return c;
}

TEST(Params, ToyParamsSatisfyInvariants) {
  const CurveParams& p = preset_params(ParamPreset::kToy);
  Drbg rng("params-check");
  auto rb = [&rng](std::size_t n) { return rng.bytes(n); };
  EXPECT_TRUE(BigInt::is_probable_prime(p.fp->p(), 20, rb));
  EXPECT_TRUE(BigInt::is_probable_prime(p.q, 20, rb));
  EXPECT_EQ(p.h * p.q, p.fp->p() + BigInt{1});
  EXPECT_TRUE(p.fp->p_is_3_mod_4());
}

TEST(Params, DeterministicGeneration) {
  const CurveParams a = generate_params(32, 80, "same-seed");
  const CurveParams b = generate_params(32, 80, "same-seed");
  EXPECT_EQ(a.fp->p(), b.fp->p());
  EXPECT_EQ(a.q, b.q);
  const CurveParams c = generate_params(32, 80, "other-seed");
  EXPECT_NE(c.fp->p(), a.fp->p());
}

TEST(Params, RejectsBadSizes) {
  EXPECT_THROW(generate_params(32, 33, "x"), std::invalid_argument);
}

TEST(Curve, RejectsInconsistentParams) {
  CurveParams p = preset_params(ParamPreset::kToy);
  p.h = p.h + BigInt{1};
  EXPECT_THROW(Curve{p}, std::invalid_argument);
  // p = 2^521 − 1 ≡ 3 (mod 4) with h·q = p + 1, but wider than the 512-bit
  // limbs every curve loop runs on.
  const CurveParams wide{field::make_fp((BigInt{1} << 521) - BigInt{1}), BigInt{2},
                         BigInt{1} << 520};
  EXPECT_THROW(Curve{wide}, std::invalid_argument);
}

TEST(Curve, GroupElementsAreOnCurveAndInSubgroup) {
  const Curve& c = toy_curve();
  Drbg rng("curve-sub");
  for (int i = 0; i < 10; ++i) {
    const Point g = c.random_group_element(rng);
    EXPECT_FALSE(g.is_infinity());
    EXPECT_TRUE(c.on_curve(g));
    EXPECT_TRUE(c.mul(g, c.order()).is_infinity());  // order divides q
  }
}

TEST(Curve, AdditionGroupLaws) {
  const Curve& c = toy_curve();
  Drbg rng("curve-laws");
  const Point g = c.random_group_element(rng);
  const Point h = c.random_group_element(rng);
  const Point k = c.random_group_element(rng);
  // Commutativity and associativity.
  EXPECT_EQ(c.add(g, h), c.add(h, g));
  EXPECT_EQ(c.add(c.add(g, h), k), c.add(g, c.add(h, k)));
  // Identity and inverse.
  EXPECT_EQ(c.add(g, Point{}), g);
  EXPECT_TRUE(c.add(g, c.negate(g)).is_infinity());
  // Doubling consistency.
  EXPECT_EQ(c.dbl(g), c.add(g, g));
}

TEST(Curve, ScalarMulMatchesRepeatedAddition) {
  const Curve& c = toy_curve();
  Drbg rng("curve-mul");
  const Point g = c.random_group_element(rng);
  Point acc;  // infinity
  for (int k = 0; k <= 20; ++k) {
    EXPECT_EQ(c.mul(g, BigInt{k}), acc) << "k=" << k;
    acc = c.add(acc, g);
  }
}

TEST(Curve, ScalarMulDistributes) {
  const Curve& c = toy_curve();
  Drbg rng("curve-dist");
  const Point g = c.random_group_element(rng);
  const BigInt a = BigInt::random_below(c.order(), [&](std::size_t n) { return rng.bytes(n); });
  const BigInt b = BigInt::random_below(c.order(), [&](std::size_t n) { return rng.bytes(n); });
  EXPECT_EQ(c.add(c.mul(g, a), c.mul(g, b)), c.mul(g, (a + b).mod(c.order())));
  EXPECT_EQ(c.mul(c.mul(g, a), b), c.mul(g, BigInt::mod_mul(a, b, c.order())));
}

TEST(Curve, NegativeScalar) {
  const Curve& c = toy_curve();
  Drbg rng("curve-neg");
  const Point g = c.random_group_element(rng);
  EXPECT_EQ(c.mul(g, BigInt{-3}), c.negate(c.mul(g, BigInt{3})));
}

TEST(Curve, HashToGroupDeterministicAndDistinct) {
  const Curve& c = toy_curve();
  const Point a = c.hash_to_group(crypto::to_bytes("attribute:location=paris"));
  const Point b = c.hash_to_group(crypto::to_bytes("attribute:location=paris"));
  const Point d = c.hash_to_group(crypto::to_bytes("attribute:location=rome"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, d);
  EXPECT_TRUE(c.on_curve(a));
  EXPECT_TRUE(c.mul(a, c.order()).is_infinity());
}

TEST(Curve, SerializeRoundTrip) {
  const Curve& c = toy_curve();
  Drbg rng("curve-ser");
  const Point g = c.random_group_element(rng);
  EXPECT_EQ(c.deserialize(c.serialize(g)), g);
  EXPECT_TRUE(c.deserialize(c.serialize(Point{})).is_infinity());
}

TEST(Curve, DeserializeRejectsGarbage) {
  const Curve& c = toy_curve();
  EXPECT_THROW(c.deserialize(crypto::Bytes{}), std::invalid_argument);
  EXPECT_THROW(c.deserialize(crypto::Bytes{0x05, 1, 2}), std::invalid_argument);
  // Valid length but point not on curve.
  crypto::Bytes bogus(1 + 2 * c.fp()->byte_length(), 0x02);
  bogus[0] = 0x04;
  EXPECT_THROW(c.deserialize(bogus), std::invalid_argument);
}

TEST(Curve, OnCurveRejectsOffCurvePoint) {
  const Curve& c = toy_curve();
  Drbg rng("curve-off");
  const Point g = c.random_group_element(rng);
  const Point bogus(g.x(), g.y() + field::Fp::one(c.fp()));
  EXPECT_FALSE(c.on_curve(bogus));
}

}  // namespace
}  // namespace sp::ec
