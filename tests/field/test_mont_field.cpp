// Equivalence suite for the fixed-width Montgomery limbs (field/mont_field):
// every F_p operation against plain BigInt `%`, every F_{p²} operation
// against the value-API Fp2, and the limb-based pairing and Miller-table
// replay against the affine Pairing::reference() and the live Miller loop.
#include "field/mont_field.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/drbg.hpp"
#include "ec/pairing.hpp"
#include "ec/params.hpp"
#include "field/fp2.hpp"

namespace sp::field {
namespace {

using crypto::Drbg;

// The three preset primes, plus the largest 512-bit prime: with every bit of
// the top limb in use, CIOS needs its extra carry limb.
std::vector<BigInt> primes() {
  return {ec::preset_params(ec::ParamPreset::kToy).fp->p(),
          ec::preset_params(ec::ParamPreset::kTest).fp->p(),
          ec::preset_params(ec::ParamPreset::kFull).fp->p(),
          (BigInt{1} << 512) - BigInt{569}};
}

BigInt rand_below(const BigInt& p, Drbg& rng) {
  return BigInt::random_below(p, [&rng](std::size_t n) { return rng.bytes(n); });
}

// Checks every F_p operation on (a, b) against BigInt arithmetic mod p.
void expect_ops_match(const MontField& f, const BigInt& p, const BigInt& a, const BigInt& b) {
  const Fe fa = f.from_big(a);
  const Fe fb = f.from_big(b);
  const std::string ctx = "p=" + p.to_hex() + " a=" + a.to_hex() + " b=" + b.to_hex();
  EXPECT_EQ(f.to_big(fa), a) << ctx;
  EXPECT_EQ(f.to_big(f.add(fa, fb)), (a + b) % p) << ctx;
  EXPECT_EQ(f.to_big(f.sub(fa, fb)), (a - b).mod(p)) << ctx;
  EXPECT_EQ(f.to_big(f.neg(fa)), (-a).mod(p)) << ctx;
  EXPECT_EQ(f.to_big(f.mul(fa, fb)), (a * b) % p) << ctx;
  EXPECT_EQ(f.to_big(f.sqr(fa)), (a * a) % p) << ctx;
  EXPECT_EQ(MontField::is_zero(fa), a.is_zero()) << ctx;
  if (!a.is_zero()) {
    EXPECT_EQ(f.to_big(f.inv(fa)), BigInt::mod_inv(a, p)) << ctx;
  }
}

TEST(MontField, RandomPairsMatchBigIntMod) {
  Drbg rng("mont-field-random");
  for (const BigInt& p : primes()) {
    const MontField f(p);
    for (int i = 0; i < 200; ++i) expect_ops_match(f, p, rand_below(p, rng), rand_below(p, rng));
  }
}

TEST(MontField, EdgeValuesMatchBigIntMod) {
  for (const BigInt& p : primes()) {
    const MontField f(p);
    const std::vector<BigInt> edges = {BigInt{0}, BigInt{1}, p - BigInt{1}};
    for (const BigInt& a : edges) {
      for (const BigInt& b : edges) expect_ops_match(f, p, a, b);
    }
    EXPECT_EQ(f.one(), f.from_big(BigInt{1}));
    EXPECT_EQ(f.from_big(p), Fe{});                              // p reduces to 0
    EXPECT_EQ(f.to_big(f.from_big(BigInt{-1})), p - BigInt{1});  // negative inputs reduce
    EXPECT_THROW((void)f.inv(Fe{}), std::domain_error);
  }
}

TEST(MontField, PowMatchesBigIntModPow) {
  Drbg rng("mont-field-pow");
  for (const BigInt& p : primes()) {
    const MontField f(p);
    for (int i = 0; i < 10; ++i) {
      const BigInt a = rand_below(p, rng);
      const BigInt e = BigInt::from_bytes(rng.bytes(1 + 7 * i));
      EXPECT_EQ(f.to_big(f.pow(f.from_big(a), e)), BigInt::mod_pow(a, e, p)) << "i=" << i;
    }
    EXPECT_EQ(f.pow(f.from_big(BigInt{5}), BigInt{0}), f.one());
  }
}

TEST(MontField, OutputsMayAliasInputs) {
  Drbg rng("mont-field-alias");
  for (const BigInt& p : primes()) {
    const MontField f(p);
    const BigInt a = rand_below(p, rng);
    const BigInt b = rand_below(p, rng);
    Fe x = f.from_big(a);
    x = f.mul(x, x);
    EXPECT_EQ(f.to_big(x), (a * a) % p);
    x = f.add(x, x);
    EXPECT_EQ(f.to_big(x), (BigInt{2} * a * a) % p);
    Fe y = f.from_big(b);
    y = f.sub(y, x);
    EXPECT_EQ(f.to_big(y), (b - BigInt{2} * a * a).mod(p));
    y = f.sub(y, y);
    EXPECT_TRUE(MontField::is_zero(y));
    Fe2 z{f.from_big(a), f.from_big(b)};
    const Fe2 expected = f.mul(z, Fe2{f.from_big(a), f.from_big(b)});
    z = f.mul(z, z);
    EXPECT_EQ(z, expected);
    z = f.sqr(z);
    EXPECT_EQ(z, f.mul(expected, expected));
  }
}

TEST(MontField, RejectsModuliOutsideItsWidth) {
  EXPECT_FALSE(MontField::fits(BigInt{1} << 512));
  EXPECT_FALSE(MontField::fits((BigInt{1} << 521) - BigInt{1}));
  EXPECT_FALSE(MontField::fits(BigInt{24}));
  EXPECT_FALSE(MontField::fits(BigInt{1}));
  EXPECT_THROW(MontField((BigInt{1} << 521) - BigInt{1}), std::invalid_argument);
  EXPECT_FALSE(make_fp((BigInt{1} << 521) - BigInt{1})->mont_field().has_value());
  EXPECT_TRUE(make_fp(BigInt{23})->mont_field().has_value());
}

TEST(MontField, Fp2OpsMatchValueFp2) {
  Drbg rng("mont-field-fp2");
  for (const ec::ParamPreset preset : {ec::ParamPreset::kToy, ec::ParamPreset::kFull}) {
    const FpCtxPtr& fp = ec::preset_params(preset).fp;
    const MontField& f = *fp->mont_field();
    const auto to_fe2 = [&f](const Fp2& x) {
      return Fe2{f.from_big(x.re().value()), f.from_big(x.im().value())};
    };
    for (int i = 0; i < 50; ++i) {
      const Fp2 x = Fp2::random(fp, rng);
      const Fp2 y = Fp2::random(fp, rng);
      EXPECT_EQ(f.mul(to_fe2(x), to_fe2(y)), to_fe2(x * y)) << i;
      EXPECT_EQ(f.sqr(to_fe2(x)), to_fe2(x * x)) << i;
      EXPECT_EQ(f.conj(to_fe2(x)), to_fe2(x.conj())) << i;
      EXPECT_EQ(f.inv(to_fe2(x)), to_fe2(x.inv())) << i;
      if (i < 5) {
        const BigInt e = BigInt::from_bytes(rng.bytes(20));
        EXPECT_EQ(f.pow(to_fe2(x), e), to_fe2(x.pow(e))) << i;
        EXPECT_EQ(f.pow(to_fe2(x), -e), to_fe2(x.pow(-e))) << i;
      }
    }
    EXPECT_EQ(f.one2(), to_fe2(Fp2::one(fp)));
    EXPECT_THROW((void)f.inv(Fe2{}), std::domain_error);
  }
}

// The limb pairing (Jacobian Miller loop, table replay and final
// exponentiation on Fe/Fe2) against the affine value-API reference.
void expect_pairings_match_reference(ec::ParamPreset preset, int cases, const char* seed) {
  const ec::Curve curve(ec::preset_params(preset));
  const ec::Pairing pairing(curve);
  Drbg rng(seed);
  for (int i = 0; i < cases; ++i) {
    const ec::Point p = curve.random_group_element(rng);
    const ec::Point q = curve.random_group_element(rng);
    EXPECT_EQ(pairing(p, q), pairing.reference(p, q)) << "i=" << i;
  }
}

TEST(MontFieldPairing, MatchesReferenceToy) {
  expect_pairings_match_reference(ec::ParamPreset::kToy, 50, "limb-pairing-toy");
}

TEST(MontFieldPairing, MatchesReferenceTest) {
  expect_pairings_match_reference(ec::ParamPreset::kTest, 5, "limb-pairing-test");
}

TEST(MontFieldPairing, MatchesReferenceFull) {
  expect_pairings_match_reference(ec::ParamPreset::kFull, 2, "limb-pairing-full");
}

TEST(MontFieldPairing, TableReplayMatchesLiveMillerLoop) {
  for (const ec::ParamPreset preset : {ec::ParamPreset::kToy, ec::ParamPreset::kTest}) {
    const ec::Curve curve(ec::preset_params(preset));
    const ec::Pairing pairing(curve);
    Drbg rng("limb-miller-replay");
    for (int i = 0; i < 4; ++i) {
      const ec::Point p = curve.random_group_element(rng);
      const ec::Point q = curve.random_group_element(rng);
      ASSERT_FALSE(pairing.has_precomputed(p));
      const Fp2 live = pairing.miller(p, q);
      const Fp2 live_self = pairing.miller(p, p);
      pairing.precompute(p);
      ASSERT_TRUE(pairing.has_precomputed(p));
      // The un-exponentiated accumulators agree, not just the pairings.
      EXPECT_EQ(pairing.miller(p, q), live) << "i=" << i;
      EXPECT_EQ(pairing.miller(p, p), live_self) << "i=" << i;
    }
  }
}

TEST(MontFieldPairing, GtPowMatchesValuePow) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kTest));
  const ec::Pairing pairing(curve);
  Drbg rng("limb-gt-pow");
  const Fp2 e = pairing(curve.random_group_element(rng), curve.random_group_element(rng));
  for (int i = 0; i < 5; ++i) {
    const BigInt k = rand_below(curve.order(), rng);
    EXPECT_EQ(pairing.gt_pow(e, k), e.pow(k)) << "i=" << i;
  }
}

}  // namespace
}  // namespace sp::field
