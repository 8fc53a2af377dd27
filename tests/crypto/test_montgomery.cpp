#include "crypto/bigint.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"

namespace sp::crypto {
namespace {

// Reference implementations the Montgomery path must agree with: schoolbook
// multiply + Knuth-D mod, and plain left-to-right square-and-multiply.
BigInt ref_mul(const BigInt& a, const BigInt& b, const BigInt& m) { return (a * b).mod(m); }

BigInt ref_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  BigInt result{1};
  BigInt b = base.mod(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = ref_mul(result, result, m);
    if (exp.bit(i)) result = ref_mul(result, b, m);
  }
  return result;
}

BigInt random_odd(Drbg& rng, std::size_t bytes) {
  BigInt m = BigInt::from_bytes(rng.bytes(bytes));
  if (!m.is_odd()) m += BigInt{1};
  if (m <= BigInt{3}) m = BigInt{3};
  return m;
}

TEST(MontCtx, UsableRejectsBadModuli) {
  EXPECT_FALSE(MontCtx::usable(BigInt{0}));
  EXPECT_FALSE(MontCtx::usable(BigInt{1}));
  EXPECT_FALSE(MontCtx::usable(BigInt{2}));
  EXPECT_FALSE(MontCtx::usable(BigInt{100}));   // even
  EXPECT_FALSE(MontCtx::usable(BigInt{-7}));    // negative
  EXPECT_TRUE(MontCtx::usable(BigInt{3}));
  EXPECT_TRUE(MontCtx::usable(BigInt::from_hex("ffffffffffffffffffffffffffffff61")));
  // One limb past the 1024-bit cap.
  EXPECT_FALSE(MontCtx::usable((BigInt{1} << (64 * MontCtx::kMaxLimbs)) + BigInt{1}));
  EXPECT_THROW(MontCtx(BigInt{4}), std::invalid_argument);
}

TEST(MontCtx, MulMatchesReference1k) {
  Drbg rng("mont-mul-equiv");
  for (int i = 0; i < 1000; ++i) {
    // Mix widths: 1 byte up to 128 bytes (the 1024-bit cap).
    const std::size_t mw = 1 + (i * 13) % 128;
    const BigInt m = random_odd(rng, mw);
    const MontCtx ctx(m);
    const BigInt a = BigInt::from_bytes(rng.bytes(1 + (i * 5) % 128)).mod(m);
    const BigInt b = BigInt::from_bytes(rng.bytes(1 + (i * 11) % 128)).mod(m);
    EXPECT_EQ(ctx.mul(a, b), ref_mul(a, b, m))
        << "i=" << i << " m=" << m.to_hex() << " a=" << a.to_hex() << " b=" << b.to_hex();
  }
}

TEST(MontCtx, PowMatchesReference) {
  Drbg rng("mont-pow-equiv");
  for (int i = 0; i < 200; ++i) {
    const BigInt m = random_odd(rng, 1 + (i * 17) % 96);
    const MontCtx ctx(m);
    const BigInt base = BigInt::from_bytes(rng.bytes(1 + (i * 3) % 96));
    const BigInt exp = BigInt::from_bytes(rng.bytes(i % 40));
    EXPECT_EQ(ctx.pow(base.mod(m), exp), ref_pow(base, exp, m))
        << "i=" << i << " m=" << m.to_hex();
  }
}

TEST(MontCtx, PowEdgeCases) {
  const BigInt m = BigInt::from_hex("f43d29b8c7a11e5b00000000000000c1");
  ASSERT_TRUE(m.is_odd());
  const MontCtx ctx(m);
  EXPECT_EQ(ctx.pow(BigInt{0}, BigInt{0}), BigInt{1});  // 0^0 = 1, as mod_pow
  EXPECT_EQ(ctx.pow(BigInt{0}, BigInt{5}), BigInt{0});
  EXPECT_EQ(ctx.pow(BigInt{7}, BigInt{0}), BigInt{1});
  EXPECT_EQ(ctx.pow(BigInt{7}, BigInt{1}), BigInt{7});
  EXPECT_EQ(ctx.pow(m - BigInt{1}, BigInt{2}), BigInt{1});  // (-1)^2
  EXPECT_THROW(ctx.pow(BigInt{2}, BigInt{-1}), std::domain_error);
}

TEST(MontCtx, ModPowRoutesThroughMontgomery) {
  // BigInt::mod_pow must agree with the reference loop for odd moduli (the
  // rerouted fast path) and still work for even moduli (the fallback).
  Drbg rng("mont-modpow-route");
  for (int i = 0; i < 100; ++i) {
    BigInt m = BigInt::from_bytes(rng.bytes(1 + (i * 7) % 64));
    if (m <= BigInt{1}) m = BigInt{2} + m;
    const BigInt base = BigInt::from_bytes(rng.bytes(1 + (i * 3) % 64));
    const BigInt exp = BigInt::from_bytes(rng.bytes(i % 24));
    EXPECT_EQ(BigInt::mod_pow(base, exp, m), ref_pow(base, exp, m))
        << "i=" << i << " m=" << m.to_hex();
  }
}

TEST(MontCtx, WideModulusBeyondCapFallsBack) {
  // 1152-bit odd modulus: MontCtx::usable is false, mod_pow still correct.
  Drbg rng("mont-wide");
  BigInt m = BigInt::from_bytes(rng.bytes(144));
  if (!m.is_odd()) m += BigInt{1};
  ASSERT_FALSE(MontCtx::usable(m));
  const BigInt base = BigInt::from_bytes(rng.bytes(100));
  const BigInt exp = BigInt::from_bytes(rng.bytes(8));
  EXPECT_EQ(BigInt::mod_pow(base, exp, m), ref_pow(base, exp, m));
}

}  // namespace
}  // namespace sp::crypto
