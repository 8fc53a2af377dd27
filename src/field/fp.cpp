#include "field/fp.hpp"

#include <stdexcept>

namespace sp::field {

FpCtx::FpCtx(BigInt p) : p_(std::move(p)) {
  if (p_ <= BigInt{2} || !p_.is_odd()) {
    throw std::invalid_argument("FpCtx: modulus must be an odd prime > 2");
  }
  byte_len_ = (p_.bit_length() + 7) / 8;
  p3mod4_ = (p_ % BigInt{4}) == BigInt{3};
  // Barrett precomputation: μ = floor(2^(2s) / p) with s = bit_length(p).
  shift_ = p_.bit_length();
  mu_ = (BigInt{1} << (2 * shift_)) / p_;
  p_minus_2_ = p_ - BigInt{2};
  if (crypto::MontCtx::usable(p_)) mont_.emplace(p_);
  if (MontField::fits(p_)) mont_field_.emplace(p_);
}

BigInt FpCtx::reduce(const BigInt& x) const {
  if (x.is_negative() || x.bit_length() > 2 * shift_) return x.mod(p_);
  // q ≈ floor(x / p); r = x - q*p is within a few subtractions of the result.
  BigInt q = ((x >> (shift_ - 1)) * mu_) >> (shift_ + 1);
  BigInt r = x - q * p_;
  while (r >= p_) r -= p_;
  return r;
}

BigInt FpCtx::mul_mod(const BigInt& a, const BigInt& b) const {
  if (mont_) return mont_->mul(a, b);
  return reduce(a * b);
}

BigInt FpCtx::pow_mod(const BigInt& base, const BigInt& exp) const {
  if (exp.is_negative()) throw std::domain_error("FpCtx::pow_mod: negative exponent");
  if (mont_) return mont_->pow(base, exp);
  return pow_mod_barrett(base, exp);
}

BigInt FpCtx::inv_mod(const BigInt& a) const {
  const BigInt r = a.mod(p_);
  if (r.is_zero()) throw std::domain_error("FpCtx::inv_mod: zero has no inverse");
  // Fermat: a^{p-2} = a^{-1} for prime p. Faster than extended Euclid here
  // because Euclid's per-step Knuth-D division dwarfs CIOS multiplies.
  if (mont_) return mont_->pow(r, p_minus_2_);
  return BigInt::mod_inv(r, p_);
}

BigInt FpCtx::mul_mod_barrett(const BigInt& a, const BigInt& b) const { return reduce(a * b); }

BigInt FpCtx::pow_mod_barrett(const BigInt& base, const BigInt& exp) const {
  if (exp.is_negative()) throw std::domain_error("FpCtx::pow_mod: negative exponent");
  BigInt result{1};
  const BigInt b = base.mod(p_);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = mul_mod_barrett(result, result);
    if (exp.bit(i)) result = mul_mod_barrett(result, b);
  }
  return result;
}

FpCtxPtr make_fp(BigInt p) { return std::make_shared<const FpCtx>(std::move(p)); }

Fp::Fp(FpCtxPtr ctx, const BigInt& value) : ctx_(std::move(ctx)) {
  if (!ctx_) throw std::invalid_argument("Fp: null field context");
  v_ = value.mod(ctx_->p());
}

Fp Fp::zero(const FpCtxPtr& ctx) { return Fp(ctx, BigInt{0}); }
Fp Fp::one(const FpCtxPtr& ctx) { return Fp(ctx, BigInt{1}); }

Fp Fp::random(const FpCtxPtr& ctx, crypto::Drbg& rng) {
  BigInt v = BigInt::random_below(ctx->p(), [&rng](std::size_t n) { return rng.bytes(n); });
  return Fp(ctx, v);
}

Fp Fp::random_nonzero(const FpCtxPtr& ctx, crypto::Drbg& rng) {
  for (;;) {
    Fp v = random(ctx, rng);
    if (!v.is_zero()) return v;
  }
}

Fp Fp::from_bytes(const FpCtxPtr& ctx, std::span<const std::uint8_t> data) {
  return Fp(ctx, BigInt::from_bytes(data));
}

Bytes Fp::to_bytes() const {
  if (!ctx_) throw std::logic_error("Fp::to_bytes: null element");
  return v_.to_bytes(ctx_->byte_length());
}

void Fp::require_same_field(const Fp& other) const {
  if (!ctx_ || !other.ctx_) throw std::logic_error("Fp: operation on null element");
  if (ctx_ != other.ctx_ && ctx_->p() != other.ctx_->p()) {
    throw std::logic_error("Fp: mixed-field operation");
  }
}

Fp operator+(const Fp& a, const Fp& b) {
  a.require_same_field(b);
  BigInt s = a.v_ + b.v_;
  if (s >= a.ctx_->p()) s -= a.ctx_->p();
  Fp r;
  r.ctx_ = a.ctx_;
  r.v_ = std::move(s);
  return r;
}

Fp operator-(const Fp& a, const Fp& b) {
  a.require_same_field(b);
  BigInt s = a.v_ - b.v_;
  if (s.is_negative()) s += a.ctx_->p();
  Fp r;
  r.ctx_ = a.ctx_;
  r.v_ = std::move(s);
  return r;
}

Fp operator*(const Fp& a, const Fp& b) {
  a.require_same_field(b);
  Fp r;
  r.ctx_ = a.ctx_;
  r.v_ = a.ctx_->mul_mod(a.v_, b.v_);
  return r;
}

Fp Fp::operator-() const {
  if (!ctx_) throw std::logic_error("Fp: negate null element");
  Fp r;
  r.ctx_ = ctx_;
  r.v_ = v_.is_zero() ? BigInt{0} : ctx_->p() - v_;
  return r;
}

bool operator==(const Fp& a, const Fp& b) {
  if (!a.ctx_ || !b.ctx_) return !a.ctx_ && !b.ctx_;
  return a.ctx_->p() == b.ctx_->p() && a.v_ == b.v_;
}

Fp Fp::inv() const {
  if (!ctx_) throw std::logic_error("Fp::inv: null element");
  if (is_zero()) throw std::domain_error("Fp::inv: zero has no inverse");
  Fp r;
  r.ctx_ = ctx_;
  r.v_ = ctx_->inv_mod(v_);
  return r;
}

Fp Fp::pow(const BigInt& e) const {
  if (!ctx_) throw std::logic_error("Fp::pow: null element");
  if (e.is_negative()) return inv().pow(-e);
  Fp r;
  r.ctx_ = ctx_;
  r.v_ = ctx_->pow_mod(v_, e);
  return r;
}

int Fp::legendre() const {
  if (!ctx_) throw std::logic_error("Fp::legendre: null element");
  if (is_zero()) return 0;
  const BigInt e = (ctx_->p() - BigInt{1}) >> 1;
  const BigInt r = ctx_->pow_mod(v_, e);
  return r == BigInt{1} ? 1 : -1;
}

Fp Fp::sqrt() const {
  if (!ctx_) throw std::logic_error("Fp::sqrt: null element");
  if (is_zero()) return *this;
  if (legendre() != 1) throw std::domain_error("Fp::sqrt: not a quadratic residue");
  const BigInt& p = ctx_->p();
  BigInt root;
  if (ctx_->p_is_3_mod_4()) {
    root = ctx_->pow_mod(v_, (p + BigInt{1}) >> 2);
  } else {
    // Tonelli–Shanks. Write p-1 = q * 2^s with q odd.
    BigInt q = p - BigInt{1};
    std::size_t s = 0;
    while (!q.is_odd()) {
      q = q >> 1;
      ++s;
    }
    // Find a non-residue z deterministically.
    BigInt z{2};
    while (Fp(ctx_, z).legendre() != -1) z += BigInt{1};
    BigInt m = BigInt::from_u64(s);
    BigInt c = BigInt::mod_pow(z, q, p);
    BigInt t = BigInt::mod_pow(v_, q, p);
    BigInt r = BigInt::mod_pow(v_, (q + BigInt{1}) >> 1, p);
    while (t != BigInt{1}) {
      // Find least i with t^(2^i) = 1.
      BigInt tt = t;
      std::uint64_t i = 0;
      while (tt != BigInt{1}) {
        tt = BigInt::mod_mul(tt, tt, p);
        ++i;
      }
      BigInt b = c;
      for (std::uint64_t j = 0; j + i + 1 < m.low_u64(); ++j) b = BigInt::mod_mul(b, b, p);
      m = BigInt::from_u64(i);
      c = BigInt::mod_mul(b, b, p);
      t = BigInt::mod_mul(t, c, p);
      r = BigInt::mod_mul(r, b, p);
    }
    root = r;
  }
  // Canonical: the smaller of the two roots.
  const BigInt other = p - root;
  if (other < root) root = other;
  Fp out;
  out.ctx_ = ctx_;
  out.v_ = std::move(root);
  return out;
}

std::vector<Fp> batch_inv(std::span<const Fp> xs) {
  std::vector<Fp> out;
  if (xs.empty()) return out;
  for (const Fp& x : xs) {
    if (x.is_zero()) throw std::domain_error("batch_inv: zero element");
  }
  // prefix[i] = x_0 · … · x_i; one inversion of the total, then peel the
  // factors off back to front: x_i^{-1} = inv(x_0·…·x_i) · prefix[i-1].
  std::vector<Fp> prefix(xs.size());
  prefix[0] = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) prefix[i] = prefix[i - 1] * xs[i];
  Fp inv = prefix.back().inv();
  out.resize(xs.size());
  for (std::size_t i = xs.size(); i-- > 1;) {
    out[i] = inv * prefix[i - 1];
    inv = inv * xs[i];
  }
  out[0] = std::move(inv);
  for (Fp& x : prefix) x.wipe();
  return out;
}

}  // namespace sp::field
