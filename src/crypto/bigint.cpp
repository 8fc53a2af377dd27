#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

#include "crypto/secret.hpp"

namespace sp::crypto {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt::BigInt(std::int64_t v) {
  if (v < 0) {
    negative_ = true;
    // Avoid overflow on INT64_MIN.
    limbs_.push_back(static_cast<u64>(-(v + 1)) + 1);
  } else if (v > 0) {
    limbs_.push_back(static_cast<u64>(v));
  }
}

BigInt BigInt::from_u64(u64 v) {
  BigInt r;
  if (v != 0) r.limbs_.push_back(v);
  return r;
}

int BigInt::cmp_mag(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) {
    return a.negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  }
  int c = BigInt::cmp_mag(a, b);
  if (a.negative_) c = -c;
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt BigInt::add_mag(const BigInt& a, const BigInt& b) {
  BigInt r;
  const auto& x = a.limbs_.size() >= b.limbs_.size() ? a.limbs_ : b.limbs_;
  const auto& y = a.limbs_.size() >= b.limbs_.size() ? b.limbs_ : a.limbs_;
  r.limbs_.resize(x.size() + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    u128 s = static_cast<u128>(x[i]) + (i < y.size() ? y[i] : 0) + carry;
    r.limbs_[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  r.limbs_[x.size()] = carry;
  r.trim();
  return r;
}

BigInt BigInt::sub_mag(const BigInt& a, const BigInt& b) {
  BigInt r;
  r.limbs_.resize(a.limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const u64 bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    const u128 need = static_cast<u128>(bi) + borrow;
    const u128 have = static_cast<u128>(a.limbs_[i]);
    r.limbs_[i] = static_cast<u64>(have - need);  // wraps mod 2^64 when borrowing
    borrow = have < need ? 1 : 0;
  }
  r.trim();
  return r;
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  if (a.negative_ == b.negative_) {
    BigInt r = BigInt::add_mag(a, b);
    r.negative_ = a.negative_ && !r.is_zero();
    return r;
  }
  int c = BigInt::cmp_mag(a, b);
  if (c == 0) return BigInt{};
  const BigInt& big = c > 0 ? a : b;
  const BigInt& small = c > 0 ? b : a;
  BigInt r = BigInt::sub_mag(big, small);
  r.negative_ = big.negative_ && !r.is_zero();
  return r;
}

BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }

BigInt BigInt::operator-() const {
  BigInt r = *this;
  if (!r.is_zero()) r.negative_ = !r.negative_;
  return r;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt{};
  BigInt r;
  r.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u64 carry = 0;
    u64 ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(ai) * b.limbs_[j] + r.limbs_[i + j] + carry;
      r.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    r.limbs_[i + b.limbs_.size()] += carry;
  }
  r.negative_ = a.negative_ != b.negative_;
  r.trim();
  return r;
}

BigInt operator<<(const BigInt& a, std::size_t n) {
  if (a.is_zero() || n == 0) return a;
  const std::size_t limb_shift = n / 64;
  const std::size_t bit_shift = n % 64;
  BigInt r;
  r.negative_ = a.negative_;
  r.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    r.limbs_[i + limb_shift] |= bit_shift ? (a.limbs_[i] << bit_shift) : a.limbs_[i];
    if (bit_shift) r.limbs_[i + limb_shift + 1] |= a.limbs_[i] >> (64 - bit_shift);
  }
  r.trim();
  return r;
}

BigInt operator>>(const BigInt& a, std::size_t n) {
  if (a.is_zero() || n == 0) return a;
  const std::size_t limb_shift = n / 64;
  const std::size_t bit_shift = n % 64;
  if (limb_shift >= a.limbs_.size()) return BigInt{};
  BigInt r;
  r.negative_ = a.negative_;
  r.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < r.limbs_.size(); ++i) {
    r.limbs_[i] = bit_shift ? (a.limbs_[i + limb_shift] >> bit_shift) : a.limbs_[i + limb_shift];
    if (bit_shift && i + limb_shift + 1 < a.limbs_.size()) {
      r.limbs_[i] |= a.limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  r.trim();
  return r;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 64 + (64 - std::countl_zero(limbs_.back()));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1u;
}

// Knuth TAOCP vol. 2 Algorithm D on 64-bit limbs (products via __int128).
void BigInt::div_mod(const BigInt& a, const BigInt& b, BigInt& quot, BigInt& rem) {
  if (b.is_zero()) throw std::domain_error("BigInt: division by zero");
  int c = cmp_mag(a, b);
  if (c < 0) {
    quot = BigInt{};
    rem = a;
    return;
  }
  const bool quot_neg = a.negative_ != b.negative_;
  const bool rem_neg = a.negative_;

  if (b.limbs_.size() == 1) {
    // Short division.
    const u64 d = b.limbs_[0];
    BigInt q;
    q.limbs_.assign(a.limbs_.size(), 0);
    u128 r = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (r << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<u64>(cur / d);
      r = cur % d;
    }
    q.trim();
    q.negative_ = quot_neg && !q.is_zero();
    BigInt rr = from_u64(static_cast<u64>(r));
    rr.negative_ = rem_neg && !rr.is_zero();
    quot = std::move(q);
    rem = std::move(rr);
    return;
  }

  // Normalize so the divisor's top bit is set.
  const int shift = std::countl_zero(b.limbs_.back());
  BigInt u = a;
  u.negative_ = false;
  u = u << static_cast<std::size_t>(shift);
  BigInt v = b;
  v.negative_ = false;
  v = v << static_cast<std::size_t>(shift);
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;
  u.limbs_.resize(u.limbs_.size() + 1, 0);  // u_{m+n} slot

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const u64 vtop = v.limbs_[n - 1];
  const u64 vsecond = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    u128 numer = (static_cast<u128>(u.limbs_[j + n]) << 64) | u.limbs_[j + n - 1];
    u128 qhat = numer / vtop;
    u128 rhat = numer % vtop;
    if (qhat > ~u64{0}) {
      qhat = ~u64{0};
      rhat = numer - qhat * vtop;
    }
    while (rhat <= ~u64{0} &&
           qhat * vsecond > ((rhat << 64) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += vtop;
    }
    // Multiply-and-subtract: u[j..j+n] -= qhat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 p = qhat * v.limbs_[i] + carry;
      carry = p >> 64;
      u64 plo = static_cast<u64>(p);
      u64 ui = u.limbs_[j + i];
      u64 diff = ui - plo - static_cast<u64>(borrow);
      borrow = (static_cast<u128>(ui) < static_cast<u128>(plo) + borrow) ? 1 : 0;
      u.limbs_[j + i] = diff;
    }
    u64 utop = u.limbs_[j + n];
    u64 diff = utop - static_cast<u64>(carry) - static_cast<u64>(borrow);
    bool went_negative = static_cast<u128>(utop) < carry + borrow;
    u.limbs_[j + n] = diff;

    if (went_negative) {
      // Add back (Knuth step D6): qhat was one too large.
      --qhat;
      u128 c2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 s = static_cast<u128>(u.limbs_[j + i]) + v.limbs_[i] + c2;
        u.limbs_[j + i] = static_cast<u64>(s);
        c2 = s >> 64;
      }
      u.limbs_[j + n] += static_cast<u64>(c2);
    }
    q.limbs_[j] = static_cast<u64>(qhat);
  }

  q.trim();
  q.negative_ = quot_neg && !q.is_zero();
  u.limbs_.resize(n);
  u.trim();
  BigInt r = u >> static_cast<std::size_t>(shift);
  r.negative_ = rem_neg && !r.is_zero();
  quot = std::move(q);
  rem = std::move(r);
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::div_mod(a, b, q, r);
  return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::div_mod(a, b, q, r);
  return r;
}

BigInt BigInt::mod(const BigInt& m) const {
  if (m <= BigInt{0}) throw std::domain_error("BigInt::mod: modulus must be positive");
  BigInt r = *this % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt BigInt::mod_mul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b).mod(m);
}

BigInt BigInt::mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (exp.is_negative()) throw std::domain_error("BigInt::mod_pow: negative exponent");
  if (m == BigInt{1}) return BigInt{};
  // Odd moduli up to 1024 bits take the Montgomery fast path; the
  // square-and-multiply loop below stays as the fallback (and oracle).
  if (MontCtx::usable(m)) return MontCtx(m).pow(base.mod(m), exp);
  BigInt result{1};
  BigInt b = base.mod(m);
  const std::size_t nbits = exp.bit_length();
  for (std::size_t i = nbits; i-- > 0;) {
    result = mod_mul(result, result, m);
    if (exp.bit(i)) result = mod_mul(result, b, m);
  }
  return result;
}

BigInt BigInt::mod_inv(const BigInt& a, const BigInt& m) {
  // Extended Euclid on (a mod m, m).
  BigInt r0 = m, r1 = a.mod(m);
  BigInt t0{0}, t1{1};
  while (!r1.is_zero()) {
    BigInt q = r0 / r1;
    BigInt r2 = r0 - q * r1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    BigInt t2 = t0 - q * t1;
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigInt{1}) throw std::domain_error("BigInt::mod_inv: not invertible");
  return t0.mod(m);
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::from_dec(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("BigInt::from_dec: empty");
  bool neg = false;
  std::size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
  }
  if (i == s.size()) throw std::invalid_argument("BigInt::from_dec: no digits");
  BigInt r;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') throw std::invalid_argument("BigInt::from_dec: bad digit");
    r = r * BigInt{10} + BigInt{s[i] - '0'};
  }
  if (neg && !r.is_zero()) r.negative_ = true;
  return r;
}

BigInt BigInt::from_hex(std::string_view s) {
  if (s.empty()) throw std::invalid_argument("BigInt::from_hex: empty");
  bool neg = false;
  std::size_t i = 0;
  if (s[0] == '-' || s[0] == '+') {
    neg = s[0] == '-';
    i = 1;
  }
  if (i == s.size()) throw std::invalid_argument("BigInt::from_hex: no digits");
  BigInt r;
  for (; i < s.size(); ++i) {
    char c = s[i];
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else throw std::invalid_argument("BigInt::from_hex: bad digit");
    r = (r << 4) + BigInt{v};
  }
  if (neg && !r.is_zero()) r.negative_ = true;
  return r;
}

BigInt BigInt::from_bytes(std::span<const std::uint8_t> be) {
  BigInt r;
  for (std::uint8_t b : be) r = (r << 8) + BigInt{b};
  return r;
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  BigInt n = *this;
  n.negative_ = false;
  std::string out;
  const BigInt ten{10};
  while (!n.is_zero()) {
    BigInt q, r;
    div_mod(n, ten, q, r);
    out.push_back(static_cast<char>('0' + r.low_u64()));
    n = std::move(q);
  }
  if (negative_) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string out;
  constexpr char digits[] = "0123456789abcdef";
  for (std::size_t i = 0; i < bit_length(); i += 4) {
    unsigned nib = 0;
    for (unsigned b = 0; b < 4; ++b) nib |= static_cast<unsigned>(bit(i + b)) << b;
    out.push_back(digits[nib]);
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  if (negative_) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

Bytes BigInt::to_bytes(std::size_t width) const {
  const std::size_t need = std::max<std::size_t>(1, (bit_length() + 7) / 8);
  if (width == 0) width = need;
  if (need > width) throw std::invalid_argument("BigInt::to_bytes: value too wide");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t limb = i / 8;
    if (limb < limbs_.size()) {
      out[width - 1 - i] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (i % 8)));
    }
  }
  return out;
}

BigInt BigInt::random_below(const BigInt& bound,
                            const std::function<Bytes(std::size_t)>& rand_bytes) {
  if (bound <= BigInt{0}) throw std::domain_error("BigInt::random_below: bound must be > 0");
  const std::size_t nbits = bound.bit_length();
  const std::size_t nbytes = (nbits + 7) / 8;
  // Rejection sampling on the top byte mask keeps the distribution uniform.
  const unsigned top_bits = static_cast<unsigned>(nbits % 8 == 0 ? 8 : nbits % 8);
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << top_bits) - 1u);
  for (;;) {
    Bytes buf = rand_bytes(nbytes);
    buf[0] &= mask;
    BigInt candidate = from_bytes(buf);
    if (candidate < bound) return candidate;
  }
}

bool BigInt::is_probable_prime(const BigInt& n, int rounds,
                               const std::function<Bytes(std::size_t)>& rand_bytes) {
  static const int kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31,
                                     37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                                     83, 89, 97, 101, 103, 107, 109, 113};
  if (n < BigInt{2}) return false;
  for (int p : kSmallPrimes) {
    if (n == BigInt{p}) return true;
    if ((n % BigInt{p}).is_zero()) return false;
  }
  // Write n - 1 = d * 2^s with d odd.
  BigInt d = n - BigInt{1};
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  const BigInt n_minus_1 = n - BigInt{1};
  for (int round = 0; round < rounds; ++round) {
    BigInt a = random_below(n - BigInt{3}, rand_bytes) + BigInt{2};  // [2, n-2]
    BigInt x = mod_pow(a, d, n);
    if (x == BigInt{1} || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 0; i + 1 < s; ++i) {
      x = mod_mul(x, x, n);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

void BigInt::wipe() noexcept {
  secure_wipe(limbs_.data(), limbs_.size() * sizeof(std::uint64_t));
  limbs_.clear();
  negative_ = false;
}

// ---------------------------------------------------------------------------
// MontCtx
// ---------------------------------------------------------------------------

bool MontCtx::usable(const BigInt& m) {
  // is_odd() implies non-zero; reject 1 so `x mod m` is always meaningful.
  return !m.negative_ && m.is_odd() && m.limbs_.size() <= kMaxLimbs &&
         (m.limbs_.size() > 1 || m.limbs_[0] >= 3);
}

MontCtx::MontCtx(const BigInt& modulus) {
  if (!usable(modulus)) {
    throw std::invalid_argument("MontCtx: modulus must be odd, >= 3 and <= 1024 bits");
  }
  m_ = modulus;
  n_ = m_.limbs_.size();
  mlimbs_ = m_.limbs_;
  // -m^{-1} mod 2^64 by Newton iteration: for odd m0, x = m0 is already an
  // inverse mod 8, and each step doubles the number of correct low bits.
  const u64 m0 = mlimbs_[0];
  u64 x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  m0inv_ = ~x + 1;
  one_ = (BigInt{1} << (64 * n_)).mod(m_);
  r2limbs_.assign(n_, 0);
  load((BigInt{1} << (128 * n_)).mod(m_), r2limbs_.data());
}

void MontCtx::load(const BigInt& x, u64* out) const {
  // Precondition: x in [0, m) — at most n_ limbs.
  std::copy(x.limbs_.begin(), x.limbs_.end(), out);
  std::fill(out + x.limbs_.size(), out + n_, 0);
}

BigInt MontCtx::store(const u64* limbs) const {
  BigInt r;
  r.limbs_.assign(limbs, limbs + n_);
  r.trim();
  return r;
}

// Coarsely Integrated Operand Scanning (Koç/Acar/Kaliski): interleaves the
// schoolbook product with per-limb REDC so the accumulator never exceeds
// n_ + 2 limbs. out = a * b * R^{-1} mod m; out may alias a or b.
void MontCtx::cios(const u64* a, const u64* b, u64* out) const {
  const std::size_t n = n_;
  const u64* m = mlimbs_.data();
  u64 t[kMaxLimbs + 2] = {0};
  for (std::size_t i = 0; i < n; ++i) {
    const u64 ai = a[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<u64>(s);
    t[n + 1] = static_cast<u64>(s >> 64);

    const u64 mu = t[0] * m0inv_;
    u128 cur = static_cast<u128>(mu) * m[0] + t[0];  // low limb cancels to 0
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(mu) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    s = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<u64>(s);
    t[n] = t[n + 1] + static_cast<u64>(s >> 64);
  }
  // t is in [0, 2m); one conditional subtraction canonicalizes.
  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 need = static_cast<u128>(m[i]) + borrow;
      out[i] = static_cast<u64>(static_cast<u128>(t[i]) - need);
      borrow = static_cast<u128>(t[i]) < need ? 1 : 0;
    }
  } else {
    std::copy(t, t + n, out);
  }
}

BigInt MontCtx::mul(const BigInt& a, const BigInt& b) const {
  const BigInt ra = (a.negative_ || cmp_arg_ge(a)) ? a.mod(m_) : a;
  const BigInt rb = (b.negative_ || cmp_arg_ge(b)) ? b.mod(m_) : b;
  u64 aa[kMaxLimbs];
  u64 ba[kMaxLimbs];
  u64 res[kMaxLimbs];
  load(ra, aa);
  load(rb, ba);
  cios(aa, ba, res);                     // a * b * R^{-1}
  cios(res, r2limbs_.data(), res);       // * R^2 * R^{-1} = a * b mod m
  return store(res);
}

// Fixed-window (w = 4) left-to-right exponentiation over raw limb arrays.
// 16-entry table, 4 squarings + at most one table multiply per nibble; 64 is
// a multiple of 4, so nibbles never straddle limb boundaries.
void MontCtx::pow_raw(const u64* base_mont, const BigInt& exp, u64* out) const {
  u64 table[16][kMaxLimbs];
  load(one_, table[0]);
  std::copy(base_mont, base_mont + n_, table[1]);
  for (int d = 2; d < 16; ++d) cios(table[d - 1], base_mont, table[d]);

  const std::size_t nbits = exp.bit_length();
  if (nbits == 0) {
    std::copy(table[0], table[0] + n_, out);
    return;
  }
  const auto nibble = [&exp](std::size_t k) -> unsigned {
    const std::size_t limb = k / 16;
    if (limb >= exp.limbs_.size()) return 0;
    return static_cast<unsigned>((exp.limbs_[limb] >> (4 * (k % 16))) & 0xF);
  };
  const std::size_t nnibs = (nbits + 3) / 4;
  u64 acc[kMaxLimbs];
  std::copy(table[nibble(nnibs - 1)], table[nibble(nnibs - 1)] + n_, acc);
  for (std::size_t k = nnibs - 1; k-- > 0;) {
    cios(acc, acc, acc);
    cios(acc, acc, acc);
    cios(acc, acc, acc);
    cios(acc, acc, acc);
    const unsigned d = nibble(k);
    if (d != 0) cios(acc, table[d], acc);
  }
  std::copy(acc, acc + n_, out);
}

BigInt MontCtx::pow(const BigInt& base, const BigInt& exp) const {
  if (exp.is_negative()) throw std::domain_error("MontCtx::pow: negative exponent");
  const BigInt rb = (base.negative_ || cmp_arg_ge(base)) ? base.mod(m_) : base;
  u64 ba[kMaxLimbs];
  u64 res[kMaxLimbs];
  u64 oneraw[kMaxLimbs] = {1};
  load(rb, ba);
  cios(ba, r2limbs_.data(), ba);  // into Montgomery domain
  pow_raw(ba, exp, res);
  cios(res, oneraw, res);         // back to canonical
  return store(res);
}

bool MontCtx::cmp_arg_ge(const BigInt& x) const {
  return BigInt::cmp_mag(x, m_) >= 0;
}

}  // namespace sp::crypto
