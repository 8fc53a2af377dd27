#include "abe/cpabe.hpp"

#include <stdexcept>

#include "crypto/sha256.hpp"

namespace sp::abe {

namespace {

using crypto::Bytes;

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_u32(std::span<const std::uint8_t> data, std::size_t& off) {
  if (off + 4 > data.size()) throw std::invalid_argument("CpAbe: truncated");
  const std::uint32_t v = (std::uint32_t{data[off]} << 24) | (std::uint32_t{data[off + 1]} << 16) |
                          (std::uint32_t{data[off + 2]} << 8) | std::uint32_t{data[off + 3]};
  off += 4;
  return v;
}

void put_blob(Bytes& out, const Bytes& blob) {
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

Bytes get_blob(std::span<const std::uint8_t> data, std::size_t& off) {
  const std::uint32_t len = get_u32(data, off);
  if (off + len > data.size()) throw std::invalid_argument("CpAbe: truncated blob");
  Bytes blob(data.begin() + static_cast<std::ptrdiff_t>(off),
             data.begin() + static_cast<std::ptrdiff_t>(off + len));
  off += len;
  return blob;
}

void put_str(Bytes& out, const std::string& s) {
  put_blob(out, Bytes(s.begin(), s.end()));
}

std::string get_str(std::span<const std::uint8_t> data, std::size_t& off) {
  Bytes b = get_blob(data, off);
  return std::string(b.begin(), b.end());
}

}  // namespace

namespace {
// FIFO caps for the lazy memo caches: enough for every distinct generator
// and attribute a serving workload revisits, bounded against key churn
// (same policy as the fixed-base and Miller-line table registries).
constexpr std::size_t kMaxEggCache = 8;
constexpr std::size_t kMaxAttrCache = 256;
}  // namespace

CpAbe::CpAbe(const ec::Curve& curve) : curve_(&curve), pairing_(curve) {}

BigInt CpAbe::rand_scalar(crypto::Drbg& rng) const {
  auto rb = [&rng](std::size_t n) { return rng.bytes(n); };
  return BigInt::random_below(curve_->order() - BigInt{1}, rb) + BigInt{1};
}

ec::Point CpAbe::generator() const {
  const sp::MutexLock lock(cache_mutex_);
  if (!generator_) {
    generator_ = curve_->hash_to_group(crypto::to_bytes("sp-cpabe-generator"));
    // g is raised to a fresh scalar in Setup, KeyGen and every Encrypt leaf;
    // the window table amortizes across all of them (process-wide cache).
    curve_->precompute_fixed_base(*generator_);
  }
  return *generator_;
}

Fp2 CpAbe::e_gg(const ec::Point& g) const {
  const Bytes gb = curve_->serialize(g);
  // Cache index, not key material: g is a public generator point.
  const std::string memo_id(gb.begin(), gb.end());
  {
    const sp::MutexLock lock(cache_mutex_);
    auto it = e_gg_cache_.find(memo_id);
    if (it != e_gg_cache_.end()) return it->second;
  }
  // Pairing outside the lock: concurrent first callers may both compute it
  // (identical values), but no serving thread ever blocks ~ms on the memo.
  const Fp2 value = pairing_(g, g);
  const sp::MutexLock lock(cache_mutex_);
  if (e_gg_cache_.find(memo_id) == e_gg_cache_.end()) {
    e_gg_fifo_.push_back(memo_id);
    if (e_gg_fifo_.size() > kMaxEggCache) {
      e_gg_cache_.erase(e_gg_fifo_.front());
      e_gg_fifo_.pop_front();
    }
  }
  e_gg_cache_[memo_id] = value;
  return value;
}

ec::Point CpAbe::hash_attr(const std::string& attribute) const {
  {
    const sp::MutexLock lock(cache_mutex_);
    auto it = attr_cache_.find(attribute);
    if (it != attr_cache_.end()) return it->second;
  }
  Bytes labeled = crypto::to_bytes("sp-cpabe-attr");
  Bytes attr = crypto::to_bytes(attribute);
  labeled.insert(labeled.end(), attr.begin(), attr.end());
  // Hash outside the lock (try-and-increment plus a cofactor-sized scalar
  // mul); racing first callers compute the same deterministic point.
  const ec::Point h = curve_->hash_to_group(labeled);
  const sp::MutexLock lock(cache_mutex_);
  if (attr_cache_.find(attribute) == attr_cache_.end()) {
    attr_fifo_.push_back(attribute);
    if (attr_fifo_.size() > kMaxAttrCache) {
      attr_cache_.erase(attr_fifo_.front());
      attr_fifo_.pop_front();
    }
  }
  attr_cache_[attribute] = h;
  return h;
}

std::pair<PublicKey, MasterKey> CpAbe::setup(crypto::Drbg& rng) const {
  const ec::Point g = generator();
  const BigInt alpha = rand_scalar(rng);
  const BigInt beta = rand_scalar(rng);
  PublicKey pk;
  pk.g = g;
  pk.h = curve_->mul(g, beta);
  pk.f = curve_->mul(g, BigInt::mod_inv(beta, curve_->order()));
  // g is the one long-lived first pairing argument here (e(g,g) on a fresh
  // CpAbe instance). h and f are per share: h is raised once per Encrypt
  // and f is only serialized, so tables for them would cost more than they
  // save and would evict g's and the Schnorr generator's from the FIFO.
  pairing_.precompute(g);
  pk.e_gg_alpha = pairing_.gt_pow(e_gg(g), alpha);
  MasterKey mk;
  mk.beta = beta;
  mk.g_alpha = curve_->mul(g, alpha);
  return {pk, mk};
}

PrivateKey CpAbe::keygen(const MasterKey& mk, const std::vector<std::string>& attributes,
                         crypto::Drbg& rng) const {
  if (attributes.empty()) throw std::invalid_argument("CpAbe::keygen: empty attribute set");
  const ec::Point g = generator();
  const BigInt r = rand_scalar(rng);
  PrivateKey sk;
  // D = g^((α+r)/β): g^α is in MK, so compute (g^α · g^r)^(1/β).
  const BigInt beta_inv = BigInt::mod_inv(mk.beta, curve_->order());
  sk.d = curve_->mul(curve_->add(mk.g_alpha, curve_->mul(g, r)), beta_inv);
  for (const std::string& attr : attributes) {
    if (sk.attrs.count(attr) != 0) continue;  // dedupe
    const BigInt rj = rand_scalar(rng);
    PrivateKey::AttrKey ak;
    ak.dj = curve_->add(curve_->mul(g, r), curve_->mul(hash_attr(attr), rj));
    ak.dj_prime = curve_->mul(g, rj);
    sk.attrs.emplace(attr, std::move(ak));
  }
  return sk;
}

void CpAbe::share_secret(const AccessTree::Node& node, const BigInt& value, std::size_t& next_id,
                         Ciphertext& ct, crypto::Drbg& rng) const {
  const std::size_t my_id = next_id++;
  const ec::Point g = generator();
  if (node.is_leaf()) {
    if (node.leaf->perturbed) {
      throw std::invalid_argument("CpAbe::encrypt: policy leaf is perturbed (encrypt first, "
                                  "perturb after)");
    }
    Ciphertext::LeafCt leaf_ct;
    leaf_ct.cy = curve_->mul(g, value);
    leaf_ct.cy_prime = curve_->mul(hash_attr(node.leaf->canonical()), value);
    ct.leaves.emplace(my_id, std::move(leaf_ct));
    return;
  }
  // Polynomial q_x of degree threshold-1, q_x(0) = value; child i gets
  // q_x(i) with 1-based index i.
  const BigInt& q = curve_->order();
  std::vector<BigInt> coeffs;
  coeffs.reserve(node.threshold);
  coeffs.push_back(value.mod(q));
  for (std::size_t i = 1; i < node.threshold; ++i) {
    auto rb = [&rng](std::size_t n) { return rng.bytes(n); };
    coeffs.push_back(BigInt::random_below(q, rb));
  }
  for (std::size_t child = 0; child < node.children.size(); ++child) {
    const BigInt x = BigInt::from_u64(child + 1);
    BigInt y = coeffs.back();
    for (std::size_t i = coeffs.size() - 1; i-- > 0;) {
      y = (BigInt::mod_mul(y, x, q) + coeffs[i]).mod(q);
    }
    share_secret(node.children[child], y, next_id, ct, rng);
  }
}

std::pair<Ciphertext, Bytes> CpAbe::encrypt_key(const PublicKey& pk, const AccessTree& policy,
                                                crypto::Drbg& rng) const {
  Ciphertext ct;
  ct.policy = policy;
  const BigInt s = rand_scalar(rng);
  // KEM message: random target-group element M = e(g,g)^z.
  const BigInt z = rand_scalar(rng);
  const Fp2 m = pairing_.gt_pow(e_gg(pk.g), z);
  ct.c_tilde = m * pairing_.gt_pow(pk.e_gg_alpha, s);
  ct.c = curve_->mul(pk.h, s);
  std::size_t next_id = 0;
  share_secret(policy.root(), s, next_id, ct, rng);
  return {ct, crypto::Sha256::hash(m.to_bytes())};
}

namespace {
// Number of DFS ids a subtree consumes (to skip children without pairing).
std::size_t subtree_size(const AccessTree::Node& node) {
  std::size_t n = 1;
  for (const auto& child : node.children) n += subtree_size(child);
  return n;
}
}  // namespace

std::optional<Fp2> CpAbe::decrypt_node(const PrivateKey& sk, const Ciphertext& ct,
                                       const AccessTree::Node& node,
                                       std::size_t& next_id) const {
  const std::size_t my_id = next_id++;
  if (node.is_leaf()) {
    if (node.leaf->perturbed) return std::nullopt;  // unreconstructed leaf
    const auto key_it = sk.attrs.find(node.leaf->canonical());
    if (key_it == sk.attrs.end()) return std::nullopt;
    const auto ct_it = ct.leaves.find(my_id);
    if (ct_it == ct.leaves.end()) return std::nullopt;  // tree/ct mismatch
    // e(D_j, C_y) / e(D_j', C_y') = e(g,g)^(r·q_y(0)).
    const Fp2 num = pairing_(key_it->second.dj, ct_it->second.cy);
    const Fp2 den = pairing_(key_it->second.dj_prime, ct_it->second.cy_prime);
    return num * den.inv();
  }
  // Evaluate children until the threshold is met; remaining subtrees only
  // advance the DFS id counter (decryption is O(threshold) pairings per
  // gate, matching BSW07's "choose a satisfying subset" semantics).
  std::vector<std::pair<std::size_t, Fp2>> available;  // (1-based index, value)
  for (std::size_t child = 0; child < node.children.size(); ++child) {
    if (available.size() == node.threshold) {
      next_id += subtree_size(node.children[child]);
      continue;
    }
    auto result = decrypt_node(sk, ct, node.children[child], next_id);
    if (result.has_value()) {
      available.emplace_back(child + 1, std::move(*result));
    }
  }
  if (available.size() < node.threshold) return std::nullopt;
  // Lagrange combination at 0 over the chosen child indices, in Z_q.
  const BigInt& q = curve_->order();
  Fp2 acc = Fp2::one(curve_->fp());
  for (std::size_t i = 0; i < available.size(); ++i) {
    BigInt num{1}, den{1};
    const BigInt xi = BigInt::from_u64(available[i].first);
    for (std::size_t j = 0; j < available.size(); ++j) {
      if (i == j) continue;
      const BigInt xj = BigInt::from_u64(available[j].first);
      num = BigInt::mod_mul(num, (-xj).mod(q), q);
      den = BigInt::mod_mul(den, (xi - xj).mod(q), q);
    }
    const BigInt coeff = BigInt::mod_mul(num, BigInt::mod_inv(den, q), q);
    acc = acc * pairing_.gt_pow(available[i].second, coeff);
  }
  return acc;
}

bool CpAbe::mark_satisfiable(const PrivateKey& sk, const Ciphertext& ct,
                             const AccessTree::Node& node, std::size_t& next_id,
                             std::vector<char>& sat) const {
  const std::size_t my_id = next_id++;
  if (sat.size() <= my_id) sat.resize(my_id + 1, 0);
  bool ok;
  if (node.is_leaf()) {
    ok = !node.leaf->perturbed && sk.attrs.count(node.leaf->canonical()) != 0 &&
         ct.leaves.count(my_id) != 0;
  } else {
    // Visit ALL children (the verdicts drive flatten_node's skip logic);
    // this pass is pure map lookups, no pairings.
    std::size_t satisfied = 0;
    for (const auto& child : node.children) {
      satisfied += mark_satisfiable(sk, ct, child, next_id, sat) ? 1 : 0;
    }
    ok = satisfied >= node.threshold;
  }
  sat[my_id] = ok ? 1 : 0;
  return ok;
}

void CpAbe::flatten_node(const AccessTree::Node& node, std::size_t& next_id, const BigInt& coeff,
                         const std::vector<char>& sat, std::vector<LeafUse>& out) const {
  next_id++;  // my_id; callers only recurse into satisfied nodes
  if (node.is_leaf()) {
    out.push_back({next_id - 1, node.leaf->canonical(), coeff});
    return;
  }
  // Choose the first `threshold` satisfiable children in index order —
  // exactly the subset the reference recursion evaluates — then fold this
  // gate's Lagrange coefficient at 0 into each chosen child's cumulative
  // exponent. (v^a)^b = v^(ab mod q) for the order-q pairing outputs, so
  // one pow per leaf with the collapsed exponent matches the reference's
  // nested pows exactly.
  std::vector<std::size_t> child_ids(node.children.size());
  {
    std::size_t id = next_id;
    for (std::size_t c = 0; c < node.children.size(); ++c) {
      child_ids[c] = id;
      id += subtree_size(node.children[c]);
    }
  }
  std::vector<std::size_t> selected;  // 0-based child positions
  selected.reserve(node.threshold);
  for (std::size_t c = 0; c < node.children.size() && selected.size() < node.threshold; ++c) {
    if (sat[child_ids[c]]) selected.push_back(c);
  }
  const BigInt& q = curve_->order();
  std::size_t pick = 0;
  for (std::size_t c = 0; c < node.children.size(); ++c) {
    if (pick >= selected.size() || selected[pick] != c) {
      next_id += subtree_size(node.children[c]);  // skipped subtree
      continue;
    }
    ++pick;
    const BigInt xi = BigInt::from_u64(c + 1);
    BigInt num{1}, den{1};
    for (const std::size_t other : selected) {
      if (other == c) continue;
      const BigInt xj = BigInt::from_u64(other + 1);
      num = BigInt::mod_mul(num, (-xj).mod(q), q);
      den = BigInt::mod_mul(den, (xi - xj).mod(q), q);
    }
    const BigInt lambda = BigInt::mod_mul(num, BigInt::mod_inv(den, q), q);
    flatten_node(node.children[c], next_id, BigInt::mod_mul(coeff, lambda, q), sat, out);
  }
}

std::optional<Bytes> CpAbe::decrypt_key(const PublicKey& pk, const PrivateKey& sk,
                                        const Ciphertext& ct,
                                        const ParallelRunner& runner) const {
  (void)pk;
  // Phase 1: pairing-free satisfiability + leaf selection with collapsed
  // Lagrange exponents (same subset and coefficients as the reference).
  std::vector<char> sat;
  {
    std::size_t next_id = 0;
    if (!mark_satisfiable(sk, ct, ct.policy.root(), next_id, sat)) return std::nullopt;
  }
  std::vector<LeafUse> uses;
  {
    std::size_t next_id = 0;
    flatten_node(ct.policy.root(), next_id, BigInt{1}, sat, uses);
  }
  // Phase 2: one multi-pairing. Ciphertext components go FIRST so the
  // Miller-line tables key on the long-lived side (ê is symmetric on the
  // cyclic order-q subgroup; the symmetry is part of the ec equivalence
  // suite) and amortize across every access to the same post. The product
  //   ∏_y ( ê(C_y, D_j)·ê(C_y', D_j')^{-1} )^(Λ_y) · ê(C, D)^{-1}
  // equals A / e(C, D) of the reference, with ONE final exponentiation
  // instead of 2·|leaves| + 1.
  std::vector<ec::Pairing::Term> terms;
  terms.reserve(uses.size() * 2 + 1);
  for (const LeafUse& use : uses) {
    const auto& ak = sk.attrs.at(use.attr);          // present: sat pass checked
    const auto& leaf_ct = ct.leaves.at(use.id);      // present: sat pass checked
    terms.push_back({leaf_ct.cy, ak.dj, false, use.coeff});
    terms.push_back({leaf_ct.cy_prime, ak.dj_prime, true, use.coeff});
  }
  terms.push_back({ct.c, sk.d, true, BigInt{1}});
  const Fp2 ratio = pairing_.product(terms, runner);
  // M = C̃ · A / e(C, D), with A = e(g,g)^(rs) and e(C, D) = e(g,g)^(s(α+r)).
  const Fp2 m = ct.c_tilde * ratio;
  return crypto::Sha256::hash(m.to_bytes());
}

std::optional<Bytes> CpAbe::decrypt_key_reference(const PublicKey& pk, const PrivateKey& sk,
                                                  const Ciphertext& ct) const {
  (void)pk;
  std::size_t next_id = 0;
  const std::optional<Fp2> a = decrypt_node(sk, ct, ct.policy.root(), next_id);
  if (!a.has_value()) return std::nullopt;
  // M = C̃ · A / e(C, D), with A = e(g,g)^(rs) and e(C, D) = e(g,g)^(s(α+r)).
  const Fp2 e_c_d = pairing_(ct.c, sk.d);
  const Fp2 m = ct.c_tilde * (*a) * e_c_d.inv();
  return crypto::Sha256::hash(m.to_bytes());
}

Ciphertext CpAbe::swap_policy(Ciphertext ct, AccessTree new_policy) {
  ct.policy = std::move(new_policy);
  return ct;
}

Bytes CpAbe::serialize(const PublicKey& pk) const {
  Bytes out;
  put_blob(out, curve_->serialize(pk.g));
  put_blob(out, curve_->serialize(pk.h));
  put_blob(out, curve_->serialize(pk.f));
  put_blob(out, pk.e_gg_alpha.to_bytes());
  return out;
}

PublicKey CpAbe::deserialize_public_key(std::span<const std::uint8_t> data) const {
  std::size_t off = 0;
  PublicKey pk;
  pk.g = curve_->deserialize(get_blob(data, off));
  pk.h = curve_->deserialize(get_blob(data, off));
  pk.f = curve_->deserialize(get_blob(data, off));
  pk.e_gg_alpha = Fp2::from_bytes(curve_->fp(), get_blob(data, off));
  if (off != data.size()) throw std::invalid_argument("CpAbe: trailing bytes in public key");
  return pk;
}

Bytes CpAbe::serialize(const MasterKey& mk) const {
  Bytes out;
  put_blob(out, mk.beta.to_bytes(curve_->fp()->byte_length()));
  put_blob(out, curve_->serialize(mk.g_alpha));
  return out;
}

MasterKey CpAbe::deserialize_master_key(std::span<const std::uint8_t> data) const {
  std::size_t off = 0;
  MasterKey mk;
  mk.beta = BigInt::from_bytes(get_blob(data, off));
  mk.g_alpha = curve_->deserialize(get_blob(data, off));
  if (off != data.size()) throw std::invalid_argument("CpAbe: trailing bytes in master key");
  return mk;
}

Bytes CpAbe::serialize(const PrivateKey& sk) const {
  Bytes out;
  put_blob(out, curve_->serialize(sk.d));
  put_u32(out, static_cast<std::uint32_t>(sk.attrs.size()));
  for (const auto& [attr, ak] : sk.attrs) {
    put_str(out, attr);
    put_blob(out, curve_->serialize(ak.dj));
    put_blob(out, curve_->serialize(ak.dj_prime));
  }
  return out;
}

PrivateKey CpAbe::deserialize_private_key(std::span<const std::uint8_t> data) const {
  std::size_t off = 0;
  PrivateKey sk;
  sk.d = curve_->deserialize(get_blob(data, off));
  const std::uint32_t n = get_u32(data, off);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string attr = get_str(data, off);
    PrivateKey::AttrKey ak;
    ak.dj = curve_->deserialize(get_blob(data, off));
    ak.dj_prime = curve_->deserialize(get_blob(data, off));
    sk.attrs.emplace(attr, std::move(ak));
  }
  if (off != data.size()) throw std::invalid_argument("CpAbe: trailing bytes in private key");
  return sk;
}

Bytes CpAbe::serialize(const Ciphertext& ct) const {
  Bytes out;
  put_blob(out, ct.policy.serialize());
  put_blob(out, ct.c_tilde.to_bytes());
  put_blob(out, curve_->serialize(ct.c));
  put_u32(out, static_cast<std::uint32_t>(ct.leaves.size()));
  for (const auto& [id, leaf] : ct.leaves) {
    put_u32(out, static_cast<std::uint32_t>(id));
    put_blob(out, curve_->serialize(leaf.cy));
    put_blob(out, curve_->serialize(leaf.cy_prime));
  }
  return out;
}

Ciphertext CpAbe::deserialize_ciphertext(std::span<const std::uint8_t> data) const {
  std::size_t off = 0;
  Ciphertext ct;
  ct.policy = AccessTree::deserialize(get_blob(data, off));
  ct.c_tilde = Fp2::from_bytes(curve_->fp(), get_blob(data, off));
  ct.c = curve_->deserialize(get_blob(data, off));
  const std::uint32_t n = get_u32(data, off);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t id = get_u32(data, off);
    Ciphertext::LeafCt leaf;
    leaf.cy = curve_->deserialize(get_blob(data, off));
    leaf.cy_prime = curve_->deserialize(get_blob(data, off));
    ct.leaves.emplace(id, std::move(leaf));
  }
  if (off != data.size()) throw std::invalid_argument("CpAbe: trailing bytes in ciphertext");
  return ct;
}

}  // namespace sp::abe
