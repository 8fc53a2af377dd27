// End-to-end CP-ABE: setup → encrypt → keygen → decrypt across policies,
// plus the paper's Perturb/Reconstruct ciphertext flow.
#include "abe/cpabe.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <span>

#include "sig/schnorr.hpp"

namespace sp::abe {
namespace {

using crypto::Drbg;

std::vector<std::pair<std::string, std::string>> sample_qa() {
  return {{"q1", "a1"}, {"q2", "a2"}, {"q3", "a3"}, {"q4", "a4"}};
}

std::string attr(const std::string& q, const std::string& a) {
  return LeafAttribute{q, a, false}.canonical();
}

class CpAbeTest : public ::testing::Test {
 protected:
  CpAbeTest()
      : curve_(ec::preset_params(ec::ParamPreset::kToy)), scheme_(curve_), rng_("cpabe-tests") {}

  ec::Curve curve_;
  CpAbe scheme_;
  Drbg rng_;
};

TEST_F(CpAbeTest, DecryptWithSatisfyingAttributes) {
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 2);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  const PrivateKey sk = scheme_.keygen(mk, {attr("q1", "a1"), attr("q3", "a3")}, rng_);
  const auto recovered = scheme_.decrypt_key(pk, sk, ct);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, dem_key);
}

TEST_F(CpAbeTest, DecryptFailsBelowThreshold) {
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 3);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  const PrivateKey sk = scheme_.keygen(mk, {attr("q1", "a1"), attr("q2", "a2")}, rng_);
  EXPECT_FALSE(scheme_.decrypt_key(pk, sk, ct).has_value());
}

TEST_F(CpAbeTest, WrongAnswerAttributeDoesNotCount) {
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 2);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  // One right answer + one wrong answer: attribute string differs, so the
  // leaf is unmatched and the threshold unmet.
  const PrivateKey sk = scheme_.keygen(mk, {attr("q1", "a1"), attr("q2", "WRONG")}, rng_);
  EXPECT_FALSE(scheme_.decrypt_key(pk, sk, ct).has_value());
}

TEST_F(CpAbeTest, ThresholdOneAnyLeafSuffices) {
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 1);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);
  for (const auto& [q, a] : sample_qa()) {
    const PrivateKey sk = scheme_.keygen(mk, {attr(q, a)}, rng_);
    const auto recovered = scheme_.decrypt_key(pk, sk, ct);
    ASSERT_TRUE(recovered.has_value()) << q;
    EXPECT_EQ(*recovered, dem_key);
  }
}

TEST_F(CpAbeTest, AllLeavesThresholdN) {
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 4);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);
  std::vector<std::string> attrs;
  for (const auto& [q, a] : sample_qa()) attrs.push_back(attr(q, a));
  const PrivateKey all = scheme_.keygen(mk, attrs, rng_);
  ASSERT_TRUE(scheme_.decrypt_key(pk, all, ct).has_value());
  attrs.pop_back();
  const PrivateKey almost = scheme_.keygen(mk, attrs, rng_);
  EXPECT_FALSE(scheme_.decrypt_key(pk, almost, ct).has_value());
}

TEST_F(CpAbeTest, NestedPolicyDecrypts) {
  // (2 of [A, B, (1 of [C, D])]).
  AccessTree::Node inner;
  inner.threshold = 1;
  for (const char* a : {"c", "d"}) {
    AccessTree::Node leaf;
    leaf.leaf = LeafAttribute{"q", a, false};
    inner.children.push_back(leaf);
  }
  AccessTree::Node root;
  root.threshold = 2;
  for (const char* a : {"a", "b"}) {
    AccessTree::Node leaf;
    leaf.leaf = LeafAttribute{"q", a, false};
    root.children.push_back(leaf);
  }
  root.children.push_back(inner);
  const AccessTree policy{root};

  auto [pk, mk] = scheme_.setup(rng_);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  // A + D satisfies via the nested gate.
  const PrivateKey sk1 = scheme_.keygen(mk, {attr("q", "a"), attr("q", "d")}, rng_);
  const auto r1 = scheme_.decrypt_key(pk, sk1, ct);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, dem_key);

  // C + D does not (inner gate counts once).
  const PrivateKey sk2 = scheme_.keygen(mk, {attr("q", "c"), attr("q", "d")}, rng_);
  EXPECT_FALSE(scheme_.decrypt_key(pk, sk2, ct).has_value());
}

TEST_F(CpAbeTest, DepthThreePolicy) {
  // (2 of [ (2 of [a, b, (1 of [c, d])]), e ]) — exercises Lagrange
  // recombination across three levels of gates.
  auto leaf = [](const char* a) {
    AccessTree::Node n;
    n.leaf = LeafAttribute{"q", a, false};
    return n;
  };
  AccessTree::Node innermost;
  innermost.threshold = 1;
  innermost.children = {leaf("c"), leaf("d")};
  AccessTree::Node middle;
  middle.threshold = 2;
  middle.children = {leaf("a"), leaf("b"), innermost};
  AccessTree::Node root;
  root.threshold = 2;
  root.children = {middle, leaf("e")};
  const AccessTree policy{root};

  auto [pk, mk] = scheme_.setup(rng_);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  struct Case {
    std::vector<const char*> attrs;
    bool expect;
  };
  const Case cases[] = {
      {{"a", "b", "e"}, true},   // middle via a+b, root via middle+e
      {{"a", "d", "e"}, true},   // middle via a+innermost(d)
      {{"c", "b", "e"}, true},   // middle via innermost(c)+b
      {{"a", "b"}, false},       // middle satisfied, root needs e too
      {{"c", "d", "e"}, false},  // innermost counts once; middle unmet
      {{"e"}, false},
  };
  for (const Case& c : cases) {
    std::vector<std::string> attrs;
    for (const char* a : c.attrs) attrs.push_back(attr("q", a));
    const PrivateKey sk = scheme_.keygen(mk, attrs, rng_);
    const auto got = scheme_.decrypt_key(pk, sk, ct);
    EXPECT_EQ(got.has_value(), c.expect) << "attrs=" << c.attrs.size();
    if (got) {
      EXPECT_EQ(*got, dem_key);
    }
  }
}

TEST_F(CpAbeTest, DecryptShortCircuitKeepsLeafIdsAligned) {
  // Decrypt skips whole subtrees once a gate's threshold is met, advancing
  // the DFS id counter without pairing. This test forces both paths in one
  // tree: policy (2 of [A, (1 of [B, C]), D]).
  AccessTree::Node inner;
  inner.threshold = 1;
  for (const char* a : {"b", "c"}) {
    AccessTree::Node leaf;
    leaf.leaf = LeafAttribute{"q", a, false};
    inner.children.push_back(leaf);
  }
  AccessTree::Node root;
  root.threshold = 2;
  AccessTree::Node leaf_a;
  leaf_a.leaf = LeafAttribute{"q", "a", false};
  AccessTree::Node leaf_d;
  leaf_d.leaf = LeafAttribute{"q", "d", false};
  root.children.push_back(leaf_a);
  root.children.push_back(inner);
  root.children.push_back(leaf_d);
  const AccessTree policy{root};

  auto [pk, mk] = scheme_.setup(rng_);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  // Key {A, D}: the inner gate fails, D (after the skipped-over inner
  // subtree's ids) must still resolve to the right ciphertext component.
  const PrivateKey ad = scheme_.keygen(mk, {attr("q", "a"), attr("q", "d")}, rng_);
  auto r1 = scheme_.decrypt_key(pk, ad, ct);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, dem_key);

  // Key {A, C}: inner satisfied via its second child; D's subtree skipped.
  const PrivateKey ac = scheme_.keygen(mk, {attr("q", "a"), attr("q", "c")}, rng_);
  auto r2 = scheme_.decrypt_key(pk, ac, ct);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, dem_key);

  // Key {C, D}: first child A fails, both later children must still align.
  const PrivateKey cd = scheme_.keygen(mk, {attr("q", "c"), attr("q", "d")}, rng_);
  auto r3 = scheme_.decrypt_key(pk, cd, ct);
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(*r3, dem_key);

  // Key {B} alone: inner satisfied but root threshold unmet.
  const PrivateKey b = scheme_.keygen(mk, {attr("q", "b")}, rng_);
  EXPECT_FALSE(scheme_.decrypt_key(pk, b, ct).has_value());
}

TEST_F(CpAbeTest, PerturbedCiphertextFlow) {
  // The paper's Construction 2: CT' carries the perturbed tree; a receiver
  // who knows >= k answers reconstructs and decrypts.
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 2);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);
  const Ciphertext ct_prime = CpAbe::swap_policy(ct, policy.perturb());

  // Receiver claims two correct answers.
  const auto [reconstructed, count] =
      ct_prime.policy.reconstruct({{"q1", "a1"}, {"q4", "a4"}});
  ASSERT_EQ(count, 2u);
  const Ciphertext ct_hat = CpAbe::swap_policy(ct_prime, reconstructed);
  const PrivateKey sk = scheme_.keygen(mk, {attr("q1", "a1"), attr("q4", "a4")}, rng_);
  const auto recovered = scheme_.decrypt_key(pk, sk, ct_hat);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, dem_key);

  // Without reconstruction the perturbed leaves never match — no decrypt.
  EXPECT_FALSE(scheme_.decrypt_key(pk, sk, ct_prime).has_value());
}

TEST_F(CpAbeTest, EncryptRejectsPerturbedPolicy) {
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree perturbed = AccessTree::puzzle_policy(sample_qa(), 2).perturb();
  EXPECT_THROW(scheme_.encrypt_key(pk, perturbed, rng_), std::invalid_argument);
}

TEST_F(CpAbeTest, KeygenRejectsEmptyAttributeSet) {
  auto [pk, mk] = scheme_.setup(rng_);
  EXPECT_THROW(scheme_.keygen(mk, {}, rng_), std::invalid_argument);
}

TEST_F(CpAbeTest, RepeatedSetupKeepsGeneratorFixedBaseTables) {
  // Setup runs once per C2 share or refresh. The per-share h and f must not
  // be registered as fixed bases: the FIFO-capped registry would evict the
  // long-lived CP-ABE and Schnorr generators' tables and never rebuild them.
  const sig::Schnorr schnorr(curve_, curve_.hash_to_group(crypto::to_bytes("sp-schnorr-g")));
  PublicKey pk;
  for (int i = 0; i < 100; ++i) pk = scheme_.setup(rng_).first;
  EXPECT_TRUE(curve_.has_fixed_base(pk.g));
  EXPECT_TRUE(curve_.has_fixed_base(schnorr.generator()));
  EXPECT_FALSE(curve_.has_fixed_base(pk.h));
}

TEST_F(CpAbeTest, DistinctEncryptionsProduceDistinctKeys) {
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 1);
  auto [ct1, key1] = scheme_.encrypt_key(pk, policy, rng_);
  auto [ct2, key2] = scheme_.encrypt_key(pk, policy, rng_);
  EXPECT_NE(key1, key2);
}

TEST_F(CpAbeTest, CollusionOfTwoInsufficientKeysFails) {
  // Alice knows a1, Bob knows a2; threshold is 2. Pooling ciphertext
  // components across their *separate* keys must not work: the r-values
  // differ, so DecryptNode shares don't combine. We model the strongest
  // simple pooling attack: use Alice's key for leaf 1 and Bob's for leaf 2
  // by building a Frankenstein key holding both attributes from different
  // keygen runs.
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 2);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  const PrivateKey alice = scheme_.keygen(mk, {attr("q1", "a1")}, rng_);
  const PrivateKey bob = scheme_.keygen(mk, {attr("q2", "a2")}, rng_);
  PrivateKey franken = alice;
  franken.attrs.insert(bob.attrs.begin(), bob.attrs.end());

  const auto recovered = scheme_.decrypt_key(pk, franken, ct);
  // DecryptNode "succeeds" structurally but the mixed randomness yields a
  // wrong key — collusion resistance.
  if (recovered.has_value()) {
    EXPECT_NE(*recovered, dem_key);
  }
}

TEST_F(CpAbeTest, SerializationRoundTrips) {
  auto [pk, mk] = scheme_.setup(rng_);
  const AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 2);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);
  const PrivateKey sk = scheme_.keygen(mk, {attr("q1", "a1"), attr("q2", "a2")}, rng_);

  const PublicKey pk2 = scheme_.deserialize_public_key(scheme_.serialize(pk));
  const MasterKey mk2 = scheme_.deserialize_master_key(scheme_.serialize(mk));
  const PrivateKey sk2 = scheme_.deserialize_private_key(scheme_.serialize(sk));
  const Ciphertext ct2 = scheme_.deserialize_ciphertext(scheme_.serialize(ct));

  EXPECT_EQ(pk2.g, pk.g);
  EXPECT_EQ(pk2.h, pk.h);
  EXPECT_EQ(pk2.f, pk.f);
  EXPECT_EQ(pk2.e_gg_alpha, pk.e_gg_alpha);
  EXPECT_EQ(mk2.beta, mk.beta);
  EXPECT_EQ(mk2.g_alpha, mk.g_alpha);

  // Deserialized artifacts interoperate end to end.
  const auto recovered = scheme_.decrypt_key(pk2, sk2, ct2);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, dem_key);
}

TEST_F(CpAbeTest, DeserializeRejectsTrailingBytes) {
  auto [pk, mk] = scheme_.setup(rng_);
  auto wire = scheme_.serialize(pk);
  wire.push_back(0);
  EXPECT_THROW(scheme_.deserialize_public_key(wire), std::invalid_argument);
}

TEST_F(CpAbeTest, CiphertextSizeGrowsLinearlyInLeaves) {
  // The paper's I2 network cost stems from ciphertext growth with N.
  auto [pk, mk] = scheme_.setup(rng_);
  std::vector<std::pair<std::string, std::string>> qa;
  std::size_t prev = 0;
  for (int n = 2; n <= 8; n += 2) {
    qa.clear();
    for (int i = 0; i < n; ++i) qa.emplace_back("q" + std::to_string(i), "a" + std::to_string(i));
    auto [ct, key] = scheme_.encrypt_key(pk, AccessTree::puzzle_policy(qa, 1), rng_);
    const std::size_t size = scheme_.serialize(ct).size();
    EXPECT_GT(size, prev);
    prev = size;
  }
}

// Threshold sweep: decrypt succeeds with exactly k attrs, fails with k-1.
class CpAbeThresholdSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CpAbeThresholdSweep, ExactBoundary) {
  const std::size_t k = GetParam();
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const CpAbe scheme(curve);
  Drbg rng("cpabe-sweep-" + std::to_string(k));

  std::vector<std::pair<std::string, std::string>> qa;
  for (int i = 0; i < 6; ++i) qa.emplace_back("q" + std::to_string(i), "a" + std::to_string(i));
  auto [pk, mk] = scheme.setup(rng);
  auto [ct, dem_key] = scheme.encrypt_key(pk, AccessTree::puzzle_policy(qa, k), rng);

  std::vector<std::string> attrs;
  for (std::size_t i = 0; i < k; ++i) attrs.push_back(attr(qa[i].first, qa[i].second));
  const PrivateKey enough = scheme.keygen(mk, attrs, rng);
  const auto ok = scheme.decrypt_key(pk, enough, ct);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, dem_key);

  if (k > 1) {
    attrs.pop_back();
    const PrivateKey short_one = scheme.keygen(mk, attrs, rng);
    EXPECT_FALSE(scheme.decrypt_key(pk, short_one, ct).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(K, CpAbeThresholdSweep, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- PR 7: batched decrypt (multi-pairing) vs the reference recursion ---

/// decrypt_key (satisfiability pass + flattened Lagrange exponents + one
/// Pairing::product) must be byte-identical to decrypt_key_reference (the
/// BSW07 DecryptNode recursion) on every policy/keyset combination,
/// including denials.
TEST_F(CpAbeTest, BatchedDecryptMatchesReferenceAcrossKeysets) {
  AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 2);
  auto [pk, mk] = scheme_.setup(rng_);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  const std::vector<std::vector<std::string>> keysets = {
      {attr("q1", "a1"), attr("q2", "a2")},                      // exactly k
      {attr("q1", "a1"), attr("q2", "a2"), attr("q4", "a4")},    // above k
      {attr("q2", "a2"), attr("q3", "a3"), attr("q4", "a4")},    // different subset
      {attr("q1", "a1")},                                        // below k -> denial
      {attr("q1", "wrong"), attr("q2", "a2")},                   // wrong answer
  };
  for (const auto& attrs : keysets) {
    const PrivateKey sk = scheme_.keygen(mk, attrs, rng_);
    const auto batched = scheme_.decrypt_key(pk, sk, ct);
    const auto reference = scheme_.decrypt_key_reference(pk, sk, ct);
    ASSERT_EQ(batched.has_value(), reference.has_value());
    if (batched) {
      EXPECT_EQ(*batched, *reference);
      EXPECT_EQ(*batched, dem_key);
    }
  }
}

TEST_F(CpAbeTest, BatchedDecryptMatchesReferenceOnNestedPolicy) {
  // Root 2-of-3 over [a, b, (2 of [c, d, e])]: multiplies Lagrange
  // coefficients down two gate levels into the cumulative leaf exponents.
  AccessTree::Node inner;
  inner.threshold = 2;
  for (const char* a : {"c", "d", "e"}) {
    AccessTree::Node leaf;
    leaf.leaf = LeafAttribute{"q", a, false};
    inner.children.push_back(leaf);
  }
  AccessTree::Node root;
  root.threshold = 2;
  for (const char* a : {"a", "b"}) {
    AccessTree::Node leaf;
    leaf.leaf = LeafAttribute{"q", a, false};
    root.children.push_back(leaf);
  }
  root.children.push_back(inner);
  const AccessTree policy{root};

  auto [pk, mk] = scheme_.setup(rng_);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);

  const std::vector<std::vector<std::string>> keysets = {
      {attr("q", "a"), attr("q", "c"), attr("q", "d")},  // leaf + nested gate
      {attr("q", "a"), attr("q", "b")},                  // two root leaves
      {attr("q", "c"), attr("q", "d")},                  // nested alone: denial
  };
  for (const auto& attrs : keysets) {
    const PrivateKey sk = scheme_.keygen(mk, attrs, rng_);
    const auto batched = scheme_.decrypt_key(pk, sk, ct);
    const auto reference = scheme_.decrypt_key_reference(pk, sk, ct);
    ASSERT_EQ(batched.has_value(), reference.has_value());
    if (batched) {
      EXPECT_EQ(*batched, *reference);
      EXPECT_EQ(*batched, dem_key);
    }
  }
}

TEST_F(CpAbeTest, BatchedDecryptWithRunnerMatchesInline) {
  AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 3);
  auto [pk, mk] = scheme_.setup(rng_);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);
  const PrivateKey sk =
      scheme_.keygen(mk, {attr("q1", "a1"), attr("q2", "a2"), attr("q3", "a3")}, rng_);
  std::size_t jobs_seen = 0;
  const CpAbe::ParallelRunner runner =
      [&jobs_seen](std::span<const std::function<void()>> jobs) {
        jobs_seen += jobs.size();
        for (const auto& job : jobs) job();
      };
  const auto with_runner = scheme_.decrypt_key(pk, sk, ct, runner);
  ASSERT_TRUE(with_runner.has_value());
  EXPECT_EQ(*with_runner, dem_key);
  // 2 pairings per satisfied leaf + e(C, D): all routed through the runner.
  EXPECT_EQ(jobs_seen, 2u * 3u + 1u);
}

TEST_F(CpAbeTest, PerturbedLeavesExcludedFromBatchedSelection) {
  // Reconstruct-style flow: perturb, then swap in a tree where only SOME
  // leaves are answered — the satisfiability pass must skip perturbed
  // leaves exactly like the reference recursion does.
  AccessTree policy = AccessTree::puzzle_policy(sample_qa(), 2);
  auto [pk, mk] = scheme_.setup(rng_);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, policy, rng_);
  const AccessTree perturbed = policy.perturb();
  // Receiver knows q1/q2: un-perturb those two leaves only.
  const auto [tau_hat, recovered] =
      perturbed.reconstruct({{"q1", "a1"}, {"q2", "a2"}});
  ASSERT_EQ(recovered, 2u);
  const Ciphertext ct_hat = CpAbe::swap_policy(ct, tau_hat);
  const PrivateKey sk = scheme_.keygen(mk, {attr("q1", "a1"), attr("q2", "a2")}, rng_);
  const auto batched = scheme_.decrypt_key(pk, sk, ct_hat);
  const auto reference = scheme_.decrypt_key_reference(pk, sk, ct_hat);
  ASSERT_TRUE(batched.has_value());
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(*batched, *reference);
  EXPECT_EQ(*batched, dem_key);
}

}  // namespace
}  // namespace sp::abe
