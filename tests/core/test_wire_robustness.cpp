// Wire-format robustness: deserializers face attacker-controlled bytes (the
// SP relays them, a malicious SP can rewrite them). DRBG-driven mutation and
// truncation sweeps must never crash — every malformed input either throws
// std::invalid_argument or yields a value that fails downstream checks.
#include <gtest/gtest.h>

#include "abe/cpabe.hpp"
#include "core/construction1.hpp"
#include "core/construction2.hpp"
#include "core/puzzle.hpp"
#include "ec/params.hpp"

namespace sp::core {
namespace {

using crypto::Bytes;
using crypto::Drbg;
using crypto::to_bytes;

Bytes sample_puzzle_wire() {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  Construction1 c1(curve.fp(), curve);
  sig::Schnorr schnorr(curve, curve.hash_to_group(to_bytes("sp-schnorr-g")));
  Drbg rng("wire-puzzle");
  const sig::KeyPair keys = schnorr.keygen(rng);
  Context ctx;
  for (int i = 0; i < 4; ++i) ctx.add("q" + std::to_string(i), "a" + std::to_string(i));
  auto up = c1.upload(to_bytes("obj"), ctx, 2, 4, keys, rng);
  up.puzzle.url = "dh://objects/x";
  c1.sign_puzzle(up.puzzle, keys);
  return up.puzzle.serialize();
}

TEST(WireRobustness, PuzzleSurvivesSingleByteMutations) {
  const Bytes wire = sample_puzzle_wire();
  Drbg rng("mutate-puzzle");
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire;
    mutated[rng.uniform(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      const Puzzle p = Puzzle::deserialize(mutated);
      ++parsed;  // structurally valid; the signature layer catches the rest
      (void)p;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 300);
  EXPECT_GT(rejected, 0);  // length-prefix corruption must be caught
}

TEST(WireRobustness, PuzzleSurvivesTruncation) {
  const Bytes wire = sample_puzzle_wire();
  for (std::size_t len = 0; len < wire.size(); len += 3) {
    EXPECT_THROW(Puzzle::deserialize(std::span<const std::uint8_t>(wire.data(), len)),
                 std::invalid_argument)
        << "length " << len;
  }
}

TEST(WireRobustness, PuzzleSurvivesRandomGarbage) {
  Drbg rng("garbage-puzzle");
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes junk = rng.bytes(1 + rng.uniform(300));
    try {
      (void)Puzzle::deserialize(junk);
    } catch (const std::invalid_argument&) {
      // expected for nearly all inputs
    }
  }
}

TEST(WireRobustness, AccessTreeSurvivesMutationAndTruncation) {
  std::vector<std::pair<std::string, std::string>> qa;
  for (int i = 0; i < 5; ++i) qa.emplace_back("q" + std::to_string(i), "a" + std::to_string(i));
  const Bytes wire = abe::AccessTree::puzzle_policy(qa, 2).serialize();
  Drbg rng("mutate-tree");
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire;
    mutated[rng.uniform(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      (void)abe::AccessTree::deserialize(mutated);
    } catch (const std::invalid_argument&) {
    }
  }
  for (std::size_t len = 0; len < wire.size(); len += 2) {
    EXPECT_THROW(abe::AccessTree::deserialize(std::span<const std::uint8_t>(wire.data(), len)),
                 std::invalid_argument);
  }
}

TEST(WireRobustness, CpAbeArtifactsSurviveMutation) {
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const abe::CpAbe scheme(curve);
  Drbg rng("mutate-abe");
  auto [pk, mk] = scheme.setup(rng);
  std::vector<std::pair<std::string, std::string>> qa = {{"q0", "a0"}, {"q1", "a1"}};
  auto [ct, key] = scheme.encrypt_key(pk, abe::AccessTree::puzzle_policy(qa, 1), rng);

  const Bytes pk_wire = scheme.serialize(pk);
  const Bytes ct_wire = scheme.serialize(ct);
  for (int trial = 0; trial < 150; ++trial) {
    Bytes m1 = pk_wire;
    m1[rng.uniform(m1.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      (void)scheme.deserialize_public_key(m1);
    } catch (const std::invalid_argument&) {
    }
    Bytes m2 = ct_wire;
    m2[rng.uniform(m2.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      (void)scheme.deserialize_ciphertext(m2);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(WireRobustness, HugeLengthPrefixRejectedNotAllocated) {
  // A 0xFFFFFFFF length prefix must throw, not attempt a 4 GiB allocation.
  Bytes evil = {0xff, 0xff, 0xff, 0xff, 0x00};
  EXPECT_THROW(Puzzle::deserialize(evil), std::invalid_argument);
  EXPECT_THROW(abe::AccessTree::deserialize(evil), std::invalid_argument);
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) out.push_back(static_cast<std::uint8_t>(v >> shift));
}

std::uint32_t get_u32(const Bytes& in, std::size_t off) {
  return (std::uint32_t{in[off]} << 24) | (std::uint32_t{in[off + 1]} << 16) |
         (std::uint32_t{in[off + 2]} << 8) | std::uint32_t{in[off + 3]};
}

/// AccessTree wire bytes of a chain: `depth` threshold-1 gates, each with
/// one child, over a single leaf (9 bytes per gate + a 12-byte leaf).
Bytes chain_tree_wire(std::size_t depth) {
  Bytes out;
  out.reserve(depth * 9 + 12);
  for (std::size_t i = 0; i < depth; ++i) {
    out.push_back(0);
    put_u32(out, 1);
    put_u32(out, 1);
  }
  out.push_back(1);
  out.push_back(0);
  for (const char* field : {"q", "a"}) {
    put_u32(out, 1);
    out.push_back(static_cast<std::uint8_t>(field[0]));
  }
  return out;
}

/// `file` with its leading length-prefixed blob replaced by `blob`.
Bytes replace_first_blob(const Bytes& file, const Bytes& blob) {
  Bytes out;
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
  out.insert(out.end(), file.begin() + 4 + get_u32(file, 0), file.end());
  return out;
}

TEST(WireRobustness, DeepAccessTreeRejectedWithoutRecursingToTheEnd) {
  // The decoder's depth bound: a chain whose leaf sits at kMaxDepth decodes,
  // one level more throws, and a 100k-deep chain (900,012 bytes) throws
  // instead of overflowing the stack.
  const std::size_t max_depth = abe::AccessTree::kMaxDepth;
  EXPECT_EQ(abe::AccessTree::deserialize(chain_tree_wire(max_depth)).leaf_count(), 1u);
  EXPECT_THROW(abe::AccessTree::deserialize(chain_tree_wire(max_depth + 1)),
               std::invalid_argument);
  const Bytes deep = chain_tree_wire(100'000);
  ASSERT_EQ(deep.size(), 900'012u);
  EXPECT_THROW(abe::AccessTree::deserialize(deep), std::invalid_argument);

  // The same tree inside a C2 ciphertext file, the bytes a receiver fetches
  // from the DH: file = blob(CT') || blob(envelope), CT' = blob(policy) || ...
  const ec::Curve curve(ec::preset_params(ec::ParamPreset::kToy));
  const Construction2 c2(curve);
  Drbg rng("deep-tree");
  Context ctx;
  ctx.add("q0", "a0");
  ctx.add("q1", "a1");
  const auto up = c2.upload(to_bytes("obj"), ctx, 1, rng);
  const Bytes ct(up.ciphertext.begin() + 4,
                 up.ciphertext.begin() + 4 + get_u32(up.ciphertext, 0));
  const Bytes deep_ct = replace_first_blob(ct, deep);
  EXPECT_THROW((void)abe::CpAbe(curve).deserialize_ciphertext(deep_ct), std::invalid_argument);
  const Bytes deep_file = replace_first_blob(up.ciphertext, deep_ct);
  EXPECT_FALSE(c2.access(deep_file, up.public_key, up.master_key, Knowledge::full(ctx), rng));
  // Control: the untouched file still opens.
  EXPECT_EQ(c2.access(up.ciphertext, up.public_key, up.master_key, Knowledge::full(ctx), rng),
            to_bytes("obj"));
}

}  // namespace
}  // namespace sp::core
