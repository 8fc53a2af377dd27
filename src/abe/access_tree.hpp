// CP-ABE access-tree policies (paper §III-C and §V-B).
//
// A tree of threshold gates: an internal node with c children and threshold
// t is satisfied when >= t children are satisfied; a leaf is satisfied when
// the decryptor holds its attribute. Social puzzles use a height-1 tree —
// root threshold k over N leaves, each leaf carrying a (question, answer)
// attribute — but the implementation supports arbitrary depth, since BSW07
// does and the paper presents the general scheme.
//
// The paper's Perturb step replaces every leaf answer with its hash so the
// SP/DH never see answers; Reconstruct substitutes claimed answers back for
// the leaves a receiver knows.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/bytes.hpp"

namespace sp::abe {

using crypto::Bytes;

/// A leaf attribute: a context question plus either the clear answer or
/// (after Perturb) the hex SHA-256 of the answer.
struct LeafAttribute {
  std::string question;
  std::string answer;        ///< clear answer, or hex hash when `perturbed`
  bool perturbed = false;

  /// Canonical attribute string fed to the group hash H: "q\x1fa". Only
  /// meaningful for unperturbed leaves.
  [[nodiscard]] std::string canonical() const;

  friend bool operator==(const LeafAttribute&, const LeafAttribute&) = default;
};

/// Hex SHA-256 of an answer string — the Perturb transformation.
std::string hash_answer(const std::string& answer);

class AccessTree {
 public:
  struct Node {
    std::size_t threshold = 1;               ///< k_x (1 for leaves)
    std::vector<Node> children;              ///< empty for leaves
    std::optional<LeafAttribute> leaf;       ///< set for leaves

    [[nodiscard]] bool is_leaf() const { return leaf.has_value(); }
  };

  AccessTree() = default;
  explicit AccessTree(Node root);

  /// The paper's puzzle policy: root threshold k over the given
  /// question/answer pairs (height 1). Requires 0 < k <= pairs.size().
  static AccessTree puzzle_policy(
      const std::vector<std::pair<std::string, std::string>>& question_answers, std::size_t k);

  [[nodiscard]] const Node& root() const { return root_; }
  [[nodiscard]] std::size_t leaf_count() const;

  /// All leaves in deterministic (DFS) order, with their node ids. Node ids
  /// are the DFS visit order and index ciphertext components.
  [[nodiscard]] std::vector<std::pair<std::size_t, const Node*>> leaves() const;

  /// True when the attribute set satisfies the tree (pure policy check; no
  /// cryptography). Attributes are canonical strings.
  [[nodiscard]] bool satisfied_by(const std::vector<std::string>& attributes) const;

  /// Perturb (paper §V-B): returns a copy with every leaf answer replaced by
  /// its hash. Idempotent.
  [[nodiscard]] AccessTree perturb() const;

  /// Reconstruct (paper §V-B): for each leaf whose stored hash matches the
  /// hash of a claimed answer for that question, substitute the clear
  /// answer. Returns the partially reconstructed tree plus how many leaves
  /// were recovered.
  [[nodiscard]] std::pair<AccessTree, std::size_t> reconstruct(
      const std::map<std::string, std::string>& claimed_answers) const;

  /// Decoder bounds, shared by every access-tree wire format. Puzzle
  /// policies are height 1, so a hostile input must not be able to drive
  /// unbounded recursion or turn a small length field into a huge
  /// allocation.
  static constexpr std::size_t kMaxDepth = 64;
  static constexpr std::size_t kMaxChildren = std::size_t{1} << 20;

  /// Wire format (length-prefixed binary); byte-size accounting feeds the
  /// network model. deserialize throws std::invalid_argument on malformed
  /// input, including a tree deeper than kMaxDepth.
  [[nodiscard]] Bytes serialize() const;
  static AccessTree deserialize(std::span<const std::uint8_t> data);

  friend bool operator==(const AccessTree& a, const AccessTree& b);

 private:
  static void validate(const Node& node);

  Node root_;
};

}  // namespace sp::abe
