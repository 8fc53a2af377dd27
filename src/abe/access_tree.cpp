#include "abe/access_tree.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace sp::abe {

namespace {

// Unit separator keeps "ab"+"c" and "a"+"bc" distinct.
constexpr char kSep = '\x1f';

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_u32(std::span<const std::uint8_t> data, std::size_t& off) {
  if (off + 4 > data.size()) throw std::invalid_argument("AccessTree: truncated");
  const std::uint32_t v = (std::uint32_t{data[off]} << 24) | (std::uint32_t{data[off + 1]} << 16) |
                          (std::uint32_t{data[off + 2]} << 8) | std::uint32_t{data[off + 3]};
  off += 4;
  return v;
}

void put_str(Bytes& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string get_str(std::span<const std::uint8_t> data, std::size_t& off) {
  const std::uint32_t len = get_u32(data, off);
  if (off + len > data.size()) throw std::invalid_argument("AccessTree: truncated string");
  std::string s(data.begin() + static_cast<std::ptrdiff_t>(off),
                data.begin() + static_cast<std::ptrdiff_t>(off + len));
  off += len;
  return s;
}

}  // namespace

std::string LeafAttribute::canonical() const {
  return question + kSep + answer;
}

std::string hash_answer(const std::string& answer) {
  return crypto::to_hex(crypto::Sha256::hash(crypto::to_bytes(answer)));
}

AccessTree::AccessTree(Node root) : root_(std::move(root)) { validate(root_); }

void AccessTree::validate(const Node& node) {
  if (node.is_leaf()) {
    if (!node.children.empty()) throw std::invalid_argument("AccessTree: leaf with children");
    if (node.threshold != 1) throw std::invalid_argument("AccessTree: leaf threshold must be 1");
    return;
  }
  if (node.children.empty()) throw std::invalid_argument("AccessTree: internal node w/o children");
  if (node.threshold == 0 || node.threshold > node.children.size()) {
    throw std::invalid_argument("AccessTree: threshold out of range");
  }
  for (const Node& child : node.children) validate(child);
}

AccessTree AccessTree::puzzle_policy(
    const std::vector<std::pair<std::string, std::string>>& question_answers, std::size_t k) {
  if (question_answers.empty()) throw std::invalid_argument("puzzle_policy: no attributes");
  if (k == 0 || k > question_answers.size()) {
    throw std::invalid_argument("puzzle_policy: need 0 < k <= N");
  }
  Node root;
  root.threshold = k;
  for (const auto& [q, a] : question_answers) {
    Node leaf;
    leaf.leaf = LeafAttribute{q, a, false};
    root.children.push_back(std::move(leaf));
  }
  return AccessTree(std::move(root));
}

std::size_t AccessTree::leaf_count() const { return leaves().size(); }

std::vector<std::pair<std::size_t, const AccessTree::Node*>> AccessTree::leaves() const {
  std::vector<std::pair<std::size_t, const Node*>> out;
  std::size_t id = 0;
  std::function<void(const Node&)> dfs = [&](const Node& node) {
    const std::size_t my_id = id++;
    if (node.is_leaf()) {
      out.emplace_back(my_id, &node);
      return;
    }
    for (const Node& child : node.children) dfs(child);
  };
  dfs(root_);
  return out;
}

bool AccessTree::satisfied_by(const std::vector<std::string>& attributes) const {
  std::function<bool(const Node&)> eval = [&](const Node& node) -> bool {
    if (node.is_leaf()) {
      if (node.leaf->perturbed) return false;  // hashed leaves can't match
      return std::find(attributes.begin(), attributes.end(), node.leaf->canonical()) !=
             attributes.end();
    }
    std::size_t satisfied = 0;
    for (const Node& child : node.children) {
      if (eval(child)) ++satisfied;
    }
    return satisfied >= node.threshold;
  };
  return eval(root_);
}

AccessTree AccessTree::perturb() const {
  std::function<Node(const Node&)> walk = [&](const Node& node) -> Node {
    Node copy;
    copy.threshold = node.threshold;
    if (node.is_leaf()) {
      LeafAttribute attr = *node.leaf;
      if (!attr.perturbed) {
        attr.answer = hash_answer(attr.answer);
        attr.perturbed = true;
      }
      copy.leaf = std::move(attr);
      return copy;
    }
    for (const Node& child : node.children) copy.children.push_back(walk(child));
    return copy;
  };
  AccessTree out;
  out.root_ = walk(root_);
  return out;
}

std::pair<AccessTree, std::size_t> AccessTree::reconstruct(
    const std::map<std::string, std::string>& claimed_answers) const {
  std::size_t recovered = 0;
  std::function<Node(const Node&)> walk = [&](const Node& node) -> Node {
    Node copy;
    copy.threshold = node.threshold;
    if (node.is_leaf()) {
      LeafAttribute attr = *node.leaf;
      if (attr.perturbed) {
        auto it = claimed_answers.find(attr.question);
        if (it != claimed_answers.end() && crypto::ct_equal(hash_answer(it->second), attr.answer)) {
          attr.answer = it->second;
          attr.perturbed = false;
          ++recovered;
        }
      }
      copy.leaf = std::move(attr);
      return copy;
    }
    for (const Node& child : node.children) copy.children.push_back(walk(child));
    return copy;
  };
  AccessTree out;
  out.root_ = walk(root_);
  return {out, recovered};
}

Bytes AccessTree::serialize() const {
  Bytes out;
  std::function<void(const Node&)> walk = [&](const Node& node) {
    out.push_back(node.is_leaf() ? 1 : 0);
    if (node.is_leaf()) {
      out.push_back(node.leaf->perturbed ? 1 : 0);
      put_str(out, node.leaf->question);
      put_str(out, node.leaf->answer);
      return;
    }
    put_u32(out, static_cast<std::uint32_t>(node.threshold));
    put_u32(out, static_cast<std::uint32_t>(node.children.size()));
    for (const Node& child : node.children) walk(child);
  };
  walk(root_);
  return out;
}

AccessTree AccessTree::deserialize(std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  std::function<Node(std::size_t)> walk = [&](std::size_t depth) -> Node {
    if (depth > kMaxDepth) throw std::invalid_argument("AccessTree: too deep");
    if (off >= data.size()) throw std::invalid_argument("AccessTree: truncated");
    const bool is_leaf = data[off++] == 1;
    Node node;
    if (is_leaf) {
      if (off >= data.size()) throw std::invalid_argument("AccessTree: truncated");
      LeafAttribute attr;
      attr.perturbed = data[off++] == 1;
      attr.question = get_str(data, off);
      attr.answer = get_str(data, off);
      node.leaf = std::move(attr);
      return node;
    }
    node.threshold = get_u32(data, off);
    const std::uint32_t n = get_u32(data, off);
    if (n > kMaxChildren) throw std::invalid_argument("AccessTree: fan-out too large");
    // A child costs >= 9 bytes on the wire; an inflated count cannot reserve
    // more memory than the input could actually contain.
    if (std::size_t{n} * 9 > data.size() - off) {
      throw std::invalid_argument("AccessTree: truncated");
    }
    node.children.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) node.children.push_back(walk(depth + 1));
    return node;
  };
  Node root = walk(0);
  if (off != data.size()) throw std::invalid_argument("AccessTree: trailing bytes");
  return AccessTree(std::move(root));
}

bool operator==(const AccessTree& a, const AccessTree& b) {
  std::function<bool(const AccessTree::Node&, const AccessTree::Node&)> eq =
      [&](const AccessTree::Node& x, const AccessTree::Node& y) -> bool {
    if (x.threshold != y.threshold || x.is_leaf() != y.is_leaf()) return false;
    if (x.is_leaf()) return *x.leaf == *y.leaf;
    if (x.children.size() != y.children.size()) return false;
    for (std::size_t i = 0; i < x.children.size(); ++i) {
      if (!eq(x.children[i], y.children[i])) return false;
    }
    return true;
  };
  return eq(a.root_, b.root_);
}

}  // namespace sp::abe
