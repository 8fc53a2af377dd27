#include "codec/records.hpp"

namespace sp::codec {

namespace {

constexpr std::size_t kMaxTreeDepth = abe::AccessTree::kMaxDepth;
constexpr std::size_t kMaxTreeChildren = abe::AccessTree::kMaxChildren;

Frame checked_unframe(std::span<const std::uint8_t> data, RecordType want, const char* what) {
  const Frame f = unframe(data);
  if (f.version != kWireVersion) throw CodecError(std::string(what) + ": unsupported version");
  if (f.type != static_cast<std::uint8_t>(want)) {
    throw CodecError(std::string(what) + ": wrong record type");
  }
  return f;
}

void write_tree_node(Writer& w, const abe::AccessTree::Node& node) {
  w.u32(static_cast<std::uint32_t>(node.threshold));
  if (node.is_leaf()) {
    w.u8(1);
    w.str(node.leaf->question);
    w.str(node.leaf->answer);
    w.u8(node.leaf->perturbed ? 1 : 0);
    return;
  }
  w.u8(0);
  if (node.children.size() > kMaxTreeChildren) throw CodecError("access tree: fan-out too large");
  w.u32(static_cast<std::uint32_t>(node.children.size()));
  for (const auto& child : node.children) write_tree_node(w, child);
}

abe::AccessTree::Node read_tree_node(Reader& r, std::size_t depth) {
  if (depth > kMaxTreeDepth) throw CodecError("access tree: too deep");
  abe::AccessTree::Node node;
  node.threshold = r.u32();
  const std::uint8_t is_leaf = r.u8();
  if (is_leaf > 1) throw CodecError("access tree: bad leaf flag");
  if (is_leaf == 1) {
    abe::LeafAttribute leaf;
    leaf.question = r.str();
    leaf.answer = r.str();
    const std::uint8_t perturbed = r.u8();
    if (perturbed > 1) throw CodecError("access tree: bad perturbed flag");
    leaf.perturbed = perturbed == 1;
    node.leaf = std::move(leaf);
    return node;
  }
  const std::uint32_t children = r.u32();
  if (children > kMaxTreeChildren) throw CodecError("access tree: fan-out too large");
  // A child costs >= 9 bytes on the wire; an inflated count cannot reserve
  // more memory than the input could actually contain.
  if (std::size_t{children} * 9 > r.remaining()) throw CodecError("access tree: truncated");
  node.children.reserve(children);
  for (std::uint32_t i = 0; i < children; ++i) {
    node.children.push_back(read_tree_node(r, depth + 1));
  }
  return node;
}

void write_tree_payload(Writer& w, const abe::AccessTree& tree) {
  write_tree_node(w, tree.root());
}

abe::AccessTree read_tree_payload(Reader& r) {
  // AccessTree(Node) revalidates thresholds/fan-out, so a decoded tree obeys
  // the same invariants as a constructed one.
  return abe::AccessTree(read_tree_node(r, 0));
}

}  // namespace

// ------------------------------------------------------------- envelopes

Bytes encode_envelope(const Envelope& env) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(env.op));
  w.u8(env.space);
  w.u64(env.seq);
  w.str(env.id);
  w.blob(env.value);
  const Bytes payload = w.take();
  return frame(static_cast<std::uint8_t>(RecordType::kEnvelope), payload);
}

Envelope decode_envelope_payload(const Frame& f) {
  if (f.version != kWireVersion) throw CodecError("envelope: unsupported version");
  if (f.type != static_cast<std::uint8_t>(RecordType::kEnvelope)) {
    throw CodecError("envelope: wrong record type");
  }
  Reader r(f.payload);
  Envelope env;
  const std::uint8_t op = r.u8();
  if (op < 1 || op > 3) throw CodecError("envelope: bad op");
  env.op = static_cast<Envelope::Op>(op);
  env.space = r.u8();
  env.seq = r.u64();
  env.id = r.str();
  env.value = r.blob();
  r.expect_done("envelope");
  return env;
}

Envelope decode_envelope(std::span<const std::uint8_t> data) {
  const Frame f = unframe(data);
  return decode_envelope_payload(f);
}

// ------------------------------------------------------- protocol objects

Bytes encode_c1_puzzle(const core::Puzzle& puzzle) {
  Writer w;
  w.str(puzzle.url);
  w.u64(puzzle.threshold);
  w.blob(puzzle.puzzle_key);
  w.u32(static_cast<std::uint32_t>(puzzle.entries.size()));
  for (const core::PuzzleEntry& e : puzzle.entries) {
    w.str(e.question);
    w.blob(e.answer_hash);
    w.blob(e.blinded_share);
  }
  w.blob(puzzle.sharer_public_key);
  w.blob(puzzle.signature);
  const Bytes payload = w.take();
  return frame(static_cast<std::uint8_t>(RecordType::kC1Puzzle), payload);
}

core::Puzzle decode_c1_puzzle(std::span<const std::uint8_t> data) {
  const Frame f = checked_unframe(data, RecordType::kC1Puzzle, "c1 puzzle");
  Reader r(f.payload);
  core::Puzzle p;
  p.url = r.str();
  p.threshold = r.u64();
  p.puzzle_key = r.blob();
  const std::uint32_t n = r.u32();
  // Each entry costs >= 12 bytes of length prefixes alone.
  if (std::size_t{n} * 12 > r.remaining()) throw CodecError("c1 puzzle: truncated entries");
  p.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::PuzzleEntry e;
    e.question = r.str();
    e.answer_hash = r.blob();
    e.blinded_share = r.blob();
    p.entries.push_back(std::move(e));
  }
  p.sharer_public_key = r.blob();
  p.signature = r.blob();
  r.expect_done("c1 puzzle");
  return p;
}

Bytes encode_access_tree(const abe::AccessTree& tree) {
  Writer w;
  write_tree_payload(w, tree);
  const Bytes payload = w.take();
  return frame(static_cast<std::uint8_t>(RecordType::kAccessTree), payload);
}

abe::AccessTree decode_access_tree(std::span<const std::uint8_t> data) {
  const Frame f = checked_unframe(data, RecordType::kAccessTree, "access tree");
  Reader r(f.payload);
  abe::AccessTree tree = read_tree_payload(r);
  r.expect_done("access tree");
  return tree;
}

Bytes encode_c2_file_set(const core::Construction2::UploadResult& files) {
  Writer w;
  w.u64(files.threshold);
  {
    Writer tree_writer;
    write_tree_payload(tree_writer, files.perturbed_tree);
    const Bytes tree_payload = tree_writer.take();
    w.blob(tree_payload);
  }
  w.blob(files.public_key);
  w.blob(files.master_key);
  w.blob(files.ciphertext);
  const Bytes payload = w.take();
  return frame(static_cast<std::uint8_t>(RecordType::kC2FileSet), payload);
}

core::Construction2::UploadResult decode_c2_file_set(std::span<const std::uint8_t> data) {
  const Frame f = checked_unframe(data, RecordType::kC2FileSet, "c2 file set");
  Reader r(f.payload);
  core::Construction2::UploadResult files;
  files.threshold = r.u64();
  {
    Reader tree_reader(r.blob_view());
    files.perturbed_tree = read_tree_payload(tree_reader);
    tree_reader.expect_done("c2 file set tree");
  }
  files.public_key = r.blob();
  files.master_key = r.blob();
  files.ciphertext = r.blob();
  r.expect_done("c2 file set");
  return files;
}

Bytes encode_observation(std::string_view channel, std::span<const std::uint8_t> data) {
  Writer w;
  w.str(channel);
  w.blob(data);
  const Bytes payload = w.take();
  return frame(static_cast<std::uint8_t>(RecordType::kObservation), payload);
}

ObservationRecord decode_observation(std::span<const std::uint8_t> data) {
  const Frame f = checked_unframe(data, RecordType::kObservation, "observation");
  Reader r(f.payload);
  ObservationRecord rec;
  rec.channel = r.str();
  rec.data = r.blob();
  r.expect_done("observation");
  return rec;
}

Bytes encode_dh_blob(std::string_view url, std::span<const std::uint8_t> blob) {
  Writer w;
  w.str(url);
  w.blob(blob);
  const Bytes payload = w.take();
  return frame(static_cast<std::uint8_t>(RecordType::kDhBlob), payload);
}

DhBlobRecord decode_dh_blob(std::span<const std::uint8_t> data) {
  const Frame f = checked_unframe(data, RecordType::kDhBlob, "dh blob");
  Reader r(f.payload);
  DhBlobRecord rec;
  rec.url = r.str();
  rec.blob = r.blob();
  r.expect_done("dh blob");
  return rec;
}

}  // namespace sp::codec
