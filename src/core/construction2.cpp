#include "core/construction2.hpp"

#include <stdexcept>

#include "core/verify_queue.hpp"
#include "crypto/modes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sp::core {

namespace {

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t get_u32(std::span<const std::uint8_t> data, std::size_t& off) {
  if (off + 4 > data.size()) throw std::invalid_argument("Construction2: truncated");
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
  if (off + len > data.size()) throw std::invalid_argument("Construction2: truncated blob");
  Bytes blob(data.begin() + static_cast<std::ptrdiff_t>(off),
             data.begin() + static_cast<std::ptrdiff_t>(off + len));
  off += len;
  return blob;
}

}  // namespace

Construction2::Construction2(const ec::Curve& curve) : scheme_(curve) {}

std::size_t Construction2::UploadResult::sp_upload_size() const {
  return perturbed_tree.serialize().size() + public_key.size() + master_key.size() + 8;
}

Construction2::UploadResult Construction2::upload(std::span<const std::uint8_t> object,
                                                  const Context& ctx, std::size_t k,
                                                  crypto::Drbg& rng) const {
  if (ctx.size() < 2) {
    // Matches the paper's observation that "CP-ABE does not support (1,1)":
    // a one-leaf tree is legal in our tree code, but the paper's evaluation
    // starts at N = 2; we enforce the same envelope for fidelity.
    throw std::invalid_argument("Construction2::upload: need N >= 2 context pairs");
  }
  if (k == 0 || k > ctx.size()) {
    throw std::invalid_argument("Construction2::upload: need 0 < k <= N");
  }

  // τ: height-1 tree over normalized answers.
  std::vector<std::pair<std::string, std::string>> qa;
  qa.reserve(ctx.size());
  for (const ContextPair& p : ctx.pairs()) {
    qa.emplace_back(p.question, Context::normalize_answer(p.answer));
  }
  const abe::AccessTree tau = abe::AccessTree::puzzle_policy(qa, k);

  // Per-object Setup (the paper's sharer runs cpabe-setup per share).
  auto [pk, mk] = scheme_.setup(rng);
  auto [ct, dem_key] = scheme_.encrypt_key(pk, tau, rng);

  // Perturb: the ciphertext carries τ', never τ (surveillance resistance).
  const abe::AccessTree tau_prime = tau.perturb();
  const abe::Ciphertext ct_prime = abe::CpAbe::swap_policy(std::move(ct), tau_prime);

  // Hybrid payload: CT' plus the sealed object under the KEM key.
  const Bytes iv = rng.bytes(16);
  Bytes ct_file;
  put_blob(ct_file, scheme_.serialize(ct_prime));
  put_blob(ct_file, crypto::seal(dem_key, iv, object));

  UploadResult out;
  out.perturbed_tree = tau_prime;
  out.public_key = scheme_.serialize(pk);
  out.master_key = scheme_.serialize(mk);
  out.ciphertext = std::move(ct_file);
  out.threshold = k;
  return out;
}

std::size_t Construction2::Challenge::wire_size() const {
  std::size_t size = 8;
  for (const auto& q : questions) size += 4 + q.size();
  return size;
}

Construction2::Challenge Construction2::display_puzzle(const abe::AccessTree& perturbed_tree,
                                                       std::size_t threshold) {
  Challenge ch;
  ch.threshold = threshold;
  for (const auto& [id, leaf] : perturbed_tree.leaves()) {
    ch.questions.push_back(leaf->leaf->question);
  }
  return ch;
}

std::size_t Construction2::Response::wire_size() const {
  std::size_t size = 4;
  for (const auto& h : answer_hashes) size += 4 + h.size();
  return size;
}

Construction2::Response Construction2::answer_puzzle(const Challenge& challenge,
                                                     const Knowledge& knowledge) {
  Response resp;
  for (const std::string& q : challenge.questions) {
    const auto answer = knowledge.recall(q);
    if (answer) {
      resp.answer_hashes.push_back(abe::hash_answer(Context::normalize_answer(*answer)));
    } else {
      resp.answer_hashes.push_back(abe::hash_answer("\x01\x02sp-unknown-answer\x03"));
    }
  }
  return resp;
}

std::size_t Construction2::VerifyReply::wire_size(const UploadResult& stored) const {
  if (!granted) return 1;
  // URL + PK + MK travel back to the receiver (paper: "the server gives
  // access to message.txt.cpabe, master_key, and pub_key files").
  return 1 + url.size() + stored.public_key.size() + stored.master_key.size();
}

Construction2::VerifyReply Construction2::verify(const abe::AccessTree& perturbed_tree,
                                                 std::size_t threshold,
                                                 const Challenge& challenge,
                                                 const Response& response,
                                                 const std::string& url,
                                                 VerifyQueue* queue) {
  // Protocol-shape errors stay on the caller's thread (see Construction1).
  if (response.answer_hashes.size() != challenge.questions.size()) {
    throw std::invalid_argument("Construction2::verify: response/challenge length mismatch");
  }
  std::size_t matches = 0;
  const auto check_set = [&matches, &perturbed_tree, &challenge, &response] {
    const auto leaves = perturbed_tree.leaves();
    for (std::size_t i = 0; i < challenge.questions.size(); ++i) {
      for (const auto& [id, leaf] : leaves) {
        if (leaf->leaf->question == challenge.questions[i] && leaf->leaf->perturbed &&
            crypto::ct_equal(leaf->leaf->answer, response.answer_hashes[i])) {
          ++matches;
          break;
        }
      }
    }
  };
  if (queue != nullptr) {
    VerifyQueue::Batch batch = queue->batch();
    batch.add(check_set);
    batch.wait();
  } else {
    check_set();
  }
  VerifyReply reply;
  if (matches >= threshold) {
    reply.granted = true;
    reply.url = url;
  }
  return reply;
}

std::optional<Bytes> Construction2::access(const Bytes& ciphertext_file,
                                           const Bytes& public_key_file,
                                           const Bytes& master_key_file,
                                           const Knowledge& knowledge, crypto::Drbg& rng,
                                           const abe::CpAbe::ParallelRunner& runner,
                                           Bytes* dem_key_out) const {
  abe::PublicKey pk;
  abe::MasterKey mk;
  abe::Ciphertext ct;
  Bytes envelope;
  try {
    pk = scheme_.deserialize_public_key(public_key_file);
    mk = scheme_.deserialize_master_key(master_key_file);
    std::size_t off = 0;
    ct = scheme_.deserialize_ciphertext(get_blob(ciphertext_file, off));
    envelope = get_blob(ciphertext_file, off);
    if (off != ciphertext_file.size()) return std::nullopt;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }

  // Phase histograms for the paper's receiver-side I2 decomposition
  // (Fig. 10(d)): reconstruct / keygen / decrypt are the three local phases
  // a production receiver would alert on. Registered once, process-wide.
  struct Phases {
    obs::Histogram& reconstruct;
    obs::Histogram& keygen;
    obs::Histogram& decrypt;
  };
  static Phases phases{
      obs::MetricsRegistry::global().histogram("sp_phase_latency_ms",
                                               "Per-phase serving latency",
                                               obs::Histogram::default_latency_bounds_ms(),
                                               {{"phase", "c2.reconstruct"}}),
      obs::MetricsRegistry::global().histogram("sp_phase_latency_ms", "",
                                               obs::Histogram::default_latency_bounds_ms(),
                                               {{"phase", "c2.keygen"}}),
      obs::MetricsRegistry::global().histogram("sp_phase_latency_ms", "",
                                               obs::Histogram::default_latency_bounds_ms(),
                                               {{"phase", "c2.decrypt"}}),
  };

  // The three phases are children of the caller's span (c2.access) when
  // the request is traced.
  const obs::TraceContext trace = obs::Tracer::current();

  // Reconstruct τ̂ from τ' with the receiver's normalized answers.
  obs::Span reconstruct_span(trace, "c2.reconstruct", phases.reconstruct);
  std::map<std::string, std::string> claimed;
  for (const auto& [q, a] : knowledge.answers()) claimed[q] = Context::normalize_answer(a);
  const auto [tau_hat, recovered] = ct.policy.reconstruct(claimed);
  if (recovered == 0) return std::nullopt;
  const abe::Ciphertext ct_hat = abe::CpAbe::swap_policy(std::move(ct), tau_hat);
  reconstruct_span.end();

  // KeyGen with the recovered leaf attributes (publicly known algorithm +
  // MK, per the paper).
  obs::Span keygen_span(trace, "c2.keygen", phases.keygen);
  std::vector<std::string> attrs;
  for (const auto& [id, leaf] : tau_hat.leaves()) {
    if (!leaf->leaf->perturbed) attrs.push_back(leaf->leaf->canonical());
  }
  const abe::PrivateKey sk = scheme_.keygen(mk, attrs, rng);
  keygen_span.end();

  obs::Span decrypt_span(trace, "c2.decrypt", phases.decrypt);
  const auto dem_key = scheme_.decrypt_key(pk, sk, ct_hat, runner);
  if (!dem_key) return std::nullopt;
  try {
    Bytes object = crypto::open(*dem_key, envelope);
    // Only a key that authenticated the envelope leaves this function: the
    // AES-CBC + HMAC-SHA256 envelope's tag proves it is THE object key, so
    // memoizing it is safe.
    if (dem_key_out != nullptr) *dem_key_out = *dem_key;
    return object;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

std::optional<Bytes> Construction2::open_sealed(const Bytes& ciphertext_file,
                                                std::span<const std::uint8_t> dem_key) {
  try {
    std::size_t off = 0;
    // Skip CT' (first blob) without copying it — the memoized path never
    // touches the CP-ABE body.
    const std::uint32_t ct_len = get_u32(ciphertext_file, off);
    if (off + ct_len > ciphertext_file.size()) return std::nullopt;
    off += ct_len;
    const Bytes envelope = get_blob(ciphertext_file, off);
    if (off != ciphertext_file.size()) return std::nullopt;
    return crypto::open(dem_key, envelope);
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // malformed file
  } catch (const std::runtime_error&) {
    return std::nullopt;  // envelope failed authentication
  }
}

}  // namespace sp::core
