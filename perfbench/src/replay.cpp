#include "replay.hpp"

#include <algorithm>
#include <chrono>

#include "abe/access_tree.hpp"
#include "crypto/modes.hpp"
#include "ec/pairing.hpp"

namespace perfbench {

using sp::core::Construction1;
using sp::core::Construction2;
using sp::crypto::Bytes;

namespace {

template <class F>
double timed_ms(F&& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Keeps a result alive past the timed region so the call is not elided.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Splits Construction2's ciphertext file (u32 length + CT' blob, u32
/// length + sealed envelope) and returns the envelope.
Bytes sealed_envelope(const Bytes& file) {
  const auto get_len = [&file](std::size_t off) {
    return (std::size_t{file.at(off)} << 24) | (std::size_t{file.at(off + 1)} << 16) |
           (std::size_t{file.at(off + 2)} << 8) | std::size_t{file.at(off + 3)};
  };
  const std::size_t env_off = 4 + get_len(0);
  const std::size_t env_len = get_len(env_off);
  return {file.begin() + static_cast<std::ptrdiff_t>(env_off + 4),
          file.begin() + static_cast<std::ptrdiff_t>(env_off + 4 + env_len)};
}

Bytes ciphertext_blob(const Bytes& file) {
  const std::size_t len = (std::size_t{file.at(0)} << 24) | (std::size_t{file.at(1)} << 16) |
                          (std::size_t{file.at(2)} << 8) | std::size_t{file.at(3)};
  return {file.begin() + 4, file.begin() + 4 + static_cast<std::ptrdiff_t>(len)};
}

}  // namespace

const char* class_name(AccessClass cls) {
  switch (cls) {
    case AccessClass::kC1Hit: return "c1_hit";
    case AccessClass::kC1Miss: return "c1_miss";
    case AccessClass::kC2Hit: return "c2_hit";
    case AccessClass::kC2Miss: return "c2_miss";
    case AccessClass::kDenied: return "denied";
    case AccessClass::kRevoked: return "revoked";
  }
  return "?";
}

void LayerSamples::add(const std::string& name, double value) {
  const std::lock_guard lock(mutex_);
  samples_[name].push_back(value);
}

std::map<std::string, std::vector<double>> LayerSamples::snapshot() const {
  const std::lock_guard lock(mutex_);
  return samples_;
}

Replayer::Replayer(sp::core::Session& session, std::uint64_t seed)
    : session_(session),
      seed_(seed),
      // Same generator derivation as the Session's signing keys, so every
      // signature has the Session's sizes.
      schnorr_(session.curve(), session.curve().hash_to_group(sp::crypto::to_bytes("sp-schnorr-g"))),
      shamir_(session.curve().fp()) {
  sp::crypto::Drbg key_rng("perfbench-replay-keys-" + std::to_string(seed));
  keys_ = schnorr_.keygen(key_rng);
}

sp::crypto::Drbg Replayer::rng(const std::string& label) {
  const std::lock_guard lock(mutex_);
  return sp::crypto::Drbg("perfbench-replay-" + std::to_string(seed_) + "-" + label + "-" +
                          std::to_string(draws_++));
}

double Replayer::verify_handoff(const std::function<void()>& check_set, LayerSamples& out) {
  double run_ms = 0;
  const double total_ms = timed_ms([&] {
    sp::core::VerifyQueue::Batch batch = queue_.batch();
    batch.add([&] { run_ms = timed_ms(check_set); });
    batch.wait();
  });
  out.add("core.verify_queue.run_us", run_ms * 1e3);
  out.add("core.verify_queue.wait_ms", total_ms - run_ms);
  return total_ms;
}

double Replayer::access(const std::string& post_id, std::uint32_t post, const PostInfo& info,
                        const sp::core::Knowledge& knowledge, AccessClass cls, int attempts,
                        LayerSamples& out) {
  return info.c2 ? c2_access(post_id, post, info, knowledge, cls, attempts, out)
                 : c1_access(post_id, knowledge, cls, attempts, out);
}

double Replayer::c1_access(const std::string& post_id, const sp::core::Knowledge& knowledge,
                           AccessClass cls, int attempts, LayerSamples& out) {
  const Construction1& c1 = session_.c1();
  Bytes record;
  out.add("osn.sp.record_ms", timed_ms([&] { record = session_.service_provider().record(post_id); }));
  sp::core::Puzzle puzzle;
  out.add("codec.decode_ms", timed_ms([&] { puzzle = sp::core::Puzzle::deserialize(record); }));
  out.add("codec.encode_ms", timed_ms([&] { keep(puzzle.serialize()); }));

  sp::crypto::Drbg draw_rng = rng("c1-access");
  const bool granted_class = cls == AccessClass::kC1Hit || cls == AccessClass::kC1Miss;
  // A granted request redraws challenges until one covers the receiver's
  // answers, as access_with_retries did; other classes replay each attempt.
  const int rounds = granted_class ? 8 : std::max(1, attempts);
  double path_ms = 0;
  Construction1::Challenge challenge;
  Construction1::Response response;
  Construction1::VerifyReply reply;
  for (int round = 0; round < rounds; ++round) {
    const double display_ms =
        timed_ms([&] { challenge = Construction1::display_puzzle(puzzle, draw_rng); });
    out.add("core.c1.display_ms", display_ms);
    const double answer_ms =
        timed_ms([&] { response = Construction1::answer_puzzle(challenge, knowledge); });
    const double hash_ms =
        timed_ms([&] { keep(Construction1::answer_hash("probe answer", challenge.puzzle_key)); });
    out.add("crypto.answer_hash_us", hash_ms * 1e3);
    out.add("core.c1.answer_ms",
            answer_ms - hash_ms * static_cast<double>(challenge.questions.size()));
    out.add("core.c1.verify_ms", timed_ms([&] {
              reply = Construction1::verify(puzzle, challenge, response.hashes, nullptr);
            }));
    const double handoff_ms = verify_handoff(
        [&] { keep(Construction1::verify(puzzle, challenge, response.hashes, nullptr)); }, out);
    path_ms += display_ms + answer_ms + handoff_ms;
    if (granted_class && reply.granted) break;
  }
  if (!granted_class || !reply.granted) return path_ms;

  Bytes blob;
  const double fetch_ms = timed_ms([&] {
    auto fetched = session_.storage_host().try_fetch(reply.url);
    if (fetched.ok()) blob = std::move(fetched).value();
  });
  out.add("osn.dh.fetch_ms", fetch_ms);
  path_ms += fetch_ms;
  if (blob.empty()) return path_ms;  // refreshed or revoked since the request

  if (cls == AccessClass::kC1Miss) {
    const double sig_ms = timed_ms([&] { keep(c1.verify_puzzle_signature(puzzle)); });
    const sp::ec::Point pk = schnorr_.deserialize_public(puzzle.sharer_public_key);
    const sp::sig::Signature sig = schnorr_.deserialize(puzzle.signature);
    const Bytes payload = puzzle.signed_payload();
    const double verify_ms = timed_ms([&] { keep(schnorr_.verify(pk, payload, sig)); });
    out.add("sig.verify_ms", verify_ms);
    out.add("core.c1.sig_verify_ms", sig_ms - verify_ms);
    path_ms += sig_ms;
  }

  const double access_ms =
      timed_ms([&] { keep(c1.access(puzzle, challenge, reply, knowledge, blob)); });
  // Children at the same sizes: Shamir reconstruction from k shares and the
  // object envelope's decryption.
  sp::crypto::Drbg probe_rng = rng("c1-children");
  const auto shares = shamir_.split(sp::field::Fp::random(shamir_.field(), probe_rng).value(),
                                    puzzle.threshold, puzzle.n(), probe_rng);
  const std::vector<sp::sss::Share> first_k(shares.begin(),
                                            shares.begin() + static_cast<std::ptrdiff_t>(puzzle.threshold));
  const double reconstruct_ms = timed_ms([&] { keep(shamir_.reconstruct(first_k)); });
  const Bytes key = probe_rng.bytes(32);
  const Bytes envelope = sp::crypto::seal(key, probe_rng.bytes(16), Bytes(blob.size(), 0x5a));
  const double decrypt_ms = timed_ms([&] { keep(sp::crypto::open(key, envelope)); });
  out.add("sss.reconstruct_ms", reconstruct_ms);
  out.add("crypto.sym_decrypt_us", decrypt_ms * 1e3);
  out.add("core.c1.access_ms", access_ms - reconstruct_ms - decrypt_ms);
  return path_ms + access_ms;
}

double Replayer::c2_access(const std::string& post_id, std::uint32_t post, const PostInfo& info,
                           const sp::core::Knowledge& knowledge, AccessClass cls, int attempts,
                           LayerSamples& out) {
  Bytes record;
  out.add("osn.sp.record_ms", timed_ms([&] { record = session_.service_provider().record(post_id); }));
  sp::abe::AccessTree tree = sp::abe::AccessTree::puzzle_policy({{"q", "a"}}, 1);
  out.add("codec.decode_ms", timed_ms([&] { tree = sp::abe::AccessTree::deserialize(record); }));
  out.add("codec.encode_ms", timed_ms([&] { keep(tree.serialize()); }));

  const bool granted_class = cls == AccessClass::kC2Hit || cls == AccessClass::kC2Miss;
  const int rounds = granted_class ? 1 : std::max(1, attempts);
  double path_ms = 0;
  for (int round = 0; round < rounds; ++round) {
    Construction2::Challenge challenge;
    const double display_ms =
        timed_ms([&] { challenge = Construction2::display_puzzle(tree, kThreshold); });
    out.add("core.c2.display_ms", display_ms);
    Construction2::Response response;
    const double answer_ms =
        timed_ms([&] { response = Construction2::answer_puzzle(challenge, knowledge); });
    const double hash_ms = timed_ms([&] { keep(sp::abe::hash_answer("probe answer")); });
    out.add("crypto.answer_hash_us", hash_ms * 1e3);
    out.add("core.c2.answer_ms",
            answer_ms - hash_ms * static_cast<double>(challenge.questions.size()));
    out.add("core.c2.verify_ms", timed_ms([&] {
              keep(Construction2::verify(tree, kThreshold, challenge, response, post_id, nullptr));
            }));
    const double handoff_ms = verify_handoff(
        [&] {
          keep(Construction2::verify(tree, kThreshold, challenge, response, post_id, nullptr));
        },
        out);
    path_ms += display_ms + answer_ms + handoff_ms;
  }
  if (!granted_class) return path_ms;

  const std::shared_ptr<const C2Twin> copy = twin(post, info, out);
  if (cls == AccessClass::kC2Miss) return path_ms + c2_full_access(*copy, knowledge, out);
  const Bytes key = dem_key(post, info);
  const double open_ms =
      timed_ms([&] { keep(Construction2::open_sealed(copy->files.ciphertext, key)); });
  const Bytes envelope = sealed_envelope(copy->files.ciphertext);
  const double decrypt_ms = timed_ms([&] { keep(sp::crypto::open(key, envelope)); });
  out.add("crypto.sym_decrypt_us", decrypt_ms * 1e3);
  out.add("core.c2.open_sealed_ms", open_ms - decrypt_ms);
  return path_ms + open_ms;
}

double Replayer::c2_full_access(const C2Twin& copy, const sp::core::Knowledge& knowledge,
                                LayerSamples& out) {
  const Construction2& c2 = session_.c2();
  const sp::abe::CpAbe& abe = c2.scheme();
  const auto runner = queue_.runner();
  sp::crypto::Drbg access_rng = rng("c2-access");
  const double access_ms = timed_ms([&] {
    keep(c2.access(copy.files.ciphertext, copy.files.public_key, copy.files.master_key, knowledge,
                   access_rng, runner));
  });

  // The same pipeline step by step (Construction2::access's children).
  sp::abe::PublicKey pk;
  sp::abe::MasterKey mk;
  sp::abe::Ciphertext ct;
  Bytes envelope;
  const double deserialize_ms = timed_ms([&] {
    pk = abe.deserialize_public_key(copy.files.public_key);
    mk = abe.deserialize_master_key(copy.files.master_key);
    ct = abe.deserialize_ciphertext(ciphertext_blob(copy.files.ciphertext));
    envelope = sealed_envelope(copy.files.ciphertext);
  });
  out.add("abe.deserialize_ms", deserialize_ms);

  sp::abe::Ciphertext ct_hat;
  std::vector<std::string> attrs;
  std::vector<std::pair<std::size_t, std::string>> used;  // leaf id, attribute
  const double reconstruct_ms = timed_ms([&] {
    std::map<std::string, std::string> claimed;
    for (const auto& [q, a] : knowledge.answers()) claimed[q] = sp::core::Context::normalize_answer(a);
    auto [tau_hat, recovered] = ct.policy.reconstruct(claimed);
    for (const auto& [id, leaf] : tau_hat.leaves()) {
      if (!leaf->leaf->perturbed) {
        attrs.push_back(leaf->leaf->canonical());
        used.emplace_back(id, attrs.back());
      }
    }
    ct_hat = sp::abe::CpAbe::swap_policy(ct, std::move(tau_hat));
  });
  sp::crypto::Drbg keygen_rng = rng("c2-keygen");
  sp::abe::PrivateKey sk;
  const double keygen_ms = timed_ms([&] { sk = abe.keygen(mk, attrs, keygen_rng); });
  out.add("abe.keygen_ms", keygen_ms);

  // The product decrypt_key evaluates: two terms per satisfying leaf (k of
  // them) and one for e(C, D).
  std::vector<sp::ec::Pairing::Term> terms;
  for (std::size_t i = 0; i < used.size() && i < kThreshold; ++i) {
    const auto& leaf_ct = ct_hat.leaves.at(used[i].first);
    const auto& ak = sk.attrs.at(used[i].second);
    terms.push_back({leaf_ct.cy, ak.dj, false, sp::crypto::BigInt{1}});
    terms.push_back({leaf_ct.cy_prime, ak.dj_prime, true, sp::crypto::BigInt{1}});
  }
  terms.push_back({ct_hat.c, sk.d, true, sp::crypto::BigInt{1}});
  const sp::ec::Pairing pairing(session_.curve());
  std::optional<Bytes> dem;
  const double decrypt_ms = timed_ms([&] { dem = abe.decrypt_key(pk, sk, ct_hat, runner); });
  const double multi_ms = timed_ms([&] { keep(pairing.product(terms, runner)); });
  out.add("ec.multi_pairing_ms", multi_ms);
  out.add("abe.decrypt_ms", decrypt_ms - multi_ms);
  double open_ms = 0;
  if (dem) {
    open_ms = timed_ms([&] { keep(sp::crypto::open(*dem, envelope)); });
    out.add("crypto.sym_decrypt_us", open_ms * 1e3);
  }
  out.add("core.c2.access_ms",
          access_ms - deserialize_ms - reconstruct_ms - keygen_ms - decrypt_ms - open_ms);
  return access_ms;
}

std::shared_ptr<const Replayer::C2Twin> Replayer::twin(std::uint32_t post, const PostInfo& info,
                                                       LayerSamples& out) {
  {
    const std::lock_guard lock(mutex_);
    if (const auto it = twins_.find(post); it != twins_.end()) return it->second;
  }
  share(post, info, object_bytes(seed_, post, 0), out);
  const std::lock_guard lock(mutex_);
  return twins_.at(post);
}

double Replayer::share(std::uint32_t post, const PostInfo& info, const Bytes& object,
                       LayerSamples& out) {
  sp::crypto::Drbg upload_rng = rng("upload");
  if (!info.c2) {
    const Construction1& c1 = session_.c1();
    Construction1::UploadResult result;
    const double upload_ms = timed_ms(
        [&] { result = c1.upload(object, info.context, kThreshold, kQuestions, keys_, upload_rng); });
    const double split_ms = timed_ms([&] {
      keep(shamir_.split(sp::field::Fp::random(shamir_.field(), upload_rng).value(), kThreshold,
                         kQuestions, upload_rng));
    });
    out.add("sss.split_ms", split_ms);
    out.add("core.c1.upload_ms", upload_ms - split_ms);
    result.puzzle.url = "dh://replay";
    const double sign_ms = timed_ms([&] { c1.sign_puzzle(result.puzzle, keys_); });
    const double schnorr_ms =
        timed_ms([&] { keep(schnorr_.sign(keys_, result.puzzle.signed_payload())); });
    out.add("sig.sign_ms", schnorr_ms);
    Bytes record;
    const double encode_ms = timed_ms([&] { record = result.puzzle.serialize(); });
    out.add("codec.encode_ms", encode_ms);
    return upload_ms + sign_ms + encode_ms;
  }

  const Construction2& c2 = session_.c2();
  const sp::abe::CpAbe& abe = c2.scheme();
  Construction2::UploadResult files;
  const double upload_ms =
      timed_ms([&] { files = c2.upload(object, info.context, kThreshold, upload_rng); });
  std::vector<std::pair<std::string, std::string>> qa;
  for (const auto& pair : info.context.pairs()) {
    qa.emplace_back(pair.question, sp::core::Context::normalize_answer(pair.answer));
  }
  const sp::abe::AccessTree tau = sp::abe::AccessTree::puzzle_policy(qa, kThreshold);
  std::pair<sp::abe::PublicKey, sp::abe::MasterKey> keys;
  const double setup_ms = timed_ms([&] { keys = abe.setup(upload_rng); });
  const double encrypt_ms = timed_ms([&] { keep(abe.encrypt_key(keys.first, tau, upload_rng)); });
  out.add("abe.setup_ms", setup_ms);
  out.add("abe.encrypt_ms", encrypt_ms);
  out.add("core.c2.upload_ms", upload_ms - setup_ms - encrypt_ms);
  const double encode_ms = timed_ms([&] { keep(files.perturbed_tree.serialize()); });
  out.add("codec.encode_ms", encode_ms);

  auto copy = std::make_shared<C2Twin>();
  copy->files = std::move(files);
  const std::lock_guard lock(mutex_);
  twins_.emplace(post, std::move(copy));  // the first upload of a post stays its twin
  return upload_ms + encode_ms;
}

Bytes Replayer::dem_key(std::uint32_t post, const PostInfo& info) {
  const std::shared_ptr<const C2Twin> copy = twin(post, info, discard_);
  {
    const std::lock_guard lock(mutex_);
    if (const auto it = dem_keys_.find(post); it != dem_keys_.end()) return it->second;
  }
  // One full-knowledge access yields the DEM key the cache-hit path opens
  // with; untimed, it is on no request's path.
  sp::crypto::Drbg access_rng = rng("twin-access");
  Bytes key;
  const auto opened = session_.c2().access(copy->files.ciphertext, copy->files.public_key,
                                           copy->files.master_key,
                                           sp::core::Knowledge::full(info.context), access_rng, {},
                                           &key);
  if (!opened) throw std::runtime_error("replay: twin upload does not open");
  const std::lock_guard lock(mutex_);
  return dem_keys_.emplace(post, std::move(key)).first->second;
}

void Replayer::prepare(std::uint32_t post, const PostInfo& info, LayerSamples& out) {
  share(post, info, object_bytes(seed_, post, 0), out);
  if (info.c2) keep(dem_key(post, info));
}

void Replayer::primitives(LayerSamples& out) {
  const sp::ec::Curve& curve = session_.curve();
  sp::crypto::Drbg prim_rng = rng("primitives");
  const auto& fp = curve.fp();
  for (int rep = 0; rep < 5; ++rep) {
    const sp::field::Fp a = sp::field::Fp::random_nonzero(fp, prim_rng);
    sp::field::Fp acc = sp::field::Fp::random_nonzero(fp, prim_rng);
    constexpr int kMuls = 2000;
    const double mul_ms = timed_ms([&] {
      for (int i = 0; i < kMuls; ++i) acc = acc * a;
    });
    keep(acc);
    out.add("field.fp_mul_ns", mul_ms * 1e6 / kMuls);
    out.add("field.fp_inv_us", timed_ms([&] { keep(a.inv()); }) * 1e3);

    const sp::ec::Point p = curve.random_group_element(prim_rng);
    const sp::ec::Point q = curve.random_group_element(prim_rng);
    const sp::crypto::BigInt k = sp::crypto::BigInt::random_below(
        curve.order(), [&prim_rng](std::size_t n) { return prim_rng.bytes(n); });
    out.add("ec.scalar_mul_ms", timed_ms([&] { keep(curve.mul(p, k)); }));
    const sp::ec::Pairing pairing(curve);
    out.add("ec.pairing_ms", timed_ms([&] { keep(pairing(p, q)); }));
  }
}

}  // namespace perfbench
