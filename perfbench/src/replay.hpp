// Traced replay: re-issues the steps of a sampled request through each
// module's public functions, on the request's real inputs, and times every
// call from the benchmark's own code. Spans nest by call: a step's self time
// is its duration minus the children timed beside it at the same sizes. It
// is reported as measured, so timing noise can make a tiny one negative.
//
// The replay never changes the state the workload measures: it reads the SP
// record and DH blob, but calls no observe/store/remove, and it signs and
// encrypts with benchmark-owned keys.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "core/verify_queue.hpp"
#include "sss/shamir.hpp"
#include "stream.hpp"

namespace perfbench {

/// How the benchmark saw an access, from its own history of the post: the
/// first grant after a share or refresh is a cache miss.
enum class AccessClass { kC1Hit, kC1Miss, kC2Hit, kC2Miss, kDenied, kRevoked };
const char* class_name(AccessClass cls);

/// Thread-safe named samples (value in the unit the name carries).
class LayerSamples {
 public:
  void add(const std::string& name, double value);
  [[nodiscard]] std::map<std::string, std::vector<double>> snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
};

class Replayer {
 public:
  Replayer(sp::core::Session& session, std::uint64_t seed);

  /// Receiver path of one access as the Session ran it (`attempts` serving
  /// attempts, class `cls`). Returns the summed time of the replayed steps
  /// that lie on the Session's path, in ms.
  double access(const std::string& post_id, std::uint32_t post, const PostInfo& info,
                const sp::core::Knowledge& knowledge, AccessClass cls, int attempts,
                LayerSamples& out);

  /// Sharer pipeline of a share or refresh of `object` (upload, sign,
  /// serialize). Returns the replayed path time in ms.
  double share(std::uint32_t post, const PostInfo& info, const sp::crypto::Bytes& object,
               LayerSamples& out);

  /// Field, curve and pairing calls at the preset's sizes.
  void primitives(LayerSamples& out);

  /// Makes the twin of a C2 post (and its DEM key) ahead of a traced phase,
  /// so the replay inside the phase only re-runs the requests' own steps.
  void prepare(std::uint32_t post, const PostInfo& info, LayerSamples& out);

 private:
  /// Benchmark-side copy of a C2 post, uploaded from the post's real object
  /// and context: the receiver-side CP-ABE inputs (PK, MK, CT') are not
  /// readable from the hosts by post id.
  struct C2Twin {
    sp::core::Construction2::UploadResult files;
  };
  std::shared_ptr<const C2Twin> twin(std::uint32_t post, const PostInfo& info, LayerSamples& out);
  sp::crypto::Bytes dem_key(std::uint32_t post, const PostInfo& info);
  double c1_access(const std::string& post_id, const sp::core::Knowledge& knowledge,
                   AccessClass cls, int attempts, LayerSamples& out);
  double c2_access(const std::string& post_id, std::uint32_t post, const PostInfo& info,
                   const sp::core::Knowledge& knowledge, AccessClass cls, int attempts,
                   LayerSamples& out);
  /// CP-ABE receiver pipeline (deserialize, reconstruct, keygen, decrypt,
  /// open) with every step timed; returns the Construction2::access time.
  double c2_full_access(const C2Twin& twin, const sp::core::Knowledge& knowledge,
                        LayerSamples& out);
  double verify_handoff(const std::function<void()>& check_set, LayerSamples& out);
  sp::crypto::Drbg rng(const std::string& label);

  sp::core::Session& session_;
  std::uint64_t seed_;
  sp::sig::Schnorr schnorr_;
  sp::sig::KeyPair keys_;
  sp::sss::Shamir shamir_;
  sp::core::VerifyQueue queue_;  ///< bench-owned: times the hand-off

  std::mutex mutex_;
  std::uint64_t draws_ = 0;
  std::map<std::uint32_t, std::shared_ptr<const C2Twin>> twins_;
  std::map<std::uint32_t, sp::crypto::Bytes> dem_keys_;
  LayerSamples discard_;  ///< samples of set-up work that is on no path
};

}  // namespace perfbench
