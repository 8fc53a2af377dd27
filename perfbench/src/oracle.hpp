// Correctness oracle. Every operation of every run is judged against the
// post's write history:
//   * a grant needs m >= k on a post that is not revoked, and the granted
//     bytes must equal the last shared or refreshed bytes;
//   * an access to a revoked post (m >= k) must end in a DH miss;
//   * an access whose interval overlaps a refresh or revoke of the same post
//     may see either the old or the new state.
// A wrong grant or wrong bytes is a violation (the run exits non-zero); any
// other unexpected outcome is a failure, counted in `failed`.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace perfbench {

/// One state of a post, installed by a share, refresh or revoke that ran
/// over [write_start_ns, write_end_ns].
struct PostVersion {
  sp::crypto::Bytes object;  ///< empty when revoked
  bool revoked = false;
  std::int64_t write_start_ns = 0;
  std::int64_t write_end_ns = 0;
};

/// Write history of one post. Writes to one post are serialized by the
/// benchmark (a sharer does not race their own refreshes), so the history
/// is totally ordered.
class PostHistory {
 public:
  void append(PostVersion version);
  /// Sets the write end of the last version, appended while its write ran.
  void finish_last(std::int64_t write_end_ns);
  /// Removes the last version: its write failed.
  void retract_last();
  /// Versions an access running over [start_ns, end_ns] may observe: the one
  /// current at start_ns plus every version whose write began before end_ns.
  [[nodiscard]] std::vector<PostVersion> acceptable(std::int64_t start_ns,
                                                    std::int64_t end_ns) const;
  [[nodiscard]] bool revoked_now() const;

 private:
  mutable std::mutex mutex_;
  std::vector<PostVersion> versions_;
};

struct AccessExpectation {
  std::size_t known = 0;  ///< m
  std::size_t threshold = 0;
  std::size_t questions = 0;
  bool c1 = false;
};

enum class Verdict { kOk, kFailed, kViolation };

struct Judgement {
  Verdict verdict = Verdict::kOk;
  std::string why;  ///< empty when kOk
};

/// Judges one access result against the versions it may have observed.
/// `threw` marks an access that ended in an exception.
Judgement judge_access(const AccessExpectation& expect, std::span<const PostVersion> acceptable,
                       const sp::core::AccessResult* result, bool threw);

}  // namespace perfbench
