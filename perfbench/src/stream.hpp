// Workload definitions and the deterministic operation stream the benchmark
// replays against a Session. Everything here is a pure function of
// (workload, seed, seconds): the same arguments give the same stream, which
// the self-tests pin through digest().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "crypto/bytes.hpp"

namespace perfbench {

/// One traffic mix. The offered rate is fixed here, never derived from a
/// measurement, so every commit is driven by the same load.
struct WorkloadSpec {
  std::string name;
  double offered_rate = 0;           ///< base events per second (Poisson)
  std::uint64_t catalog_posts = 0;   ///< shared and warmed during set-up
  double c2_fraction = 0.5;          ///< posts using Construction 2
  double new_post_fraction = 0;      ///< base events that share a new post
  std::uint64_t burst_accesses = 0;  ///< friend accesses released after each new post
  double burst_gap_ms = 0;           ///< mean gap between those accesses
  /// New posts their sharer revokes, or refreshes, after the burst; one more
  /// friend access follows either.
  double revoke_share = 0;
  double refresh_share = 0;

  /// Expected access and sharer-side op counts in `seconds` of load; they
  /// fix each metric's windows and tail percentile independently of the seed.
  [[nodiscard]] double expected_accesses(double seconds) const;
  [[nodiscard]] double expected_writes(double seconds) const;
};

/// The workloads; README.md gives the reason for each.
const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument for an unknown name.
const WorkloadSpec& workload(const std::string& name);

// Shape shared by every workload.
inline constexpr std::size_t kQuestions = 5;    ///< N context pairs per post
inline constexpr std::size_t kThreshold = 3;    ///< k answers needed
inline constexpr std::size_t kObjectBytes = 2048;
inline constexpr double kDeniedShare = 0.10;    ///< receivers knowing m < k answers
inline constexpr double kZipfS = 1.1;
inline constexpr std::uint64_t kGraphUsers = 100'000;
inline constexpr std::uint64_t kGraphMaxDegree = 32;
/// New posts come from this many active sharers, which bounds the users a
/// run must register.
inline constexpr std::uint64_t kActiveSharers = 16;

enum class OpKind : std::uint8_t { kAccess, kShare, kRefresh, kRevoke };

struct Op {
  OpKind kind = OpKind::kAccess;
  std::uint32_t post = 0;        ///< index into Stream::posts
  std::uint64_t receiver = 0;    ///< graph user (access only)
  std::uint32_t known = 0;       ///< answers the receiver knows (access only)
  sp::core::Knowledge knowledge; ///< access only
  /// Base ops: due time from the phase start. Burst ops: delay after the
  /// parent share completes.
  double due_s = 0;
  std::uint32_t first_child = 0;  ///< follow-up ops in Stream::bursts
  std::uint32_t child_count = 0;
};

struct PostInfo {
  std::uint64_t sharer = 0;  ///< graph user
  bool c2 = false;
  bool in_catalog = false;
  sp::core::Context context;
};

struct Stream {
  std::vector<PostInfo> posts;
  std::vector<Op> ops;     ///< base ops, sorted by due time
  std::vector<Op> bursts;  ///< follow-ups, released after their parent share completes
  std::vector<std::uint64_t> users;                            ///< sorted, unique
  std::vector<std::pair<std::uint64_t, std::uint64_t>> friendships;  ///< unique pairs

  /// Canonical digest of every op and post (self-test determinism pin).
  [[nodiscard]] std::string digest() const;
};

/// Builds the stream for `seconds` of offered load.
Stream make_stream(const WorkloadSpec& spec, std::uint64_t seed, double seconds);

/// Object bytes of `post` after `version` refreshes (0 = first share).
sp::crypto::Bytes object_bytes(std::uint64_t seed, std::uint32_t post, std::uint32_t version);

}  // namespace perfbench
