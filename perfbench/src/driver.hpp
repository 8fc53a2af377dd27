// The benchmark driver: set-up, an open-loop timed phase against a durable
// Session, the correctness oracle, restart, and (traced mode) the replay that
// attributes time to layers.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ec/params.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  /// Offered load run before the timed phase and not measured, so the phase
  /// starts from a running system: the stream's first seconds were often
  /// the slowest of a run.
  double settle_s = 5;
  bool trace = false;
  std::string workdir;  ///< durable directories are created (and removed) here
  sp::ec::ParamPreset preset = sp::ec::ParamPreset::kFull;
  int setups = 3;    ///< set-up repetitions; setup_s is their median
  int restarts = 9;  ///< reopen repetitions; restart_s is their median
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = derived)
  std::string note;         ///< e.g. which percentile a tail is
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string violation;       ///< first oracle violation; empty when correct
  std::string invalid_reason;  ///< set when the run must not be reported
  std::vector<Metric> metrics; ///< end-to-end (untraced) or per-layer (traced)
  std::vector<Metric> extras;  ///< workload-specific figures, artifact only
  std::map<std::string, std::string> meta;
  double offered_rate = 0;   ///< ops per second offered
  double achieved_rate = 0;  ///< ops per second completed
  double cache_hit_share = 0;  ///< serve-cache hits / lookups in the timed phase

  [[nodiscard]] bool correct() const { return violation.empty(); }
};

/// Thrown when set-up itself sees a wrong grant or wrong bytes.
struct OracleViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs one benchmark. Throws OracleViolation as above, and
/// std::runtime_error on infrastructure errors.
Report run_benchmark(const Options& options);

/// Tolerance of the reconciliation check: the traced run fails when
/// trace.coverage falls outside [kCoverageMin, kCoverageMax].
inline constexpr double kCoverageMin = 0.5;
inline constexpr double kCoverageMax = 1.5;

}  // namespace perfbench
