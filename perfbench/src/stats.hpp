// Order statistics used by the report. Latency metrics are taken per time
// window and the median over windows is reported, so a short disturbance of
// the host moves one window, not the figure.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Windows a phase is cut into for a metric expecting `expected` samples:
/// as many as keep at least 500 expected samples each (and so fewer than
/// 1000, which makes the ladder's tail p90), at least one.
std::size_t window_count(double expected);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that keeps
/// at least `min_beyond` of `samples` beyond it.
double ladder_percentile(double samples, std::size_t min_beyond = 10);

/// "p99", "p99.9", ...
std::string percentile_name(double percentile);

/// Which of `scores.size()` windows to use: those scoring at most `limit`,
/// or, when fewer than a quarter of them do, the quarter with the lowest
/// scores (the earlier window first on a tie).
std::vector<bool> least_disturbed(const std::vector<double>& scores, double limit);

struct TimedSample {
  double t_s = 0;  ///< position in the phase, seconds from its start
  double value = 0;
};

struct Windowed {
  double value = 0;            ///< median over windows of each window's percentile
  std::size_t samples = 0;     ///< samples in the windows used
  std::size_t windows = 0;     ///< windows used
  std::size_t skipped = 0;     ///< windows left out by `keep`
  std::size_t min_beyond = 0;  ///< fewest samples beyond the percentile in a window
};

/// Cuts [0, span_s) into `windows` equal slices, takes `percentile` (0..100)
/// in each non-empty slice that `keep(t0_s, t1_s)` accepts, and returns
/// their median. When `keep` accepts no slice, every slice is used.
Windowed windowed_percentile(const std::vector<TimedSample>& samples, double span_s,
                             std::size_t windows, double percentile,
                             const std::function<bool(double, double)>& keep = {});

}  // namespace perfbench
