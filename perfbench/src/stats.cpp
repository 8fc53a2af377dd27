#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::size_t window_count(double expected) {
  constexpr double kPerWindow = 500;
  return static_cast<std::size_t>(std::max(1.0, std::floor(expected / kPerWindow)));
}

double ladder_percentile(double samples, std::size_t min_beyond) {
  double chosen = 50;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    if (samples * (100.0 - p) / 100.0 + 1e-9 < static_cast<double>(min_beyond)) break;
    chosen = p;
  }
  return chosen;
}

std::string percentile_name(double percentile) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", percentile);
  return buf;
}

std::vector<bool> least_disturbed(const std::vector<double>& scores, double limit) {
  std::vector<bool> use(scores.size());
  std::size_t kept = 0;
  for (std::size_t w = 0; w < scores.size(); ++w) {
    use[w] = scores[w] <= limit;
    kept += use[w] ? 1 : 0;
  }
  const std::size_t quarter = (scores.size() + 3) / 4;
  if (kept >= quarter) return use;
  std::vector<std::size_t> order(scores.size());
  for (std::size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  use.assign(scores.size(), false);
  for (std::size_t i = 0; i < quarter; ++i) use[order[i]] = true;
  return use;
}

Windowed windowed_percentile(const std::vector<TimedSample>& samples, double span_s,
                             std::size_t windows, double percentile,
                             const std::function<bool(double, double)>& keep) {
  windows = std::max<std::size_t>(1, windows);
  std::vector<std::vector<double>> slices(windows);
  for (const TimedSample& s : samples) {
    const auto w = static_cast<std::size_t>(std::clamp(
        std::floor(s.t_s / span_s * static_cast<double>(windows)), 0.0,
        static_cast<double>(windows - 1)));
    slices[w].push_back(s.value);
  }
  std::vector<bool> use(windows, true);
  std::size_t skipped = 0;
  if (keep) {
    for (std::size_t w = 0; w < windows; ++w) {
      const double width = span_s / static_cast<double>(windows);
      use[w] = keep(width * static_cast<double>(w), width * static_cast<double>(w + 1));
      skipped += use[w] ? 0 : 1;
    }
    if (skipped == windows) {
      use.assign(windows, true);
      skipped = 0;
    }
  }
  Windowed out;
  out.skipped = skipped;
  std::vector<double> per_window;
  out.min_beyond = samples.size();
  for (std::size_t w = 0; w < windows; ++w) {
    if (!use[w] || slices[w].empty()) continue;
    out.samples += slices[w].size();
    per_window.push_back(quantile(slices[w], percentile / 100.0));
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(slices[w].size()) * (100.0 - percentile) / 100.0 + 1e-9));
    out.min_beyond = std::min(out.min_beyond, beyond);
  }
  out.windows = per_window.size();
  out.value = median(per_window);
  return out;
}

}  // namespace perfbench
