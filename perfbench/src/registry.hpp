// Reads the program's own metrics registry through its Prometheus text
// exposition, so the benchmark needs no hook into src/. Counts over a phase
// are the difference of two snapshots.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

class RegistrySnapshot {
 public:
  /// Snapshot of sp::obs::MetricsRegistry::global().
  static RegistrySnapshot take();
  /// Parses Prometheus text (exposed for the self-tests).
  static RegistrySnapshot parse(const std::string& text);

  /// Sum of every sample of `name` (a series name such as
  /// "sp_storage_fsync_ms_count") whose labels contain all of `labels`
  /// (each written as key="value"). nullopt when no such series exists.
  [[nodiscard]] std::optional<double> sum(const std::string& name,
                                          const std::vector<std::string>& labels = {}) const;

 private:
  std::map<std::string, double> samples_;  ///< full series text -> value
};

/// after - before for one series sum; nullopt when the family is absent.
std::optional<double> delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                            const std::string& name, const std::vector<std::string>& labels = {});

}  // namespace perfbench
