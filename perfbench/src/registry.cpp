#include "registry.hpp"

#include <sstream>

#include "obs/metrics.hpp"

namespace perfbench {

RegistrySnapshot RegistrySnapshot::take() {
  return parse(sp::obs::MetricsRegistry::global().to_prometheus());
}

RegistrySnapshot RegistrySnapshot::parse(const std::string& text) {
  RegistrySnapshot snap;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    try {
      snap.samples_[line.substr(0, space)] = std::stod(line.substr(space + 1));
    } catch (const std::exception&) {
      // Not a sample line; the exposition format has none such today.
    }
  }
  return snap;
}

std::optional<double> RegistrySnapshot::sum(const std::string& name,
                                            const std::vector<std::string>& labels) const {
  std::optional<double> total;
  for (auto it = samples_.lower_bound(name); it != samples_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, name.size(), name) != 0) break;
    if (key.size() != name.size() && key[name.size()] != '{') continue;
    bool match = true;
    for (const std::string& label : labels) {
      if (key.find(label) == std::string::npos) match = false;
    }
    if (match) total = total.value_or(0) + it->second;
  }
  return total;
}

std::optional<double> delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                            const std::string& name, const std::vector<std::string>& labels) {
  const std::optional<double> a = after.sum(name, labels);
  if (!a) return std::nullopt;
  return *a - before.sum(name, labels).value_or(0);
}

}  // namespace perfbench
