// perfbench: end-to-end benchmark of the durable 512-bit Session.
//
//   perfbench --workload <hot_feed|fresh_posts|churn> --seed <n> --seconds <s>
//             --trace <0|1> [--workdir <dir>] [--git-sha <sha>]
//             [--source-digest <hex>]
//
// Prints every metric by name with its unit, then an artifact line (all
// metadata), then, as the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exit codes: 0 reported; 1 usage or infrastructure error; 2 oracle
// violation (wrong grant or wrong bytes); 3 invalid run (backlog grew, or
// the traced run failed reconciliation). Nothing is reported unless 0.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<perfbench::Metric>& metrics, bool detailed) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    out += (i ? ", " : "") + std::string("\"") + json_escape(m.name) + "\": {\"value\": " +
           num(m.value) + ", \"unit\": \"" + json_escape(m.unit) + "\"";
    if (detailed) {
      out += ", \"samples\": " + std::to_string(m.samples);
      if (!m.note.empty()) out += ", \"note\": \"" + json_escape(m.note) + "\"";
    }
    out += "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <hot_feed|fresh_posts|churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               why);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.workdir = ".bench_build/perfbench-run";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string command = "python3 perfbench/run.py";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--workdir") {
        opt.workdir = value;
        continue;
      } else if (flag == "--git-sha") {
        git_sha = value;
        continue;
      } else if (flag == "--source-digest") {
        source_digest = value;
        continue;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
      command += " " + flag + " " + value;
    }
  } catch (const std::exception&) {
    return usage("bad argument value");
  }
  if (opt.workload.empty()) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    report = perfbench::run_benchmark(opt);
  } catch (const perfbench::OracleViolation& e) {
    std::fprintf(stderr, "perfbench: ORACLE VIOLATION: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.meta["git_sha"] = git_sha;
  report.meta["source_digest"] = source_digest;
  report.meta["command"] = command;

  if (!report.correct()) {
    std::fprintf(stderr, "perfbench: ORACLE VIOLATION: %s\n", report.violation.c_str());
    return 2;
  }
  if (!report.invalid_reason.empty()) {
    std::fprintf(stderr, "perfbench: INVALID RUN: %s\n", report.invalid_reason.c_str());
    return 3;
  }

  std::printf("# perfbench %s: workload=%s seed=%s seconds=%s preset=%s\n", report.meta["mode"].c_str(),
              report.meta["workload"].c_str(), report.meta["seed"].c_str(),
              report.meta["seconds"].c_str(), report.meta["preset"].c_str());
  std::printf("# offered %.1f ops/s, achieved %.1f ops/s; attempted %zu, failed %zu (fail_ratio %.6f)\n",
              report.offered_rate, report.achieved_rate, report.attempted, report.failed,
              static_cast<double>(report.failed) / static_cast<double>(std::max<std::size_t>(1, report.attempted)));
  for (const auto* list : {&report.metrics, &report.extras}) {
    for (const perfbench::Metric& m : *list) {
      std::printf("%-40s %14.6f %-6s samples=%zu%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples, m.note.empty() ? "" : "  ", m.note.c_str());
    }
  }

  std::string meta = "{";
  bool first = true;
  for (const auto& [k, v] : report.meta) {
    meta += (first ? "\"" : ", \"") + json_escape(k) + "\": \"" + json_escape(v) + "\"";
    first = false;
  }
  meta += "}";
  std::printf("artifact {\"schema\": \"perfbench/1\", \"meta\": %s, \"offered_rate\": %s, "
              "\"achieved_rate\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s, "
              "\"extras\": %s}\n",
              meta.c_str(), num(report.offered_rate).c_str(), num(report.achieved_rate).c_str(),
              report.attempted, report.failed, metrics_json(report.metrics, true).c_str(),
              metrics_json(report.extras, true).c_str());
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              report.attempted, report.failed, metrics_json(report.metrics, false).c_str());
  return 0;
}
