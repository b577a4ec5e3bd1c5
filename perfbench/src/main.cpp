// perfbench — the repository benchmark program.
//
//   perfbench --workload suite_cold|serve_warm|drift_rotor --seed N
//             --seconds S --trace 0|1 --digests FILE [--trace-out FILE]
//             [--commit ID] [--tiny]
//   perfbench --pin FILE      (re-pin the modeled digests from this build)
//
// Prints a fingerprint line, one line per metric (name, value, unit, and
// the percentile or base beside it), and as the last line one JSON object
// {"correct","attempted","failed","metrics"}. The untraced run reports the
// end-to-end metrics, the traced run (--trace 1) the per-layer metrics.
// Exits 1 when any op failed, 2 on usage or set-up errors.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Metric;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "suite_cold|serve_warm|drift_rotor --seed N --seconds S "
               "--trace 0|1 --digests FILE [--trace-out FILE] [--commit ID] "
               "[--tiny]\n       perfbench --pin FILE\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_metric(const Metric& m) {
  std::printf("metric %-28s %16.6f %-9s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

std::vector<Metric> end_to_end(const perfbench::WorkloadResult& r) {
  using perfbench::median;
  const perfbench::Tail tail = perfbench::tail_of(r.op_ms);
  std::vector<Metric> m;
  m.push_back({"setup_s", median(r.setup_s), "s",
               "median of " + std::to_string(r.setup_s.size()) + " set-ups"});
  m.push_back({"throughput_ops_s",
               r.timed_s > 0.0 ? static_cast<double>(r.op_ms.size()) / r.timed_s
                               : 0.0,
               "1/s",
               std::to_string(r.op_ms.size()) + " ops in " +
                   std::to_string(r.timed_s) + " s"});
  m.push_back({"latency_p50_ms", median(r.op_ms), "ms",
               "n=" + std::to_string(r.op_ms.size())});
  m.push_back({"latency_tail_ms", tail.value, "ms", perfbench::describe(tail)});
  m.push_back({"modeled_speedup", r.modeled_speedup, "x", "modeled, exact"});
  m.push_back({"peak_rss_mb", perfbench::peak_rss_mb(), "MB", ""});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--digests") {
      opt.digests = v;
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--pin") {
      try {
        perfbench::pin_digests(v);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
      }
      return 0;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (opt.digests.empty()) return usage("--digests is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::WorkloadFn run = nullptr;
  if (opt.workload == "suite_cold") run = perfbench::run_suite_cold;
  if (opt.workload == "serve_warm") run = perfbench::run_serve_warm;
  if (opt.workload == "drift_rotor") run = perfbench::run_drift_rotor;
  if (run == nullptr) return usage(("unknown workload " + opt.workload).c_str());

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::printf("fingerprint: nproc=%ld compiler=\"%s\" build=%s commit=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER,
              build_type.c_str(), commit.c_str());
  if (!opt.trace && build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report end-to-end numbers from a "
                 "%s build (configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 build_type.c_str());
    return 2;
  }
  std::printf("workload: %s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? " tiny" : "");

  perfbench::WorkloadResult r;
  try {
    r = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  for (const std::string& note : r.notes) std::printf("note: %s\n", note.c_str());
  std::printf("schedule: %016llx\ndigests: %016llx\n",
              static_cast<unsigned long long>(r.schedule_hash),
              static_cast<unsigned long long>(r.digest_hash));
  if (!r.op_ms.empty()) {
    std::vector<double> sorted = r.op_ms;
    std::sort(sorted.begin(), sorted.end());
    std::printf("latency deciles ms:");
    for (int d = 0; d <= 10; ++d)
      std::printf(" %.3f", sorted[(sorted.size() - 1) * d / 10]);
    std::printf("\n");
  }
  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  // Reported on every run but not in the JSON metrics: it is 0 whenever the
  // run is correct, and the result line carries attempted/failed anyway.
  print_metric({"failed_ratio",
                r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted
                                : 1.0,
                "ratio",
                std::to_string(r.failed) + "/" + std::to_string(r.attempted) +
                    " ops"});

  const std::vector<Metric> metrics = opt.trace ? r.layers : end_to_end(r);
  std::string json;
  for (const Metric& m : metrics) {
    print_metric(m);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (json.empty() ? "" : ", ") + std::string("\"") +
            json_escape(m.name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  const bool correct = r.attempted > 0 && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed, json.c_str());
  return correct ? 0 : 1;
}
