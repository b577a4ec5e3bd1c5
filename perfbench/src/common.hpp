// Shared types of the perfbench program: options, per-workload results,
// metric records and the summary statistics every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace jitise {}
namespace perfbench {

namespace jx = jitise;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny scale for the self-check: a few ops, same code paths.
  bool tiny = false;
  std::string digests;    // pinned digest file
  std::string trace_out;  // trace-event JSON written by the traced run
};

/// One reported number. `note` is printed beside it (percentile, base).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct WorkloadResult {
  std::vector<double> setup_s;  // one sample per set-up repetition
  std::vector<double> op_ms;    // latency of every attempted op
  double timed_s = 0.0;         // wall time of the timed phase
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double modeled_speedup = 1.0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::vector<Metric> layers;         // per-layer metrics (traced run)
  std::vector<std::string> notes;     // extra report lines
  /// Hashes of the generated schedule and of every op's modeled digest,
  /// in op order (the self-check compares them across same-seed runs).
  std::uint64_t schedule_hash = 0;
  std::uint64_t digest_hash = 0;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

using WorkloadFn = WorkloadResult (*)(const Options&);
WorkloadResult run_suite_cold(const Options& opt);
WorkloadResult run_serve_warm(const Options& opt);
WorkloadResult run_drift_rotor(const Options& opt);
/// Writes the pinned digest file from the current code (the reference
/// specializer at jobs=1 on every input the workloads can generate).
void pin_digests(const std::string& path);

// --- statistics --------------------------------------------------------

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  [[nodiscard]] double s() const { return ms() / 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

[[nodiscard]] double median(std::vector<double> v);

/// The Harrell-Davis estimate of quantile `p` (0 < p < 1): a Beta-weighted
/// mean of all order statistics. Its run-to-run spread is smaller than
/// that of the single order statistic a nearest-rank quantile picks, which
/// on a few-sample tail jumps between the apps around its rank.
[[nodiscard]] double quantile_hd(std::vector<double> v, double p);

/// The highest percentile that has at least 10 samples beyond it (nearest
/// rank), with the sample count; `value` is quantile_hd at that percentile,
/// or the maximum when there are 10 samples or fewer.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> v);
/// "Harrell-Davis p98.20 of n=560, 10 beyond" — printed beside every tail
/// value.
[[nodiscard]] std::string describe(const Tail& t);

[[nodiscard]] double geomean(const std::vector<double>& v);
[[nodiscard]] double peak_rss_mb();

/// Word-wise FNV-style mixing for order-sensitive fingerprints.
struct Mix {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t w) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  void add_double(double d);
  void add_string(const std::string& s);
};

}  // namespace perfbench
