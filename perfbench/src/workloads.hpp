// Pieces shared by the workload implementations.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common.hpp"
#include "digest.hpp"
#include "jit/observer.hpp"
#include "jit/specializer.hpp"
#include "server/request.hpp"
#include "support/rng.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "vm/interpreter.hpp"

namespace perfbench {

/// Set-up repeats at least this often, and until it has taken
/// kSetupSeconds in total (cheap set-ups repeat more), capped at
/// kSetupMaxRepeats; setup_s reports the median.
inline constexpr int kSetupRepeats = 3;
inline constexpr double kSetupSeconds = 1.0;
inline constexpr int kSetupMaxRepeats = 64;

/// An application ready to specialize: built, profiled on its train data
/// set, with the ref-set call the adapted binary is checked on.
struct AppInput {
  jx::apps::App app;
  std::shared_ptr<const jx::vm::Profile> profile;
  std::vector<RefRun> refs;
};

/// The reference specializer configuration: defaults, strictly serial.
[[nodiscard]] inline jx::jit::SpecializerConfig serial_config() {
  jx::jit::SpecializerConfig cfg;
  cfg.jobs = 1;
  return cfg;
}

/// A seeded shuffle of 0..n-1 (Fisher-Yates).
[[nodiscard]] inline std::vector<std::size_t> permutation(
    std::size_t n, jx::support::Xoshiro256& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

/// The workload's application list: all registered apps (classic + micro),
/// or a small fixed subset at tiny scale.
[[nodiscard]] std::vector<std::string> suite_names(bool tiny);

/// Builds and train-profiles `names`, with a `vm.run` span per profiling
/// run when `tracer` is set.
[[nodiscard]] std::vector<AppInput> build_inputs(
    const std::vector<std::string>& names, Tracer* tracer,
    LayerCounts* counts);

/// Pins the drift rotor's candidates (hardware cycles, modeled CAD seconds).
void pin_rotor_digests(PinnedDigests& pinned);

/// Runs `setup` repeatedly (once when traced or tiny), appending each wall
/// time to `out.setup_s`; the last repetition's state is kept.
template <typename T>
T repeat_setup(const Options& opt, WorkloadResult& out,
               const std::function<T()>& setup) {
  const bool once = opt.trace || opt.tiny;
  T state{};
  double total_s = 0.0;
  for (int r = 0; r < kSetupMaxRepeats; ++r) {
    if (r > 0 && (once || (r >= kSetupRepeats && total_s >= kSetupSeconds)))
      break;
    Stopwatch sw;
    T next = setup();
    out.setup_s.push_back(sw.s());
    total_s += out.setup_s.back();
    state = std::move(next);
  }
  return state;
}

/// Counts CAD chains through the public pipeline hooks (installed as the
/// server's pipeline observer in traced runs). Thread-safe.
class CadCounter final : public jx::jit::PipelineObserver {
 public:
  void on_candidate_dispatched(std::uint64_t, bool speculative) override {
    ++dispatched_;
    if (speculative) ++speculative_;
  }
  void on_candidate_implemented(const std::string&, std::uint64_t,
                                const jx::cad::ImplementationResult&) override {
    ++implemented_;
  }
  void on_candidate_failed(const std::string&, std::uint64_t) override {
    ++rejected_;
  }
  void on_cache_hit(const std::string&, std::uint64_t) override { ++hits_; }

  /// Zeroes the counts; call while no request is in flight.
  void reset() {
    dispatched_ = speculative_ = implemented_ = rejected_ = hits_ = 0;
  }
  void report(LayerCounts& counts) const {
    counts.cad_dispatched = dispatched_;
    counts.cad_speculative = speculative_;
    counts.cad_implemented = implemented_;
    counts.cad_rejected = rejected_;
    counts.cad_hit_events = hits_;
  }

 private:
  std::atomic<std::uint64_t> dispatched_{0}, speculative_{0};
  std::atomic<std::uint64_t> implemented_{0}, rejected_{0}, hits_{0};
};

/// Records the server's own split of a request admitted at `admitted_us`
/// (admission -> session start -> terminal) as `server.queue` and
/// `jit.specialize` spans on the calling thread's timeline.
inline void record_server_split(Tracer& tracer, std::uint64_t op,
                                double admitted_us,
                                const jx::server::RequestOutcome& out) {
  const double started_us = admitted_us + out.queue_ms * 1e3;
  tracer.record("server.queue", op, admitted_us, started_us);
  tracer.record("jit.specialize", op, started_us,
                started_us + out.run_ms * 1e3);
}

/// CAD results the adaptation tail consumed: implemented candidates that
/// were not cache hits, plus candidates the tool flow rejected.
[[nodiscard]] std::uint64_t cad_results_used(
    const jx::jit::SpecializationResult& result);

}  // namespace perfbench
