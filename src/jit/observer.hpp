// Observer hook layer for the SpecializationPipeline.
//
// The pipeline emits typed events — phase windows with measured timings,
// per-candidate CAD progress, cache hits — instead of ad-hoc stderr prints.
// Observers may be invoked from pool workers (the per-candidate CAD
// events), so implementations must be internally synchronized; TraceObserver
// below is the mutex-guarded stderr sink that `--trace` installs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "cad/flow.hpp"

namespace jitise::jit {

/// Pipeline-global phase windows. Netlist Generation is a per-candidate
/// stage fused with Instruction Implementation on the worker that owns the
/// candidate, so it has no global window of its own: `on_candidate_netlist`
/// events fire inside the Implementation window instead.
enum class PipelinePhase { CandidateSearch, Implementation, Adaptation };

[[nodiscard]] const char* phase_name(PipelinePhase phase) noexcept;

class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;

  // -- Phase windows (emitted from the pipeline thread, never overlapping:
  //    CandidateSearch exits before Implementation enters).
  virtual void on_phase_enter(PipelinePhase /*phase*/) {}
  virtual void on_phase_exit(PipelinePhase /*phase*/, double /*real_ms*/) {}

  // -- Candidate search progress (pipeline thread, pruned-block order):
  //    one block's candidate count and its DFG + identify + estimate wall
  //    time.
  virtual void on_block_searched(std::size_t /*block_index*/,
                                 std::size_t /*candidates*/,
                                 double /*real_ms*/) {}

  // -- Per-candidate CAD events. Dispatch fires on the pipeline thread,
  //    after CandidateSearch exits and only for signatures in the final
  //    selection; netlist/implemented/failed fire on whichever worker runs
  //    the CAD chain (or the pipeline thread at jobs=1). The `speculative`
  //    flag is kept for source compatibility and is always false: nothing
  //    is dispatched before the final selection exists.
  virtual void on_candidate_dispatched(std::uint64_t /*signature*/,
                                       bool /*speculative*/) {}
  virtual void on_candidate_netlist(const std::string& /*name*/,
                                    std::uint64_t /*signature*/) {}
  virtual void on_candidate_implemented(const std::string& /*name*/,
                                        std::uint64_t /*signature*/,
                                        const cad::ImplementationResult&) {}
  virtual void on_candidate_failed(const std::string& /*name*/,
                                   std::uint64_t /*signature*/) {}

  // -- Adaptation tail (pipeline thread, selection order).
  virtual void on_cache_hit(const std::string& /*name*/,
                            std::uint64_t /*signature*/) {}

  // -- Cache persistence (pipeline thread, after the adaptation tail): the
  //    journal attached to the bitstream cache flushed `flushed_records`
  //    buffered records to disk; `compacted` reports whether the
  //    size/garbage-ratio trigger also rewrote the journal from live state.
  virtual void on_cache_journal_sync(std::size_t /*flushed_records*/,
                                     bool /*compacted*/) {}
};

/// Fans events out to a list of observers (none owned). The pipeline uses
/// one internally; it is also handy for composing observers in tests.
class ObserverList final : public PipelineObserver {
 public:
  void add(PipelineObserver* observer) {
    if (observer) observers_.push_back(observer);
  }
  [[nodiscard]] bool empty() const noexcept { return observers_.empty(); }

  void on_phase_enter(PipelinePhase phase) override {
    for (auto* o : observers_) o->on_phase_enter(phase);
  }
  void on_phase_exit(PipelinePhase phase, double real_ms) override {
    for (auto* o : observers_) o->on_phase_exit(phase, real_ms);
  }
  void on_block_searched(std::size_t block, std::size_t candidates,
                         double real_ms) override {
    for (auto* o : observers_) o->on_block_searched(block, candidates, real_ms);
  }
  void on_candidate_dispatched(std::uint64_t sig, bool speculative) override {
    for (auto* o : observers_) o->on_candidate_dispatched(sig, speculative);
  }
  void on_candidate_netlist(const std::string& name,
                            std::uint64_t sig) override {
    for (auto* o : observers_) o->on_candidate_netlist(name, sig);
  }
  void on_candidate_implemented(const std::string& name, std::uint64_t sig,
                                const cad::ImplementationResult& hw) override {
    for (auto* o : observers_) o->on_candidate_implemented(name, sig, hw);
  }
  void on_candidate_failed(const std::string& name,
                           std::uint64_t sig) override {
    for (auto* o : observers_) o->on_candidate_failed(name, sig);
  }
  void on_cache_hit(const std::string& name, std::uint64_t sig) override {
    for (auto* o : observers_) o->on_cache_hit(name, sig);
  }
  void on_cache_journal_sync(std::size_t flushed, bool compacted) override {
    for (auto* o : observers_) o->on_cache_journal_sync(flushed, compacted);
  }

 private:
  std::vector<PipelineObserver*> observers_;
};

/// The default `--trace` sink: one line per event of interest, written to a
/// FILE* under an internal mutex so lines from concurrent CAD workers never
/// interleave mid-line.
class TraceObserver final : public PipelineObserver {
 public:
  explicit TraceObserver(std::FILE* sink = stderr) : sink_(sink) {}

  void on_phase_exit(PipelinePhase phase, double real_ms) override;
  void on_block_searched(std::size_t block, std::size_t candidates,
                         double real_ms) override;
  void on_candidate_implemented(const std::string& name, std::uint64_t sig,
                                const cad::ImplementationResult& hw) override;
  void on_candidate_failed(const std::string& name,
                           std::uint64_t sig) override;
  void on_cache_journal_sync(std::size_t flushed, bool compacted) override;

 private:
  std::mutex mu_;
  std::FILE* sink_;
};

}  // namespace jitise::jit
