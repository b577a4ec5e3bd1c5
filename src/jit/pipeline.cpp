// SpecializationPipeline — composes the four ASIP-SP stages and submits the
// per-candidate CAD fan-out as tasks on a work-stealing pool.
//
// Concurrency model: search runs serially on the pipeline thread and ends
// in one final selection; only then is CAD dispatched, and only for that
// selection. Every CAD result is keyed by candidate *signature* and written
// into a pre-created slot; dispatch (slot creation, dedup, cache probing)
// happens only on the pipeline thread, and workers write only into their
// own slot. The pool is borrowed when the caller owns a long-lived one (the
// server's shared pool); a direct call with `jobs > 1` gets a run-scoped
// private pool.
#include "jit/pipeline.hpp"

#include <optional>
#include <unordered_map>

#include "jit/cache_io.hpp"
#include "support/stopwatch.hpp"
#include "support/work_stealing_pool.hpp"

namespace jitise::jit {

namespace {

/// The pre-refactor naming scheme for selected candidates, kept verbatim so
/// registry contents and reports stay byte-identical across the refactor.
std::string candidate_name(const ir::Module& module,
                           const ise::Candidate& cand, std::size_t k) {
  return "ci_" + module.name + "_f" + std::to_string(cand.function) + "_b" +
         std::to_string(cand.block) + "_" + std::to_string(k);
}

}  // namespace

SpecializationResult SpecializationPipeline::run(const ir::Module& module,
                                                 const vm::Profile& profile) {
  hwlib::CircuitDb db;
  PipelineObserver& obs = observers_;

  const unsigned jobs = config_.jobs != 0
                            ? config_.jobs
                            : support::WorkStealingPool::default_workers();
  const bool hardware = config_.implement_hardware;
  const bool parallel_cad = hardware && jobs > 1;

  SearchArtifact art;
  search_.run(module, profile, db, obs, art, estimates_);

  std::vector<std::string> names(art.selection.chosen.size());
  for (std::size_t k = 0; k < names.size(); ++k)
    names[k] = candidate_name(
        module, art.scored[art.selection.chosen[k]].candidate, k);

  // The Phase 2+3 chain for selection position `k`: netlist generation
  // plus the CAD flow under the candidate's canonical name.
  const auto cad_chain = [&](std::size_t k) {
    const std::size_t idx = art.selection.chosen[k];
    return implement_.run(
        netlist_.run(*art.graphs[art.graph_of[idx]], art.scored[idx].candidate,
                     db, names[k], obs),
        obs);
  };

  // Lifetime choreography, outermost first: tasks reference the artifact's
  // graphs and the slots, so both must outlive every task. `cad_group`'s
  // destructor waits for this run's CAD tasks (the unwind guarantee when
  // the pool is borrowed and lives on); a private pool is declared last, so
  // its draining destructor runs while everything tasks touch is alive.
  // Slots are sized up front, so their addresses never move.
  std::vector<ImplementationArtifact> slots(art.selection.chosen.size());
  std::unordered_map<std::uint64_t, ImplementationArtifact*> by_sig;
  support::TaskGroup cad_group;
  std::optional<support::WorkStealingPool> owned;

  if (hardware) {
    // Stage boundary: a request cancelled during (or right after) search
    // stops before committing to the CAD fan-out.
    config_.cancel.check();
    obs.on_phase_enter(PipelinePhase::Implementation);
    support::Stopwatch impl_timer;
    support::WorkStealingPool* pool = executor_;
    // Dispatches the chain for every selected signature not already covered
    // (cache-resident, or a duplicate of an earlier position). Runs inline
    // with a serial config (jobs=1).
    for (std::size_t k = 0; k < art.selection.chosen.size(); ++k) {
      const std::uint64_t sig = art.scored[art.selection.chosen[k]].signature;
      if (by_sig.count(sig) != 0) continue;
      if (cache_ != nullptr && cache_->contains(sig)) continue;
      ImplementationArtifact* slot = &slots[k];
      by_sig.emplace(sig, slot);
      obs.on_candidate_dispatched(sig, /*speculative=*/false);
      auto task = [&cad_chain, k, slot] { *slot = cad_chain(k); };
      if (parallel_cad) {
        // A private pool starts on the first real dispatch, so an
        // all-cache-hit run spawns no threads.
        if (pool == nullptr) pool = &owned.emplace(jobs);
        pool->submit(cad_group, std::move(task));
      } else {
        task();
      }
    }
    if (parallel_cad) cad_group.wait();
    obs.on_phase_exit(PipelinePhase::Implementation, impl_timer.elapsed_ms());
  }

  // Stage boundary: last check before the order-sensitive serial tail (the
  // tail re-checks between candidates, never mid-mutation).
  config_.cancel.check();

  const AdaptationStage::ImplLookupFn lookup =
      [&](std::uint64_t sig) -> const ImplementationArtifact* {
    const auto it = by_sig.find(sig);
    return it == by_sig.end() ? nullptr : it->second;
  };
  SpecializationResult result =
      adapt_.run(module, profile, art, names, lookup, cad_chain, obs);

  // Persistence tail: the adaptation stage just populated the cache, so any
  // attached journal has buffered records — flush them (and compact when
  // the size/garbage trigger fires) so a crash between specializer runs
  // never loses the bitstreams this run paid for.
  if (cache_ != nullptr && config_.sync_cache_journal) {
    if (CacheJournal* journal = cache_->journal()) {
      const std::size_t flushed = journal->sync();
      const bool compacted = journal->maybe_compact(*cache_);
      obs.on_cache_journal_sync(flushed, compacted);
    }
  }
  return result;
}

}  // namespace jitise::jit
