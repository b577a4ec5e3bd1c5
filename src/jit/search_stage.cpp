// Phase 1 — Candidate Search: prune -> identify -> estimate -> select.
//
// A plain serial loop on the pipeline thread: for every pruned block, build
// its DFG, identify MAXMISO / UnionMISO candidates and estimate them, then
// make ONE final selection over the whole pool. Search is a few
// milliseconds against seconds of CAD (paper Table II), so it has no
// parallel or streaming mode; the CAD fan-out is where the executor earns
// its keep.
#include "jit/pipeline.hpp"

#include <memory>
#include <utility>

#include "ise/identify.hpp"
#include "support/stopwatch.hpp"

namespace jitise::jit {

void CandidateSearchStage::run(const ir::Module& module,
                               const vm::Profile& profile, hwlib::CircuitDb& db,
                               PipelineObserver& observer, SearchArtifact& out,
                               estimation::EstimateCache* estimates) const {
  config_.cancel.check();
  observer.on_phase_enter(PipelinePhase::CandidateSearch);
  support::Stopwatch timer;

  SearchArtifact& art = out;
  art.prune = ise::prune_blocks(module, profile, config_.cpu, config_.prune);

  for (std::size_t b = 0; b < art.prune.blocks.size(); ++b) {
    // Cancellation point: between blocks, before the block touches the
    // artifact — a cancelled search leaves a consistent prefix of blocks.
    config_.cancel.check();
    support::Stopwatch block_timer;
    const ise::PrunedBlock& blk = art.prune.blocks[b];
    auto graph = std::make_unique<dfg::BlockDfg>(module.functions[blk.function],
                                                 blk.block);
    std::vector<ise::Candidate> candidates =
        config_.identify == SpecializerConfig::Identify::UnionMiso
            ? ise::find_union_misos(*graph)
            : ise::find_max_misos(*graph);
    const std::size_t graph_index = art.graphs.size();
    for (ise::Candidate& cand : candidates) {
      cand.function = blk.function;
      // Signature first: it keys the whole-candidate estimate memo (and,
      // later, the CAD-result slots), deduplicating structurally identical
      // candidates across blocks, apps and tenants.
      const std::uint64_t signature = ise::candidate_signature(*graph, cand);
      const auto est = estimation::estimate_candidate_cached(
          *graph, cand, db, config_.cpu, config_.fcm, signature, estimates);
      ise::ScoredCandidate scored;
      scored.signature = signature;
      scored.candidate = std::move(cand);
      scored.cycles_saved_total =
          est.saved_per_exec * static_cast<double>(blk.exec_count);
      scored.cycles_saved_refined =
          est.saved_per_exec_refined * static_cast<double>(blk.exec_count);
      scored.area_slices = est.area_slices;
      art.scored.push_back(std::move(scored));
      art.estimates.push_back(est);
      art.graph_of.push_back(graph_index);
    }
    art.graphs.push_back(std::move(graph));
    observer.on_block_searched(b, candidates.size(),
                               block_timer.elapsed_ms());
  }

  art.selection = ise::select_greedy(art.scored, config_.select);
  art.search_real_ms = timer.elapsed_ms();
  observer.on_phase_exit(PipelinePhase::CandidateSearch, art.search_real_ms);
}

}  // namespace jitise::jit
