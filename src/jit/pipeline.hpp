// The ASIP Specialization Process as an explicit staged pipeline.
//
// The paper's three phases (Fig. 1/2) plus the adaptation phase map onto
// four composable stages behind narrow interfaces, each producing a typed
// artifact:
//
//   CandidateSearchStage  prune -> identify -> estimate -> select
//                         -> SearchArtifact
//   NetlistGenStage       datapath project creation (per candidate)
//                         -> NetlistArtifact
//   ImplementationStage   CAD flow syn..bitgen (per candidate)
//                         -> ImplementationArtifact
//   AdaptationStage       cache/registry/accounting serial tail + rewrite
//                         -> SpecializationResult
//
// SpecializationPipeline runs them in order. Candidate search is a serial
// loop on the pipeline thread; once the final selection is known, the
// per-candidate Netlist+Implementation chains fan out as tasks on a
// support::WorkStealingPool — either a borrowed, long-lived pool (the
// server's shared pool, so many sessions share one bounded worker set) or
// a pipeline-private pool for direct `specialize()` calls. Results stay
// bit-identical to jobs=1 because CAD results are keyed by candidate
// signature (all jitter is signature-seeded) and everything
// order-sensitive runs in the AdaptationStage tail in selection order.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datapath/project.hpp"
#include "jit/observer.hpp"
#include "jit/specializer.hpp"
#include "support/work_stealing_pool.hpp"

namespace jitise::jit {

/// Phase-1 output: everything candidate search learned, plus the graphs the
/// later stages need (graphs are owned here so candidate node ids stay
/// valid for netlist generation and program snapshotting).
struct SearchArtifact {
  ise::PruneResult prune;
  std::vector<std::unique_ptr<dfg::BlockDfg>> graphs;  // one per pruned block
  std::vector<ise::ScoredCandidate> scored;            // all found candidates
  std::vector<estimation::CandidateEstimate> estimates;  // parallel to scored
  std::vector<std::size_t> graph_of;  // scored index -> graphs index
  ise::Selection selection;           // indices into `scored`
  double search_real_ms = 0.0;
};

class CandidateSearchStage {
 public:
  explicit CandidateSearchStage(const SpecializerConfig& config)
      : config_(config) {}

  /// Searches every pruned block in order on the calling thread, then runs
  /// the greedy selection once over the whole candidate pool. Fills
  /// `out` in place so the caller owns the graphs the later stages read.
  ///
  /// `estimates` (optional) memoizes whole-candidate estimation by
  /// signature; estimates are pure functions of candidate structure, so the
  /// artifact is bit-identical with or without it.
  void run(const ir::Module& module, const vm::Profile& profile,
           hwlib::CircuitDb& db, PipelineObserver& observer,
           SearchArtifact& out,
           estimation::EstimateCache* estimates = nullptr) const;

 private:
  const SpecializerConfig& config_;
};

/// Phase-2 output for one candidate.
struct NetlistArtifact {
  datapath::CadProject project;
};

class NetlistGenStage {
 public:
  [[nodiscard]] NetlistArtifact run(const dfg::BlockDfg& graph,
                                    const ise::Candidate& candidate,
                                    hwlib::CircuitDb& db,
                                    const std::string& name,
                                    PipelineObserver& observer) const;
};

/// Phase-3 output for one candidate.
struct ImplementationArtifact {
  bool dispatched = false;  // a CAD run produced (or rejected) this artifact
  bool failed = false;      // the tool flow rejected the candidate (fit/route)
  cad::ImplementationResult hw;
};

class ImplementationStage {
 public:
  explicit ImplementationStage(const SpecializerConfig& config)
      : config_(config) {}

  [[nodiscard]] ImplementationArtifact run(const NetlistArtifact& netlist,
                                           PipelineObserver& observer) const;

 private:
  const SpecializerConfig& config_;
};

class AdaptationStage {
 public:
  /// Resolves a pre-generated implementation for a candidate signature
  /// (nullptr when nothing was dispatched for it).
  using ImplLookupFn =
      std::function<const ImplementationArtifact*(std::uint64_t signature)>;
  /// Runs the per-candidate CAD chain serially for selection position `k`
  /// (fallback when a dispatch-time cache entry was evicted).
  using SerialCadFn =
      std::function<ImplementationArtifact(std::size_t k)>;

  AdaptationStage(const SpecializerConfig& config, BitstreamCache* cache)
      : config_(config), cache_(cache) {}

  /// The order-sensitive serial tail: cache population, cycle accounting,
  /// registry insertion and the binary rewrite, in final selection order.
  /// `search` stays borrowed (only `prune` is moved out of it) because the
  /// serial-CAD fallback still reads its graphs mid-run.
  [[nodiscard]] SpecializationResult run(const ir::Module& module,
                                         const vm::Profile& profile,
                                         SearchArtifact& search,
                                         std::span<const std::string> names,
                                         const ImplLookupFn& lookup,
                                         const SerialCadFn& serial_cad,
                                         PipelineObserver& observer) const;

 private:
  const SpecializerConfig& config_;
  BitstreamCache* cache_;
};

class SpecializationPipeline {
 public:
  /// `cache`, `estimates` and `executor` are borrowed, may be shared across
  /// concurrent pipelines (all are internally synchronized), and may be
  /// null. With a null `executor` and `jobs > 1`, run() spins up a private
  /// WorkStealingPool for its CAD fan-out; with a non-null one (the
  /// server's shared pool), this pipeline submits its CAD tasks there and
  /// owns no threads at all.
  explicit SpecializationPipeline(const SpecializerConfig& config,
                                  BitstreamCache* cache = nullptr,
                                  estimation::EstimateCache* estimates = nullptr,
                                  support::WorkStealingPool* executor = nullptr)
      : config_(config),
        cache_(cache),
        estimates_(estimates),
        executor_(executor),
        search_(config_),
        implement_(config_),
        adapt_(config_, cache_) {}

  /// Registers an observer (not owned; must outlive run()).
  void add_observer(PipelineObserver* observer) { observers_.add(observer); }

  [[nodiscard]] SpecializationResult run(const ir::Module& module,
                                         const vm::Profile& profile);

 private:
  SpecializerConfig config_;
  BitstreamCache* cache_;
  estimation::EstimateCache* estimates_ = nullptr;
  support::WorkStealingPool* executor_ = nullptr;
  CandidateSearchStage search_;
  NetlistGenStage netlist_;
  ImplementationStage implement_;
  AdaptationStage adapt_;
  ObserverList observers_;
};

}  // namespace jitise::jit
