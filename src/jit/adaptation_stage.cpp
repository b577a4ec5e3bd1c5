// Adaptation — the order-sensitive serial tail of the ASIP-SP: cache
// lookup/population, cycle accounting, registry insertion, and the binary
// rewrite. Running every order-sensitive effect here, in final selection
// order, is what makes jobs=N bit-identical to jobs=1.
#include "jit/pipeline.hpp"

#include <cmath>
#include <map>
#include <optional>
#include <utility>

#include "support/stopwatch.hpp"
#include "woolcano/rewriter.hpp"

namespace jitise::jit {

SpecializationResult AdaptationStage::run(
    const ir::Module& module, const vm::Profile& profile,
    SearchArtifact& search, std::span<const std::string> names,
    const ImplLookupFn& lookup, const SerialCadFn& serial_cad,
    PipelineObserver& observer) const {
  observer.on_phase_enter(PipelinePhase::Adaptation);
  support::Stopwatch timer;

  SpecializationResult result;
  result.candidates_found = search.scored.size();
  result.candidates_selected = search.selection.chosen.size();
  result.search_real_ms = search.search_real_ms;

  // Index pruned blocks by (function, block) once; the activation loop
  // below used to rescan the whole pruned list per candidate.
  std::map<std::pair<ir::FuncId, ir::BlockId>, std::uint64_t> exec_of;
  for (const ise::PrunedBlock& b : search.prune.blocks)
    exec_of[{b.function, b.block}] = b.exec_count;

  double saved_cycles_total = 0.0;
  for (std::size_t k = 0; k < search.selection.chosen.size(); ++k) {
    // Cancellation point: between candidates, before any of this
    // candidate's bookkeeping — never between a cache insert and its
    // journal record, so cancellation can't tear the shared cache state.
    config_.cancel.check();
    const std::size_t idx = search.selection.chosen[k];
    const ise::ScoredCandidate& sc = search.scored[idx];
    const estimation::CandidateEstimate& est = search.estimates[idx];
    const dfg::BlockDfg& graph = *search.graphs[search.graph_of[idx]];
    ImplementedCandidate impl;
    impl.name = names[k];
    impl.signature = sc.signature;
    impl.instructions = sc.candidate.size();
    impl.area_slices = sc.area_slices;

    woolcano::CustomInstruction ci;
    ci.candidate = sc.candidate;
    ci.signature = sc.signature;
    ci.program = woolcano::snapshot_program(graph, sc.candidate);
    ci.area_slices = sc.area_slices;

    if (!config_.implement_hardware) {
      ci.hw_cycles = est.hw_cycles;
      ci.critical_path_ns = est.hw_latency_ns;
      impl.hw_cycles = ci.hw_cycles;
    } else {
      std::optional<CachedImplementation> hit;
      if (cache_) hit = cache_->lookup(impl.signature);
      if (hit) {
        observer.on_cache_hit(impl.name, impl.signature);
        impl.cache_hit = true;
        impl.cells = hit->cells;
        impl.bitstream_bytes = hit->bitstream.size_bytes();
        impl.hw_cycles = hit->hw_cycles;
        ci.hw_cycles = hit->hw_cycles;
        ci.critical_path_ns = hit->critical_path_ns;
        ci.bitstream_bytes = hit->bitstream.size_bytes();
        // All generation stages are skipped: zero modeled seconds.
      } else {
        // Pre-generated results are keyed by signature: identical datapaths
        // produce identical CAD results (jitter is signature-seeded), so
        // one slot serves every occurrence. The serial fallback covers
        // jobs=1-only edge cases (a dispatch-time cache entry evicted
        // before the tail reached this position).
        cad::ImplementationResult hw;
        const ImplementationArtifact* pre =
            lookup ? lookup(impl.signature) : nullptr;
        if (pre != nullptr && pre->dispatched) {
          if (pre->failed) {
            // Oversized or unroutable candidate: the tool flow rejects it
            // and the specializer simply drops it (it stays in software).
            ++result.candidates_failed;
            continue;
          }
          hw = pre->hw;
        } else {
          ImplementationArtifact serial = serial_cad(k);
          if (serial.failed) {
            ++result.candidates_failed;
            continue;
          }
          hw = std::move(serial.hw);
        }
        impl.cells = hw.cells;
        impl.bitstream_bytes = hw.bitstream.size_bytes();
        impl.c2v_s = hw.c2v.modeled_seconds;
        impl.syn_s = hw.syn.modeled_seconds;
        impl.xst_s = hw.xst.modeled_seconds;
        impl.tra_s = hw.tra.modeled_seconds;
        impl.map_s = hw.map.modeled_seconds;
        impl.par_s = hw.par.modeled_seconds;
        impl.bitgen_s = hw.bitgen.modeled_seconds;
        // STA measures interconnect over the coarse cluster netlist; the
        // component database carries each core's true combinational latency.
        // The effective FCM latency is bounded below by both.
        ci.critical_path_ns =
            std::max(hw.timing.critical_path_ns, est.hw_latency_ns);
        ci.hw_cycles = std::max(fcm_hw_cycles(ci.critical_path_ns, config_),
                                est.hw_cycles);
        ci.bitstream_bytes = hw.bitstream.size_bytes();
        impl.hw_cycles = ci.hw_cycles;
        if (cache_)
          cache_->insert(impl.signature,
                         CachedImplementation{hw.bitstream, ci.hw_cycles,
                                              ci.critical_path_ns,
                                              impl.area_slices, hw.cells,
                                              impl.total_seconds()});
      }
    }

    // Cycle bookkeeping for the predicted speedup: actual hardware cycles
    // replace the estimate in the saving. A candidate whose implemented
    // latency turned out no better than software is *not activated* (the VM
    // keeps the software path), but its generation cost was already paid —
    // exactly the paper's accounting, where every implemented candidate
    // contributes to the overhead regardless of its eventual benefit.
    const double saved_per_exec = static_cast<double>(est.sw_cycles) -
                                  static_cast<double>(ci.hw_cycles);
    const bool activated = saved_per_exec > 0.0;
    if (activated) {
      const auto it =
          exec_of.find({sc.candidate.function, sc.candidate.block});
      if (it != exec_of.end())
        saved_cycles_total +=
            saved_per_exec * static_cast<double>(it->second);
    }

    result.sum_const_s += impl.const_seconds();
    result.sum_map_s += impl.map_s;
    result.sum_par_s += impl.par_s;
    result.sum_total_s += impl.total_seconds();
    if (activated) result.registry.add(std::move(ci));
    result.implemented.push_back(std::move(impl));
  }

  result.prune = std::move(search.prune);
  result.rewritten = woolcano::rewrite_module(module, result.registry);
  const double base = static_cast<double>(profile.cpu_cycles);
  const double accel = base - saved_cycles_total;
  result.predicted_speedup = accel > 0.0 && base > 0.0 ? base / accel : 1.0;
  observer.on_phase_exit(PipelinePhase::Adaptation, timer.elapsed_ms());
  return result;
}

}  // namespace jitise::jit
