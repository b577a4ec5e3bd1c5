#include "replay.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "cad/flow.hpp"
#include "cad/syntax.hpp"
#include "datapath/project.hpp"
#include "dfg/graph.hpp"
#include "fpga/bitgen.hpp"
#include "fpga/place.hpp"
#include "fpga/route.hpp"
#include "fpga/sta.hpp"
#include "fpga/synthesis.hpp"
#include "hwlib/component.hpp"
#include "ise/identify.hpp"
#include "ise/pruning.hpp"
#include "ise/selection.hpp"
#include "woolcano/custom_instruction.hpp"
#include "woolcano/rewriter.hpp"

namespace perfbench {
namespace {

namespace cad = jx::cad;
namespace fpga = jx::fpga;
namespace jit = jx::jit;

struct CadOutcome {
  cad::ImplementationResult hw;
  jit::ImplementedCandidate modeled;  // per-stage modeled seconds
};

/// One candidate through Check Syntax -> XST -> Translate -> Map -> PAR ->
/// BitGen, mirroring cad::implement_candidate stage by stage. Returns
/// nullopt when the tool flow rejects the candidate.
std::optional<CadOutcome> implement(const jx::datapath::CadProject& project,
                                    const cad::ToolFlowConfig& config,
                                    Tracer* tracer, std::uint64_t op,
                                    ReplayCounters& counters) {
  Tracer::Scope span(tracer, "cad.implement", op);
  ++counters.cad_runs;
  const std::uint64_t seed = project.signature;
  const cad::CadRuntimeModel& model = config.runtime;
  CadOutcome out;
  cad::ImplementationResult& hw = out.hw;
  jit::ImplementedCandidate& m = out.modeled;
  try {
    m.c2v_s = model.c2v_seconds(seed);
    {
      Tracer::Scope s(tracer, "cad.syntax", op);
      if (!cad::check_vhdl_syntax(project.vhdl).empty())
        throw fpga::CadError("VHDL syntax check failed");
    }
    m.syn_s = model.syn_seconds(seed);

    fpga::MappedDesign design;
    {
      Tracer::Scope s(tracer, "fpga.synthesize", op);
      design = fpga::synthesize_top(project.netlist);
    }
    hw.cells = design.cell_count();
    hw.nets = design.net_count();
    m.xst_s = model.xst_seconds(hw.cells, seed);

    const fpga::Fabric fabric(config.fabric);
    fpga::check_fit(design, fabric);
    m.tra_s = model.tra_seconds(seed);

    fpga::Placement placement;
    {
      Tracer::Scope s(tracer, "fpga.place", op);
      fpga::PlacerConfig placer = config.placer;
      placer.seed ^= seed;
      placement = config.fast_placer ? fpga::place_greedy(design, fabric)
                                     : fpga::place(design, fabric, placer);
    }
    m.map_s = model.map_seconds(hw.cells, seed);

    fpga::RoutingResult routing;
    {
      Tracer::Scope s(tracer, "fpga.route", op);
      routing = fpga::route(design, fabric, placement, config.router);
    }
    counters.route_iterations += routing.iterations;
    if (!routing.success) throw fpga::CadError("routing did not converge");
    {
      Tracer::Scope s(tracer, "fpga.sta", op);
      hw.timing = fpga::analyze_timing(design, fabric, placement, routing,
                                       config.delays);
    }
    m.par_s = model.par_seconds(hw.cells, hw.nets, seed);
    {
      Tracer::Scope s(tracer, "fpga.bitgen", op);
      hw.bitstream = fpga::generate_bitstream(design, fabric, placement,
                                              routing, project.part);
    }
    m.bitgen_s = model.bitgen_seconds(seed);
    {
      Tracer::Scope s(tracer, "check.validate_routing", op);
      counters.routing_problems +=
          fpga::validate_routing(design, fabric, placement, routing).size();
    }
  } catch (const fpga::CadError&) {
    ++counters.cad_failures;
    return std::nullopt;
  }
  return out;
}

}  // namespace

ReplayResult replay_specialize(const jx::ir::Module& module,
                               const jx::vm::Profile& profile,
                               const jit::SpecializerConfig& config,
                               jit::BitstreamCache* cache,
                               jx::estimation::EstimateCache* estimates,
                               Tracer* tracer, std::uint64_t op,
                               ReplayCounters& counters) {
  Tracer::Scope root(tracer, "op.replay", op);
  jx::hwlib::CircuitDb db;

  // Candidate search.
  jx::ise::PruneResult pruned;
  {
    Tracer::Scope s(tracer, "ise.prune", op);
    pruned = jx::ise::prune_blocks(module, profile, config.cpu, config.prune);
  }
  std::vector<std::unique_ptr<jx::dfg::BlockDfg>> graphs;
  std::vector<jx::ise::ScoredCandidate> scored;
  std::vector<jx::estimation::CandidateEstimate> estimated;
  std::vector<std::size_t> graph_of;
  for (const jx::ise::PrunedBlock& blk : pruned.blocks) {
    {
      Tracer::Scope s(tracer, "dfg.build", op);
      graphs.push_back(std::make_unique<jx::dfg::BlockDfg>(
          module.functions[blk.function], blk.block));
    }
    const jx::dfg::BlockDfg& graph = *graphs.back();
    std::vector<jx::ise::Candidate> cands;
    {
      Tracer::Scope s(tracer, "ise.identify", op);
      cands = jx::ise::find_max_misos(graph);
    }
    for (jx::ise::Candidate& cand : cands) {
      cand.function = blk.function;
      const std::uint64_t sig = jx::ise::candidate_signature(graph, cand);
      jx::estimation::CandidateEstimate est;
      {
        Tracer::Scope s(tracer, "estimation.estimate", op);
        est = jx::estimation::estimate_candidate_cached(
            graph, cand, db, config.cpu, config.fcm, sig, estimates);
      }
      jx::ise::ScoredCandidate sc;
      sc.signature = sig;
      sc.candidate = std::move(cand);
      sc.cycles_saved_total =
          est.saved_per_exec * static_cast<double>(blk.exec_count);
      sc.cycles_saved_refined =
          est.saved_per_exec_refined * static_cast<double>(blk.exec_count);
      sc.area_slices = est.area_slices;
      scored.push_back(std::move(sc));
      estimated.push_back(est);
      graph_of.push_back(graphs.size() - 1);
    }
  }
  jx::ise::Selection selection;
  {
    Tracer::Scope s(tracer, "ise.select", op);
    selection = jx::ise::select_greedy(scored, config.select);
  }
  counters.candidates_found += scored.size();
  counters.candidates_selected += selection.chosen.size();

  // Netlist generation, implementation and adaptation in selection order
  // (the pipeline's serial tail).
  std::map<std::pair<jx::ir::FuncId, jx::ir::BlockId>, std::uint64_t> exec_of;
  for (const jx::ise::PrunedBlock& b : pruned.blocks)
    exec_of[{b.function, b.block}] = b.exec_count;

  ReplayResult out;
  jit::SpecializationResult result;
  double saved_cycles_total = 0.0;
  for (std::size_t k = 0; k < selection.chosen.size(); ++k) {
    const std::size_t idx = selection.chosen[k];
    const jx::ise::ScoredCandidate& sc = scored[idx];
    const jx::estimation::CandidateEstimate& est = estimated[idx];
    const jx::dfg::BlockDfg& graph = *graphs[graph_of[idx]];
    const std::string name = "ci_" + module.name + "_f" +
                             std::to_string(sc.candidate.function) + "_b" +
                             std::to_string(sc.candidate.block) + "_" +
                             std::to_string(k);

    jx::woolcano::CustomInstruction ci;
    ci.candidate = sc.candidate;
    ci.signature = sc.signature;
    ci.program = jx::woolcano::snapshot_program(graph, sc.candidate);
    ci.area_slices = sc.area_slices;

    jit::ImplementedCandidate impl;
    std::uint32_t crc = 0;
    std::optional<jit::CachedImplementation> hit;
    if (cache != nullptr) hit = cache->lookup(sc.signature);
    if (hit) {
      impl.cache_hit = true;
      ci.hw_cycles = hit->hw_cycles;
      ci.critical_path_ns = hit->critical_path_ns;
      ci.bitstream_bytes = hit->bitstream.size_bytes();
      crc = hit->bitstream.crc32;
    } else {
      jx::datapath::CadProject project;
      {
        Tracer::Scope s(tracer, "datapath.create_project", op);
        project = jx::datapath::create_project(graph, sc.candidate, db, name);
      }
      std::optional<CadOutcome> cad_out =
          implement(project, config.flow, tracer, op, counters);
      if (!cad_out) {
        ++result.candidates_failed;
        continue;
      }
      impl = cad_out->modeled;
      ci.critical_path_ns =
          std::max(cad_out->hw.timing.critical_path_ns, est.hw_latency_ns);
      ci.hw_cycles = std::max(jit::fcm_hw_cycles(ci.critical_path_ns, config),
                              est.hw_cycles);
      ci.bitstream_bytes = cad_out->hw.bitstream.size_bytes();
      crc = cad_out->hw.bitstream.crc32;
      if (cache != nullptr)
        cache->insert(sc.signature,
                      jit::CachedImplementation{
                          cad_out->hw.bitstream, ci.hw_cycles,
                          ci.critical_path_ns, sc.area_slices,
                          cad_out->hw.cells, impl.total_seconds()});
    }
    impl.signature = sc.signature;
    impl.hw_cycles = ci.hw_cycles;

    const double saved_per_exec = static_cast<double>(est.sw_cycles) -
                                  static_cast<double>(ci.hw_cycles);
    if (saved_per_exec > 0.0) {
      const auto it = exec_of.find({sc.candidate.function, sc.candidate.block});
      if (it != exec_of.end())
        saved_cycles_total += saved_per_exec * static_cast<double>(it->second);
      result.registry.add(std::move(ci));
    }
    out.crcs.push_back(crc);
    result.implemented.push_back(impl);
  }

  {
    Tracer::Scope s(tracer, "woolcano.rewrite", op);
    result.rewritten = jx::woolcano::rewrite_module(module, result.registry);
  }
  const double base = static_cast<double>(profile.cpu_cycles);
  const double accel = base - saved_cycles_total;
  result.predicted_speedup = accel > 0.0 && base > 0.0 ? base / accel : 1.0;
  out.digest = OpDigest::of(result);
  return out;
}

std::vector<std::uint32_t> cached_crcs(const jit::BitstreamCache& cache,
                                       const OpDigest& digest) {
  std::map<std::uint64_t, std::uint32_t> by_sig;
  for (const auto& [sig, entry] : cache.snapshot())
    by_sig[sig] = entry.bitstream.crc32;
  std::vector<std::uint32_t> out;
  for (std::uint64_t sig : digest.signatures) {
    const auto it = by_sig.find(sig);
    out.push_back(it == by_sig.end() ? 0u : it->second);
  }
  return out;
}

}  // namespace perfbench
