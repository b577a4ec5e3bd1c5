// The ASIP Specialization Process — the paper's core contribution
// (Figure 2): Candidate Search (prune -> identify -> estimate -> select),
// Netlist Generation, Instruction Implementation, and the adaptation phase
// that rewrites the running binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cad/flow.hpp"
#include "estimation/estimator.hpp"
#include "ise/pruning.hpp"
#include "ise/selection.hpp"
#include "jit/cache.hpp"
#include "support/cancellation.hpp"
#include "woolcano/asip.hpp"

namespace jitise::jit {

struct SpecializerConfig {
  /// Identification algorithm (ablation: Union-MISO grows candidates past
  /// the MAXMISO partition, addressing the paper's §V-D size limitation).
  enum class Identify { MaxMiso, UnionMiso };
  Identify identify = Identify::MaxMiso;
  ise::PruneConfig prune = ise::PruneConfig::at50pS3L();
  ise::SelectConfig select;
  estimation::FcmTiming fcm;
  vm::CostModel cpu;
  cad::ToolFlowConfig flow;
  woolcano::WoolcanoConfig woolcano;
  /// Skip the CAD flow and use estimation-based hardware cycles (used by
  /// upper-bound experiments; no bitstreams are produced).
  bool implement_hardware = true;
  /// Width of the per-candidate CAD fan-out (Netlist Generation +
  /// Instruction Implementation), the only parallel work in the pipeline:
  /// candidate search always runs serially on the calling thread, and CAD
  /// is dispatched only for the final selection. 0 means
  /// hardware_concurrency, 1 runs strictly serially. When the caller owns a
  /// long-lived pool (the specialization server's shared WorkStealingPool),
  /// `jobs > 1` merely opts the run into it and the pool's width decides
  /// the real parallelism; a direct call with `jobs > 1` gets a run-scoped
  /// private pool of this size. Any value produces a bit-identical
  /// SpecializationResult: CAD jitter is seeded per candidate signature and
  /// all bookkeeping (cycle accounting, registry insertion, `implemented`
  /// order, cache population) stays in a serial tail.
  unsigned jobs = 0;
  /// Emit a one-line per-candidate CAD timing trace to stderr (real ms per
  /// stage plus the worker thread id) so the parallel speedup is observable.
  /// Installed as the default TraceObserver on the pipeline; the sink is
  /// mutex-guarded so worker lines never interleave mid-line.
  bool trace_stages = false;
  /// When a CacheJournal (jit/cache_io.hpp) is attached to the bitstream
  /// cache, flush its buffered insert/evict records — and run the
  /// size/garbage-triggered compaction — at the end of the run, emitting
  /// `on_cache_journal_sync`. Off leaves durability entirely to the
  /// caller's explicit `sync()`.
  bool sync_cache_journal = true;
  /// Cooperative cancellation (jit/pipeline checks it at stage boundaries:
  /// between search blocks, before each CAD dispatch/run, and between
  /// serial-tail candidates — never inside a cache or journal mutation, so a
  /// cancelled run can never tear shared state). A default-constructed token
  /// never cancels. When it fires, the pipeline throws
  /// support::CancelledError; the caller (the specialization server) reports
  /// partial progress via its observers.
  support::CancellationToken cancel;
};

/// Per-candidate implementation record (modeled seconds are zero on a
/// bitstream-cache hit — the paper's §VI-A accounting).
struct ImplementedCandidate {
  std::string name;
  std::uint64_t signature = 0;
  bool cache_hit = false;
  std::size_t instructions = 0;  // IR instructions covered
  std::size_t cells = 0;
  std::size_t bitstream_bytes = 0;
  std::uint32_t hw_cycles = 1;
  double area_slices = 0.0;
  double c2v_s = 0, syn_s = 0, xst_s = 0, tra_s = 0;
  double map_s = 0, par_s = 0, bitgen_s = 0;

  [[nodiscard]] double total_seconds() const noexcept {
    return c2v_s + syn_s + xst_s + tra_s + map_s + par_s + bitgen_s;
  }
  [[nodiscard]] double const_seconds() const noexcept {
    return total_seconds() - map_s - par_s;
  }
};

struct SpecializationResult {
  // Candidate search (paper Table II, left half).
  ise::PruneResult prune;
  double search_real_ms = 0.0;  // prune+identify+estimate+select, measured
  std::size_t candidates_found = 0;
  std::size_t candidates_selected = 0;
  std::size_t candidates_failed = 0;  // rejected by the CAD flow (fit/route)

  // Implementation (paper Table II, Runtime Overheads).
  std::vector<ImplementedCandidate> implemented;
  double sum_const_s = 0.0;  // per-candidate constant stages, summed
  double sum_map_s = 0.0;
  double sum_par_s = 0.0;
  double sum_total_s = 0.0;

  // Adaptation.
  woolcano::CiRegistry registry;
  ir::Module rewritten;

  /// Speedup over the profiled execution predicted from cycle bookkeeping
  /// (base cycles / (base - saved)); the differential-execution measurement
  /// lives in woolcano::run_adapted.
  double predicted_speedup = 1.0;
};

/// Hardware cycles of one FCM execution given its combinational latency:
/// the fixed FCM interface overhead plus the latency rounded *up* to whole
/// clock periods (a partially used period still occupies a full cycle).
[[nodiscard]] std::uint32_t fcm_hw_cycles(double latency_ns,
                                          const SpecializerConfig& config);

/// Content hash of a whole (module, profile) pair — the *request-level*
/// signature of the specialization service. Uses the same 64-bit FNV-1a
/// family as ise::candidate_signature, so every memoization tier of the
/// serving stack keys into one signature space: the server's in-flight
/// coalescing map (request signature) stacked on the EstimateCache, the
/// shared BitstreamCache and its journal (candidate signatures).
/// Conservative by construction: every field that can influence a
/// SpecializationResult feeds the hash — names included, since they flow
/// into candidate and registry naming — so equal signatures imply
/// bit-identical pipeline output under one SpecializerConfig.
[[nodiscard]] std::uint64_t request_signature(const ir::Module& module,
                                              const vm::Profile& profile);

/// Runs the complete ASIP-SP against a profiled module. If `cache` is given,
/// implementations are looked up/inserted by candidate signature. If
/// `estimates` is given, per-candidate estimation memoizes into it by
/// candidate signature (share one across runs/tenants to dedup identical
/// candidates; results are bit-identical with or without it).
[[nodiscard]] SpecializationResult specialize(
    const ir::Module& module, const vm::Profile& profile,
    const SpecializerConfig& config, BitstreamCache* cache = nullptr,
    estimation::EstimateCache* estimates = nullptr);

/// The paper's Table-I "ASIP ratio" upper bound: every MAXMISO candidate in
/// every executed block is assumed implemented (no pruning, no budgets, no
/// CAD); hardware cycles come from estimation.
struct UpperBound {
  std::uint64_t base_cycles = 0;
  double saved_cycles = 0.0;
  std::size_t candidates = 0;

  [[nodiscard]] double ratio() const noexcept {
    const double accel = static_cast<double>(base_cycles) - saved_cycles;
    return accel > 0.0 ? static_cast<double>(base_cycles) / accel : 1.0;
  }
};

[[nodiscard]] UpperBound asip_upper_bound(const ir::Module& module,
                                          const vm::Profile& profile,
                                          const vm::CostModel& cpu = {},
                                          const estimation::FcmTiming& fcm = {});

}  // namespace jitise::jit
