#include "estimation/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <unordered_map>

namespace jitise::estimation {

CandidateEstimate estimate_candidate(const dfg::BlockDfg& graph,
                                     const ise::Candidate& cand,
                                     hwlib::CircuitDb& db,
                                     const vm::CostModel& cpu,
                                     const FcmTiming& fcm) {
  CandidateEstimate est;
  const ir::Function& fn = graph.function();

  std::vector<bool> in_set(graph.size(), false);
  for (dfg::NodeId n : cand.nodes) in_set[n] = true;

  // Arrival time (ns) at each candidate node's output; nodes are visited in
  // ascending order = topological order, so operand arrivals are ready.
  std::unordered_map<dfg::NodeId, double> arrival;
  double critical = 0.0;

  for (dfg::NodeId n : cand.nodes) {
    const ir::Instruction& inst = fn.values[graph.value_of(n)];
    est.sw_cycles += cpu.cycles(inst.op, inst.type);

    const hwlib::ComponentRecord& rec = db.record(inst.op, inst.type);
    est.area_slices += rec.slices;
    est.dsps += rec.dsps;
    est.brams += rec.brams;
    est.power_mw += rec.power_mw;

    double in_arrival = 0.0;  // candidate inputs arrive via interface regs
    for (dfg::NodeId p : graph.preds(n))
      if (in_set[p]) in_arrival = std::max(in_arrival, arrival[p]);
    const double out = in_arrival + rec.latency_ns;
    arrival[n] = out;
    critical = std::max(critical, out);
  }

  est.hw_latency_ns = critical + 2.0 * fcm.interface_ns;
  // Large multi-operator datapaths also pay interconnect between cores;
  // folded into the interface term by estimation, measured by STA later.
  const double cpu_period_ns = 1e9 / fcm.cpu_clock_hz;
  const auto datapath_cycles = static_cast<std::uint32_t>(
      std::ceil(est.hw_latency_ns / cpu_period_ns));
  est.hw_cycles = fcm.invoke_overhead_cycles + datapath_cycles;
  est.saved_per_exec =
      std::max(0.0, static_cast<double>(est.sw_cycles) - est.hw_cycles);

  // Pipeline-aware refinement: operand transfer streams
  // `operands_per_transfer` GPRs per cycle and overlaps the datapath (the
  // first pair starts evaluation while later pairs arrive), so the occupied
  // window is max(datapath, transfer) instead of their sum; the result is
  // forwarded to its consumer, crediting back part of the handshake. Kept
  // separate from the base model, which alone drives selection; the refined
  // fields are read by no selector and kept only for the perfbench replay.
  const std::uint32_t per = std::max<std::uint32_t>(1, fcm.operands_per_transfer);
  const auto inputs =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, cand.inputs.size()));
  est.transfer_cycles = (inputs + per - 1) / per;
  const std::uint32_t overhead_refined =
      fcm.invoke_overhead_cycles > fcm.forwarding_saved_cycles
          ? fcm.invoke_overhead_cycles - fcm.forwarding_saved_cycles
          : 0;
  est.hw_cycles_refined = std::max<std::uint32_t>(
      1, overhead_refined + std::max(datapath_cycles, est.transfer_cycles));
  est.saved_per_exec_refined = std::max(
      0.0, static_cast<double>(est.sw_cycles) - est.hw_cycles_refined);
  return est;
}

std::optional<CandidateEstimate> EstimateCache::lookup(
    std::uint64_t signature) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = map_.find(signature);
  if (it == map_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void EstimateCache::insert(std::uint64_t signature,
                           const CandidateEstimate& est) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  map_.emplace(signature, est);
}

std::size_t EstimateCache::entries() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return map_.size();
}

CandidateEstimate estimate_candidate_cached(
    const dfg::BlockDfg& graph, const ise::Candidate& cand,
    hwlib::CircuitDb& db, const vm::CostModel& cpu, const FcmTiming& fcm,
    std::uint64_t signature, EstimateCache* cache) {
  if (cache == nullptr) return estimate_candidate(graph, cand, db, cpu, fcm);
  if (auto hit = cache->lookup(signature)) return *hit;
  const CandidateEstimate est = estimate_candidate(graph, cand, db, cpu, fcm);
  cache->insert(signature, est);
  return est;
}

}  // namespace jitise::estimation
