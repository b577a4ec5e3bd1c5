// Per-layer metrics of the traced run: span self times by layer plus the
// counts recorded at the same boundaries.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work counted by the decomposed pipeline replay (replay.hpp).
struct ReplayCounters {
  std::uint64_t candidates_found = 0;
  std::uint64_t candidates_selected = 0;
  std::uint64_t cad_runs = 0;
  std::uint64_t cad_failures = 0;
  std::uint64_t route_iterations = 0;
  std::uint64_t routing_problems = 0;  // fpga::validate_routing diagnostics
};

struct LayerCounts {
  // ise / estimation / fpga / cad
  ReplayCounters replay;
  std::uint64_t estimate_hits = 0, estimate_misses = 0;
  // jit: bitstream cache and CAD chains
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t cad_dispatched = 0, cad_speculative = 0, cad_used = 0;
  std::uint64_t cad_implemented = 0, cad_rejected = 0, cad_hit_events = 0;
  // server / executor
  std::vector<double> submit_us, queue_ms, run_ms;
  std::uint64_t rejected = 0, coalesced = 0, steals = 0, occupancy_hw = 0;
  // vm
  std::uint64_t vm_instructions = 0;
  // adaptive
  std::uint64_t phase_changes = 0, drift_respecs = 0;
  // tracing overhead: the same work timed untraced and traced
  double untraced_ms = 0.0, traced_ms = 0.0;
};

/// Every per-layer metric, in a fixed order; layers a workload does not
/// exercise report 0.
[[nodiscard]] std::vector<Metric> layer_metrics(const Tracer& tracer,
                                                const LayerCounts& counts);

}  // namespace perfbench
