// Decomposed replay of the ASIP specialization pipeline for the traced run.
//
// Calls each layer's public function in the order jit::specialize runs them
// at jobs=1 — prune_blocks -> BlockDfg -> find_max_misos ->
// estimate_candidate_cached -> select_greedy -> create_project ->
// check_vhdl_syntax and the fpga stages -> rewrite_module — with a span
// around every call, so the trace attributes time to layers without any
// instrumentation inside the program. The replay must reproduce
// jit::specialize bit for bit (the traced run checks it).
#pragma once

#include <cstdint>
#include <vector>

#include "digest.hpp"
#include "estimation/estimator.hpp"
#include "jit/cache.hpp"
#include "jit/specializer.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {

struct ReplayResult {
  OpDigest digest;
  /// CRC-32 of each implemented candidate's bitstream (parallel to
  /// digest.signatures; taken from the cache on a hit).
  std::vector<std::uint32_t> crcs;
};

/// Replays one specialization. `cache`/`estimates` may be null (fresh,
/// uncached run) or shared, exactly as jit::specialize takes them.
[[nodiscard]] ReplayResult replay_specialize(
    const jx::ir::Module& module, const jx::vm::Profile& profile,
    const jx::jit::SpecializerConfig& config, jx::jit::BitstreamCache* cache,
    jx::estimation::EstimateCache* estimates, Tracer* tracer,
    std::uint64_t op, ReplayCounters& counters);

/// CRC-32 of each of `digest`'s signatures as held by `cache` (0 when the
/// cache does not hold it).
[[nodiscard]] std::vector<std::uint32_t> cached_crcs(
    const jx::jit::BitstreamCache& cache, const OpDigest& digest);

}  // namespace perfbench
