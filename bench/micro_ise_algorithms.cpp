// Micro-benchmark: identification-algorithm scaling (ablation for DESIGN.md).
//
// Shows the paper's [9] motivation: MAXMISO is linear in the block size
// while exact convex enumeration explodes exponentially — which is why
// just-in-time ISE needs the heuristic + pruning combination.
#include <benchmark/benchmark.h>

#include "dfg/graph.hpp"
#include "ir/builder.hpp"
#include "ise/identify.hpp"
#include "support/rng.hpp"

using namespace jitise;
using namespace jitise::ir;

namespace {

/// One block with `n` feasible integer ops in a random DAG shape plus a
/// store at the end (so results escape).
Module make_block(std::size_t n, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32, Type::Ptr});
  std::vector<ValueId> pool = {fb.param(0), fb.param(1)};
  static constexpr Opcode kOps[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                    Opcode::And, Opcode::Xor, Opcode::Shl};
  for (std::size_t i = 0; i < n; ++i) {
    const ValueId a = pool[rng.below(pool.size())];
    const ValueId b = pool[rng.below(pool.size())];
    pool.push_back(fb.binop(kOps[rng.below(std::size(kOps))], a, b));
    if (pool.size() > 6) pool.erase(pool.begin());
  }
  fb.store(pool.back(), fb.param(2));
  fb.ret(pool.front());
  fb.finish();
  return m;
}

void BM_MaxMiso(benchmark::State& state) {
  const Module m = make_block(static_cast<std::size_t>(state.range(0)), 42);
  const dfg::BlockDfg graph(m.functions[0], 0);
  for (auto _ : state) {
    auto result = ise::find_max_misos(graph);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxMiso)->RangeMultiplier(2)->Range(16, 512)->Complexity();

void BM_ExactEnum(benchmark::State& state) {
  const Module m = make_block(static_cast<std::size_t>(state.range(0)), 42);
  const dfg::BlockDfg graph(m.functions[0], 0);
  ise::ExactEnumConfig config;
  config.max_steps = 1u << 22;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    auto result = ise::enumerate_exact(graph, config);
    steps = result.steps;
    benchmark::DoNotOptimize(result);
  }
  state.counters["search_steps"] = static_cast<double>(steps);
}
BENCHMARK(BM_ExactEnum)->DenseRange(8, 28, 4);

void BM_MisoEnum(benchmark::State& state) {
  const Module m = make_block(static_cast<std::size_t>(state.range(0)), 42);
  const dfg::BlockDfg graph(m.functions[0], 0);
  ise::MisoEnumConfig config;
  for (auto _ : state) {
    auto result = ise::enumerate_misos(graph, config);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_MisoEnum)->RangeMultiplier(2)->Range(16, 128);

}  // namespace

BENCHMARK_MAIN();
