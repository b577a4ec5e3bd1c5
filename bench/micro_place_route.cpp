// Micro-benchmark: place & route scaling with design size — our stand-in
// for the paper's observation that map/PAR are the only candidate-size-
// dependent stages of the implementation flow.
#include <benchmark/benchmark.h>

#include "fpga/place.hpp"
#include "fpga/route.hpp"
#include "support/rng.hpp"

using namespace jitise;

namespace {

/// Random two-input datapath of `cells` clusters. With `control`, one extra
/// port drives a control net into every cluster: the high-fanout shape of
/// the suite's candidate designs (clock-enable nets of 39 to 387 sinks).
hwlib::Netlist make_netlist(std::size_t cells, std::uint64_t seed,
                            bool control = false) {
  support::Xoshiro256 rng(seed);
  hwlib::Netlist nl;
  nl.top_name = "bench";
  std::vector<hwlib::NetId> live;
  const hwlib::NetId in = nl.new_net();
  nl.add_cell(hwlib::CellKind::PortIn, "in", {}, {in});
  live.push_back(in);
  hwlib::NetId ctl = hwlib::kNoNet;
  if (control) {
    ctl = nl.new_net();
    nl.add_cell(hwlib::CellKind::PortIn, "ctl", {}, {ctl});
  }
  for (std::size_t i = 0; i < cells; ++i) {
    std::vector<hwlib::NetId> ins{live[rng.below(live.size())]};
    if (live.size() > 2 && rng.below(2) == 0)
      ins.push_back(live[rng.below(live.size())]);
    if (control) ins.push_back(ctl);
    const hwlib::NetId out = nl.new_net();
    nl.add_cell(hwlib::CellKind::Cluster, "c" + std::to_string(i),
                std::move(ins), {out});
    live.push_back(out);
    if (live.size() > 12) live.erase(live.begin());
  }
  nl.add_cell(hwlib::CellKind::PortOut, "out", {live.back()}, {});
  return nl;
}

void place_design(benchmark::State& state, bool control) {
  const auto design = fpga::synthesize_top(
      make_netlist(static_cast<std::size_t>(state.range(0)), 7, control));
  const fpga::Fabric fabric;
  std::uint64_t moves = 0;
  for (auto _ : state) {
    auto placement = fpga::place(design, fabric);
    moves += placement.moves_tried;
    benchmark::DoNotOptimize(placement);
  }
  state.counters["moves/s"] = benchmark::Counter(
      static_cast<double>(moves), benchmark::Counter::kIsRate);
  state.SetComplexityN(state.range(0));
}

void BM_Place(benchmark::State& state) { place_design(state, false); }
BENCHMARK(BM_Place)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_PlaceControlNet(benchmark::State& state) { place_design(state, true); }
BENCHMARK(BM_PlaceControlNet)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_Route(benchmark::State& state) {
  const auto design = fpga::synthesize_top(
      make_netlist(static_cast<std::size_t>(state.range(0)), 7));
  const fpga::Fabric fabric;
  const auto placement = fpga::place(design, fabric);
  for (auto _ : state) {
    auto routing = fpga::route(design, fabric, placement);
    benchmark::DoNotOptimize(routing);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Route)->RangeMultiplier(2)->Range(32, 512)->Complexity();

}  // namespace

BENCHMARK_MAIN();
