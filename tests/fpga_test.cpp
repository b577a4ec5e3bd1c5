#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "apps/app.hpp"
#include "cad/flow.hpp"
#include "cad/runtime_model.hpp"
#include "cad/syntax.hpp"
#include "fpga/bitgen.hpp"
#include "fpga/fabric.hpp"
#include "fpga/place.hpp"
#include "fpga/report.hpp"
#include "fpga/route.hpp"
#include "fpga/sta.hpp"
#include "fpga/synthesis.hpp"
#include "ir/builder.hpp"
#include "ise/identify.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace {

using namespace jitise;
using namespace jitise::ir;

TEST(Fabric, Geometry) {
  const fpga::Fabric fabric;
  EXPECT_GT(fabric.capacity(fpga::SiteKind::Clb), 0u);
  EXPECT_GT(fabric.capacity(fpga::SiteKind::Dsp), 0u);
  EXPECT_GT(fabric.capacity(fpga::SiteKind::Bram), 0u);
  EXPECT_EQ(fabric.capacity(fpga::SiteKind::Clb) +
                fabric.capacity(fpga::SiteKind::Dsp) +
                fabric.capacity(fpga::SiteKind::Bram),
            static_cast<std::size_t>(fabric.width()) * fabric.height());
  EXPECT_TRUE(fpga::Fabric::compatible(hwlib::CellKind::Dsp, fpga::SiteKind::Dsp));
  EXPECT_FALSE(fpga::Fabric::compatible(hwlib::CellKind::Dsp, fpga::SiteKind::Clb));
}

/// Small chain netlist: in -> c0 -> c1 -> ... -> c{k-1} -> out, plus a DSP.
hwlib::Netlist make_chain_netlist(unsigned k) {
  hwlib::Netlist nl;
  nl.top_name = "chain";
  hwlib::NetId prev = nl.new_net();
  nl.add_cell(hwlib::CellKind::PortIn, "in", {}, {prev});
  for (unsigned i = 0; i < k; ++i) {
    const hwlib::NetId next = nl.new_net();
    nl.add_cell(hwlib::CellKind::Cluster, "c" + std::to_string(i), {prev}, {next});
    prev = next;
  }
  const hwlib::NetId dsp_out = nl.new_net();
  nl.add_cell(hwlib::CellKind::Dsp, "d0", {prev}, {dsp_out});
  nl.add_cell(hwlib::CellKind::PortOut, "out", {dsp_out}, {});
  return nl;
}

TEST(Synthesis, NetExtraction) {
  const auto nl = make_chain_netlist(5);
  const auto design = fpga::synthesize_top(nl);
  EXPECT_EQ(design.cell_count(), 8u);        // in + 5 clusters + dsp + out
  EXPECT_EQ(design.net_count(), 7u);         // each net has driver and sink
  EXPECT_EQ(design.count(hwlib::CellKind::Dsp), 1u);
  EXPECT_EQ(design.pruned_nets, 0u);
}

TEST(Synthesis, RejectsMultiplyDriven) {
  hwlib::Netlist nl;
  const hwlib::NetId n = nl.new_net();
  nl.add_cell(hwlib::CellKind::Cluster, "a", {}, {n});
  nl.add_cell(hwlib::CellKind::Cluster, "b", {}, {n});
  EXPECT_THROW((void)fpga::synthesize_top(nl), fpga::CadError);
}

TEST(Placer, LegalAndDeterministic) {
  const auto design = fpga::synthesize_top(make_chain_netlist(30));
  const fpga::Fabric fabric;
  const auto p1 = fpga::place(design, fabric);
  const auto p2 = fpga::place(design, fabric);
  EXPECT_TRUE(p1.legal(design, fabric));
  EXPECT_EQ(p1.location, p2.location);  // same seed, same result
  EXPECT_GT(p1.moves_tried, 0u);

  fpga::PlacerConfig other;
  other.seed = 99;
  const auto p3 = fpga::place(design, fabric, other);
  EXPECT_TRUE(p3.legal(design, fabric));
}

TEST(Placer, ImprovesOverRandom) {
  const auto design = fpga::synthesize_top(make_chain_netlist(60));
  const fpga::Fabric fabric;
  // Initial scatter cost: measure with zero annealing effort.
  fpga::PlacerConfig frozen;
  frozen.initial_temp = 1e-9;
  frozen.stop_temp = 1.0;
  const auto random_placement = fpga::place(design, fabric, frozen);
  const auto annealed = fpga::place(design, fabric);
  EXPECT_LT(annealed.hpwl, random_placement.hpwl * 0.7)
      << "annealing should shrink wirelength substantially";
}

// ---------------------------------------------------------------------------
// Differential test of the annealer against the original full-rescan
// implementation, kept below verbatim (bar one corrected comment) as the
// oracle: for every trial move it rescans the HPWL of every net listed for
// both cells, before and after the move. The incremental placer must
// reproduce its RNG stream and accept sequence exactly, so location, move
// counters and HPWL must be equal.

namespace oracle {

using namespace jitise::fpga;

double net_hpwl(const MappedNet& net, const std::vector<Coord>& loc) {
  std::uint16_t xmin = loc[net.driver].x, xmax = xmin;
  std::uint16_t ymin = loc[net.driver].y, ymax = ymin;
  for (hwlib::CellId s : net.sinks) {
    xmin = std::min(xmin, loc[s].x);
    xmax = std::max(xmax, loc[s].x);
    ymin = std::min(ymin, loc[s].y);
    ymax = std::max(ymax, loc[s].y);
  }
  return static_cast<double>(xmax - xmin) + static_cast<double>(ymax - ymin);
}

Placement place(const MappedDesign& design, const Fabric& fabric,
                const PlacerConfig& config) {
  check_fit(design, fabric);
  support::Xoshiro256 rng(config.seed);
  const std::size_t n = design.cells.size();

  Placement pl;
  pl.location.resize(n);

  // Deterministic initial placement: per site kind, scatter cells over the
  // kind's site list with a seeded shuffle.
  struct Pool {
    std::vector<Coord> sites;
    std::size_t next = 0;
  };
  Pool pools[3];  // indexed by effective kind: 0=CLB, 1=DSP, 2=BRAM
  auto pool_of = [](hwlib::CellKind k) {
    switch (k) {
      case hwlib::CellKind::Dsp: return 1;
      case hwlib::CellKind::Bram: return 2;
      default: return 0;
    }
  };
  pools[0].sites = fabric.sites_for(hwlib::CellKind::Cluster);
  pools[1].sites = fabric.sites_for(hwlib::CellKind::Dsp);
  pools[2].sites = fabric.sites_for(hwlib::CellKind::Bram);
  for (Pool& pool : pools)
    for (std::size_t i = pool.sites.size(); i > 1; --i)
      std::swap(pool.sites[i - 1], pool.sites[rng.below(i)]);
  for (hwlib::CellId c = 0; c < n; ++c)
    pl.location[c] = pools[pool_of(design.cells[c].kind)].sites[
        pools[pool_of(design.cells[c].kind)].next++];

  // Occupancy map for swap moves.
  std::vector<std::int64_t> occupant(
      static_cast<std::size_t>(fabric.width()) * fabric.height(), -1);
  auto site_index = [&](Coord p) {
    return static_cast<std::size_t>(p.y) * fabric.width() + p.x;
  };
  for (hwlib::CellId c = 0; c < n; ++c) occupant[site_index(pl.location[c])] = c;

  // Incremental cost bookkeeping: nets touching a cell.
  std::vector<std::vector<std::uint32_t>> nets_of_cell(n);
  for (std::uint32_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    nets_of_cell[net.driver].push_back(ni);
    for (hwlib::CellId s : net.sinks)
      if (s != net.driver) nets_of_cell[s].push_back(ni);
  }

  double cost = total_hpwl(design, pl.location);
  const double avg_net =
      design.nets.empty() ? 1.0 : cost / static_cast<double>(design.nets.size());
  double temp = std::max(0.5, config.initial_temp * std::max(1.0, avg_net));

  auto delta_for = [&](hwlib::CellId a, std::int64_t b, Coord pa, Coord pb) {
    // Cost delta of moving a -> pb (and occupant b -> pa if b >= 0).
    double before = 0.0, after = 0.0;
    auto accumulate = [&](hwlib::CellId cell) {
      for (std::uint32_t ni : nets_of_cell[cell])
        before += net_hpwl(design.nets[ni], pl.location);
    };
    accumulate(a);
    if (b >= 0) accumulate(static_cast<hwlib::CellId>(b));
    pl.location[a] = pb;
    if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pa;
    auto accumulate_after = [&](hwlib::CellId cell) {
      for (std::uint32_t ni : nets_of_cell[cell])
        after += net_hpwl(design.nets[ni], pl.location);
    };
    accumulate_after(a);
    if (b >= 0) accumulate_after(static_cast<hwlib::CellId>(b));
    // A net on both cells is summed once per listing on each side with equal
    // values (a swap permutes its cells), so it contributes exactly 0; a cell
    // on k sink pins of a net lists it k times. Restore; caller commits if
    // accepted.
    pl.location[a] = pa;
    if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pb;
    return after - before;
  };

  if (n > 0) {
    while (temp > config.stop_temp * std::max(1.0, avg_net)) {
      const std::uint64_t moves =
          std::min(config.max_moves_per_temp,
                   config.moves_per_cell_per_temp * static_cast<std::uint64_t>(n));
      for (std::uint64_t m = 0; m < moves; ++m) {
        ++pl.moves_tried;
        const auto a = static_cast<hwlib::CellId>(rng.below(n));
        const Pool& pool = pools[pool_of(design.cells[a].kind)];
        const Coord pb = pool.sites[rng.below(pool.sites.size())];
        const Coord pa = pl.location[a];
        if (pa == pb) continue;
        const std::int64_t b = occupant[site_index(pb)];
        if (b >= 0 &&
            pool_of(design.cells[static_cast<std::size_t>(b)].kind) !=
                pool_of(design.cells[a].kind))
          continue;  // incompatible swap (different column kinds)
        const double delta = delta_for(a, b, pa, pb);
        if (delta <= 0.0 || rng.uniform() < std::exp(-delta / temp)) {
          pl.location[a] = pb;
          occupant[site_index(pb)] = a;
          occupant[site_index(pa)] = b;
          if (b >= 0) pl.location[static_cast<std::size_t>(b)] = pa;
          cost += delta;
          ++pl.moves_accepted;
        }
      }
      temp *= config.cooling;
    }
  }

  pl.hpwl = total_hpwl(design, pl.location);
  return pl;
}

/// The oracle's cost delta for one trial move, outside the annealing loop.
double delta_for(const MappedDesign& design, std::vector<Coord> loc,
                 hwlib::CellId a, std::int64_t b, Coord pb) {
  std::vector<std::vector<std::uint32_t>> nets_of_cell(design.cells.size());
  for (std::uint32_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    nets_of_cell[net.driver].push_back(ni);
    for (hwlib::CellId s : net.sinks)
      if (s != net.driver) nets_of_cell[s].push_back(ni);
  }
  auto sum = [&](hwlib::CellId cell) {
    double total = 0.0;
    for (std::uint32_t ni : nets_of_cell[cell])
      total += net_hpwl(design.nets[ni], loc);
    return total;
  };
  double before = sum(a), after = 0.0;
  if (b >= 0) before += sum(static_cast<hwlib::CellId>(b));
  const Coord pa = loc[a];
  loc[a] = pb;
  if (b >= 0) loc[static_cast<std::size_t>(b)] = pa;
  after = sum(a);
  if (b >= 0) after += sum(static_cast<hwlib::CellId>(b));
  return after - before;
}

}  // namespace oracle

/// A seeded random design: CLB-kind cells with some DSP and BRAM cells,
/// nets of 1-6 sinks picked with repetition (so a cell can sit on several
/// sink pins of one net, or sink its own net), occasionally a wide net, and
/// on every third seed a control net from cell 0 to every cell (cell 0
/// included). Cell and net counts start at 1 and 0.
fpga::MappedDesign random_design(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  fpga::MappedDesign d;
  d.name = "rand" + std::to_string(seed);
  const std::size_t n = 1 + rng.below(60);
  d.cells.resize(n);
  for (hwlib::Cell& c : d.cells) {
    const std::uint64_t r = rng.below(20);
    c.kind = r < 2    ? hwlib::CellKind::Dsp
             : r < 3  ? hwlib::CellKind::Bram
             : r < 5  ? hwlib::CellKind::PortIn
             : r < 6  ? hwlib::CellKind::PortOut
                      : hwlib::CellKind::Cluster;
  }
  const std::size_t nets = rng.below(2 * n + 1);
  for (std::size_t i = 0; i < nets; ++i) {
    fpga::MappedNet net;
    net.driver = static_cast<hwlib::CellId>(rng.below(n));
    const std::size_t sinks = rng.below(10) == 0 ? 1 + rng.below(3 * n)
                                                 : 1 + rng.below(6);
    for (std::size_t k = 0; k < sinks; ++k)
      net.sinks.push_back(static_cast<hwlib::CellId>(rng.below(n)));
    d.nets.push_back(std::move(net));
  }
  if (seed % 3 == 0) {
    fpga::MappedNet control;
    for (hwlib::CellId c = 0; c < n; ++c) control.sinks.push_back(c);
    d.nets.push_back(std::move(control));
  }
  return d;
}

/// A seeded annealing schedule, short enough for the oracle; every tenth
/// seed caps the moves per temperature.
fpga::PlacerConfig random_config(std::uint64_t seed) {
  support::Xoshiro256 rng(seed ^ 0x5eedULL);
  fpga::PlacerConfig config;
  config.seed = rng();
  config.initial_temp = 0.5 + 3.0 * rng.uniform();
  config.cooling = 0.7 + 0.2 * rng.uniform();
  config.moves_per_cell_per_temp = 1 + static_cast<std::uint32_t>(rng.below(8));
  if (seed % 10 == 0) config.max_moves_per_temp = 20 + rng.below(100);
  return config;
}

void expect_same_placement(const fpga::Placement& got,
                           const fpga::Placement& want,
                           const std::string& what) {
  EXPECT_EQ(got.location, want.location) << what;
  EXPECT_EQ(got.moves_tried, want.moves_tried) << what;
  EXPECT_EQ(got.moves_accepted, want.moves_accepted) << what;
  EXPECT_EQ(got.hpwl, want.hpwl) << what;
}

TEST(PlacerDifferential, MatchesFullRescanOracleOnRandomNetlists) {
  const fpga::Fabric fabric;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    const fpga::MappedDesign design = random_design(seed);
    const fpga::PlacerConfig config = random_config(seed);
    const fpga::Placement got = fpga::place(design, fabric, config);
    expect_same_placement(got, oracle::place(design, fabric, config),
                          design.name);
    ASSERT_TRUE(got.legal(design, fabric)) << design.name;
  }
}

TEST(PlacerDifferential, MatchesOracleOnHighFanoutControlNet) {
  // The suite's widest shape: a control net sinking every one of 330
  // cells next to a chain of two-pin nets, with DSP and BRAM cells.
  fpga::MappedDesign design;
  const std::size_t n = 330;
  design.cells.resize(n);
  for (std::size_t c = 0; c < n; ++c)
    design.cells[c].kind = c % 11 == 0   ? hwlib::CellKind::Dsp
                           : c % 17 == 0 ? hwlib::CellKind::Bram
                                         : hwlib::CellKind::Cluster;
  fpga::MappedNet control;
  control.driver = 0;
  for (hwlib::CellId c = 1; c < n; ++c) control.sinks.push_back(c);
  design.nets.push_back(control);
  for (hwlib::CellId c = 0; c + 1 < n; ++c)
    design.nets.push_back(fpga::MappedNet{c, {c + 1}});
  ASSERT_GE(design.nets[0].sinks.size(), 300u);

  const fpga::Fabric fabric;
  fpga::PlacerConfig config;
  config.moves_per_cell_per_temp = 6;
  expect_same_placement(fpga::place(design, fabric, config),
                        oracle::place(design, fabric, config), "control");
}

TEST(PlacerDifferential, MatchesOracleOnDegenerateDesigns) {
  const fpga::Fabric fabric;
  fpga::MappedDesign empty;
  fpga::MappedDesign one_cell;
  one_cell.cells.resize(1);
  fpga::MappedDesign no_nets;
  no_nets.cells.resize(5);
  no_nets.cells[2].kind = hwlib::CellKind::Dsp;
  fpga::MappedDesign self_loop = one_cell;  // a driver that is its own sink
  self_loop.nets.push_back(fpga::MappedNet{0, {0, 0}});
  for (const auto* design : {&empty, &one_cell, &no_nets, &self_loop}) {
    const fpga::Placement got = fpga::place(*design, fabric);
    expect_same_placement(got, oracle::place(*design, fabric, {}),
                          std::to_string(design->cells.size()) + " cells");
    EXPECT_TRUE(got.legal(*design, fabric));
    EXPECT_EQ(got.hpwl, 0.0);
  }
}

TEST(IncrementalHpwl, TracksTheOracleDeltaOverRandomMoves) {
  // Random propose/commit sequences, including swaps of cells that share
  // nets: every delta equals the full-rescan delta, and the running total
  // stays equal to a from-scratch total_hpwl.
  const fpga::Fabric fabric;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const fpga::MappedDesign design = random_design(seed);
    const auto start = fpga::place(design, fabric, random_config(seed)).location;
    fpga::IncrementalHpwl cost(design, start);
    ASSERT_EQ(static_cast<double>(cost.hpwl()), fpga::total_hpwl(design, start));
    support::Xoshiro256 rng(seed);
    const auto& sites = fabric.sites_for(hwlib::CellKind::Cluster);
    for (int move = 0; move < 200; ++move) {
      const auto a = static_cast<hwlib::CellId>(rng.below(design.cells.size()));
      const bool swap = rng.below(2) == 0;
      std::int64_t b = -1;
      fpga::Coord to = sites[rng.below(sites.size())];
      if (swap) {
        b = static_cast<std::int64_t>(rng.below(design.cells.size()));
        if (b == a) continue;
        to = cost.location()[static_cast<std::size_t>(b)];
      } else if (std::find(cost.location().begin(), cost.location().end(), to) !=
                 cost.location().end()) {
        continue;  // occupied: not a legal relocation
      }
      const double want = oracle::delta_for(design, cost.location(), a, b, to);
      ASSERT_EQ(static_cast<double>(cost.propose(a, b, to)), want)
          << design.name << " move " << move;
      if (rng.below(3) != 0) cost.commit();
      ASSERT_EQ(static_cast<double>(cost.hpwl()),
                fpga::total_hpwl(design, cost.location()))
          << design.name << " move " << move;
    }
  }
}

TEST(IncrementalHpwl, NetsSharedBySwappedCellsContributeZero) {
  // a drives {b, c}; a and b sit on no other net. Swapping a and b
  // permutes the net's cell positions, so its HPWL is unchanged and the
  // delta is exactly 0 -- in the oracle as well: the shared net is counted
  // on both sides, before and after, with equal values.
  fpga::MappedDesign design;
  design.cells.resize(3);
  design.nets.push_back(fpga::MappedNet{0, {1, 2}});
  const std::vector<fpga::Coord> loc{{0, 0}, {5, 9}, {2, 3}};
  fpga::IncrementalHpwl cost(design, loc);
  EXPECT_EQ(cost.propose(0, 1, loc[1]), 0);
  EXPECT_EQ(oracle::delta_for(design, loc, 0, 1, loc[1]), 0.0);
  cost.commit();
  EXPECT_EQ(cost.hpwl(), 14);
  EXPECT_EQ(cost.location()[0], loc[1]);
  EXPECT_EQ(cost.location()[1], loc[0]);
}

TEST(IncrementalHpwl, CellOnKSinkPinsOfANetCountsKTimes) {
  // The annealing delta weights a net by how often the original per-cell
  // net lists held it for the moved cell: k times for a cell on k sink pins,
  // once for a driver that also sinks its own net. The running total is the
  // plain, unweighted HPWL.
  fpga::MappedDesign design;
  design.cells.resize(3);
  design.nets.push_back(fpga::MappedNet{0, {1, 1, 1}});  // cell 1: 3 pins
  design.nets.push_back(fpga::MappedNet{2, {2, 0}});     // 2 sinks itself
  const std::vector<fpga::Coord> loc{{0, 0}, {1, 0}, {0, 1}};
  fpga::IncrementalHpwl cost(design, loc);
  ASSERT_EQ(cost.hpwl(), 1 + 1);

  // Moving cell 1 from x=1 to x=4 stretches net 0 by 3.
  EXPECT_EQ(cost.propose(1, -1, fpga::Coord{4, 0}), 3 * 3);
  EXPECT_EQ(oracle::delta_for(design, loc, 1, -1, fpga::Coord{4, 0}), 9.0);
  cost.commit();
  EXPECT_EQ(cost.hpwl(), 4 + 1);

  // Moving driver-and-sink cell 2 from y=1 to y=6 stretches net 1 by 5,
  // counted once.
  const auto moved = cost.location();
  EXPECT_EQ(cost.propose(2, -1, fpga::Coord{0, 6}), 5);
  EXPECT_EQ(oracle::delta_for(design, moved, 2, -1, fpga::Coord{0, 6}), 5.0);
}

/// FNV-1a over one placement's location, move counters and final HPWL.
void hash_placement(support::Fnv1a& h, const fpga::Placement& pl) {
  for (const fpga::Coord c : pl.location) {
    h.update_value(c.x);
    h.update_value(c.y);
  }
  h.update_value(pl.moves_tried);
  h.update_value(pl.moves_accepted);
  h.update_value(pl.hpwl);
}

/// Places every MaxMISO candidate (of two or more nodes) of every block of
/// `app` the way the tool flow does (placer seed xor project signature) and
/// hashes the placements in block order. Returns {designs, hash}.
std::pair<std::size_t, std::uint64_t> hash_app_placements(
    const std::string& app) {
  const apps::App built = apps::build_app(app);
  const fpga::Fabric fabric;
  hwlib::CircuitDb db;
  support::Fnv1a h;
  std::size_t designs = 0;
  for (ir::FuncId f = 0; f < built.module.functions.size(); ++f) {
    const ir::Function& fn = built.module.functions[f];
    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
      const dfg::BlockDfg graph(fn, b);
      for (ise::Candidate cand : ise::find_max_misos(graph)) {
        if (cand.size() < 2) continue;
        cand.function = f;
        const auto project = datapath::create_project(graph, cand, db, "ci");
        const auto design = fpga::synthesize_top(project.netlist);
        fpga::PlacerConfig config;
        config.seed ^= project.signature;
        hash_placement(h, fpga::place(design, fabric, config));
        ++designs;
      }
    }
  }
  return {designs, h.digest()};
}

// Pinned from the original full-rescan annealer, before the incremental
// bounding-box rewrite: placements of real candidate designs must stay
// bit-identical. The set covers the suite's shapes: control nets with 39,
// 92 and 387 sinks, cells on several sink pins of one net, and designs
// from 8 to 885 cells.
TEST(Placer, GoldenAppPlacementsAreUnchanged) {
  const std::pair<const char*, std::pair<std::size_t, std::uint64_t>> golden[] = {
      {"adpcm", {32, 0x6890e749644b5002ULL}},
      {"fft", {20, 0x0792aad855b960f1ULL}},
      {"whetstone", {20, 0xca83c3781eaa7f30ULL}},
  };
  for (const auto& [app, expected] : golden) {
    const auto [designs, hash] = hash_app_placements(app);
    EXPECT_EQ(designs, expected.first) << app;
    EXPECT_EQ(hash, expected.second) << app << std::hex << " hash " << hash;
  }
}

/// FNV-1a over one routing's per-net edge lists, iteration count and total
/// wirelength.
void hash_routing(support::Fnv1a& h, const fpga::RoutingResult& routing) {
  for (const fpga::RoutedNet& net : routing.nets) {
    h.update_value(net.edges.size());
    for (const std::uint32_t e : net.edges) h.update_value(e);
  }
  h.update_value(routing.iterations);
  h.update_value(routing.total_wirelength);
}

/// Places and routes every MaxMISO candidate (of two or more nodes) of every
/// block of `app` the way the tool flow does and hashes the routings in
/// block order. Returns {designs, hash}.
std::pair<std::size_t, std::uint64_t> hash_app_routings(const std::string& app) {
  const apps::App built = apps::build_app(app);
  const fpga::Fabric fabric;
  hwlib::CircuitDb db;
  support::Fnv1a h;
  std::size_t designs = 0;
  for (ir::FuncId f = 0; f < built.module.functions.size(); ++f) {
    const ir::Function& fn = built.module.functions[f];
    for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
      const dfg::BlockDfg graph(fn, b);
      for (ise::Candidate cand : ise::find_max_misos(graph)) {
        if (cand.size() < 2) continue;
        cand.function = f;
        const auto project = datapath::create_project(graph, cand, db, "ci");
        const auto design = fpga::synthesize_top(project.netlist);
        fpga::PlacerConfig config;
        config.seed ^= project.signature;
        const auto placement = fpga::place(design, fabric, config);
        hash_routing(h, fpga::route(design, fabric, placement));
        ++designs;
      }
    }
  }
  return {designs, h.digest()};
}

// Pinned from the router as it was before its search became
// allocation-free (reused distance arrays, stamped tree membership, one
// reused heap): routes of real candidate designs must stay bit-identical.
TEST(Router, GoldenAppRoutingsAreUnchanged) {
  const std::pair<const char*, std::pair<std::size_t, std::uint64_t>> golden[] = {
      {"adpcm", {32, 0xdfad1011d2844069ULL}},
      {"fft", {20, 0xbd0289fac12dcd7fULL}},
      {"whetstone", {20, 0x523a9b5e6b6aa2f1ULL}},
  };
  for (const auto& [app, expected] : golden) {
    const auto [designs, hash] = hash_app_routings(app);
    EXPECT_EQ(designs, expected.first) << app;
    EXPECT_EQ(hash, expected.second) << app << std::hex << " hash " << hash;
  }
}

TEST(Router, RoutesAndValidates) {
  const auto design = fpga::synthesize_top(make_chain_netlist(40));
  const fpga::Fabric fabric;
  const auto placement = fpga::place(design, fabric);
  const auto routing = fpga::route(design, fabric, placement);
  EXPECT_TRUE(routing.success);
  EXPECT_EQ(routing.overused_edges, 0u);
  EXPECT_GT(routing.total_wirelength, 0u);
  const auto errors = fpga::validate_routing(design, fabric, placement, routing);
  for (const auto& e : errors) ADD_FAILURE() << e;
}

TEST(Router, HandlesCongestion) {
  // Tight fabric with small channel capacity forces negotiation.
  fpga::FabricConfig cfg;
  cfg.width = 6;
  cfg.height = 6;
  cfg.dsp_column_period = 0;
  cfg.bram_column_period = 0;
  cfg.wires_per_channel = 2;
  const fpga::Fabric fabric(cfg);

  // Star netlist: one hub driving many leaves -> congestion near the hub.
  hwlib::Netlist nl;
  nl.top_name = "star";
  const hwlib::NetId hub_out = nl.new_net();
  nl.add_cell(hwlib::CellKind::Cluster, "hub", {}, {hub_out});
  for (int i = 0; i < 12; ++i) {
    const hwlib::NetId leaf_out = nl.new_net();
    nl.add_cell(hwlib::CellKind::Cluster, "leaf" + std::to_string(i),
                {hub_out}, {leaf_out});
    nl.add_cell(hwlib::CellKind::PortOut, "o" + std::to_string(i), {leaf_out}, {});
  }
  const auto design = fpga::synthesize_top(nl);
  const auto placement = fpga::place(design, fabric);
  const auto routing = fpga::route(design, fabric, placement);
  EXPECT_TRUE(routing.success);
  const auto errors = fpga::validate_routing(design, fabric, placement, routing);
  for (const auto& e : errors) ADD_FAILURE() << e;
}

TEST(Sta, ChainTiming) {
  const unsigned k = 10;
  const auto design = fpga::synthesize_top(make_chain_netlist(k));
  const fpga::Fabric fabric;
  const auto placement = fpga::place(design, fabric);
  const auto routing = fpga::route(design, fabric, placement);
  const auto timing = fpga::analyze_timing(design, fabric, placement, routing);
  EXPECT_FALSE(timing.combinational_loop);
  // Path: in + 10 clusters + dsp + out = 13 cells.
  EXPECT_EQ(timing.logic_levels, k + 3);
  fpga::DelayModel d;
  const double min_expected =
      2 * d.port_ns + k * d.cluster_ns + d.dsp_ns;  // zero wire delay bound
  EXPECT_GE(timing.critical_path_ns, min_expected);
  EXPECT_GT(timing.fmax_mhz, 0.0);
}

TEST(Bitgen, DeterministicAndSized) {
  const auto design = fpga::synthesize_top(make_chain_netlist(20));
  const fpga::Fabric fabric;
  const auto placement = fpga::place(design, fabric);
  const auto routing = fpga::route(design, fabric, placement);
  const auto b1 =
      fpga::generate_bitstream(design, fabric, placement, routing, "xc4vfx100");
  const auto b2 =
      fpga::generate_bitstream(design, fabric, placement, routing, "xc4vfx100");
  EXPECT_EQ(b1.bytes, b2.bytes);
  EXPECT_EQ(b1.crc32, b2.crc32);
  EXPECT_EQ(b1.frame_count, fabric.width());
  EXPECT_GT(b1.size_bytes(),
            static_cast<std::size_t>(fabric.width()) * fabric.height());

  // A different placement seed changes the bitstream.
  fpga::PlacerConfig other;
  other.seed = 1234;
  const auto placement2 = fpga::place(design, fabric, other);
  const auto routing2 = fpga::route(design, fabric, placement2);
  const auto b3 = fpga::generate_bitstream(design, fabric, placement2, routing2,
                                           "xc4vfx100");
  EXPECT_NE(b1.bytes, b3.bytes);
}

TEST(RuntimeModel, CalibratedToPaperTableIII) {
  const cad::CadRuntimeModel model;
  support::RunningStats c2v, syn, xst, tra, bitgen;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    c2v.add(model.c2v_seconds(seed));
    syn.add(model.syn_seconds(seed));
    xst.add(model.xst_seconds(100, seed));
    tra.add(model.tra_seconds(seed));
    bitgen.add(model.bitgen_seconds(seed));
  }
  EXPECT_NEAR(c2v.mean(), 3.22, 0.05);
  EXPECT_NEAR(syn.mean(), 4.22, 0.05);
  EXPECT_NEAR(xst.mean(), 10.60 + 0.2, 0.15);
  EXPECT_NEAR(tra.mean(), 8.99, 0.25);
  EXPECT_NEAR(bitgen.mean(), 151.0, 1.0);
  EXPECT_NEAR(bitgen.stdev(), 2.43, 0.8);
  // Bitgen dominates the constant overheads (paper: 85 %).
  const double constants = model.constant_overhead_seconds(42);
  EXPECT_GT(model.bitgen_seconds(42) / constants, 0.80);
}

TEST(RuntimeModel, MapParScaling) {
  const cad::CadRuntimeModel model;
  // Small candidates near the lower bound, big candidates near the upper.
  EXPECT_NEAR(model.map_seconds(5, 1), 40.0, 6.0);
  EXPECT_GT(model.map_seconds(900, 1), 300.0);
  EXPECT_LE(model.map_seconds(5000, 1), 456.0 * 1.1);
  // PAR/map ratio grows from ~1.4 with size (paper §V-C), but PAR never
  // exceeds the observed 728 s ceiling.
  const double small_ratio = model.par_seconds(10, 10, 1) / model.map_seconds(10, 1);
  const double mid_ratio = model.par_seconds(300, 300, 1) / model.map_seconds(300, 1);
  EXPECT_NEAR(small_ratio, 1.4, 0.2);
  EXPECT_GT(mid_ratio, small_ratio);
  EXPECT_LE(model.par_seconds(900, 900, 1), 728.0 * 1.05);
  // Speedup fraction scales everything linearly.
  cad::CadRuntimeModel faster = model;
  faster.speedup_fraction = 0.30;
  EXPECT_NEAR(faster.bitgen_seconds(7), 0.7 * model.bitgen_seconds(7), 1e-9);
}

TEST(Syntax, AcceptsGeneratedVhdl) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId s = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  const ValueId t = fb.binop(Opcode::Mul, s, fb.const_int(Type::I32, 3));
  fb.ret(t);
  fb.finish();
  const dfg::BlockDfg graph(m.functions[0], 0);
  const auto misos = ise::find_max_misos(graph);
  ASSERT_EQ(misos.size(), 1u);
  hwlib::CircuitDb db;
  const std::string vhdl = datapath::generate_vhdl(graph, misos[0], db, "ok");
  const auto errors = cad::check_vhdl_syntax(vhdl);
  for (const auto& e : errors) ADD_FAILURE() << e << "\n" << vhdl;
}

TEST(Syntax, RejectsBroken) {
  EXPECT_FALSE(cad::check_vhdl_syntax("garbage").empty());
  EXPECT_FALSE(cad::check_vhdl_syntax(
                   "entity x is\nend entity;\n")  // no architecture
                   .empty());
  const char* bad_signal =
      "library ieee;\n"
      "entity x is\n  port (\n    a : in std_logic_vector(3 downto 0)\n  );\n"
      "end entity;\n"
      "architecture s of x is\nbegin\n  y <= a;\nend architecture;\n";
  const auto errors = cad::check_vhdl_syntax(bad_signal);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("undeclared"), std::string::npos);
}

TEST(Flow, EndToEndImplementation) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId s = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  const ValueId d = fb.binop(Opcode::Sub, fb.param(0), fb.param(1));
  const ValueId p = fb.binop(Opcode::Mul, s, d);
  const ValueId q = fb.binop(Opcode::Xor, p, s);
  fb.ret(q);
  fb.finish();
  const dfg::BlockDfg graph(m.functions[0], 0);
  auto misos = ise::find_max_misos(graph);
  // s feeds both mul and xor, so it roots its own MaxMISO; {d, p, q} is the
  // other. Implement the larger one.
  std::sort(misos.begin(), misos.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  ASSERT_EQ(misos.size(), 2u);
  ASSERT_EQ(misos[0].size(), 3u);

  hwlib::CircuitDb db;
  const auto project = datapath::create_project(graph, misos[0], db, "ci_e2e");
  const auto result = cad::implement_candidate(project);

  EXPECT_GT(result.cells, 0u);
  EXPECT_GT(result.nets, 0u);
  EXPECT_GT(result.dsp_cells, 0u);  // mul
  EXPECT_GT(result.bitstream.size_bytes(), 0u);
  EXPECT_FALSE(result.timing.combinational_loop);
  EXPECT_GT(result.timing.critical_path_ns, 0.0);

  // Modeled runtimes: every stage populated, bitgen dominates constants.
  EXPECT_GT(result.syn.modeled_seconds, 0.0);
  EXPECT_GT(result.map.modeled_seconds, 30.0);
  EXPECT_GT(result.par.modeled_seconds, result.map.modeled_seconds);
  EXPECT_GT(result.bitgen.modeled_seconds, 100.0);
  EXPECT_GT(result.total_modeled_seconds(), result.constant_modeled_seconds());

  // Determinism end to end.
  const auto again = cad::implement_candidate(project);
  EXPECT_EQ(result.bitstream.bytes, again.bitstream.bytes);
}

TEST(GreedyPlacer, LegalDeterministicAndRoutable) {
  const auto design = fpga::synthesize_top(make_chain_netlist(50));
  const fpga::Fabric fabric;
  const auto p1 = fpga::place_greedy(design, fabric);
  const auto p2 = fpga::place_greedy(design, fabric);
  EXPECT_TRUE(p1.legal(design, fabric));
  EXPECT_EQ(p1.location, p2.location);
  // Connected cells should sit close: greedy HPWL must beat random scatter.
  fpga::PlacerConfig frozen;
  frozen.initial_temp = 1e-9;
  frozen.stop_temp = 1.0;
  const auto random_placement = fpga::place(design, fabric, frozen);
  EXPECT_LT(p1.hpwl, random_placement.hpwl);
  // And the result routes.
  const auto routing = fpga::route(design, fabric, p1);
  EXPECT_TRUE(routing.success);
}

TEST(Flow, FastPlacerMode) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId s = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  const ValueId d = fb.binop(Opcode::Mul, s, fb.param(0));
  fb.ret(d);
  fb.finish();
  const dfg::BlockDfg graph(m.functions[0], 0);
  auto misos = ise::find_max_misos(graph);
  ASSERT_EQ(misos.size(), 1u);
  hwlib::CircuitDb db;
  const auto project = datapath::create_project(graph, misos[0], db, "fastci");

  cad::ToolFlowConfig fast;
  fast.fast_placer = true;
  const auto result = cad::implement_candidate(project, fast);
  EXPECT_GT(result.bitstream.size_bytes(), 0u);
  EXPECT_FALSE(result.timing.combinational_loop);
}

TEST(RuntimeModel, CoarseGrainedOverlayIsMuchFaster) {
  const cad::CadRuntimeModel fine;
  const auto coarse = cad::CadRuntimeModel::coarse_grained_overlay();
  EXPECT_LT(coarse.constant_overhead_seconds(1) * 20,
            fine.constant_overhead_seconds(1));
  EXPECT_LT(coarse.map_seconds(200, 1) * 5, fine.map_seconds(200, 1));
}

TEST(Report, FloorplanAndUtilization) {
  const auto design = fpga::synthesize_top(make_chain_netlist(10));
  const fpga::Fabric fabric;
  const auto placement = fpga::place_greedy(design, fabric);
  const std::string plan = fpga::floorplan_ascii(design, fabric, placement);
  // One line per row, each as wide as the fabric.
  std::size_t lines = 0;
  for (char c : plan) lines += c == '\n';
  EXPECT_EQ(lines, fabric.height());
  EXPECT_NE(plan.find('#'), std::string::npos);  // clusters visible
  EXPECT_NE(plan.find('D'), std::string::npos);  // the DSP cell
  const std::string util = fpga::utilization_report(design, fabric);
  EXPECT_NE(util.find("DSP48"), std::string::npos);
  EXPECT_NE(util.find("%"), std::string::npos);
}

}  // namespace
