// Simulated-annealing placement (the "MAP/PAR placement" step).
//
// Classic VPR-style annealer: half-perimeter wirelength (HPWL) cost,
// move = relocate a random cell to a random compatible site (swapping with
// any occupant), geometric cooling, deterministic under a fixed seed. Move
// costs are incremental (see IncrementalHpwl).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fpga/fabric.hpp"
#include "fpga/synthesis.hpp"

namespace jitise::fpga {

struct PlacerConfig {
  std::uint64_t seed = 1;
  double initial_temp = 2.0;       // relative to average net HPWL
  double cooling = 0.92;
  std::uint32_t moves_per_cell_per_temp = 12;
  /// Caps moves per temperature step so very large candidates anneal in
  /// bounded time (quality degrades gracefully, like a capped-effort VPR run).
  std::uint64_t max_moves_per_temp = 40000;
  double stop_temp = 0.005;
};

struct Placement {
  std::vector<Coord> location;  // per cell
  double hpwl = 0.0;            // final cost
  std::uint64_t moves_tried = 0;
  std::uint64_t moves_accepted = 0;

  [[nodiscard]] bool legal(const MappedDesign& design,
                           const Fabric& fabric) const;
};

/// Incremental HPWL bookkeeping behind `place` (exposed for tests).
///
/// Caches every net's HPWL. A trial move re-evaluates only the nets on the
/// moved cells: nets of at most kSmallNet distinct cells are rescanned,
/// wider ones update a VPR-style bounding box with per-edge cell counts
/// (Betz & Rose, FPL 1997) and rescan only when an edge the cell leaves
/// empties. A net holding both swapped cells is skipped: the swap permutes
/// its cells' positions, so its HPWL and edge counts cannot change.
///
/// The annealing delta weights a net by how often it was listed for the
/// moved cell in the original per-cell net lists: once for its driver
/// (also when the driver sinks its own net), k times for a cell on k sink
/// pins. Every term is an integer, so the delta is exact and equal to the
/// full-rescan sum it replaces.
class IncrementalHpwl {
 public:
  IncrementalHpwl(const MappedDesign& design, std::vector<Coord> location);

  /// Weighted cost delta of moving cell `a` to `to` and, when `b >= 0`,
  /// cell `b` (the occupant of `to`) to a's site. Stages the new per-net
  /// state for `commit()`; the next `propose` discards it.
  [[nodiscard]] std::int64_t propose(hwlib::CellId a, std::int64_t b, Coord to);
  /// Applies the last proposal.
  void commit();

  [[nodiscard]] const std::vector<Coord>& location() const noexcept {
    return location_;
  }
  [[nodiscard]] std::vector<Coord> take_location() noexcept {
    return std::move(location_);
  }
  /// Running total HPWL (unweighted: what `total_hpwl` sums).
  [[nodiscard]] std::int64_t hpwl() const noexcept { return hpwl_; }

 private:
  /// Nets of at most this many distinct cells are rescanned, not tracked.
  static constexpr std::uint32_t kSmallNet = 8;

  struct Box {
    std::uint16_t xmin = 0, xmax = 0, ymin = 0, ymax = 0;
    std::uint32_t n_xmin = 0, n_xmax = 0, n_ymin = 0, n_ymax = 0;
  };
  /// One net on one cell; the net's distinct cells are
  /// net_cells_[begin, end).
  struct Pin {
    std::uint32_t net;
    std::uint32_t weight;  // annealing weight (see the class comment)
    std::uint32_t begin;
    std::uint32_t end;
  };
  struct StagedHpwl {
    std::uint32_t net;
    std::int32_t hpwl;
  };
  struct StagedBox {
    std::uint32_t net;
    Box box;
  };

  [[nodiscard]] static std::int32_t half_perimeter(const Box& b) noexcept {
    return (b.xmax - b.xmin) + (b.ymax - b.ymin);
  }
  [[nodiscard]] std::span<const Pin> pins_of(hwlib::CellId cell) const;
  [[nodiscard]] Box bounds(const Pin& pin) const;
  [[nodiscard]] Box scan(const Pin& pin) const;
  /// Stages `pin`'s net with its cell moved `from` -> `to`; returns the
  /// net's HPWL change.
  std::int32_t stage(const Pin& pin, Coord from, Coord to);

  std::vector<Coord> location_;
  std::vector<hwlib::CellId> net_cells_;   // distinct cells, net by net
  std::vector<std::uint32_t> cell_begin_;  // CSR: pins per cell, by net
  std::vector<Pin> cell_pins_;
  std::vector<std::int32_t> net_hpwl_;
  std::vector<Box> box_;  // per net; maintained for wide nets only
  std::int64_t hpwl_ = 0;

  std::vector<StagedHpwl> staged_hpwl_;
  std::vector<StagedBox> staged_box_;
  std::int64_t staged_delta_ = 0;  // unweighted
  hwlib::CellId staged_a_ = 0;
  std::int64_t staged_b_ = -1;
  Coord staged_from_, staged_to_;
};

/// Places `design` onto `fabric`. Throws CadError if the design does not fit.
[[nodiscard]] Placement place(const MappedDesign& design, const Fabric& fabric,
                              const PlacerConfig& config = {});

/// Greedy constructive placement — the "customized tools [that] work
/// significantly faster" direction of the paper's §VI-B: cells are visited
/// in BFS order over the netlist and dropped onto the free compatible site
/// nearest the centroid of their already-placed neighbours. One pass, no
/// annealing; typically 1-2x the annealer's wirelength at a small fraction
/// of its runtime (see the micro_fast_cad benchmark).
[[nodiscard]] Placement place_greedy(const MappedDesign& design,
                                     const Fabric& fabric);

/// HPWL of the full design under `location` (exposed for tests).
[[nodiscard]] double total_hpwl(const MappedDesign& design,
                                const std::vector<Coord>& location);

}  // namespace jitise::fpga
