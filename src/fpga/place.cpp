#include "fpga/place.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "support/rng.hpp"

namespace jitise::fpga {

namespace {

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

/// VPR's incremental update of one axis of a net's box when one of its
/// cells moves from `from` to `to`. Returns false when the edge the cell
/// leaves empties; the caller then rescans the net.
bool shift(std::uint16_t from, std::uint16_t to, std::uint16_t& lo,
           std::uint32_t& n_lo, std::uint16_t& hi, std::uint32_t& n_hi) {
  if (to < from) {
    if (from == hi) {
      if (n_hi == 1) return false;
      --n_hi;
    }
    if (to < lo) {
      lo = to;
      n_lo = 1;
    } else if (to == lo) {
      ++n_lo;
    }
  } else if (to > from) {
    if (from == lo) {
      if (n_lo == 1) return false;
      --n_lo;
    }
    if (to > hi) {
      hi = to;
      n_hi = 1;
    } else if (to == hi) {
      ++n_hi;
    }
  }
  return true;
}

}  // namespace

double total_hpwl(const MappedDesign& design,
                  const std::vector<Coord>& location) {
  double sum = 0.0;
  for (const MappedNet& net : design.nets) sum += net_hpwl(net, location);
  return sum;
}

bool Placement::legal(const MappedDesign& design, const Fabric& fabric) const {
  if (location.size() != design.cells.size()) return false;
  std::vector<std::uint8_t> used(
      static_cast<std::size_t>(fabric.width()) * fabric.height(), 0);
  for (hwlib::CellId c = 0; c < design.cells.size(); ++c) {
    const Coord p = location[c];
    if (p.x >= fabric.width() || p.y >= fabric.height()) return false;
    if (!Fabric::compatible(design.cells[c].kind, fabric.site(p.x, p.y)))
      return false;
    const std::size_t idx = static_cast<std::size_t>(p.y) * fabric.width() + p.x;
    if (used[idx]) return false;
    used[idx] = 1;
  }
  return true;
}

IncrementalHpwl::IncrementalHpwl(const MappedDesign& design,
                                 std::vector<Coord> location)
    : location_(std::move(location)) {
  const std::size_t n = location_.size();

  // Distinct cells per net (driver first) and each cell's weight on it.
  std::vector<std::uint32_t> weight_of(n, 0);
  std::vector<Pin> pins;  // net by net
  std::vector<hwlib::CellId> pin_cell;
  for (std::uint32_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    const auto begin = static_cast<std::uint32_t>(net_cells_.size());
    net_cells_.push_back(net.driver);
    weight_of[net.driver] = 1;
    for (hwlib::CellId s : net.sinks) {
      if (s == net.driver) continue;
      if (weight_of[s]++ == 0) net_cells_.push_back(s);
    }
    const auto end = static_cast<std::uint32_t>(net_cells_.size());
    for (std::uint32_t i = begin; i < end; ++i) {
      const hwlib::CellId c = net_cells_[i];
      pins.push_back(Pin{ni, weight_of[c], begin, end});
      pin_cell.push_back(c);
      weight_of[c] = 0;
    }
    const Pin& driver = pins[pins.size() - (end - begin)];
    box_.push_back(end - begin > kSmallNet ? scan(driver) : bounds(driver));
    net_hpwl_.push_back(half_perimeter(box_.back()));
    hpwl_ += net_hpwl_.back();
  }

  // Regroup the pins by cell; a stable counting sort keeps nets ascending.
  cell_begin_.assign(n + 1, 0);
  for (hwlib::CellId c : pin_cell) ++cell_begin_[c + 1];
  std::uint32_t most = 0;
  for (std::size_t c = 0; c < n; ++c) {
    most = std::max(most, cell_begin_[c + 1]);
    cell_begin_[c + 1] += cell_begin_[c];
  }
  cell_pins_.resize(pins.size());
  std::vector<std::uint32_t> fill(cell_begin_.begin(), cell_begin_.end() - 1);
  for (std::size_t i = 0; i < pins.size(); ++i)
    cell_pins_[fill[pin_cell[i]]++] = pins[i];
  staged_hpwl_.reserve(2 * std::size_t{most});
  staged_box_.reserve(2 * std::size_t{most});
}

std::span<const IncrementalHpwl::Pin> IncrementalHpwl::pins_of(
    hwlib::CellId cell) const {
  return {cell_pins_.data() + cell_begin_[cell],
          cell_pins_.data() + cell_begin_[cell + 1]};
}

IncrementalHpwl::Box IncrementalHpwl::bounds(const Pin& pin) const {
  Box b;
  b.xmin = b.xmax = location_[net_cells_[pin.begin]].x;
  b.ymin = b.ymax = location_[net_cells_[pin.begin]].y;
  for (std::uint32_t i = pin.begin + 1; i < pin.end; ++i) {
    const Coord p = location_[net_cells_[i]];
    b.xmin = std::min(b.xmin, p.x);
    b.xmax = std::max(b.xmax, p.x);
    b.ymin = std::min(b.ymin, p.y);
    b.ymax = std::max(b.ymax, p.y);
  }
  return b;
}

IncrementalHpwl::Box IncrementalHpwl::scan(const Pin& pin) const {
  Box b = bounds(pin);
  for (std::uint32_t i = pin.begin; i < pin.end; ++i) {
    const Coord p = location_[net_cells_[i]];
    b.n_xmin += p.x == b.xmin;
    b.n_xmax += p.x == b.xmax;
    b.n_ymin += p.y == b.ymin;
    b.n_ymax += p.y == b.ymax;
  }
  return b;
}

std::int32_t IncrementalHpwl::stage(const Pin& pin, Coord from, Coord to) {
  Box box;
  if (pin.end - pin.begin <= kSmallNet) {
    box = bounds(pin);
  } else {
    box = box_[pin.net];
    if (!shift(from.x, to.x, box.xmin, box.n_xmin, box.xmax, box.n_xmax) ||
        !shift(from.y, to.y, box.ymin, box.n_ymin, box.ymax, box.n_ymax))
      box = scan(pin);
    staged_box_.push_back(StagedBox{pin.net, box});
  }
  const std::int32_t hpwl = half_perimeter(box);
  staged_hpwl_.push_back(StagedHpwl{pin.net, hpwl});
  return hpwl - net_hpwl_[pin.net];
}

std::int64_t IncrementalHpwl::propose(hwlib::CellId a, std::int64_t b,
                                      Coord to) {
  staged_hpwl_.clear();
  staged_box_.clear();
  staged_a_ = a;
  staged_b_ = b;
  const Coord from = location_[a];
  staged_from_ = from;
  staged_to_ = to;
  std::int64_t delta = 0, unweighted = 0;
  auto add = [&](const Pin& pin, Coord pin_from, Coord pin_to) {
    const std::int64_t diff = stage(pin, pin_from, pin_to);
    delta += static_cast<std::int64_t>(pin.weight) * diff;
    unweighted += diff;
  };
  // Rescans read the moved cells at their new sites.
  location_[a] = to;
  const auto pa = pins_of(a);
  if (b < 0) {
    for (const Pin& pin : pa) add(pin, from, to);
  } else {
    const auto ub = static_cast<std::size_t>(b);
    location_[ub] = from;
    const auto pb = pins_of(static_cast<hwlib::CellId>(b));
    std::size_t i = 0, j = 0;
    while (i < pa.size() || j < pb.size()) {
      if (j == pb.size() || (i < pa.size() && pa[i].net < pb[j].net)) {
        add(pa[i++], from, to);
      } else if (i == pa.size() || pb[j].net < pa[i].net) {
        add(pb[j++], to, from);
      } else {
        ++i;  // shared by both cells: a swap leaves the net unchanged
        ++j;
      }
    }
    location_[ub] = to;
  }
  location_[a] = from;
  staged_delta_ = unweighted;
  return delta;
}

void IncrementalHpwl::commit() {
  for (const StagedHpwl& s : staged_hpwl_) net_hpwl_[s.net] = s.hpwl;
  for (const StagedBox& s : staged_box_) box_[s.net] = s.box;
  location_[staged_a_] = staged_to_;
  if (staged_b_ >= 0) location_[static_cast<std::size_t>(staged_b_)] = staged_from_;
  hpwl_ += staged_delta_;
  staged_hpwl_.clear();
  staged_box_.clear();
  staged_delta_ = 0;
}

Placement place(const MappedDesign& design, const Fabric& fabric,
                const PlacerConfig& config) {
  check_fit(design, fabric);
  support::Xoshiro256 rng(config.seed);
  const std::size_t n = design.cells.size();

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
  std::vector<int> pool_of_cell(n);
  std::vector<Coord> initial(n);
  for (hwlib::CellId c = 0; c < n; ++c) {
    pool_of_cell[c] = pool_of(design.cells[c].kind);
    initial[c] = pools[pool_of_cell[c]].sites[pools[pool_of_cell[c]].next++];
  }

  // Occupancy map for swap moves.
  std::vector<std::int64_t> occupant(
      static_cast<std::size_t>(fabric.width()) * fabric.height(), -1);
  auto site_index = [&](Coord p) {
    return static_cast<std::size_t>(p.y) * fabric.width() + p.x;
  };
  for (hwlib::CellId c = 0; c < n; ++c) occupant[site_index(initial[c])] = c;

  IncrementalHpwl cost(design, std::move(initial));
  const std::vector<Coord>& location = cost.location();
  const double avg_net = design.nets.empty()
                             ? 1.0
                             : static_cast<double>(cost.hpwl()) /
                                   static_cast<double>(design.nets.size());
  double temp = std::max(0.5, config.initial_temp * std::max(1.0, avg_net));

  // Within one temperature step exp(-delta / temp) depends only on the
  // integer delta, so small deltas' acceptance probabilities are memoized.
  std::vector<double> boltzmann(256);
  Placement pl;
  if (n > 0) {
    while (temp > config.stop_temp * std::max(1.0, avg_net)) {
      std::fill(boltzmann.begin(), boltzmann.end(), -1.0);
      auto accept = [&](std::int64_t delta) {
        if (delta <= 0) return true;
        const double u = rng.uniform();
        if (static_cast<std::uint64_t>(delta) >= boltzmann.size())
          return u < std::exp(-static_cast<double>(delta) / temp);
        double& p = boltzmann[static_cast<std::size_t>(delta)];
        if (p < 0.0) p = std::exp(-static_cast<double>(delta) / temp);
        return u < p;
      };
      const std::uint64_t moves =
          std::min(config.max_moves_per_temp,
                   config.moves_per_cell_per_temp * static_cast<std::uint64_t>(n));
      for (std::uint64_t m = 0; m < moves; ++m) {
        ++pl.moves_tried;
        const auto a = static_cast<hwlib::CellId>(rng.below(n));
        const Pool& pool = pools[pool_of_cell[a]];
        const Coord pb = pool.sites[rng.below(pool.sites.size())];
        const Coord pa = location[a];
        if (pa == pb) continue;
        const std::int64_t b = occupant[site_index(pb)];
        if (b >= 0 && pool_of_cell[static_cast<std::size_t>(b)] != pool_of_cell[a])
          continue;  // incompatible swap (different column kinds)
        if (accept(cost.propose(a, b, pb))) {
          cost.commit();
          occupant[site_index(pb)] = a;
          occupant[site_index(pa)] = b;
          ++pl.moves_accepted;
        }
      }
      temp *= config.cooling;
    }
  }

  pl.location = cost.take_location();
  pl.hpwl = total_hpwl(design, pl.location);
  assert(static_cast<double>(cost.hpwl()) == pl.hpwl);
  return pl;
}

}  // namespace jitise::fpga

namespace jitise::fpga {

Placement place_greedy(const MappedDesign& design, const Fabric& fabric) {
  check_fit(design, fabric);
  const std::size_t n = design.cells.size();
  Placement pl;
  pl.location.resize(n);
  if (n == 0) return pl;

  // Adjacency over nets (driver <-> sinks).
  std::vector<std::vector<hwlib::CellId>> adj(n);
  for (const MappedNet& net : design.nets) {
    for (hwlib::CellId s : net.sinks) {
      if (s == net.driver) continue;
      adj[net.driver].push_back(s);
      adj[s].push_back(net.driver);
    }
  }

  // Free-site lists per kind, kept sorted once; nearest-site search scans
  // them (n and site counts are small at candidate scale).
  auto kind_index = [](hwlib::CellKind k) {
    switch (k) {
      case hwlib::CellKind::Dsp: return 1;
      case hwlib::CellKind::Bram: return 2;
      default: return 0;
    }
  };
  std::vector<Coord> free_sites[3] = {
      fabric.sites_for(hwlib::CellKind::Cluster),
      fabric.sites_for(hwlib::CellKind::Dsp),
      fabric.sites_for(hwlib::CellKind::Bram)};

  auto take_nearest = [&](int kind, double cx, double cy) {
    std::vector<Coord>& sites = free_sites[kind];
    std::size_t best = 0;
    double best_d = 1e30;
    for (std::size_t i = 0; i < sites.size(); ++i) {
      const double dx = sites[i].x - cx, dy = sites[i].y - cy;
      const double d = dx * dx + dy * dy;
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    const Coord c = sites[best];
    sites.erase(sites.begin() + static_cast<std::ptrdiff_t>(best));
    return c;
  };

  // BFS from cell 0 (ports and heads come first in generated netlists);
  // unreached cells seed further BFS waves.
  std::vector<std::uint8_t> placed(n, 0);
  std::vector<std::uint8_t> has_coords(n, 0);
  const double center_x = fabric.width() / 2.0;
  const double center_y = fabric.height() / 2.0;
  std::vector<hwlib::CellId> queue;
  for (hwlib::CellId seed = 0; seed < n; ++seed) {
    if (placed[seed]) continue;
    queue.push_back(seed);
    placed[seed] = 1;
    for (std::size_t qi = queue.size() - 1; qi < queue.size(); ++qi) {
      const hwlib::CellId c = queue[qi];
      // Centroid of neighbours that already have final coordinates.
      double cx = 0, cy = 0;
      unsigned cnt = 0;
      for (hwlib::CellId nb : adj[c]) {
        if (nb == c || !has_coords[nb]) continue;
        cx += pl.location[nb].x;
        cy += pl.location[nb].y;
        ++cnt;
      }
      if (cnt == 0) {
        cx = center_x;
        cy = center_y;
      } else {
        cx /= cnt;
        cy /= cnt;
      }
      pl.location[c] = take_nearest(kind_index(design.cells[c].kind), cx, cy);
      has_coords[c] = 1;
      for (hwlib::CellId nb : adj[c])
        if (!placed[nb]) {
          placed[nb] = 1;
          queue.push_back(nb);
        }
    }
  }
  pl.hpwl = total_hpwl(design, pl.location);
  return pl;
}

}  // namespace jitise::fpga
