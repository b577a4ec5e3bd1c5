#include "fpga/route.hpp"

#include <algorithm>
#include <functional>
#include <set>

namespace jitise::fpga {

namespace {

/// Flat grid routing graph: 4 directed edges per tile (to N/S/E/W).
class RoutingGraph {
 public:
  explicit RoutingGraph(const Fabric& fabric)
      : w_(fabric.width()), h_(fabric.height()) {
    // Edge ids: for each tile t and direction d in {E,W,N,S}, id = t*4+d
    // when the neighbour exists (nonexistent edges keep capacity 0).
    edges_.resize(static_cast<std::size_t>(w_) * h_ * 4);
    for (std::uint16_t y = 0; y < h_; ++y) {
      for (std::uint16_t x = 0; x < w_; ++x) {
        const std::uint32_t t = tile(x, y);
        if (x + 1 < w_) edges_[t * 4 + 0] = Edge{t, tile(x + 1, y)};
        if (x > 0) edges_[t * 4 + 1] = Edge{t, tile(x - 1, y)};
        if (y + 1 < h_) edges_[t * 4 + 2] = Edge{t, tile(x, y + 1)};
        if (y > 0) edges_[t * 4 + 3] = Edge{t, tile(x, y - 1)};
      }
    }
  }

  [[nodiscard]] std::uint32_t tile(std::uint16_t x, std::uint16_t y) const {
    return static_cast<std::uint32_t>(y) * w_ + x;
  }
  [[nodiscard]] std::size_t num_tiles() const {
    return static_cast<std::size_t>(w_) * h_;
  }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] const Edge& edge(std::uint32_t e) const { return edges_[e]; }
  [[nodiscard]] bool edge_exists(std::uint32_t e) const {
    return edges_[e].from != edges_[e].to;
  }

  /// Outgoing edge ids of tile `t`.
  void out_edges(std::uint32_t t, std::uint32_t out[4], unsigned& n) const {
    n = 0;
    for (unsigned d = 0; d < 4; ++d) {
      const std::uint32_t e = t * 4 + d;
      if (edge_exists(e)) out[n++] = e;
    }
  }

 private:
  std::uint16_t w_, h_;
  std::vector<Edge> edges_;  // from==to means "does not exist"
};

}  // namespace

RoutingResult route(const MappedDesign& design, const Fabric& fabric,
                    const Placement& placement, const RouterConfig& config) {
  const RoutingGraph graph(fabric);
  const double capacity = fabric.channel_capacity();

  RoutingResult result;
  result.nets.resize(design.nets.size());

  std::vector<std::uint16_t> usage(graph.num_edges(), 0);
  std::vector<double> history(graph.num_edges(), 0.0);

  // Pin tiles per net (driver first), deduplicated.
  std::vector<std::vector<std::uint32_t>> pins(design.nets.size());
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    const Coord d = placement.location[net.driver];
    pins[ni].push_back(graph.tile(d.x, d.y));
    for (hwlib::CellId s : net.sinks) {
      const Coord p = placement.location[s];
      const std::uint32_t t = graph.tile(p.x, p.y);
      if (std::find(pins[ni].begin(), pins[ni].end(), t) == pins[ni].end())
        pins[ni].push_back(t);
    }
  }

  double present_penalty = config.present_factor;

  // Search state shared by every sink search: a search resets only the
  // tiles it touched, and a tile is in the current net's tree when its stamp
  // equals the net's. The heap pops in (dist, tile) order, the order the
  // route depends on, however the tree tiles were pushed.
  constexpr double kInf = 1e30;
  std::vector<double> dist(graph.num_tiles(), kInf);
  std::vector<std::uint32_t> via_edge(graph.num_tiles(), ~0u);
  std::vector<std::uint32_t> touched;
  std::vector<std::uint32_t> tree_stamp(graph.num_tiles(), 0);
  std::uint32_t stamp = 0;
  std::vector<std::uint32_t> tree_tiles;
  using QE = std::pair<double, std::uint32_t>;
  std::vector<QE> heap;
  const auto push = [&heap](double d, std::uint32_t t) {
    heap.emplace_back(d, t);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };

  for (std::uint32_t iter = 1; iter <= config.max_iterations; ++iter) {
    result.iterations = iter;
    std::fill(usage.begin(), usage.end(), 0);

    for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
      RoutedNet& routed = result.nets[ni];
      routed.edges.clear();
      if (pins[ni].size() < 2) continue;  // single-tile net

      // Grow a tree: tiles already in the tree have cost 0 as sources.
      ++stamp;
      tree_tiles.assign(1, pins[ni][0]);
      tree_stamp[pins[ni][0]] = stamp;
      for (std::size_t k = 1; k < pins[ni].size(); ++k) {
        const std::uint32_t target = pins[ni][k];
        if (tree_stamp[target] == stamp) continue;

        // Dijkstra from all tree tiles to `target`.
        heap.clear();
        for (std::uint32_t t : tree_tiles) {
          dist[t] = 0.0;
          touched.push_back(t);
          push(0.0, t);
        }
        while (!heap.empty()) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
          const auto [dcur, t] = heap.back();
          heap.pop_back();
          if (dcur > dist[t]) continue;
          if (t == target) break;
          std::uint32_t out[4];
          unsigned n_out;
          graph.out_edges(t, out, n_out);
          for (unsigned i = 0; i < n_out; ++i) {
            const std::uint32_t e = out[i];
            const double over =
                std::max(0.0, (usage[e] + 1.0) - capacity);
            const double cost =
                1.0 + history[e] + present_penalty * over * over;
            const std::uint32_t to = graph.edge(e).to;
            if (dist[t] + cost < dist[to]) {
              if (dist[to] >= kInf) touched.push_back(to);
              dist[to] = dist[t] + cost;
              via_edge[to] = e;
              push(dist[to], to);
            }
          }
        }
        if (dist[target] >= kInf)
          throw CadError("router: sink unreachable in fabric graph");

        // Trace back, claim edges, add tiles to the tree.
        std::uint32_t t = target;
        while (tree_stamp[t] != stamp) {
          const std::uint32_t e = via_edge[t];
          routed.edges.push_back(e);
          ++usage[e];
          tree_stamp[t] = stamp;
          tree_tiles.push_back(t);
          t = graph.edge(e).from;
        }
        for (const std::uint32_t tt : touched) {
          dist[tt] = kInf;
          via_edge[tt] = ~0u;
        }
        touched.clear();
      }
    }

    // Feasibility check + history update.
    std::uint32_t overused = 0;
    for (std::uint32_t e = 0; e < usage.size(); ++e) {
      if (usage[e] > capacity) {
        ++overused;
        history[e] += config.history_increment * (usage[e] - capacity);
      }
    }
    result.overused_edges = overused;
    if (overused == 0) {
      result.success = true;
      break;
    }
    present_penalty *= 1.6;  // tighten congestion pressure each iteration
  }

  result.total_wirelength = 0;
  for (const RoutedNet& rn : result.nets)
    result.total_wirelength += rn.edges.size();
  return result;
}

std::vector<std::string> validate_routing(const MappedDesign& design,
                                          const Fabric& fabric,
                                          const Placement& placement,
                                          const RoutingResult& routing) {
  std::vector<std::string> errors;
  const RoutingGraph graph(fabric);
  std::vector<std::uint32_t> usage(graph.num_edges(), 0);

  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const MappedNet& net = design.nets[ni];
    const RoutedNet& rn = routing.nets[ni];
    for (std::uint32_t e : rn.edges) ++usage[e];

    // Connectivity: union the edge endpoints with the driver tile and check
    // every sink tile is reached.
    std::set<std::uint32_t> reach;
    const Coord d = placement.location[net.driver];
    reach.insert(graph.tile(d.x, d.y));
    // Edges were added sink-to-tree; iterate until fixpoint.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t e : rn.edges) {
        const Edge& edge = graph.edge(e);
        if (reach.count(edge.from) && !reach.count(edge.to)) {
          reach.insert(edge.to);
          changed = true;
        }
      }
    }
    for (hwlib::CellId s : net.sinks) {
      const Coord p = placement.location[s];
      if (!reach.count(graph.tile(p.x, p.y))) {
        errors.push_back("net " + std::to_string(ni) + " does not reach sink");
        break;
      }
    }
  }
  for (std::uint32_t e = 0; e < usage.size(); ++e)
    if (usage[e] > fabric.channel_capacity())
      errors.push_back("edge " + std::to_string(e) + " over capacity: " +
                       std::to_string(usage[e]));
  return errors;
}

}  // namespace jitise::fpga
