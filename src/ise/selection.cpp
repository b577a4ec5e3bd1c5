#include "ise/selection.hpp"

#include <algorithm>
#include <numeric>

namespace jitise::ise {

bool selection_eligible(const ScoredCandidate& sc,
                        const SelectConfig& config) noexcept {
  // Written as !(x > 0) so a NaN estimate fails too: a degenerate score must
  // never be selected even under min_saving = 0.
  if (!(sc.cycles_saved_total > 0.0)) return false;
  if (sc.cycles_saved_total < config.min_saving) return false;
  if (config.require_single_output && !sc.candidate.single_output()) return false;
  return sc.area_slices <= config.area_budget_slices;
}

namespace {

double density(const ScoredCandidate& sc) {
  // Non-positive savings sort to the very end (and are ineligible anyway);
  // guarding here keeps the order total even for degenerate scores.
  if (!(sc.cycles_saved_total > 0.0)) return 0.0;
  return sc.cycles_saved_total / std::max(1.0, sc.area_slices);
}

}  // namespace

Selection select_greedy(std::span<const ScoredCandidate> scored,
                        const SelectConfig& config) {
  std::vector<std::size_t> order(scored.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = density(scored[a]);
    const double db = density(scored[b]);
    if (da != db) return da > db;
    return a < b;  // deterministic tie-break
  });
  // Walk the density order, taking every eligible candidate that still fits
  // the area budget and the slot cap.
  Selection sel;
  for (std::size_t i : order) {
    if (sel.chosen.size() >= config.max_instructions) break;
    const ScoredCandidate& sc = scored[i];
    if (!selection_eligible(sc, config)) continue;
    if (sel.total_area + sc.area_slices > config.area_budget_slices) continue;
    sel.chosen.push_back(i);
    sel.total_saving += sc.cycles_saved_total;
    sel.total_area += sc.area_slices;
  }
  std::sort(sel.chosen.begin(), sel.chosen.end());
  return sel;
}

}  // namespace jitise::ise
