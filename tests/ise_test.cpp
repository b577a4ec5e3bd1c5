#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "dfg/graph.hpp"
#include "ir/builder.hpp"
#include "ir/random_program.hpp"
#include "ir/verifier.hpp"
#include "ise/candidate.hpp"
#include "ise/identify.hpp"
#include "ise/pruning.hpp"
#include "ise/selection.hpp"
#include "vm/interpreter.hpp"

#include <limits>

namespace {

using namespace jitise;
using namespace jitise::ir;

/// One block mixing feasible arithmetic with infeasible memory ops:
///   l1 = load p; l2 = load q;
///   x1 = l1 + l2; x2 = l1 - l2; x3 = x1 * x2;
///   x4 = x3 & l1; x5 = x3 | l2;
///   store x4, p; ret x5
Module make_expr_module() {
  Module m;
  m.name = "expr";
  FunctionBuilder fb(m, "f", Type::I32, {Type::Ptr, Type::Ptr});
  const ValueId l1 = fb.load(Type::I32, fb.param(0));
  const ValueId l2 = fb.load(Type::I32, fb.param(1));
  const ValueId x1 = fb.binop(Opcode::Add, l1, l2);
  const ValueId x2 = fb.binop(Opcode::Sub, l1, l2);
  const ValueId x3 = fb.binop(Opcode::Mul, x1, x2);
  const ValueId x4 = fb.binop(Opcode::And, x3, l1);
  const ValueId x5 = fb.binop(Opcode::Or, x3, l2);
  fb.store(x4, fb.param(0));
  fb.ret(x5);
  fb.finish();
  verify_module_or_throw(m);
  return m;
}

TEST(BlockDfg, EdgesAndFeasibility) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  ASSERT_EQ(g.size(), 9u);  // 2 loads, 5 alu, store, ret
  // Node order: l1 l2 x1 x2 x3 x4 x5 store ret.
  EXPECT_FALSE(g.feasible(0));  // load
  EXPECT_FALSE(g.feasible(1));
  for (dfg::NodeId n = 2; n <= 6; ++n) EXPECT_TRUE(g.feasible(n)) << n;
  EXPECT_FALSE(g.feasible(7));  // store
  EXPECT_FALSE(g.feasible(8));  // ret

  // x3 (node 4) consumes x1 (2) and x2 (3), feeds x4 (5) and x5 (6).
  EXPECT_EQ(std::vector<dfg::NodeId>(g.preds(4).begin(), g.preds(4).end()),
            (std::vector<dfg::NodeId>{2, 3}));
  EXPECT_EQ(std::vector<dfg::NodeId>(g.succs(4).begin(), g.succs(4).end()),
            (std::vector<dfg::NodeId>{5, 6}));
  EXPECT_FALSE(g.used_outside(4));
}

TEST(BlockDfg, ConvexityCheck) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  // {x1, x2, x3} is convex.
  std::vector<bool> s(g.size(), false);
  s[2] = s[3] = s[4] = true;
  EXPECT_TRUE(g.is_convex(s));
  // {x1, x4}: path x1 -> x3 -> x4 leaves and re-enters: non-convex.
  std::fill(s.begin(), s.end(), false);
  s[2] = s[5] = true;
  EXPECT_FALSE(g.is_convex(s));
  // {x1, x3, x4}: x3's pred x2 is outside, but no path from inside through
  // x2 back inside: convex.
  std::fill(s.begin(), s.end(), false);
  s[2] = s[4] = s[5] = true;
  EXPECT_TRUE(g.is_convex(s));
}

TEST(MaxMiso, PartitionProperties) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  const auto misos = ise::find_max_misos(g);

  // Every feasible node in exactly one candidate.
  std::set<dfg::NodeId> seen;
  for (const auto& c : misos)
    for (dfg::NodeId n : c.nodes) {
      EXPECT_TRUE(g.feasible(n));
      EXPECT_TRUE(seen.insert(n).second) << "node in two MaxMISOs";
    }
  EXPECT_EQ(seen.size(), g.feasible_count());

  for (const auto& c : misos) {
    EXPECT_LE(c.outputs.size(), 1u);
    std::vector<bool> in_set(g.size(), false);
    for (dfg::NodeId n : c.nodes) in_set[n] = true;
    EXPECT_TRUE(g.is_convex(in_set));
  }

  // For this graph: x3 has two consumers, so {x1,x2,x3} form one MaxMISO?
  // No: x1 and x2 each have a single consumer x3, x3 has 2 feasible
  // consumers -> x3 is a root with x1, x2 merged in; x4 and x5 escape ->
  // their own roots. Expect exactly 3 MaxMISOs with sizes {3,1,1}.
  ASSERT_EQ(misos.size(), 3u);
  std::multiset<std::size_t> sizes;
  for (const auto& c : misos) sizes.insert(c.size());
  EXPECT_EQ(sizes, (std::multiset<std::size_t>{1, 1, 3}));
}

TEST(MaxMiso, InputsComputed) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  const auto misos = ise::find_max_misos(g);
  const auto big = std::find_if(misos.begin(), misos.end(),
                                [](const auto& c) { return c.size() == 3; });
  ASSERT_NE(big, misos.end());
  // {x1,x2,x3} reads l1 and l2 from outside.
  EXPECT_EQ(big->inputs.size(), 2u);
  ASSERT_EQ(big->outputs.size(), 1u);
}

TEST(MisoEnum, NoDuplicatesAndValid) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  ise::MisoEnumConfig cfg;
  cfg.min_size = 1;
  const auto result = ise::enumerate_misos(g, cfg);
  EXPECT_FALSE(result.truncated);

  std::set<std::vector<dfg::NodeId>> unique;
  for (const auto& c : result.candidates) {
    EXPECT_TRUE(unique.insert(c.nodes).second) << "duplicate candidate";
    EXPECT_LE(c.outputs.size(), 1u);
    std::vector<bool> in_set(g.size(), false);
    for (dfg::NodeId n : c.nodes) in_set[n] = true;
    EXPECT_TRUE(g.is_convex(in_set));
  }
  // MISOs of this graph: {x1},{x2},{x4},{x5},{x3,x1,x2},{x3,x1},{x3,x2},{x3}
  // — x3 alone or with any subset of its single-use preds; x4/x5 escape.
  EXPECT_EQ(result.candidates.size(), 8u);
}


TEST(UnionMiso, MergesMultiUserChains) {
  // a = p0 + p1; b = a + 1; c = a + 2; d = b * c; store d.
  // MAXMISO: a is a root (two users), {b, c, d} one group -> 2 candidates.
  // Union-MISO: both of a's users are in d's group -> single 4-op candidate.
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32, Type::Ptr});
  const ValueId a = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  const ValueId b = fb.binop(Opcode::Add, a, fb.const_int(Type::I32, 1));
  const ValueId c = fb.binop(Opcode::Add, a, fb.const_int(Type::I32, 2));
  const ValueId d = fb.binop(Opcode::Mul, b, c);
  fb.store(d, fb.param(2));
  fb.ret(d);
  fb.finish();
  const dfg::BlockDfg g(m.functions[0], 0);

  const auto misos = ise::find_max_misos(g);
  EXPECT_EQ(misos.size(), 2u);
  const auto unions = ise::find_union_misos(g);
  ASSERT_EQ(unions.size(), 1u);
  EXPECT_EQ(unions[0].size(), 4u);
  EXPECT_EQ(unions[0].outputs.size(), 1u);
  std::vector<bool> in_set(g.size(), false);
  for (dfg::NodeId n : unions[0].nodes) in_set[n] = true;
  EXPECT_TRUE(g.is_convex(in_set));
}

TEST(UnionMiso, DoesNotMergeAcrossEscapes) {
  // The expr fixture: x3 feeds two *different* groups (x4 and x5 escape
  // separately), so no merge is possible and union == MAXMISO.
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  const auto misos = ise::find_max_misos(g);
  const auto unions = ise::find_union_misos(g);
  EXPECT_EQ(unions.size(), misos.size());
}

TEST(UnionMiso, PartitionInvariantsOnRandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    ir::RandomProgramConfig config;
    config.seed = seed * 31;
    const Module m = ir::generate_random_program(config);
    for (const Function& fn : m.functions) {
      for (BlockId b = 0; b < fn.blocks.size(); ++b) {
        const dfg::BlockDfg g(fn, b);
        const auto unions = ise::find_union_misos(g);
        std::set<dfg::NodeId> seen;
        std::size_t covered = 0;
        for (const auto& cand : unions) {
          EXPECT_LE(cand.outputs.size(), 1u);
          std::vector<bool> in_set(g.size(), false);
          for (dfg::NodeId n : cand.nodes) {
            EXPECT_TRUE(g.feasible(n));
            EXPECT_TRUE(seen.insert(n).second);
            in_set[n] = true;
            ++covered;
          }
          EXPECT_TRUE(g.is_convex(in_set));
        }
        EXPECT_EQ(covered, g.feasible_count());
        // Union-MISO never produces more candidates than MAXMISO.
        EXPECT_LE(unions.size(), ise::find_max_misos(g).size());
      }
    }
  }
}

/// Brute-force reference: all subsets of feasible nodes that are convex,
/// with inputs <= max_in and outputs <= max_out and size >= min_size.
std::size_t brute_force_count(const dfg::BlockDfg& g, unsigned max_in,
                              unsigned max_out, std::size_t min_size) {
  const std::size_t n = g.size();
  std::size_t count = 0;
  for (std::uint64_t mask = 1; mask < (1ull << n); ++mask) {
    std::vector<dfg::NodeId> nodes;
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (1ull << i)) {
        if (!g.feasible(static_cast<dfg::NodeId>(i))) {
          ok = false;
          break;
        }
        nodes.push_back(static_cast<dfg::NodeId>(i));
      }
    if (!ok || nodes.size() < min_size) continue;
    std::vector<bool> in_set(n, false);
    for (dfg::NodeId i : nodes) in_set[i] = true;
    if (!g.is_convex(in_set)) continue;
    ise::Candidate c;
    c.block = g.block();
    c.nodes = nodes;
    ise::compute_io(g, c);
    if (c.inputs.size() <= max_in && c.outputs.size() <= max_out) ++count;
  }
  return count;
}

TEST(ExactEnum, MatchesBruteForce) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  for (unsigned max_in : {2u, 3u, 4u}) {
    for (unsigned max_out : {1u, 2u}) {
      ise::ExactEnumConfig cfg;
      cfg.max_inputs = max_in;
      cfg.max_outputs = max_out;
      cfg.min_size = 1;
      const auto result = ise::enumerate_exact(g, cfg);
      EXPECT_FALSE(result.truncated);
      EXPECT_EQ(result.candidates.size(),
                brute_force_count(g, max_in, max_out, 1))
          << "max_in=" << max_in << " max_out=" << max_out;
      for (const auto& c : result.candidates) {
        EXPECT_LE(c.inputs.size(), max_in);
        EXPECT_LE(c.outputs.size(), max_out);
      }
    }
  }
}

TEST(ExactEnum, RespectsBudget) {
  const Module m = make_expr_module();
  const dfg::BlockDfg g(m.functions[0], 0);
  ise::ExactEnumConfig cfg;
  cfg.max_steps = 5;
  const auto result = ise::enumerate_exact(g, cfg);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.steps, 6u);
}

TEST(Signature, StructuralEquality) {
  // Two modules with the same expression in different surroundings must
  // produce the same signature for the common candidate.
  auto build = [](bool extra) {
    Module m;
    m.name = extra ? "a" : "b";
    FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
    if (extra) fb.binop(Opcode::Xor, fb.param(0), fb.param(1));
    const ValueId s = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
    const ValueId t = fb.binop(Opcode::Mul, s, fb.param(0));
    fb.ret(t);
    fb.finish();
    return m;
  };
  const Module m1 = build(false);
  const Module m2 = build(true);
  const dfg::BlockDfg g1(m1.functions[0], 0);
  const dfg::BlockDfg g2(m2.functions[0], 0);

  auto find_addmul = [](const dfg::BlockDfg& g) {
    for (const auto& c : ise::find_max_misos(g))
      if (c.size() == 2) return c;
    throw std::runtime_error("no add+mul candidate");
  };
  const auto c1 = find_addmul(g1);
  const auto c2 = find_addmul(g2);
  EXPECT_EQ(ise::candidate_signature(g1, c1), ise::candidate_signature(g2, c2));

  // A structurally different candidate (sub instead of add) differs.
  Module m3;
  {
    FunctionBuilder fb(m3, "f", Type::I32, {Type::I32, Type::I32});
    const ValueId s = fb.binop(Opcode::Sub, fb.param(0), fb.param(1));
    const ValueId t = fb.binop(Opcode::Mul, s, fb.param(0));
    fb.ret(t);
    fb.finish();
  }
  const dfg::BlockDfg g3(m3.functions[0], 0);
  const auto c3 = find_addmul(g3);
  EXPECT_NE(ise::candidate_signature(g1, c1), ise::candidate_signature(g3, c3));
}

TEST(Signature, ConstantLiteralsMatter) {
  auto build = [](int k) {
    Module m;
    FunctionBuilder fb(m, "f", Type::I32, {Type::I32});
    const ValueId s = fb.binop(Opcode::Mul, fb.param(0), fb.const_int(Type::I32, k));
    const ValueId t = fb.binop(Opcode::Add, s, fb.param(0));
    fb.ret(t);
    fb.finish();
    return m;
  };
  const Module m1 = build(3), m2 = build(5);
  const dfg::BlockDfg g1(m1.functions[0], 0), g2(m2.functions[0], 0);
  const auto c1 = ise::find_max_misos(g1), c2 = ise::find_max_misos(g2);
  ASSERT_EQ(c1.size(), 1u);
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_NE(ise::candidate_signature(g1, c1[0]),
            ise::candidate_signature(g2, c2[0]));
}

/// Hot loop + cold prologue module for pruning tests.
Module make_hotcold_module() {
  Module m;
  m.name = "hotcold";
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32});
  const BlockId cold = fb.new_block("cold");
  const BlockId hot = fb.new_block("hot");
  const BlockId exit = fb.new_block("exit");
  fb.br(cold);
  fb.set_insert(cold);
  // A couple of feasible ops, executed once.
  const ValueId c1 = fb.binop(Opcode::Add, fb.param(0), fb.const_int(Type::I32, 3));
  const ValueId c2 = fb.binop(Opcode::Mul, c1, c1);
  fb.br(hot);
  fb.set_insert(hot);
  const ValueId i = fb.phi(Type::I32);
  const ValueId acc = fb.phi(Type::I32);
  const ValueId t1 = fb.binop(Opcode::Mul, i, i);
  const ValueId t2 = fb.binop(Opcode::Add, t1, acc);
  const ValueId t3 = fb.binop(Opcode::Xor, t2, i);
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId cont = fb.icmp(ICmpPred::Slt, inext, fb.param(0));
  fb.condbr(cont, hot, exit);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), cold);
  fb.phi_incoming(i, inext, hot);
  fb.phi_incoming(acc, c2, cold);
  fb.phi_incoming(acc, t3, hot);
  fb.set_insert(exit);
  fb.ret(t3);
  fb.finish();
  verify_module_or_throw(m);
  return m;
}

TEST(Pruning, At50pS3LPicksHotBlock) {
  const Module m = make_hotcold_module();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(500)};
  machine.run("f", args);

  const auto result = ise::prune_blocks(m, machine.profile(),
                                        machine.cost_model(),
                                        ise::PruneConfig::at50pS3L());
  ASSERT_GE(result.blocks.size(), 1u);
  EXPECT_EQ(result.blocks[0].block, 2u);  // the hot loop body
  EXPECT_LE(result.blocks.size(), 3u);
  EXPECT_GE(result.covered_time_pct, 50.0);
  EXPECT_LT(result.passed_instructions, result.total_instructions);
}

TEST(Pruning, NoneKeepsAllExecutedBlocks) {
  const Module m = make_hotcold_module();
  vm::Machine machine(m);
  const vm::Slot args[] = {vm::Slot::of_int(50)};
  machine.run("f", args);
  const auto result = ise::prune_blocks(m, machine.profile(),
                                        machine.cost_model(),
                                        ise::PruneConfig::none());
  // All blocks with >= 0 feasible instructions and nonzero count pass;
  // entry/exit blocks have few instructions but min_feasible = 0 admits them.
  EXPECT_EQ(result.blocks.size(), 4u);
  EXPECT_NEAR(result.covered_time_pct, 100.0, 1e-9);
}

ise::ScoredCandidate scored(double saving, double area) {
  ise::ScoredCandidate sc;
  sc.cycles_saved_total = saving;
  sc.area_slices = area;
  sc.candidate.outputs.push_back(0);  // single output
  return sc;
}

TEST(Selection, GreedyRespectsBudgets) {
  std::vector<ise::ScoredCandidate> cands = {
      scored(100, 50), scored(90, 10), scored(80, 10), scored(5, 1),
      scored(0.5, 1),  // below min_saving
  };
  ise::SelectConfig cfg;
  cfg.area_budget_slices = 60;
  cfg.max_instructions = 3;
  const auto sel = ise::select_greedy(cands, cfg);
  EXPECT_LE(sel.total_area, 60.0);
  EXPECT_LE(sel.chosen.size(), 3u);
  // Density order: #1 (9), #2 (8), #3 (5), #0 (2) -> picks 1,2,3.
  EXPECT_EQ(sel.chosen, (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sel.total_saving, 175.0);
}

TEST(Selection, DropsMultiOutputCandidates) {
  ise::ScoredCandidate multi = scored(1000, 1);
  multi.candidate.outputs.push_back(1);  // now two outputs
  std::vector<ise::ScoredCandidate> cands = {multi, scored(10, 1)};
  const auto sel = ise::select_greedy(cands, {});
  EXPECT_EQ(sel.chosen, (std::vector<std::size_t>{1}));
}

TEST(Selection, DegenerateSavingsNeverSelected) {
  // Zero, negative, and NaN savings must be ineligible for selection even
  // under min_saving = 0 — an unguarded density() would order a NaN
  // first and a negative-saving candidate could still pass `>= min_saving`.
  std::vector<ise::ScoredCandidate> cands = {
      scored(0.0, 1), scored(-50.0, 1),
      scored(std::numeric_limits<double>::quiet_NaN(), 1), scored(10.0, 1)};
  ise::SelectConfig cfg;
  cfg.min_saving = 0.0;
  EXPECT_FALSE(ise::selection_eligible(cands[0], cfg));
  EXPECT_FALSE(ise::selection_eligible(cands[1], cfg));
  EXPECT_FALSE(ise::selection_eligible(cands[2], cfg));
  EXPECT_TRUE(ise::selection_eligible(cands[3], cfg));
  EXPECT_EQ(ise::select_greedy(cands, cfg).chosen,
            (std::vector<std::size_t>{3}));
}

TEST(Selection, GreedySlotCapBinds) {
  // Three tiny high-density items plus one large high-saving one under a
  // 2-slot cap: greedy walks the density order and stops at the cap with two
  // tiny ones (19), below the two-slot optimum that pairs the large item
  // with the best tiny one (25).
  std::vector<ise::ScoredCandidate> cands = {
      scored(10, 1), scored(9, 1), scored(8, 1), scored(15, 10)};
  ise::SelectConfig cfg;
  cfg.area_budget_slices = 1000;
  cfg.max_instructions = 2;
  const auto greedy = ise::select_greedy(cands, cfg);
  EXPECT_EQ(greedy.chosen, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(greedy.total_saving, 19.0);
}

}  // namespace
