// Differential test of the decoded interpreter (vm::Machine) against the
// per-instruction interpreter it replaced (vm_oracle.hpp). Equality is
// bit-identity, field by field: return value, RunResult steps and cycles,
// all four Profile fields, the memory image, the window stream, and for a
// run that throws the exception type, its message and the profile at the
// moment of the throw.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "ir/builder.hpp"
#include "ir/link.hpp"
#include "ir/random_program.hpp"
#include "jit/specializer.hpp"
#include "vm/interpreter.hpp"
#include "vm_oracle.hpp"
#include "woolcano/rewriter.hpp"

namespace {

using namespace jitise;
using namespace jitise::ir;

/// What a run() returned or threw.
struct Outcome {
  std::string error;  // "<type>: <message>", empty when the run returned
  vm::RunResult result;
};

template <typename M, typename Fn>
Outcome run_on(M& machine, const Fn& fn, std::span<const vm::Slot> args,
               std::uint64_t max_steps) {
  Outcome out;
  try {
    out.result = machine.run(fn, args, max_steps);
  } catch (const vm::MemoryFault& e) {
    out.error = std::string("MemoryFault: ") + e.what();
  } catch (const vm::ExecutionError& e) {
    out.error = std::string("ExecutionError: ") + e.what();
  } catch (const std::exception& e) {
    out.error = std::string("other: ") + e.what();
  }
  return out;
}

void expect_same_profile(const vm::Profile& got, const vm::Profile& want,
                         const std::string& ctx) {
  EXPECT_EQ(got.dyn_instructions, want.dyn_instructions) << ctx;
  EXPECT_EQ(got.cpu_cycles, want.cpu_cycles) << ctx;
  EXPECT_EQ(got.opcode_counts, want.opcode_counts) << ctx;
  EXPECT_EQ(got.block_counts, want.block_counts) << ctx;
}

/// Compares one run's outcome and the machines' full state after it.
void expect_same(const Outcome& got, const Outcome& want,
                 const vm::Machine& m, const vm::oracle::Machine& o,
                 const std::string& ctx) {
  EXPECT_EQ(got.error, want.error) << ctx;
  if (got.error.empty() && want.error.empty()) {
    EXPECT_EQ(got.result.ret.i, want.result.ret.i) << ctx;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.result.ret.f),
              std::bit_cast<std::uint64_t>(want.result.ret.f))
        << ctx;
    EXPECT_EQ(got.result.steps, want.result.steps) << ctx;
    EXPECT_EQ(got.result.cycles, want.result.cycles) << ctx;
  }
  expect_same_profile(m.profile(), o.profile(), ctx);
  EXPECT_TRUE(m.memory().raw() == o.memory().raw()) << ctx << ": memory image";
  EXPECT_EQ(m.memory().stack_mark(), o.memory().stack_mark()) << ctx;
  EXPECT_EQ(m.windows_closed(), o.windows_closed()) << ctx;
  ASSERT_EQ(m.windows().size(), o.windows().size()) << ctx;
  for (std::size_t w = 0; w < m.windows().size(); ++w) {
    EXPECT_EQ(m.windows()[w].index, o.windows()[w].index) << ctx;
    expect_same_profile(m.windows()[w].delta, o.windows()[w].delta,
                        ctx + " window " + std::to_string(w));
  }
}

/// A machine pair over one module, run and compared in lock step.
struct Pair {
  vm::Machine m;
  vm::oracle::Machine o;

  explicit Pair(const Module& module, std::uint32_t memory = 16u << 20)
      : m(module, {}, memory), o(module, {}, memory) {}

  void window(const vm::WindowConfig& wc) {
    m.enable_windowing(wc);
    o.enable_windowing(wc);
  }
  void handler(const vm::CustomOpHandler& h) {
    m.set_custom_handler(h);
    o.set_custom_handler(h);
  }
  template <typename Fn>
  Outcome run(const Fn& fn, std::span<const vm::Slot> args,
              std::uint64_t max_steps, const std::string& ctx) {
    const Outcome got = run_on(m, fn, args, max_steps);
    const Outcome want = run_on(o, fn, args, max_steps);
    expect_same(got, want, m, o, ctx);
    return want;
  }
};

std::vector<vm::Slot> ints(std::initializer_list<std::int64_t> values) {
  std::vector<vm::Slot> out;
  for (const std::int64_t v : values) out.push_back(vm::Slot::of_int(v));
  return out;
}

// --- all apps, both data sets ---------------------------------------------

class VmOracleApp : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllApps, VmOracleApp,
                         ::testing::ValuesIn(apps::app_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '.') c = '_';
                           return n;
                         });

TEST_P(VmOracleApp, MatchesOnBothDatasets) {
  const apps::App app = apps::build_app(GetParam());
  Pair pair(app.module);
  vm::WindowConfig wc;
  wc.instructions_per_window = 100000;
  pair.window(wc);
  for (std::size_t d = 0; d < 2; ++d) {
    const Outcome out = pair.run(app.entry, app.datasets[d].args, 1ull << 30,
                                 app.name + " dataset " + std::to_string(d));
    EXPECT_TRUE(out.error.empty()) << out.error;
  }
}

// --- the rotor: window ticks inside callees --------------------------------

/// adpcm, fft and sor fused into one module behind `phase_main(sel, n)`,
/// the shape of the drift workloads' long-running tenant.
Module rotor_module() {
  Module merged;
  merged.name = "rotor";
  std::vector<FuncId> mains;
  for (const char* name : {"adpcm", "fft", "sor"}) {
    const apps::App app = apps::build_app(name);
    ir::merge_module(merged, app.module, std::string(name) + ".");
    mains.push_back(static_cast<FuncId>(
        merged.find_function(std::string(name) + ".main")));
  }
  FunctionBuilder fb(merged, "phase_main", Type::I32, {Type::I32, Type::I32});
  BlockId cur = fb.entry();
  for (std::size_t k = 0; k < mains.size(); ++k) {
    fb.set_insert(cur);
    const ValueId ret =
        fb.call(mains[k], Type::I32, {fb.param(1), fb.const_int(Type::I32, 0)});
    if (k + 1 == mains.size()) {
      fb.ret(ret);
      break;
    }
    const ValueId hit = fb.icmp(ICmpPred::Eq, fb.param(0),
                                fb.const_int(Type::I32, static_cast<std::int64_t>(k)));
    const BlockId done = fb.new_block("done" + std::to_string(k));
    const BlockId next = fb.new_block("next" + std::to_string(k));
    fb.condbr(hit, done, next);
    fb.set_insert(done);
    fb.ret(ret);
    cur = next;
  }
  fb.finish();
  return merged;
}

TEST(VmOracle, RotorWindowTicksLandInsideCallees) {
  const Module rotor = rotor_module();
  for (const std::uint64_t ipw : {1ull, 7ull, 1000ull}) {
    Pair pair(rotor);
    vm::WindowConfig wc;
    wc.instructions_per_window = ipw;
    wc.ring_capacity = 1u << 16;
    pair.window(wc);
    const std::int64_t epochs = ipw == 1 ? 3 : 6;
    for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
      const std::uint64_t before = pair.m.windows_closed();
      const auto args = ints({epoch % 3, 2 + epoch});
      pair.run("phase_main", args, 1ull << 30,
               "ipw " + std::to_string(ipw) + " epoch " + std::to_string(epoch));
      // Every window the run closed is still in the ring, so the whole
      // stream gets compared.
      EXPECT_LE(pair.m.windows_closed() - before, wc.ring_capacity) << ipw;
      EXPECT_GT(pair.m.windows_closed() - before, 1u) << ipw;
    }
  }
}

// --- random programs ---------------------------------------------------------

TEST(VmOracle, RandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomProgramConfig config;
    config.seed = seed;
    config.num_functions = 1 + seed % 4;
    config.blocks_per_function = 3 + seed % 7;
    config.ops_per_block = 4 + seed % 9;
    const Module m = generate_random_program(config);
    Pair pair(m, 1u << 20);
    vm::WindowConfig wc;
    wc.instructions_per_window = 1 + seed % 50;
    wc.ring_capacity = 1u << 12;
    pair.window(wc);
    for (const std::int64_t arg : {0, 5, 1234, -77}) {
      const auto args = ints({arg});
      pair.run("main", args, 1ull << 26,
               "seed " + std::to_string(seed) + " arg " + std::to_string(arg));
    }
  }
}

// --- every step budget -------------------------------------------------------

/// Runs `fn(args)` under every budget from 0 to one past its step count,
/// each on a fresh pair and again in sequence on one long-lived pair (so a
/// budget trap's unwinding is compared too). Returns the full run's opcode
/// counts.
std::array<std::uint64_t, kNumOpcodes> sweep_budgets(
    const Module& m, const char* fn, const std::vector<vm::Slot>& args,
    const vm::CustomOpHandler& handler = {}) {
  vm::oracle::Machine probe(m, {}, 1u << 16);
  probe.set_custom_handler(handler);
  const std::uint64_t steps = probe.run(fn, args).steps;
  const auto counts = probe.profile().opcode_counts;
  EXPECT_LT(steps, 20000u) << "program too long for a budget sweep";
  Pair shared(m, 1u << 16);
  shared.handler(handler);
  vm::WindowConfig wc;
  wc.instructions_per_window = 5;
  wc.ring_capacity = 1u << 20;
  shared.window(wc);
  for (std::uint64_t budget = 0; budget <= steps + 1; ++budget) {
    const std::string ctx = std::string(fn) + " budget " + std::to_string(budget);
    Pair fresh(m, 1u << 16);
    fresh.handler(handler);
    const Outcome out = fresh.run(fn, args, budget, ctx);
    EXPECT_EQ(out.error.empty(), budget >= steps) << ctx << ": " << out.error;
    shared.run(fn, args, budget, ctx + " (shared machine)");
    if (testing::Test::HasFailure()) break;
  }
  return counts;
}

Module make_sum_module() {
  Module m;
  FunctionBuilder fb(m, "sum", Type::I32, {Type::I32});
  const BlockId body = fb.new_block("body");
  const BlockId exit = fb.new_block("exit");
  fb.br(body);
  fb.set_insert(body);
  const ValueId i = fb.phi(Type::I32);
  const ValueId acc = fb.phi(Type::I32);
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId anext = fb.binop(Opcode::Add, acc, inext);
  const ValueId done = fb.icmp(ICmpPred::Sge, inext, fb.param(0));
  fb.condbr(done, exit, body);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(i, inext, body);
  fb.phi_incoming(acc, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(acc, anext, body);
  fb.set_insert(exit);
  fb.ret(anext);
  fb.finish();
  return m;
}

TEST(VmOracle, EveryStepBudgetOnTheSumLoop) {
  sweep_budgets(make_sum_module(), "sum", ints({12}));
}

TEST(VmOracle, EveryStepBudgetOnRandomProgramsWithCalls) {
  std::uint64_t calls = 0;
  for (const std::uint64_t seed : {3ull, 8ull, 21ull, 34ull}) {
    RandomProgramConfig config;
    config.seed = seed;
    config.num_functions = 3;
    config.blocks_per_function = 6;
    config.ops_per_block = 8;
    config.max_loop_trip = 5;
    config.global_bytes = 64;
    SCOPED_TRACE("seed " + std::to_string(seed));
    calls += sweep_budgets(generate_random_program(config), "main",
                           ints({9}))[static_cast<std::size_t>(Opcode::Call)];
  }
  EXPECT_GT(calls, 0u);
}

// --- traps in the middle of a block -----------------------------------------

/// main(d, addr) calls `callee`, then divides by d and loads g[addr] in
/// the middle of its block, with work and a second call after both.
/// callee(d, p) divides 100 by d and loads *p in the middle of its block.
Module make_trap_module() {
  Module m;
  add_global(m, "g", std::vector<std::uint8_t>(64, 3));
  FunctionBuilder callee(m, "callee", Type::I32, {Type::I32, Type::Ptr});
  const ValueId x = callee.binop(Opcode::Add, callee.param(0),
                                 callee.const_int(Type::I32, 1));
  const ValueId q = callee.binop(Opcode::SDiv, callee.const_int(Type::I32, 100),
                                 callee.param(0));
  const ValueId l = callee.load(Type::I32, callee.param(1));
  const ValueId s = callee.binop(Opcode::Add, q, l);
  callee.ret(callee.binop(Opcode::Xor, s, x));
  const FuncId callee_id = callee.finish();

  FunctionBuilder fb(m, "main", Type::I32, {Type::I32, Type::I32});
  const ValueId buf = fb.alloca_bytes(4096);
  fb.store(fb.const_int(Type::I32, 41), buf);
  const BlockId body = fb.new_block("body");
  fb.br(body);
  fb.set_insert(body);
  const ValueId a = fb.call(callee_id, Type::I32, {fb.const_int(Type::I32, 4), buf});
  const ValueId b = fb.binop(Opcode::Mul, a, fb.const_int(Type::I32, 3));
  const ValueId c = fb.binop(Opcode::UDiv, b, fb.param(0));
  const ValueId ptr = fb.gep(fb.global_addr(0), fb.param(1), 4);
  const ValueId ld = fb.load(Type::I32, ptr);
  const ValueId e = fb.binop(Opcode::Add, c, ld);
  fb.store(e, fb.gep(fb.global_addr(0), fb.param(1), 4));
  const ValueId f = fb.call(callee_id, Type::I32, {fb.param(0), buf});
  const ValueId g = fb.binop(Opcode::Sub, f, e);
  fb.ret(fb.binop(Opcode::Add, g, fb.const_int(Type::I32, 7)));
  fb.finish();
  return m;
}

TEST(VmOracle, TrapsInTheMiddleOfABlock) {
  const Module m = make_trap_module();
  Pair pair(m);
  vm::WindowConfig wc;
  wc.instructions_per_window = 3;
  wc.ring_capacity = 1u << 12;
  pair.window(wc);
  const std::vector<std::pair<std::int64_t, std::int64_t>> cases = {
      {5, 2},           // runs to completion
      {0, 2},           // udiv by zero mid-block in main
      {5, 1 << 24},     // load out of range mid-block
      {5, -4},          // address wraps below the null guard
      {-1, 3},          // completes with a negative divisor
      {5, 2},           // and the machine still works afterwards
  };
  std::size_t traps = 0;
  for (const auto& [d, addr] : cases) {
    const auto args = ints({d, addr});
    const Outcome out = pair.run("main", args, 1ull << 20,
                                 "d " + std::to_string(d) + " addr " +
                                     std::to_string(addr));
    traps += !out.error.empty();
  }
  EXPECT_EQ(traps, 3u);

  // A division by zero inside the callee, called directly.
  const auto id = static_cast<FuncId>(m.find_function("callee"));
  Pair callee_pair(m);
  const std::vector<vm::Slot> callee_args = {vm::Slot::of_int(0),
                                             vm::Slot::of_int(16)};
  const Outcome out = callee_pair.run(id, callee_args, 1ull << 20, "callee d 0");
  EXPECT_EQ(out.error, "ExecutionError: integer division by zero");
}

// --- malformed IR traps like the per-instruction interpreter ---------------

TEST(VmOracle, MalformedIrTrapsTheSameWay) {
  const auto args = ints({6});
  {
    // A phi missing the arc for the edge it is entered over.
    Module m = make_sum_module();
    Function& f = m.functions[0];
    Instruction& phi = f.values[f.blocks[1].instrs[1]];
    phi.operands.pop_back();
    phi.phi_blocks.pop_back();
    Pair pair(m);
    pair.run("sum", args, 1ull << 20, "missing phi arc");
  }
  {
    // A block without a terminator.
    Module m = make_sum_module();
    m.functions[0].blocks[1].instrs.pop_back();
    Pair pair(m);
    pair.run("sum", args, 1ull << 20, "no terminator");
  }
  {
    // A phi after a non-phi, and ops after the terminator.
    Module m = make_sum_module();
    auto& body = m.functions[0].blocks[1].instrs;
    std::swap(body[1], body[2]);
    Pair pair(m);
    pair.run("sum", args, 1ull << 20, "phi after non-phi");
    Module m2 = make_sum_module();
    auto& entry = m2.functions[0].blocks[0].instrs;
    entry.push_back(m2.functions[0].blocks[2].instrs[0]);
    Pair pair2(m2);
    pair2.run("sum", args, 1ull << 20, "op after terminator");
  }
  {
    // Swapping phis: a parallel copy whose sources are its destinations.
    Module m;
    FunctionBuilder fb(m, "swap", Type::I32, {Type::I32});
    const BlockId body = fb.new_block("body");
    const BlockId exit = fb.new_block("exit");
    fb.br(body);
    fb.set_insert(body);
    const ValueId a = fb.phi(Type::I32);
    const ValueId b = fb.phi(Type::I32);
    const ValueId i = fb.phi(Type::I32);
    const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
    fb.condbr(fb.icmp(ICmpPred::Sge, inext, fb.param(0)), exit, body);
    fb.phi_incoming(a, fb.const_int(Type::I32, 1), fb.entry());
    fb.phi_incoming(a, b, body);
    fb.phi_incoming(b, fb.const_int(Type::I32, 2), fb.entry());
    fb.phi_incoming(b, a, body);
    fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
    fb.phi_incoming(i, inext, body);
    fb.set_insert(exit);
    fb.ret(fb.binop(Opcode::Sub, fb.binop(Opcode::Mul, a, fb.const_int(Type::I32, 10)), b));
    fb.finish();
    Pair pair(m);
    for (const std::int64_t n : {1, 2, 5}) {
      const auto swap_args = ints({n});
      const Outcome out = pair.run("swap", swap_args, 1ull << 20, "swap");
      EXPECT_EQ(out.result.ret.i, n % 2 == 1 ? 10 - 2 : 20 - 1) << n;
    }
  }
}

// --- a Woolcano-rewritten app: the CustomOp path ---------------------------

TEST(VmOracle, WoolcanoRewrittenApps) {
  for (const char* name : {"adpcm", "fft", "sor", "whetstone", "179.art"}) {
    const apps::App app = apps::build_app(name);
    vm::Machine profiler(app.module);
    profiler.run(app.entry, app.datasets[0].args, 1ull << 30);
    jit::SpecializerConfig config;
    config.implement_hardware = false;  // estimation only: fast, still rewrites
    config.select.min_saving = 0.0;
    const auto spec = jit::specialize(app.module, profiler.profile(), config);
    ASSERT_GT(woolcano::count_custom_ops(spec.rewritten), 0u) << name;

    Pair pair(spec.rewritten);
    pair.handler(spec.registry.handler());
    vm::WindowConfig wc;
    wc.instructions_per_window = 4096;
    wc.ring_capacity = 1u << 14;
    pair.window(wc);
    for (std::size_t d = 0; d < 2; ++d)
      pair.run(app.entry, app.datasets[d].args, 1ull << 30,
               std::string(name) + " rewritten, dataset " + std::to_string(d));
    // Also without a handler: the first CustomOp traps.
    pair.handler({});
    pair.run(app.entry, app.datasets[0].args, 1ull << 30,
             std::string(name) + " rewritten, no handler");
  }
}

TEST(VmOracle, EveryStepBudgetThroughCustomOps) {
  // The first small random program the specializer rewrites.
  const auto args = ints({9});
  jit::SpecializationResult spec;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    RandomProgramConfig config;
    config.seed = seed;
    config.num_functions = 1;
    config.blocks_per_function = 4;
    config.ops_per_block = 8;
    config.max_loop_trip = 3;
    config.global_bytes = 64;
    const Module m = generate_random_program(config);
    vm::Machine profiler(m);
    profiler.run("main", args);
    jit::SpecializerConfig sc;
    sc.implement_hardware = false;
    sc.select.min_saving = 0.0;
    spec = jit::specialize(m, profiler.profile(), sc);
    if (woolcano::count_custom_ops(spec.rewritten) > 0) break;
  }
  ASSERT_GT(woolcano::count_custom_ops(spec.rewritten), 0u);
  const auto counts =
      sweep_budgets(spec.rewritten, "main", args, spec.registry.handler());
  EXPECT_GT(counts[static_cast<std::size_t>(Opcode::CustomOp)], 0u);

  // A handler that traps: nothing after the CustomOp may stay counted.
  Pair pair(spec.rewritten);
  pair.handler([](std::uint32_t, std::span<const vm::Slot>) -> vm::CustomExec {
    throw vm::ExecutionError("custom instruction fault");
  });
  const Outcome out = pair.run("main", args, 1ull << 26, "trapping handler");
  EXPECT_EQ(out.error, "ExecutionError: custom instruction fault");
}

}  // namespace
