#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "vm/coverage.hpp"
#include "vm/interpreter.hpp"
#include "vm/time_model.hpp"

namespace {

using namespace jitise::ir;
using namespace jitise::vm;

Module make_sum_module() {
  Module m;
  m.name = "sum";
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

TEST(Interpreter, SumLoop) {
  const Module m = make_sum_module();
  verify_module_or_throw(m);
  Machine machine(m);
  const Slot args[] = {Slot::of_int(100)};
  const RunResult r = machine.run("sum", args);
  EXPECT_EQ(r.ret.i, 5050);
  EXPECT_GT(r.cycles, 0u);
  // Block profile: body executed 100 times, entry and exit once.
  EXPECT_EQ(machine.profile().block_counts[0][0], 1u);
  EXPECT_EQ(machine.profile().block_counts[0][1], 100u);
  EXPECT_EQ(machine.profile().block_counts[0][2], 1u);
}

TEST(Interpreter, StepBudget) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(1'000'000)};
  EXPECT_THROW(machine.run("sum", args, 100), ExecutionError);
}

TEST(Interpreter, IntegerSemantics) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId div = fb.binop(Opcode::SDiv, fb.param(0), fb.param(1));
  const ValueId rem = fb.binop(Opcode::SRem, fb.param(0), fb.param(1));
  const ValueId x = fb.binop(Opcode::Mul, div, rem);
  const ValueId sh = fb.binop(Opcode::Shl, x, fb.const_int(Type::I32, 1));
  fb.ret(sh);
  fb.finish();
  verify_module_or_throw(m);
  Machine machine(m);
  const Slot args[] = {Slot::of_int(-17), Slot::of_int(5)};
  // C semantics: -17/5 = -3, -17%5 = -2; (-3 * -2) << 1 = 12.
  EXPECT_EQ(machine.run("f", args).ret.i, 12);
  const Slot by_zero[] = {Slot::of_int(1), Slot::of_int(0)};
  EXPECT_THROW(machine.run("f", by_zero), ExecutionError);
}

TEST(Interpreter, WrapAround8Bit) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I8, {Type::I8, Type::I8});
  fb.ret(fb.binop(Opcode::Add, fb.param(0), fb.param(1)));
  fb.finish();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(127), Slot::of_int(1)};
  EXPECT_EQ(machine.run("f", args).ret.i, -128);
}

TEST(Interpreter, UnsignedOps) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  const ValueId q = fb.binop(Opcode::UDiv, fb.param(0), fb.param(1));
  const ValueId s = fb.binop(Opcode::LShr, fb.param(0), fb.const_int(Type::I32, 4));
  fb.ret(fb.binop(Opcode::Xor, q, s));
  fb.finish();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(-16) /* 0xfffffff0 */, Slot::of_int(16)};
  const std::uint32_t expect = (0xfffffff0u / 16u) ^ (0xfffffff0u >> 4);
  EXPECT_EQ(static_cast<std::uint32_t>(machine.run("f", args).ret.i), expect);
}

TEST(Interpreter, FloatEmulation) {
  Module m;
  FunctionBuilder fb(m, "f", Type::F64, {Type::F64, Type::F64});
  const ValueId s = fb.binop(Opcode::FMul, fb.param(0), fb.param(1));
  const ValueId t = fb.binop(Opcode::FAdd, s, fb.const_float(Type::F64, 0.5));
  fb.ret(t);
  fb.finish();
  Machine machine(m);
  const Slot args[] = {Slot::of_float(3.0), Slot::of_float(4.0)};
  const RunResult r = machine.run("f", args);
  EXPECT_DOUBLE_EQ(r.ret.f, 12.5);
  // Software-emulated FP is expensive under the PPC405 cost model.
  CostModel cm;
  EXPECT_GE(r.cycles, cm.fp_mul + cm.fp_add);
}

TEST(Interpreter, MemoryAndGlobals) {
  Module m;
  add_global(m, "arr", std::vector<std::uint8_t>(40, 0));
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32});
  // arr[i] = i*i for i in 0..9, then return arr[n].
  const BlockId body = fb.new_block("body");
  const BlockId done = fb.new_block("done");
  fb.br(body);
  fb.set_insert(body);
  const ValueId i = fb.phi(Type::I32);
  const ValueId base = fb.global_addr(0);
  const ValueId slot = fb.gep(base, i, 4);
  const ValueId sq = fb.binop(Opcode::Mul, i, i);
  fb.store(sq, slot);
  const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
  const ValueId cont = fb.icmp(ICmpPred::Slt, inext, fb.const_int(Type::I32, 10));
  fb.condbr(cont, body, done);
  fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
  fb.phi_incoming(i, inext, body);
  fb.set_insert(done);
  const ValueId nslot = fb.gep(fb.global_addr(0), fb.param(0), 4);
  fb.ret(fb.load(Type::I32, nslot));
  fb.finish();
  verify_module_or_throw(m);

  Machine machine(m);
  const Slot args[] = {Slot::of_int(7)};
  EXPECT_EQ(machine.run("f", args).ret.i, 49);
}

TEST(Interpreter, AllocaStackDiscipline) {
  Module m;
  // callee: writes to its own alloca, returns value read back.
  FunctionBuilder callee(m, "callee", Type::I32, {Type::I32});
  const ValueId buf = callee.alloca_bytes(16);
  callee.store(callee.param(0), buf);
  callee.ret(callee.load(Type::I32, buf));
  const FuncId callee_id = callee.finish();

  FunctionBuilder caller(m, "caller", Type::I32, {});
  const ValueId a = caller.call(callee_id, Type::I32, {caller.const_int(Type::I32, 11)});
  const ValueId b = caller.call(callee_id, Type::I32, {caller.const_int(Type::I32, 31)});
  caller.ret(caller.binop(Opcode::Add, a, b));
  caller.finish();
  verify_module_or_throw(m);

  Machine machine(m);
  EXPECT_EQ(machine.run("caller", {}).ret.i, 42);
}

TEST(Interpreter, CustomOpHandler) {
  Module m;
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32, Type::I32});
  Instruction ci;
  // Build the custom op through the raw interface (as the rewriter does).
  FunctionBuilder fb2(m, "unused", Type::Void, {});
  fb2.ret();
  fb2.finish();
  const ValueId x = fb.binop(Opcode::Add, fb.param(0), fb.param(1));
  fb.ret(x);
  const FuncId f = fb.finish();
  // Splice: replace add with custom #7.
  Function& fn = m.functions[f];
  for (auto& inst : fn.values)
    if (inst.op == Opcode::Add) {
      inst.op = Opcode::CustomOp;
      inst.aux = 7;
    }

  Machine machine(m);
  machine.set_custom_handler([](std::uint32_t id, std::span<const Slot> in) {
    EXPECT_EQ(id, 7u);
    return CustomExec{Slot::of_int(in[0].i * 100 + in[1].i), 2};
  });
  const Slot args[] = {Slot::of_int(3), Slot::of_int(4)};
  EXPECT_EQ(machine.run("f", args).ret.i, 304);

  machine.set_custom_handler({});
  EXPECT_THROW(machine.run("f", args), ExecutionError);
}

// A trap unwinds the frames it crosses like a return does: their alloca
// areas are released, so the next run on the same machine gets the same
// stack addresses as on a fresh one. (Each trapping run here claims 1 MiB;
// before the release on unwind, the 16th run on the default 16 MiB machine
// failed with a stack MemoryFault.)
TEST(Interpreter, TrapReleasesTheStack) {
  Module m;
  FunctionBuilder fb(m, "f", Type::Ptr, {Type::I32});
  const ValueId buf = fb.alloca_bytes(1u << 20);
  const ValueId q = fb.binop(Opcode::SDiv, fb.const_int(Type::I32, 7), fb.param(0));
  fb.store(q, buf);
  fb.ret(buf);
  fb.finish();
  verify_module_or_throw(m);

  const Slot good[] = {Slot::of_int(1)};
  const Slot zero[] = {Slot::of_int(0)};
  Machine fresh(m);
  const std::int64_t expected = fresh.run("f", good).ret.i;

  Machine machine(m);
  const std::uint32_t mark = machine.memory().stack_mark();
  for (int k = 0; k < 20; ++k) {
    EXPECT_THROW(machine.run("f", zero), ExecutionError) << k;
    EXPECT_EQ(machine.memory().stack_mark(), mark) << k;
  }
  EXPECT_EQ(machine.run("f", good).ret.i, expected);
  EXPECT_EQ(machine.memory().stack_mark(), mark);
}

TEST(Coverage, ClassifiesLiveConstDead) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot a1[] = {Slot::of_int(10)};
  machine.run("sum", a1);
  Profile p1 = machine.profile();
  machine.clear_profile();
  const Slot a2[] = {Slot::of_int(20)};
  machine.run("sum", a2);
  Profile p2 = machine.profile();

  const Profile profiles[] = {p1, p2};
  const CoverageReport cov = classify_coverage(m, profiles);
  // entry and exit run once regardless of input -> const; body varies -> live.
  EXPECT_EQ(cov.classes[0][0], CoverageClass::Const);
  EXPECT_EQ(cov.classes[0][1], CoverageClass::Live);
  EXPECT_EQ(cov.classes[0][2], CoverageClass::Const);
  EXPECT_NEAR(cov.live_pct + cov.dead_pct + cov.const_pct, 100.0, 1e-9);
}

TEST(Coverage, KernelFindsHotLoop) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(1000)};
  machine.run("sum", args);
  const KernelReport kernel =
      find_kernel(m, machine.profile(), machine.cost_model());
  ASSERT_FALSE(kernel.blocks.empty());
  EXPECT_EQ(kernel.blocks[0].block, 1u);  // the loop body
  EXPECT_GE(kernel.freq_pct, 90.0);
  EXPECT_GT(kernel.size_pct, 0.0);
}

TEST(TimeModel, HotCodeHasLowOverhead) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(100000)};
  machine.run("sum", args);
  const ExecTimes t =
      model_exec_times(m, machine.profile(), machine.cost_model());
  EXPECT_GT(t.native_seconds, 0.0);
  // Nearly everything is hot: ratio must be close to 1 (within +-7 %).
  EXPECT_NEAR(t.ratio(), 1.0, 0.07);
}

TEST(TimeModel, ColdCodePaysInterpretation) {
  // A program that executes many blocks exactly once: all cold.
  Module m;
  m.name = "coldy";
  FunctionBuilder fb(m, "f", Type::I32, {Type::I32});
  ValueId acc = fb.param(0);
  std::vector<BlockId> chain;
  for (int i = 0; i < 32; ++i) chain.push_back(fb.new_block("c" + std::to_string(i)));
  fb.br(chain[0]);
  for (int i = 0; i < 32; ++i) {
    fb.set_insert(chain[i]);
    acc = fb.binop(Opcode::Add, acc, fb.const_int(Type::I32, i));
    if (i + 1 < 32) fb.br(chain[i + 1]);
  }
  fb.ret(acc);
  fb.finish();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(1)};
  machine.run("f", args);
  const ExecTimes t =
      model_exec_times(m, machine.profile(), machine.cost_model());
  EXPECT_GT(t.ratio(), 5.0);  // interpreter-dominated
}

// A module with two independent hot loops ("pa" and "pb") whose hot sets are
// disjoint — running one and then the other is a two-phase workload.
Module make_two_phase_module() {
  Module m;
  m.name = "phases";
  for (const char* name : {"pa", "pb"}) {
    FunctionBuilder fb(m, name, Type::I32, {Type::I32});
    const BlockId body = fb.new_block("body");
    const BlockId exit = fb.new_block("exit");
    fb.br(body);
    fb.set_insert(body);
    const ValueId i = fb.phi(Type::I32);
    const ValueId acc = fb.phi(Type::I32);
    const ValueId inext = fb.binop(Opcode::Add, i, fb.const_int(Type::I32, 1));
    // Distinct arithmetic per function, so the loops are not structurally
    // identical blocks.
    ValueId work;
    if (std::string(name) == "pa") {
      work = fb.binop(Opcode::Xor, acc,
                      fb.binop(Opcode::Shl, inext, fb.const_int(Type::I32, 1)));
    } else {
      work = fb.binop(Opcode::Add, acc,
                      fb.binop(Opcode::Mul, inext, fb.const_int(Type::I32, 3)));
    }
    const ValueId done = fb.icmp(ICmpPred::Sge, inext, fb.param(0));
    fb.condbr(done, exit, body);
    fb.phi_incoming(i, fb.const_int(Type::I32, 0), fb.entry());
    fb.phi_incoming(i, inext, body);
    fb.phi_incoming(acc, fb.const_int(Type::I32, 0), fb.entry());
    fb.phi_incoming(acc, work, body);
    fb.set_insert(exit);
    fb.ret(work);
    fb.finish();
  }
  return m;
}

TEST(Profile, SnapshotAndDiff) {
  const Module m = make_sum_module();
  Machine machine(m);
  const Slot args[] = {Slot::of_int(100)};
  machine.run("sum", args);
  const Profile first = machine.snapshot();
  EXPECT_FALSE(first.empty());
  // snapshot() must not disturb accumulation.
  EXPECT_EQ(machine.profile().dyn_instructions, first.dyn_instructions);

  machine.run("sum", args);
  const Profile delta = machine.profile().diff(first);
  // Two identical runs: the delta is exactly one run's activity.
  EXPECT_EQ(delta.dyn_instructions, first.dyn_instructions);
  EXPECT_EQ(delta.cpu_cycles, first.cpu_cycles);
  ASSERT_EQ(delta.block_counts.size(), first.block_counts.size());
  for (std::size_t f = 0; f < delta.block_counts.size(); ++f)
    for (std::size_t b = 0; b < delta.block_counts[f].size(); ++b)
      EXPECT_EQ(delta.block_counts[f][b], first.block_counts[f][b]);

  // Diffing a snapshot of itself is empty.
  EXPECT_TRUE(machine.profile().diff(machine.snapshot()).empty());

  // Shape mismatch (different module) throws.
  Profile other;
  other.block_counts.assign(1, std::vector<std::uint64_t>(2, 0));
  EXPECT_THROW((void)machine.profile().diff(other), std::invalid_argument);
}

TEST(Windowing, PerRunWindowsPartitionTheProfile) {
  const Module m = make_sum_module();
  Machine machine(m);
  WindowConfig wc;
  wc.per_run = true;
  machine.enable_windowing(wc);
  EXPECT_TRUE(machine.windowing());

  const Slot a[] = {Slot::of_int(50)};
  const Slot b[] = {Slot::of_int(200)};
  machine.run("sum", a);
  machine.run("sum", b);
  ASSERT_EQ(machine.windows().size(), 2u);
  EXPECT_EQ(machine.windows()[0].index, 0u);
  EXPECT_EQ(machine.windows()[1].index, 1u);
  // Windows partition the accumulated profile.
  const std::uint64_t sum = machine.windows()[0].delta.dyn_instructions +
                            machine.windows()[1].delta.dyn_instructions;
  EXPECT_EQ(sum, machine.profile().dyn_instructions);
  EXPECT_GT(machine.windows()[1].delta.dyn_instructions,
            machine.windows()[0].delta.dyn_instructions);

  // An immediately re-closed window is empty and dropped (but not counted).
  EXPECT_FALSE(machine.close_window());
  EXPECT_EQ(machine.windows_closed(), 2u);
}

TEST(Windowing, InstructionTicksCloseMidRun) {
  const Module m = make_sum_module();
  Machine machine(m);
  WindowConfig wc;
  wc.instructions_per_window = 64;
  wc.per_run = false;
  machine.enable_windowing(wc);

  const Slot args[] = {Slot::of_int(200)};
  machine.run("sum", args);
  EXPECT_GE(machine.windows().size(), 2u);
  std::uint64_t covered = 0;
  for (const auto& w : machine.windows()) {
    EXPECT_FALSE(w.delta.empty());
    covered += w.delta.dyn_instructions;
  }
  // Everything but the open tail window has been emitted.
  EXPECT_LE(covered, machine.profile().dyn_instructions);
  EXPECT_TRUE(machine.close_window());
  covered += machine.windows().back().delta.dyn_instructions;
  EXPECT_EQ(covered, machine.profile().dyn_instructions);
}

TEST(Windowing, RingCapacityBoundsRetention) {
  const Module m = make_sum_module();
  Machine machine(m);
  WindowConfig wc;
  wc.per_run = true;
  wc.ring_capacity = 2;
  machine.enable_windowing(wc);
  const Slot args[] = {Slot::of_int(10)};
  for (int i = 0; i < 5; ++i) machine.run("sum", args);
  EXPECT_EQ(machine.windows().size(), 2u);
  EXPECT_EQ(machine.windows_closed(), 5u);
  EXPECT_EQ(machine.windows().front().index, 3u);
  EXPECT_EQ(machine.windows().back().index, 4u);
}

TEST(Windowing, ClearProfileReanchors) {
  const Module m = make_sum_module();
  Machine machine(m);
  machine.enable_windowing({});
  const Slot args[] = {Slot::of_int(30)};
  machine.run("sum", args);
  machine.clear_profile();
  EXPECT_TRUE(machine.profile().empty());
  // The next window is the activity after the clear, not a bogus diff
  // against pre-clear state.
  machine.run("sum", args);
  EXPECT_EQ(machine.windows().back().delta.dyn_instructions,
            machine.profile().dyn_instructions);
}

TEST(Windowing, PerWindowKernelTracksThePhase) {
  const Module m = make_two_phase_module();
  verify_module_or_throw(m);
  Machine machine(m);
  WindowConfig wc;
  wc.per_run = true;
  machine.enable_windowing(wc);

  const Slot args[] = {Slot::of_int(5000)};
  machine.run("pa", args);
  machine.run("pb", args);
  ASSERT_EQ(machine.windows().size(), 2u);
  const Profile& wa = machine.windows()[0].delta;
  const Profile& wb = machine.windows()[1].delta;

  // Disjoint hot sets: each window only touches its own function.
  const auto pa = static_cast<std::size_t>(m.find_function("pa"));
  const auto pb = static_cast<std::size_t>(m.find_function("pb"));
  EXPECT_GT(wa.block_counts[pa][1], 0u);
  EXPECT_EQ(wa.block_counts[pb][1], 0u);
  EXPECT_GT(wb.block_counts[pb][1], 0u);
  EXPECT_EQ(wb.block_counts[pa][1], 0u);

  // The per-window kernel lands in the window's function; the whole-run
  // kernel must cover both functions — neither window kernel equals it.
  const KernelReport ka = find_kernel(m, wa, machine.cost_model());
  const KernelReport kb = find_kernel(m, wb, machine.cost_model());
  const KernelReport kall = find_kernel(m, machine.profile(),
                                        machine.cost_model());
  ASSERT_FALSE(ka.blocks.empty());
  ASSERT_FALSE(kb.blocks.empty());
  for (const auto& blk : ka.blocks) EXPECT_EQ(blk.function, pa);
  for (const auto& blk : kb.blocks) EXPECT_EQ(blk.function, pb);
  bool whole_has_pa = false, whole_has_pb = false;
  for (const auto& blk : kall.blocks) {
    whole_has_pa |= blk.function == pa;
    whole_has_pb |= blk.function == pb;
  }
  EXPECT_TRUE(whole_has_pa);
  EXPECT_TRUE(whole_has_pb);
  EXPECT_NE(kall.blocks.size(), ka.blocks.size());
}

TEST(Windowing, CoverageOverPhaseWindows) {
  const Module m = make_two_phase_module();
  Machine machine(m);
  machine.enable_windowing({});
  const Slot args[] = {Slot::of_int(2000)};
  machine.run("pa", args);
  machine.run("pb", args);
  ASSERT_EQ(machine.windows().size(), 2u);

  // Treating the phase windows as the >= 2 input sets of the coverage
  // classifier: each function's loop body runs in one window and not the
  // other, so it classifies live (input-dependent), not const or dead.
  const std::vector<Profile> sets = {machine.windows()[0].delta,
                                     machine.windows()[1].delta};
  const CoverageReport cov = classify_coverage(m, sets);
  const auto pa = static_cast<std::size_t>(m.find_function("pa"));
  const auto pb = static_cast<std::size_t>(m.find_function("pb"));
  EXPECT_EQ(cov.classes[pa][1], CoverageClass::Live);
  EXPECT_EQ(cov.classes[pb][1], CoverageClass::Live);
  EXPECT_GT(cov.live_pct, 0.0);
}

}  // namespace
