// The interpreter's decoded form of one IR function.
//
// Machine::run does not walk ir::Instruction: on the first call of each
// function it decodes the function once into flat arrays (see
// decode_function) and dispatches over those. The decoded form resolves
// everything the IR leaves to execution time — operand lists, the cycle
// cost of each op, the phi parallel copy for each incoming edge — and
// groups each block's ops into *segments* whose profile accounting
// (steps, instructions, cycles, opcode histogram) is applied in one step
// before the segment runs. A segment ends after every Call and CustomOp,
// so a callee always sees the caller's accounting exactly as far as the
// per-instruction interpreter had it (window ticks inside callees land on
// the same boundaries), and at the end of the block.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/module.hpp"
#include "vm/cost_model.hpp"
#include "vm/eval.hpp"

namespace jitise::vm {

/// One block instruction after decoding (40 bytes).
struct DecodedOp {
  /// Opcode, result type, operand-0 type, aux (predicate / callee / global /
  /// custom-instruction id / branch target) and imm (alloca size, gep
  /// stride). Pure ops hand it to eval_pure_as unchanged.
  PureOp spec;
  std::uint32_t dst = 0;  // result register: the instruction's ValueId
  /// Operand registers (at most 3 used). Call and CustomOp keep their
  /// operands in DecodedFunction::operand_pool instead, starting at a[0].
  /// CondBr keeps its false target in a[1].
  std::uint32_t a[3] = {0, 0, 0};
  std::uint32_t n = 0;       // number of IR operands
  std::uint32_t cycles = 0;  // CostModel::cycles(op, type)
};
static_assert(sizeof(DecodedOp) == 40);

/// A run of ops [begin, end) accounted as one unit.
struct DecodedSegment {
  std::uint32_t begin = 0, end = 0;
  std::uint32_t hist_begin = 0, hist_end = 0;  // DecodedFunction::histogram
  std::uint64_t cycles = 0;                    // sum of the ops' cycles
};

/// One entry of a segment's compact opcode histogram.
struct OpcodeCount {
  ir::Opcode op = ir::Opcode::Add;
  std::uint32_t count = 0;
};

/// One phi of a block, resolved for one incoming edge.
struct PhiCopy {
  std::uint32_t dst = 0, src = 0;
};

/// The parallel copy a block's phis perform when entered from `pred`:
/// copies [begin, begin + DecodedBlock::phis). `staged` is set when a copy
/// reads a register an earlier copy of the same edge writes, so the sources
/// must all be read before any destination is written.
struct PhiEdge {
  ir::BlockId pred = ir::kNoBlock;
  std::uint32_t begin = 0;
  bool staged = false;
};

struct DecodedBlock {
  std::uint32_t seg_begin = 0, seg_end = 0;    // into DecodedFunction::segments
  std::uint32_t edge_begin = 0, edge_end = 0;  // into DecodedFunction::edges
  std::uint32_t phis = 0;                      // leading phi instructions
  /// False when the block has no terminator: execution falls off its end.
  /// Ops after the first terminator are never reached and are not decoded.
  bool terminated = false;
};

struct DecodedFunction {
  /// The register file a call starts from: constants at their ValueIds,
  /// everything else (parameters included) zero.
  std::vector<Slot> preset;
  std::vector<DecodedOp> ops;  // all blocks' ops, block by block
  std::vector<std::uint32_t> operand_pool;
  std::vector<DecodedSegment> segments;
  std::vector<OpcodeCount> histogram;
  /// Only edges on which *every* phi of the block has an arc; entering a
  /// phi block over any other edge is a trap.
  std::vector<PhiEdge> edges;
  std::vector<PhiCopy> copies;
  std::vector<DecodedBlock> blocks;
};

/// Decodes `f` under `cost`. Never throws on malformed IR: what the
/// per-instruction semantics reject (a phi after a non-phi, a constant in
/// a block, a missing phi arc, a block without terminator) is decoded so
/// that executing it traps with the same error.
[[nodiscard]] DecodedFunction decode_function(const ir::Function& f,
                                              const CostModel& cost);

}  // namespace jitise::vm
