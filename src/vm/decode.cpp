#include "vm/decode.hpp"

#include <algorithm>
#include <array>

namespace jitise::vm {

using ir::Instruction;
using ir::Opcode;

namespace {

/// Appends, for each predecessor named by any phi of the block, the
/// parallel copy the block's leading `phis` phis perform on that edge. A
/// phi with several arcs from one predecessor takes the first.
void decode_phis(const ir::Function& f, const ir::BasicBlock& b,
                 std::uint32_t phis, DecodedFunction& d) {
  std::vector<ir::BlockId> preds;
  for (std::uint32_t k = 0; k < phis; ++k)
    for (const ir::BlockId p : f.values[b.instrs[k]].phi_blocks)
      if (std::find(preds.begin(), preds.end(), p) == preds.end())
        preds.push_back(p);

  std::vector<PhiCopy> copies;
  for (const ir::BlockId pred : preds) {
    copies.clear();
    for (std::uint32_t k = 0; k < phis; ++k) {
      const Instruction& phi = f.values[b.instrs[k]];
      const auto arc =
          std::find(phi.phi_blocks.begin(), phi.phi_blocks.end(), pred);
      if (arc == phi.phi_blocks.end()) break;
      copies.push_back(PhiCopy{
          b.instrs[k], phi.operands[static_cast<std::size_t>(
                           arc - phi.phi_blocks.begin())]});
    }
    if (copies.size() != phis) continue;  // some phi lacks this arc

    bool staged = false;
    for (std::size_t j = 0; j < copies.size() && !staged; ++j)
      for (std::size_t k = 0; k < j && !staged; ++k)
        staged = copies[j].src == copies[k].dst;
    d.edges.push_back(PhiEdge{pred,
                              static_cast<std::uint32_t>(d.copies.size()),
                              staged});
    d.copies.insert(d.copies.end(), copies.begin(), copies.end());
  }
}

}  // namespace

DecodedFunction decode_function(const ir::Function& f, const CostModel& cost) {
  DecodedFunction d;
  d.preset.assign(f.values.size(), Slot{});
  for (ir::ValueId v = 0; v < f.values.size(); ++v) {
    const Instruction& inst = f.values[v];
    if (inst.op == Opcode::ConstInt) d.preset[v] = Slot::of_int(inst.imm);
    else if (inst.op == Opcode::ConstFloat)
      d.preset[v] = Slot::of_float(inst.fimm);
  }

  std::array<std::uint32_t, ir::kNumOpcodes> hist{};
  DecodedSegment seg;
  const auto close_segment = [&] {
    seg.end = static_cast<std::uint32_t>(d.ops.size());
    if (seg.end == seg.begin) return;
    seg.hist_begin = static_cast<std::uint32_t>(d.histogram.size());
    for (std::size_t op = 0; op < hist.size(); ++op)
      if (hist[op] != 0)
        d.histogram.push_back(OpcodeCount{static_cast<Opcode>(op), hist[op]});
    seg.hist_end = static_cast<std::uint32_t>(d.histogram.size());
    d.segments.push_back(seg);
    hist.fill(0);
  };

  d.blocks.reserve(f.blocks.size());
  for (const ir::BasicBlock& b : f.blocks) {
    DecodedBlock db;
    std::uint32_t pos = 0;
    while (pos < b.instrs.size() && f.values[b.instrs[pos]].op == Opcode::Phi)
      ++pos;
    db.phis = pos;
    db.edge_begin = static_cast<std::uint32_t>(d.edges.size());
    if (db.phis != 0) decode_phis(f, b, db.phis, d);
    db.edge_end = static_cast<std::uint32_t>(d.edges.size());

    db.seg_begin = static_cast<std::uint32_t>(d.segments.size());
    seg = DecodedSegment{};
    seg.begin = static_cast<std::uint32_t>(d.ops.size());
    for (; pos < b.instrs.size(); ++pos) {
      const ir::ValueId v = b.instrs[pos];
      const Instruction& inst = f.values[v];
      DecodedOp op;
      op.spec.op = inst.op;
      op.spec.type = inst.type;
      op.spec.src_type =
          inst.operands.empty() ? inst.type : f.values[inst.operands[0]].type;
      op.spec.aux = inst.aux;
      op.spec.imm = inst.imm;
      op.dst = v;
      op.n = static_cast<std::uint32_t>(inst.operands.size());
      op.cycles = cost.cycles(inst.op, inst.type);
      const bool pooled =
          inst.op == Opcode::Call || inst.op == Opcode::CustomOp;
      if (pooled) {
        op.a[0] = static_cast<std::uint32_t>(d.operand_pool.size());
        d.operand_pool.insert(d.operand_pool.end(), inst.operands.begin(),
                              inst.operands.end());
      } else {
        for (std::size_t k = 0; k < inst.operands.size() && k < 3; ++k)
          op.a[k] = inst.operands[k];
      }
      if (inst.op == Opcode::CondBr) op.a[1] = inst.aux2;
      d.ops.push_back(op);
      ++hist[static_cast<std::size_t>(inst.op)];
      seg.cycles += op.cycles;
      db.terminated = ir::is_terminator(inst.op);
      if (pooled || db.terminated) {
        close_segment();
        seg = DecodedSegment{};
        seg.begin = static_cast<std::uint32_t>(d.ops.size());
      }
      if (db.terminated) break;
    }
    close_segment();
    db.seg_end = static_cast<std::uint32_t>(d.segments.size());
    d.blocks.push_back(db);
  }
  return d;
}

}  // namespace jitise::vm
