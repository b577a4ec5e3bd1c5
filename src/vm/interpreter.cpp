#include "vm/interpreter.hpp"

#include <algorithm>
#include <stdexcept>

namespace jitise::vm {

using ir::BlockId;
using ir::Opcode;
using ir::Type;

namespace {

Slot load(const Memory& memory, Type t, std::uint32_t addr) {
  switch (t) {
    case Type::I1:  return Slot::of_int(memory.read<std::uint8_t>(addr) & 1);
    case Type::I8:  return Slot::of_int(memory.read<std::int8_t>(addr));
    case Type::I16: return Slot::of_int(memory.read<std::int16_t>(addr));
    case Type::I32: return Slot::of_int(memory.read<std::int32_t>(addr));
    case Type::I64: return Slot::of_int(memory.read<std::int64_t>(addr));
    case Type::Ptr: return Slot::of_int(memory.read<std::uint32_t>(addr));
    case Type::F32: return Slot::of_float(memory.read<float>(addr));
    case Type::F64: return Slot::of_float(memory.read<double>(addr));
    case Type::Void: break;
  }
  throw ExecutionError("load of void");
}

void store(Memory& memory, Type t, std::uint32_t addr, const Slot& val) {
  switch (t) {
    case Type::I1:  memory.write<std::uint8_t>(addr, val.i & 1); break;
    case Type::I8:  memory.write<std::int8_t>(addr, static_cast<std::int8_t>(val.i)); break;
    case Type::I16: memory.write<std::int16_t>(addr, static_cast<std::int16_t>(val.i)); break;
    case Type::I32: memory.write<std::int32_t>(addr, static_cast<std::int32_t>(val.i)); break;
    case Type::I64: memory.write<std::int64_t>(addr, val.i); break;
    case Type::Ptr: memory.write<std::uint32_t>(addr, static_cast<std::uint32_t>(val.i)); break;
    case Type::F32: memory.write<float>(addr, static_cast<float>(val.f)); break;
    case Type::F64: memory.write<double>(addr, val.f); break;
    case Type::Void: throw ExecutionError("store of void");
  }
}

}  // namespace

/// Releases a call's register frame and its alloca area when the call
/// ends, by return or by a trap unwinding through it.
class Machine::FrameGuard {
 public:
  FrameGuard(Machine& m, std::size_t base)
      : m_(m), base_(base), stack_mark_(m.memory_.stack_mark()) {}
  FrameGuard(const FrameGuard&) = delete;
  FrameGuard& operator=(const FrameGuard&) = delete;
  ~FrameGuard() {
    m_.regs_top_ = base_;
    m_.memory_.stack_release(stack_mark_);
  }

 private:
  Machine& m_;
  std::size_t base_;
  std::uint32_t stack_mark_;
};

Profile Profile::diff(const Profile& earlier) const {
  if (earlier.block_counts.size() != block_counts.size())
    throw std::invalid_argument("Profile::diff: function count mismatch");
  Profile d;
  d.block_counts.resize(block_counts.size());
  for (std::size_t f = 0; f < block_counts.size(); ++f) {
    const auto& now = block_counts[f];
    const auto& then = earlier.block_counts[f];
    if (then.size() != now.size())
      throw std::invalid_argument("Profile::diff: block count mismatch");
    d.block_counts[f].resize(now.size());
    for (std::size_t b = 0; b < now.size(); ++b)
      d.block_counts[f][b] = now[b] - then[b];
  }
  d.dyn_instructions = dyn_instructions - earlier.dyn_instructions;
  d.cpu_cycles = cpu_cycles - earlier.cpu_cycles;
  for (std::size_t op = 0; op < opcode_counts.size(); ++op)
    d.opcode_counts[op] = opcode_counts[op] - earlier.opcode_counts[op];
  return d;
}

Machine::Machine(const ir::Module& module, CostModel cost,
                 std::uint32_t memory_bytes)
    : module_(module), cost_(cost), memory_(memory_bytes) {
  decoded_.resize(module_.functions.size());
  profile_.block_counts.resize(module_.functions.size());
  for (std::size_t f = 0; f < module_.functions.size(); ++f)
    profile_.block_counts[f].assign(module_.functions[f].blocks.size(), 0);
  place_globals();
}

void Machine::reset_memory() {
  memory_ = Memory(memory_.size());
  place_globals();
}

void Machine::place_globals() {
  global_addr_.clear();
  global_addr_.reserve(module_.globals.size());
  for (const ir::Global& g : module_.globals) {
    const std::uint32_t addr = memory_.reserve_static(g.size_bytes);
    if (!g.init.empty())
      memory_.write_bytes(addr, g.init.data(),
                          std::min<std::size_t>(g.init.size(), g.size_bytes));
    global_addr_.push_back(addr);
  }
  memory_.seal_statics();
}

RunResult Machine::run(ir::FuncId fn, std::span<const Slot> args,
                       std::uint64_t max_steps) {
  steps_left_ = max_steps;
  run_steps_ = 0;
  run_cycles_ = 0;
  const DecodedFunction& df = enter(fn, args.size(), 0);
  std::copy(args.begin(), args.end(),
            regs_.begin() + static_cast<std::ptrdiff_t>(regs_top_));
  RunResult result;
  result.ret = execute(fn, df, 0);
  result.steps = run_steps_;
  result.cycles = run_cycles_;
  if (windowing_ && window_config_.per_run) close_window();
  return result;
}

void Machine::clear_profile() noexcept {
  profile_.clear();
  if (windowing_) {
    window_base_.clear();
    if (window_config_.instructions_per_window != 0)
      window_next_ = window_config_.instructions_per_window;
  }
}

void Machine::enable_windowing(const WindowConfig& config) {
  windowing_ = true;
  window_config_ = config;
  if (window_config_.ring_capacity == 0) window_config_.ring_capacity = 1;
  window_base_ = profile_;
  window_next_ =
      window_config_.instructions_per_window != 0
          ? profile_.dyn_instructions + window_config_.instructions_per_window
          : UINT64_MAX;
}

bool Machine::close_window() {
  if (!windowing_) return false;
  Profile delta = profile_.diff(window_base_);
  window_base_ = profile_;
  if (window_config_.instructions_per_window != 0) {
    window_next_ = profile_.dyn_instructions +
                   window_config_.instructions_per_window;
  }
  if (delta.empty()) return false;
  windows_.push_back(ProfileWindow{windows_closed_++, std::move(delta)});
  while (windows_.size() > window_config_.ring_capacity) windows_.pop_front();
  return true;
}

RunResult Machine::run(std::string_view fn_name, std::span<const Slot> args,
                       std::uint64_t max_steps) {
  const auto id = module_.find_function(fn_name);
  if (id < 0)
    throw ExecutionError("no such function: " + std::string(fn_name));
  return run(static_cast<ir::FuncId>(id), args, max_steps);
}

/// Checks a call of `fn` with `nargs` arguments at `depth`, decodes `fn` on
/// its first call and lays its preset register file out at regs_top_; the
/// caller then writes the arguments into its first `nargs` registers.
const DecodedFunction& Machine::enter(ir::FuncId fn, std::size_t nargs,
                                      unsigned depth) {
  if (depth > 512) throw ExecutionError("call depth limit exceeded");
  const ir::Function& f = module_.functions[fn];
  if (nargs != f.params.size())
    throw ExecutionError("arity mismatch calling @" + f.name);
  if (!decoded_[fn])
    decoded_[fn] = std::make_unique<DecodedFunction>(decode_function(f, cost_));
  const DecodedFunction& df = *decoded_[fn];
  const std::size_t need = regs_top_ + df.preset.size();
  if (need > regs_.size()) regs_.resize(std::max(need, 2 * regs_.size()));
  std::copy(df.preset.begin(), df.preset.end(),
            regs_.begin() + static_cast<std::ptrdiff_t>(regs_top_));
  return df;
}

/// Counts (sign = +1) or un-counts (sign = -1) the ops [begin, end) one by
/// one: a segment cut short by the step budget, or the not-executed tail of
/// a segment that trapped.
void Machine::account_ops(const DecodedOp* begin, const DecodedOp* end,
                          std::int64_t sign) {
  for (const DecodedOp* op = begin; op < end; ++op) {
    const auto cyc = static_cast<std::uint64_t>(sign * op->cycles);
    run_steps_ += static_cast<std::uint64_t>(sign);
    profile_.dyn_instructions += static_cast<std::uint64_t>(sign);
    profile_.opcode_counts[static_cast<std::size_t>(op->spec.op)] +=
        static_cast<std::uint64_t>(sign);
    run_cycles_ += cyc;
    profile_.cpu_cycles += cyc;
  }
}

void Machine::account(const DecodedFunction& df, const DecodedSegment& seg) {
  const std::uint64_t n = seg.end - seg.begin;
  run_steps_ += n;
  profile_.dyn_instructions += n;
  run_cycles_ += seg.cycles;
  profile_.cpu_cycles += seg.cycles;
  for (std::uint32_t h = seg.hist_begin; h < seg.hist_end; ++h)
    profile_.opcode_counts[static_cast<std::size_t>(df.histogram[h].op)] +=
        df.histogram[h].count;
}

/// Performs the parallel copy of the block's phis for the edge from `prev`
/// and counts the phis (as instructions, without cycles).
void Machine::enter_phis(const DecodedFunction& df, const DecodedBlock& block,
                         BlockId prev, ir::FuncId fn, Slot* regs) {
  const PhiEdge* edge = nullptr;
  for (std::uint32_t e = block.edge_begin; e < block.edge_end; ++e)
    if (df.edges[e].pred == prev) {
      edge = &df.edges[e];
      break;
    }
  if (edge == nullptr)
    throw ExecutionError("phi without arc for incoming edge in @" +
                         module_.functions[fn].name);
  const PhiCopy* copies = df.copies.data() + edge->begin;
  if (!edge->staged) {
    for (std::uint32_t k = 0; k < block.phis; ++k)
      regs[copies[k].dst] = regs[copies[k].src];
  } else {
    phi_staging_.resize(std::max<std::size_t>(phi_staging_.size(), block.phis));
    for (std::uint32_t k = 0; k < block.phis; ++k)
      phi_staging_[k] = regs[copies[k].src];
    for (std::uint32_t k = 0; k < block.phis; ++k)
      regs[copies[k].dst] = phi_staging_[k];
  }
  run_steps_ += block.phis;
  profile_.dyn_instructions += block.phis;
  profile_.opcode_counts[static_cast<std::size_t>(Opcode::Phi)] += block.phis;
  if (run_steps_ > steps_left_) throw ExecutionError("step budget exceeded");
}

// Runs the frame enter() laid out at regs_top_. Each segment is accounted
// before its first op executes, which is exact as long as the segment
// completes: its ops cannot tick a window (ticks fire only at block entry,
// and a Call ends its segment). The two ways a segment does not complete
// are handled so the profile matches per-instruction accounting:
//   - budget: a segment that would cross the step budget counts only the
//     ops up to and including the first one past the budget, runs the ops
//     before that one, then throws;
//   - trap: the ops after the trapping one are un-counted on unwind.
Slot Machine::execute(ir::FuncId fn, const DecodedFunction& df,
                      unsigned depth) {
  const std::size_t base = regs_top_;
  const FrameGuard guard(*this, base);
  regs_top_ = base + df.preset.size();
  Slot* r = regs_.data() + base;
  auto& block_counts = profile_.block_counts[fn];
  const DecodedOp* const ops = df.ops.data();
  const std::uint32_t* const pool = df.operand_pool.data();

  BlockId cur = 0;
  BlockId prev = ir::kNoBlock;
  // The op executing and the end of the ops counted so far; ops in
  // (pc, counted_end) are counted but not executed yet.
  const DecodedOp* pc = ops;
  const DecodedOp* counted_end = ops;
  try {
    for (;;) {
      ++block_counts[cur];
      // Windowed profiling tick: one compare against a sentinel (UINT64_MAX
      // when disabled), so the non-windowed hot path pays a single branch.
      if (profile_.dyn_instructions >= window_next_) close_window();
      const DecodedBlock& block = df.blocks[cur];
      if (block.phis != 0) enter_phis(df, block, prev, fn, r);

      for (std::uint32_t s = block.seg_begin; s < block.seg_end; ++s) {
        const DecodedSegment& seg = df.segments[s];
        pc = ops + seg.begin;
        const DecodedOp* stop = ops + seg.end;
        const std::uint64_t room = steps_left_ - run_steps_;
        if (seg.end - seg.begin <= room) {
          account(df, seg);
          counted_end = stop;
        } else {
          stop = pc + room;
          counted_end = stop + 1;
          account_ops(pc, counted_end, 1);
        }
        for (; pc < stop; ++pc) {
          const DecodedOp& op = *pc;
          switch (op.spec.op) {
#define JITISE_VM_PURE_CASE(name)                                 \
  case Opcode::name:                                              \
    r[op.dst] = eval_pure_as<Opcode::name>(op.spec, r[op.a[0]],   \
                                           r[op.a[1]], r[op.a[2]]); \
    break;
            JITISE_VM_PURE_OPCODES(JITISE_VM_PURE_CASE)
#undef JITISE_VM_PURE_CASE
            case Opcode::Load:
              r[op.dst] = load(memory_, op.spec.type,
                               static_cast<std::uint32_t>(r[op.a[0]].i));
              break;
            case Opcode::Store:
              store(memory_, op.spec.src_type,
                    static_cast<std::uint32_t>(r[op.a[1]].i), r[op.a[0]]);
              break;
            case Opcode::Alloca:
              r[op.dst] = Slot::of_int(
                  memory_.stack_alloc(static_cast<std::uint32_t>(op.spec.imm)));
              break;
            case Opcode::GlobalAddr:
              r[op.dst] = Slot::of_int(global_addr_[op.spec.aux]);
              break;
            case Opcode::Br:
              prev = cur;
              cur = op.spec.aux;
              goto next_block;
            case Opcode::CondBr:
              prev = cur;
              cur = r[op.a[0]].i != 0 ? op.spec.aux : op.a[1];
              goto next_block;
            case Opcode::Ret:
              return op.n != 0 ? r[op.a[0]] : Slot{};
            case Opcode::Call: {
              const DecodedFunction& callee =
                  enter(op.spec.aux, op.n, depth + 1);
              r = regs_.data() + base;  // enter() may have grown regs_
              Slot* args = regs_.data() + regs_top_;
              for (std::uint32_t k = 0; k < op.n; ++k)
                args[k] = r[pool[op.a[0] + k]];
              const Slot ret = execute(op.spec.aux, callee, depth + 1);
              r = regs_.data() + base;
              r[op.dst] = ret;
              break;
            }
            case Opcode::CustomOp: {
              if (!custom_)
                throw ExecutionError(
                    "custom instruction executed without a handler");
              // Stage the inputs above the frame, and keep them reserved
              // while the handler runs.
              const std::size_t in = regs_top_;
              if (in + op.n > regs_.size())
                regs_.resize(std::max(in + op.n, 2 * regs_.size()));
              r = regs_.data() + base;
              for (std::uint32_t k = 0; k < op.n; ++k)
                regs_[in + k] = r[pool[op.a[0] + k]];
              regs_top_ = in + op.n;
              const CustomExec ce = custom_(
                  op.spec.aux, std::span<const Slot>(regs_.data() + in, op.n));
              regs_top_ = in;
              r = regs_.data() + base;
              // The base cost of 1 cycle was charged with the segment; add
              // the remainder.
              const std::uint32_t extra = ce.cycles > 0 ? ce.cycles - 1 : 0;
              run_cycles_ += extra;
              profile_.cpu_cycles += extra;
              r[op.dst] = ce.result;
              break;
            }
            default:
              throw ExecutionError(std::string("unexpected opcode ") +
                                   std::string(ir::opcode_name(op.spec.op)));
          }
        }
        if (stop != ops + seg.end) throw ExecutionError("step budget exceeded");
      }
      throw ExecutionError("fell off the end of block in @" +
                           module_.functions[fn].name);
    next_block:;
    }
  } catch (...) {
    if (pc < counted_end) account_ops(pc + 1, counted_end, -1);
    throw;
  }
}

}  // namespace jitise::vm
