// Pure-operation evaluation shared between the interpreter and the
// custom-instruction functional simulator.
//
// The Woolcano adaptation phase replaces IR subgraphs with CustomOp
// instructions whose semantics are simulated from a snapshot of the covered
// datapath. The interpreter's dispatch loop instantiates eval_pure_as<Op>()
// per opcode and the simulator calls eval_pure(), which switches to the same
// templates, so a rewritten program is semantically equivalent to the
// original *by construction* — and the differential tests verify it end to
// end.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "ir/opcode.hpp"
#include "ir/type.hpp"

namespace jitise::vm {

/// One SSA register: integer/pointer values live in `i`, floats in `f`.
struct Slot {
  std::int64_t i = 0;
  double f = 0.0;

  static Slot of_int(std::int64_t v) noexcept { return Slot{v, 0.0}; }
  static Slot of_float(double v) noexcept { return Slot{0, v}; }
};

/// Static description of one side-effect-free operation.
struct PureOp {
  ir::Opcode op = ir::Opcode::Add;
  ir::Type type = ir::Type::I32;      // result type
  ir::Type src_type = ir::Type::I32;  // operand 0 type (icmp/zext/trunc...)
  std::uint32_t aux = 0;              // comparison predicate
  std::int64_t imm = 0;               // gep stride
};

/// Throws ExecutionError("integer division by zero").
[[noreturn]] void throw_division_by_zero();

/// Evaluates a pure op over already-fetched operand values. Throws
/// ExecutionError on division by zero. `operands.size()` must match the
/// opcode's arity.
[[nodiscard]] Slot eval_pure(const PureOp& op, std::span<const Slot> operands);

/// The pure opcodes (no memory, control or calls), for expanding one case
/// per opcode: X(Add) X(Sub) ...
#define JITISE_VM_PURE_OPCODES(X)                                          \
  X(Add) X(Sub) X(Mul) X(SDiv) X(UDiv) X(SRem) X(URem) X(And) X(Or) X(Xor) \
  X(Shl) X(LShr) X(AShr) X(FAdd) X(FSub) X(FMul) X(FDiv) X(ICmp) X(FCmp)   \
  X(Select) X(ZExt) X(SExt) X(Trunc) X(FPToSI) X(SIToFP) X(FPExt)          \
  X(FPTrunc) X(Gep)

/// True if `op` can be evaluated by eval_pure.
[[nodiscard]] constexpr bool is_pure_op(ir::Opcode op) noexcept {
  switch (op) {
#define JITISE_VM_PURE_CASE(name) case ir::Opcode::name:
    JITISE_VM_PURE_OPCODES(JITISE_VM_PURE_CASE)
#undef JITISE_VM_PURE_CASE
      return true;
    default:
      return false;
  }
}

/// The semantics of pure opcode `Op` over operands `x`, `y`, `z` (those
/// beyond the opcode's arity are not read).
template <ir::Opcode Op>
[[nodiscard]] inline Slot eval_pure_as(const PureOp& spec, const Slot& x,
                                       const Slot& y, const Slot& z) {
  using ir::Opcode;
  using ir::Type;
  const Type t = spec.type;
  const auto sdiv = [](std::int64_t a, std::int64_t b, bool rem) {
    if (b == 0) throw_division_by_zero();
    if (a == INT64_MIN && b == -1) return rem ? std::int64_t{0} : a;  // wrap like hardware
    return rem ? a % b : a / b;
  };
  const auto fbin = [t](double a, double b, auto fn) {
    return Slot::of_float(t == Type::F32
        ? static_cast<float>(fn(static_cast<float>(a), static_cast<float>(b)))
        : fn(a, b));
  };
  const auto shift = [&] { return ir::as_unsigned(t, y.i) % ir::bit_width(t); };

  if constexpr (Op == Opcode::Add) return Slot::of_int(ir::wrap_to(t, x.i + y.i));
  else if constexpr (Op == Opcode::Sub) return Slot::of_int(ir::wrap_to(t, x.i - y.i));
  else if constexpr (Op == Opcode::Mul) return Slot::of_int(ir::wrap_to(t, x.i * y.i));
  else if constexpr (Op == Opcode::SDiv) return Slot::of_int(ir::wrap_to(t, sdiv(x.i, y.i, false)));
  else if constexpr (Op == Opcode::SRem) return Slot::of_int(ir::wrap_to(t, sdiv(x.i, y.i, true)));
  else if constexpr (Op == Opcode::UDiv || Op == Opcode::URem) {
    const std::uint64_t b = ir::as_unsigned(t, y.i);
    if (b == 0) throw_division_by_zero();
    const std::uint64_t a = ir::as_unsigned(t, x.i);
    return Slot::of_int(ir::wrap_to(
        t, static_cast<std::int64_t>(Op == Opcode::UDiv ? a / b : a % b)));
  }
  else if constexpr (Op == Opcode::And) return Slot::of_int(ir::wrap_to(t, x.i & y.i));
  else if constexpr (Op == Opcode::Or) return Slot::of_int(ir::wrap_to(t, x.i | y.i));
  else if constexpr (Op == Opcode::Xor) return Slot::of_int(ir::wrap_to(t, x.i ^ y.i));
  else if constexpr (Op == Opcode::Shl) return Slot::of_int(ir::wrap_to(t, x.i << shift()));
  else if constexpr (Op == Opcode::LShr)
    return Slot::of_int(ir::wrap_to(
        t, static_cast<std::int64_t>(ir::as_unsigned(t, x.i) >> shift())));
  else if constexpr (Op == Opcode::AShr) return Slot::of_int(ir::wrap_to(t, x.i >> shift()));
  else if constexpr (Op == Opcode::FAdd) return fbin(x.f, y.f, [](auto a, auto b) { return a + b; });
  else if constexpr (Op == Opcode::FSub) return fbin(x.f, y.f, [](auto a, auto b) { return a - b; });
  else if constexpr (Op == Opcode::FMul) return fbin(x.f, y.f, [](auto a, auto b) { return a * b; });
  else if constexpr (Op == Opcode::FDiv) return fbin(x.f, y.f, [](auto a, auto b) { return a / b; });
  else if constexpr (Op == Opcode::ICmp) {
    const Type ot = spec.src_type;
    const std::int64_t a = x.i, b = y.i;
    const std::uint64_t ua = ir::as_unsigned(ot, a), ub = ir::as_unsigned(ot, b);
    bool r = false;
    switch (static_cast<ir::ICmpPred>(spec.aux)) {
      case ir::ICmpPred::Eq:  r = a == b; break;
      case ir::ICmpPred::Ne:  r = a != b; break;
      case ir::ICmpPred::Slt: r = a < b; break;
      case ir::ICmpPred::Sle: r = a <= b; break;
      case ir::ICmpPred::Sgt: r = a > b; break;
      case ir::ICmpPred::Sge: r = a >= b; break;
      case ir::ICmpPred::Ult: r = ua < ub; break;
      case ir::ICmpPred::Ule: r = ua <= ub; break;
      case ir::ICmpPred::Ugt: r = ua > ub; break;
      case ir::ICmpPred::Uge: r = ua >= ub; break;
    }
    return Slot::of_int(r ? 1 : 0);
  } else if constexpr (Op == Opcode::FCmp) {
    const double a = x.f, b = y.f;
    bool r = false;
    switch (static_cast<ir::FCmpPred>(spec.aux)) {
      case ir::FCmpPred::OEq: r = a == b; break;
      case ir::FCmpPred::ONe: r = a != b; break;
      case ir::FCmpPred::OLt: r = a < b; break;
      case ir::FCmpPred::OLe: r = a <= b; break;
      case ir::FCmpPred::OGt: r = a > b; break;
      case ir::FCmpPred::OGe: r = a >= b; break;
    }
    return Slot::of_int(r ? 1 : 0);
  }
  else if constexpr (Op == Opcode::Select) return x.i != 0 ? y : z;
  else if constexpr (Op == Opcode::ZExt)
    return Slot::of_int(static_cast<std::int64_t>(ir::as_unsigned(spec.src_type, x.i)));
  else if constexpr (Op == Opcode::SExt) return Slot::of_int(x.i);  // stored sign-extended
  else if constexpr (Op == Opcode::Trunc) return Slot::of_int(ir::wrap_to(t, x.i));
  else if constexpr (Op == Opcode::FPToSI) {
    // Saturate like most hardware before the cast (double -> int64 is UB
    // in C++ when out of range).
    double v = x.f;
    if (std::isnan(v)) return Slot::of_int(0);
    constexpr double kLimit = 4.611686018427388e18;  // 2^62
    if (v > kLimit) v = kLimit;
    if (v < -kLimit) v = -kLimit;
    return Slot::of_int(ir::wrap_to(t, static_cast<std::int64_t>(v)));
  }
  else if constexpr (Op == Opcode::SIToFP)
    return Slot::of_float(t == Type::F32 ? static_cast<float>(x.i)
                                         : static_cast<double>(x.i));
  else if constexpr (Op == Opcode::FPExt) return Slot::of_float(x.f);
  else if constexpr (Op == Opcode::FPTrunc) return Slot::of_float(static_cast<float>(x.f));
  else if constexpr (Op == Opcode::Gep)
    return Slot::of_int(ir::wrap_to(Type::Ptr, x.i + y.i * spec.imm));
  else
    static_assert(is_pure_op(Op), "eval_pure_as: opcode is not pure");
}

}  // namespace jitise::vm
