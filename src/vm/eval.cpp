#include "vm/eval.hpp"

#include "vm/interpreter.hpp"

namespace jitise::vm {

void throw_division_by_zero() {
  throw ExecutionError("integer division by zero");
}

Slot eval_pure(const PureOp& spec, std::span<const Slot> ops) {
  const Slot none{};
  const Slot& x = ops.size() > 0 ? ops[0] : none;
  const Slot& y = ops.size() > 1 ? ops[1] : none;
  const Slot& z = ops.size() > 2 ? ops[2] : none;
  switch (spec.op) {
#define JITISE_VM_EVAL_CASE(name) \
  case ir::Opcode::name:          \
    return eval_pure_as<ir::Opcode::name>(spec, x, y, z);
    JITISE_VM_PURE_OPCODES(JITISE_VM_EVAL_CASE)
#undef JITISE_VM_EVAL_CASE
    default:
      throw ExecutionError("eval_pure: opcode is not pure");
  }
}

}  // namespace jitise::vm
