#include "rex/rex_fuse.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "rex/operator.h"
#include "rex/rex_interpreter.h"
#include "rex/rex_util.h"

namespace calcite {
namespace {

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

bool NumericPhys(PhysType t) {
  return t == PhysType::kInt64 || t == PhysType::kDouble;
}

std::optional<simd::Cmp> CmpOf(OpKind op) {
  switch (op) {
    case OpKind::kEquals: return simd::Cmp::kEq;
    case OpKind::kNotEquals: return simd::Cmp::kNe;
    case OpKind::kLessThan: return simd::Cmp::kLt;
    case OpKind::kLessThanOrEqual: return simd::Cmp::kLe;
    case OpKind::kGreaterThan: return simd::Cmp::kGt;
    case OpKind::kGreaterThanOrEqual: return simd::Cmp::kGe;
    default: return std::nullopt;
  }
}

/// Whether a three-way comparison result `c` passes `cmp`.
bool CmpPasses(simd::Cmp cmp, int c) {
  switch (cmp) {
    case simd::Cmp::kEq: return c == 0;
    case simd::Cmp::kNe: return c != 0;
    case simd::Cmp::kLt: return c < 0;
    case simd::Cmp::kLe: return c <= 0;
    case simd::Cmp::kGt: return c > 0;
    case simd::Cmp::kGe: return c >= 0;
  }
  return false;
}

/// A literal the compare peephole folds into the instruction: non-NULL
/// numeric, string or bool.
const RexLiteral* FoldableLiteral(const RexNodePtr& node) {
  const RexLiteral* lit = AsLiteral(node);
  if (lit == nullptr || lit->value().IsNull()) return nullptr;
  const Value& v = lit->value();
  return v.is_numeric() || v.is_string() || v.is_bool() ? lit : nullptr;
}

std::optional<simd::Arith> ArithOf(OpKind op) {
  switch (op) {
    case OpKind::kPlus: return simd::Arith::kAdd;
    case OpKind::kMinus: return simd::Arith::kSub;
    case OpKind::kTimes: return simd::Arith::kMul;
    default: return std::nullopt;
  }
}

/// A range atom inside an AND: a direct `$col <op> literal` (or flipped)
/// bound with a non-NULL numeric literal over a numeric column — the shape
/// the AND lowering pairs into single kInRange interval tests.
struct RangeAtom {
  int col = 0;
  PhysType col_phys = PhysType::kValue;
  bool is_lower = false;  // true: col > / >= lit; false: col < / <= lit
  bool strict = false;
  const RexLiteral* lit = nullptr;
};

std::optional<RangeAtom> ClassifyRangeAtom(
    const RexNodePtr& node, const std::vector<PhysType>& input_phys) {
  const RexCall* call = AsCall(node);
  if (call == nullptr || call->operands().size() != 2) return std::nullopt;
  OpKind op = call->op();
  const RexInputRef* ref = AsInputRef(call->operand(0));
  const RexLiteral* lit = AsLiteral(call->operand(1));
  if (ref == nullptr && lit == nullptr) {
    ref = AsInputRef(call->operand(1));
    lit = AsLiteral(call->operand(0));
    if (ref == nullptr || lit == nullptr) return std::nullopt;
    op = ReverseComparison(op);
  }
  if (ref == nullptr || lit == nullptr) return std::nullopt;
  if (!lit->value().is_numeric()) return std::nullopt;
  if (ref->index() < 0 ||
      static_cast<size_t>(ref->index()) >= input_phys.size()) {
    return std::nullopt;
  }
  RangeAtom atom;
  atom.col = ref->index();
  atom.col_phys = input_phys[atom.col];
  if (!NumericPhys(atom.col_phys)) return std::nullopt;
  atom.lit = lit;
  switch (op) {
    case OpKind::kGreaterThan: atom.is_lower = true; atom.strict = true; break;
    case OpKind::kGreaterThanOrEqual: atom.is_lower = true; break;
    case OpKind::kLessThan: atom.is_lower = false; atom.strict = true; break;
    case OpKind::kLessThanOrEqual: atom.is_lower = false; break;
    default: return std::nullopt;
  }
  return atom;
}

/// Register class of one lowered subtree.
struct Operand {
  uint8_t reg = 0;
  PhysType phys = PhysType::kValue;
};

/// Post-order lowering pass with Sethi-Ullman-style register allocation:
/// operand registers are freed as each operator consumes them and
/// destinations come from the free list first, so live registers track the
/// tree depth, not the node count. Any unsupported shape sets failed_ and
/// the whole compile returns nullptr — trees are never partially fused.
class Lowerer {
 public:
  explicit Lowerer(const std::vector<PhysType>& input_phys)
      : input_phys_(input_phys) {}

  std::optional<Operand> Lower(const RexNodePtr& node);

  bool failed() const { return failed_; }
  std::vector<FuseInstr> TakeInstrs() { return std::move(instrs_); }
  std::vector<std::string> TakeStrings() { return std::move(strings_); }
  int num_registers() const { return next_reg_; }

 private:
  static constexpr int kMaxRegisters = 250;

  std::optional<Operand> Fail() {
    failed_ = true;
    return std::nullopt;
  }

  uint8_t AllocReg() {
    if (!free_regs_.empty()) {
      uint8_t r = free_regs_.back();
      free_regs_.pop_back();
      return r;
    }
    if (next_reg_ >= kMaxRegisters) {
      failed_ = true;
      return 0;
    }
    return static_cast<uint8_t>(next_reg_++);
  }
  void FreeReg(uint8_t r) { free_regs_.push_back(r); }

  FuseInstr& Emit(FuseOp op, uint8_t dst) {
    instrs_.emplace_back();
    FuseInstr& in = instrs_.back();
    in.op = op;
    in.dst = dst;
    return in;
  }

  /// Widens an int64 operand to double. The destination is allocated
  /// *before* the operand register is freed: an in-place int64->double
  /// rewrite through differently-typed pointers would let the compiler
  /// assume no aliasing, so casts never reuse their operand's slot.
  Operand EmitWiden(Operand a) {
    uint8_t dst = AllocReg();
    FuseInstr& in = Emit(FuseOp::kCastI64F64, dst);
    in.a = a.reg;
    in.vtype = PhysType::kDouble;
    FreeReg(a.reg);
    return Operand{dst, PhysType::kDouble};
  }

  /// Index of string constant `s` in the program's pool.
  int64_t AddString(const std::string& s) {
    strings_.push_back(s);
    return static_cast<int64_t>(strings_.size() - 1);
  }

  std::optional<Operand> LowerInputRef(const RexInputRef& ref);
  std::optional<Operand> LowerLiteral(const RexLiteral& lit,
                                      const RelDataTypePtr& type);
  std::optional<Operand> LowerArith(const RexCall& call);
  /// Lowers both operands of a numeric binary call — widening an int64
  /// side when the other is double — and emits `proto` over them.
  std::optional<Operand> LowerBinary(const RexCall& call,
                                     const FuseInstr& proto);
  std::optional<Operand> LowerDivMod(const RexCall& call);
  std::optional<Operand> LowerCompare(const RexCall& call);
  std::optional<Operand> LowerAndOr(const RexCall& call);
  std::optional<Operand> LowerRangePair(const RangeAtom& lower,
                                        const RangeAtom& upper);

  const std::vector<PhysType>& input_phys_;
  std::vector<FuseInstr> instrs_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> free_regs_;
  int next_reg_ = 0;
  int logic_depth_ = 0;  // AND/OR operators above the node being lowered
  bool failed_ = false;
};

std::optional<Operand> Lowerer::LowerInputRef(const RexInputRef& ref) {
  if (ref.index() < 0 ||
      static_cast<size_t>(ref.index()) >= input_phys_.size()) {
    return Fail();
  }
  PhysType phys = input_phys_[ref.index()];
  if (phys == PhysType::kValue) return Fail();
  uint8_t dst = AllocReg();
  FuseInstr& in = Emit(FuseOp::kLoadCol, dst);
  in.vtype = phys;
  in.col = ref.index();
  return Operand{dst, phys};
}

std::optional<Operand> Lowerer::LowerLiteral(const RexLiteral& lit,
                                             const RelDataTypePtr& type) {
  const Value& v = lit.value();
  if (v.IsNull()) {
    PhysType phys = PhysTypeForRel(*type);
    if (phys == PhysType::kValue) return Fail();
    uint8_t dst = AllocReg();
    FuseInstr& in = Emit(FuseOp::kLoadNull, dst);
    in.vtype = phys;
    return Operand{dst, phys};
  }
  uint8_t dst = AllocReg();
  if (v.is_int()) {
    FuseInstr& in = Emit(FuseOp::kLoadLitI64, dst);
    in.vtype = PhysType::kInt64;
    in.imm_i64 = v.AsInt();
    return Operand{dst, PhysType::kInt64};
  }
  if (v.is_double()) {
    FuseInstr& in = Emit(FuseOp::kLoadLitF64, dst);
    in.vtype = PhysType::kDouble;
    in.imm_f64 = v.AsDouble();
    return Operand{dst, PhysType::kDouble};
  }
  if (v.is_bool()) {
    FuseInstr& in = Emit(FuseOp::kLoadLitBool, dst);
    in.vtype = PhysType::kBool;
    in.imm_i64 = v.AsBool() ? 1 : 0;
    return Operand{dst, PhysType::kBool};
  }
  if (v.is_string()) {
    FuseInstr& in = Emit(FuseOp::kLoadLitStr, dst);
    in.vtype = PhysType::kString;
    in.imm_i64 = AddString(v.AsString());
    return Operand{dst, PhysType::kString};
  }
  FreeReg(dst);
  return Fail();
}

std::optional<Operand> Lowerer::LowerArith(const RexCall& call) {
  const OpKind op = call.op();
  const simd::Arith arith = *ArithOf(op);
  // Literal-fold peephole: a direct non-NULL numeric literal operand folds
  // into the kernel's broadcast slot. + and * commute so either side folds;
  // the subtraction kernel computes a[i] - lit, so only the right side of a
  // MINUS folds.
  const RexLiteral* lit = AsLiteral(call.operand(1));
  const RexNodePtr* other = &call.operand(0);
  if (lit == nullptr || lit->value().IsNull() || !lit->value().is_numeric()) {
    lit = nullptr;
    if (op == OpKind::kPlus || op == OpKind::kTimes) {
      lit = AsLiteral(call.operand(0));
      other = &call.operand(1);
      if (lit != nullptr &&
          (lit->value().IsNull() || !lit->value().is_numeric())) {
        lit = nullptr;
      }
    }
  }
  if (lit != nullptr) {
    std::optional<Operand> a = Lower(*other);
    if (!a) return std::nullopt;
    if (!NumericPhys(a->phys)) return Fail();
    const bool integral = a->phys == PhysType::kInt64 && lit->value().is_int();
    if (!integral && a->phys == PhysType::kInt64) a = EmitWiden(*a);
    FreeReg(a->reg);
    uint8_t dst = AllocReg();
    FuseInstr& in = Emit(FuseOp::kArithLit, dst);
    in.a = a->reg;
    in.arith = arith;
    if (integral) {
      in.vtype = PhysType::kInt64;
      in.imm_i64 = lit->value().AsInt();
    } else {
      in.vtype = PhysType::kDouble;
      in.imm_f64 = lit->value().AsDouble();
    }
    return Operand{dst, in.vtype};
  }
  FuseInstr proto;
  proto.op = FuseOp::kArith;
  proto.arith = arith;
  return LowerBinary(call, proto);
}

std::optional<Operand> Lowerer::LowerBinary(const RexCall& call,
                                            const FuseInstr& proto) {
  std::optional<Operand> a = Lower(call.operand(0));
  if (!a) return std::nullopt;
  std::optional<Operand> b = Lower(call.operand(1));
  if (!b) return std::nullopt;
  if (!NumericPhys(a->phys) || !NumericPhys(b->phys)) return Fail();
  const bool integral =
      a->phys == PhysType::kInt64 && b->phys == PhysType::kInt64;
  if (!integral) {
    if (a->phys == PhysType::kInt64) a = EmitWiden(*a);
    if (b->phys == PhysType::kInt64) b = EmitWiden(*b);
  }
  FreeReg(a->reg);
  FreeReg(b->reg);
  uint8_t dst = AllocReg();
  FuseInstr& in = Emit(proto.op, dst);
  in = proto;
  in.dst = dst;
  in.a = a->reg;
  in.b = b->reg;
  in.vtype = integral ? PhysType::kInt64 : PhysType::kDouble;
  return Operand{dst, in.vtype};
}

std::optional<Operand> Lowerer::LowerDivMod(const RexCall& call) {
  const bool is_mod = call.op() == OpKind::kMod;
  // A direct literal divisor that can never raise — NULL (the result is
  // then all NULL without evaluating anything) or a non-zero numeric —
  // lowers to a total instruction. Any other divisor may be zero, and the
  // instruction then raises. AND and OR evaluate all their operands blind,
  // so below one it would raise on rows the per-row oracle short-circuits:
  // such trees do not fuse.
  const RexLiteral* lit = AsLiteral(call.operand(1));
  const bool total =
      lit != nullptr &&
      (lit->value().IsNull() ||
       (lit->value().is_int() && lit->value().AsInt() != 0) ||
       (lit->value().is_double() && lit->value().AsDouble() != 0.0));
  if (!total) {
    if (logic_depth_ > 0) return Fail();
    FuseInstr proto;
    proto.op = FuseOp::kDivMod;
    proto.is_mod = is_mod;
    return LowerBinary(call, proto);
  }
  std::optional<Operand> a = Lower(call.operand(0));
  if (!a) return std::nullopt;
  if (!NumericPhys(a->phys)) return Fail();
  if (lit->value().IsNull()) {
    PhysType lit_phys = PhysTypeForRel(*call.operand(1)->type());
    if (!NumericPhys(lit_phys)) return Fail();
    const bool integral =
        a->phys == PhysType::kInt64 && lit_phys == PhysType::kInt64;
    FreeReg(a->reg);
    uint8_t dst = AllocReg();
    FuseInstr& in = Emit(FuseOp::kLoadNull, dst);
    in.vtype = integral ? PhysType::kInt64 : PhysType::kDouble;
    return Operand{dst, in.vtype};
  }
  const bool integral = a->phys == PhysType::kInt64 && lit->value().is_int();
  if (!integral && a->phys == PhysType::kInt64) a = EmitWiden(*a);
  FreeReg(a->reg);
  uint8_t dst = AllocReg();
  FuseInstr& in = Emit(FuseOp::kDivModLit, dst);
  in.a = a->reg;
  in.is_mod = is_mod;
  if (integral) {
    in.vtype = PhysType::kInt64;
    in.imm_i64 = lit->value().AsInt();
  } else {
    in.vtype = PhysType::kDouble;
    in.imm_f64 = lit->value().AsDouble();
  }
  return Operand{dst, in.vtype};
}

std::optional<Operand> Lowerer::LowerCompare(const RexCall& call) {
  OpKind op = call.op();
  // Literal peephole: one direct non-NULL literal side folds into the
  // instruction, a literal on the left flipping the comparison.
  const RexLiteral* lit = FoldableLiteral(call.operand(1));
  const RexNodePtr* other = &call.operand(0);
  if (lit == nullptr && !call.operand(1)->is_literal()) {
    lit = FoldableLiteral(call.operand(0));
    other = &call.operand(1);
    op = ReverseComparison(op);
  }
  if (lit != nullptr) {
    std::optional<Operand> a = Lower(*other);
    if (!a) return std::nullopt;
    const Value& v = lit->value();
    PhysType lane = a->phys;
    if (NumericPhys(a->phys) && v.is_numeric()) {
      lane = a->phys == PhysType::kInt64 && v.is_int() ? PhysType::kInt64
                                                      : PhysType::kDouble;
      if (lane == PhysType::kDouble && a->phys == PhysType::kInt64) {
        a = EmitWiden(*a);
      }
    } else if (!(a->phys == PhysType::kString && v.is_string()) &&
               !(a->phys == PhysType::kBool && v.is_bool())) {
      return Fail();
    }
    FreeReg(a->reg);
    uint8_t dst = AllocReg();
    FuseInstr& in = Emit(FuseOp::kCmpLit, dst);
    in.a = a->reg;
    in.cmp = *CmpOf(op);
    in.vtype = PhysType::kBool;
    in.lane = lane;
    switch (lane) {
      case PhysType::kDouble: in.imm_f64 = v.AsDouble(); break;
      case PhysType::kString: in.imm_i64 = AddString(v.AsString()); break;
      case PhysType::kBool: in.imm_i64 = v.AsBool() ? 1 : 0; break;
      default: in.imm_i64 = v.AsInt(); break;
    }
    return Operand{dst, PhysType::kBool};
  }
  std::optional<Operand> a = Lower(call.operand(0));
  if (!a) return std::nullopt;
  std::optional<Operand> b = Lower(call.operand(1));
  if (!b) return std::nullopt;
  PhysType lane = a->phys;
  if (NumericPhys(a->phys) && NumericPhys(b->phys)) {
    if (a->phys != b->phys) {
      lane = PhysType::kDouble;
      if (a->phys == PhysType::kInt64) a = EmitWiden(*a);
      if (b->phys == PhysType::kInt64) b = EmitWiden(*b);
    }
  } else if (a->phys != b->phys) {
    return Fail();  // incomparable classes (string vs number, ...)
  }
  FreeReg(a->reg);
  FreeReg(b->reg);
  uint8_t dst = AllocReg();
  FuseInstr& in = Emit(FuseOp::kCmp, dst);
  in.a = a->reg;
  in.b = b->reg;
  in.cmp = *CmpOf(call.op());
  in.vtype = PhysType::kBool;
  in.lane = lane;
  return Operand{dst, PhysType::kBool};
}

std::optional<Operand> Lowerer::LowerRangePair(const RangeAtom& lower,
                                               const RangeAtom& upper) {
  const bool integral = lower.col_phys == PhysType::kInt64 &&
                        lower.lit->value().is_int() &&
                        upper.lit->value().is_int();
  uint8_t colreg = AllocReg();
  FuseInstr& load = Emit(FuseOp::kLoadCol, colreg);
  load.vtype = lower.col_phys;
  load.col = lower.col;
  Operand c{colreg, lower.col_phys};
  if (!integral && c.phys == PhysType::kInt64) c = EmitWiden(c);
  FreeReg(c.reg);
  uint8_t dst = AllocReg();
  FuseInstr& in = Emit(FuseOp::kInRange, dst);
  in.a = c.reg;
  in.vtype = PhysType::kBool;
  in.lane = integral ? PhysType::kInt64 : PhysType::kDouble;
  in.lo_strict = lower.strict;
  in.hi_strict = upper.strict;
  if (integral) {
    in.imm_i64 = lower.lit->value().AsInt();
    in.imm2_i64 = upper.lit->value().AsInt();
  } else {
    in.imm_f64 = lower.lit->value().AsDouble();
    in.imm2_f64 = upper.lit->value().AsDouble();
  }
  return Operand{dst, PhysType::kBool};
}

std::optional<Operand> Lowerer::LowerAndOr(const RexCall& call) {
  const bool is_and = call.op() == OpKind::kAnd;
  const std::vector<RexNodePtr>& ops = call.operands();
  if (ops.empty()) return Fail();

  // Range-fusion peephole (AND only): a lower and an upper bound on the
  // same column pair into a single kInRange interval test. Greedy — each
  // unconsumed lower bound takes the first later opposite bound on its
  // column; everything unpaired lowers normally.
  std::vector<std::optional<RangeAtom>> atoms(ops.size());
  std::vector<int> pair_of(ops.size(), -1);   // index of the paired upper
  std::vector<char> consumed(ops.size(), 0);  // folded into an earlier pair
  if (is_and && ops.size() >= 2) {
    for (size_t i = 0; i < ops.size(); ++i) {
      atoms[i] = ClassifyRangeAtom(ops[i], input_phys_);
    }
    for (size_t i = 0; i < ops.size(); ++i) {
      if (!atoms[i] || consumed[i] || pair_of[i] >= 0) continue;
      for (size_t j = i + 1; j < ops.size(); ++j) {
        if (!atoms[j] || consumed[j] || pair_of[j] >= 0) continue;
        if (atoms[j]->col != atoms[i]->col) continue;
        if (atoms[j]->is_lower == atoms[i]->is_lower) continue;
        pair_of[i] = static_cast<int>(j);
        consumed[j] = 1;
        break;
      }
    }
  }

  std::optional<Operand> acc;
  ++logic_depth_;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (consumed[i]) continue;
    std::optional<Operand> piece;
    if (pair_of[i] >= 0) {
      const RangeAtom& a = *atoms[i];
      const RangeAtom& b = *atoms[pair_of[i]];
      piece = a.is_lower ? LowerRangePair(a, b) : LowerRangePair(b, a);
    } else {
      piece = Lower(ops[i]);
    }
    if (!piece) return std::nullopt;
    if (piece->phys != PhysType::kBool) return Fail();
    if (!acc) {
      acc = piece;
      continue;
    }
    FreeReg(acc->reg);
    FreeReg(piece->reg);
    uint8_t dst = AllocReg();
    FuseInstr& in = Emit(is_and ? FuseOp::kAnd : FuseOp::kOr, dst);
    in.a = acc->reg;
    in.b = piece->reg;
    in.vtype = PhysType::kBool;
    acc = Operand{dst, PhysType::kBool};
  }
  --logic_depth_;
  return acc;
}

std::optional<Operand> Lowerer::Lower(const RexNodePtr& node) {
  if (failed_ || node == nullptr) return Fail();
  switch (node->node_kind()) {
    case RexNode::NodeKind::kInputRef:
      return LowerInputRef(*static_cast<const RexInputRef*>(node.get()));
    case RexNode::NodeKind::kLiteral:
      return LowerLiteral(*static_cast<const RexLiteral*>(node.get()),
                          node->type());
    case RexNode::NodeKind::kCall:
      break;
  }
  const RexCall& call = *static_cast<const RexCall*>(node.get());
  const OpKind op = call.op();
  if (ArithOf(op) && call.operands().size() == 2) return LowerArith(call);
  if ((op == OpKind::kDivide || op == OpKind::kMod) &&
      call.operands().size() == 2) {
    return LowerDivMod(call);
  }
  if (CmpOf(op) && call.operands().size() == 2) return LowerCompare(call);
  if (op == OpKind::kAnd || op == OpKind::kOr) return LowerAndOr(call);

  // Remaining unary shapes share the lower-operand prologue.
  if (call.operands().size() != 1) return Fail();
  std::optional<Operand> a = Lower(call.operand(0));
  if (!a) return std::nullopt;
  switch (op) {
    case OpKind::kNot:
    case OpKind::kIsTrue:
    case OpKind::kIsFalse: {
      if (a->phys != PhysType::kBool) return Fail();
      FreeReg(a->reg);
      uint8_t dst = AllocReg();
      FuseOp fop = op == OpKind::kNot
                       ? FuseOp::kNot
                       : (op == OpKind::kIsTrue ? FuseOp::kIsTrue
                                                : FuseOp::kIsFalse);
      FuseInstr& in = Emit(fop, dst);
      in.a = a->reg;
      in.vtype = PhysType::kBool;
      return Operand{dst, PhysType::kBool};
    }
    case OpKind::kIsNull:
    case OpKind::kIsNotNull: {
      FreeReg(a->reg);
      uint8_t dst = AllocReg();
      FuseInstr& in = Emit(
          op == OpKind::kIsNull ? FuseOp::kIsNull : FuseOp::kIsNotNull, dst);
      in.a = a->reg;
      in.vtype = PhysType::kBool;
      return Operand{dst, PhysType::kBool};
    }
    case OpKind::kUnaryMinus: {
      if (!NumericPhys(a->phys)) return Fail();
      FreeReg(a->reg);
      uint8_t dst = AllocReg();
      FuseInstr& in = Emit(FuseOp::kNeg, dst);
      in.a = a->reg;
      in.vtype = a->phys;
      return Operand{dst, a->phys};
    }
    case OpKind::kCast: {
      if (!NumericPhys(a->phys)) return Fail();
      PhysType target = PhysTypeForRel(*node->type());
      if (!NumericPhys(target)) return Fail();
      if (target == a->phys) return a;  // identity cast elided
      if (target == PhysType::kDouble) return EmitWiden(*a);
      // double -> int64: like EmitWiden, dst is allocated before the
      // operand frees so the differently-typed rewrite is never in place.
      uint8_t dst = AllocReg();
      FuseInstr& in = Emit(FuseOp::kCastF64I64, dst);
      in.a = a->reg;
      in.vtype = PhysType::kInt64;
      FreeReg(a->reg);
      return Operand{dst, PhysType::kInt64};
    }
    default:
      return Fail();
  }
}

// ---------------------------------------------------------------------------
// Disassembly
// ---------------------------------------------------------------------------

const char* PhysName(PhysType t) {
  switch (t) {
    case PhysType::kInt64: return "i64";
    case PhysType::kDouble: return "f64";
    case PhysType::kBool: return "bool";
    case PhysType::kString: return "str";
    case PhysType::kValue: return "val";
  }
  return "?";
}

const char* CmpName(simd::Cmp c) {
  switch (c) {
    case simd::Cmp::kEq: return "eq";
    case simd::Cmp::kNe: return "ne";
    case simd::Cmp::kLt: return "lt";
    case simd::Cmp::kLe: return "le";
    case simd::Cmp::kGt: return "gt";
    case simd::Cmp::kGe: return "ge";
  }
  return "?";
}

const char* ArithName(simd::Arith a) {
  switch (a) {
    case simd::Arith::kAdd: return "add";
    case simd::Arith::kSub: return "sub";
    case simd::Arith::kMul: return "mul";
  }
  return "?";
}

std::string FmtF64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string FmtImm(const FuseInstr& in) {
  return in.vtype == PhysType::kInt64 ? std::to_string(in.imm_i64)
                                      : FmtF64(in.imm_f64);
}

/// A compare literal, per operand lane.
std::string FmtLaneImm(const FuseInstr& in,
                       const std::vector<std::string>& strings) {
  switch (in.lane) {
    case PhysType::kDouble: return FmtF64(in.imm_f64);
    case PhysType::kString: return "\"" + strings[in.imm_i64] + "\"";
    default: return std::to_string(in.imm_i64);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FuseProgram
// ---------------------------------------------------------------------------

std::shared_ptr<const FuseProgram> FuseProgram::Compile(
    const RexNodePtr& node, const std::vector<PhysType>& input_phys) {
  if (node == nullptr) return nullptr;
  Lowerer lw(input_phys);
  std::optional<Operand> res = lw.Lower(node);
  if (!res || lw.failed()) return nullptr;
  std::shared_ptr<FuseProgram> p(new FuseProgram());
  p->instrs_ = lw.TakeInstrs();
  p->strings_ = lw.TakeStrings();
  for (const FuseInstr& in : p->instrs_) {
    if (in.vtype == PhysType::kString) p->reg_width_ = sizeof(StringRef);
  }
  p->num_registers_ = lw.num_registers();
  p->result_reg_ = res->reg;
  p->result_phys_ = res->phys;
  return p;
}

std::string FuseProgram::Disassemble() const {
  std::string out;
  for (const FuseInstr& in : instrs_) {
    std::string line = "r" + std::to_string(in.dst) + " = ";
    const std::string ra = "r" + std::to_string(in.a);
    const std::string rb = "r" + std::to_string(in.b);
    // The operand class suffix of the bool-producing compares.
    const char* lane = PhysName(in.lane);
    switch (in.op) {
      case FuseOp::kLoadCol:
        line += "col $" + std::to_string(in.col) + " " + PhysName(in.vtype);
        break;
      case FuseOp::kLoadLitI64:
        line += "lit.i64 #" + std::to_string(in.imm_i64);
        break;
      case FuseOp::kLoadLitF64:
        line += "lit.f64 #" + FmtF64(in.imm_f64);
        break;
      case FuseOp::kLoadLitBool:
        line += "lit.bool #" + std::to_string(in.imm_i64);
        break;
      case FuseOp::kLoadLitStr:
        line += "lit.str #\"" + strings_[in.imm_i64] + "\"";
        break;
      case FuseOp::kLoadNull:
        line += std::string("null.") + PhysName(in.vtype);
        break;
      case FuseOp::kArith:
        line += std::string(ArithName(in.arith)) + "." + PhysName(in.vtype) +
                " " + ra + " " + rb;
        break;
      case FuseOp::kArithLit:
        line += std::string(ArithName(in.arith)) + "." + PhysName(in.vtype) +
                " " + ra + " #" + FmtImm(in);
        break;
      case FuseOp::kDivModLit:
        line += std::string(in.is_mod ? "mod." : "div.") + PhysName(in.vtype) +
                " " + ra + " #" + FmtImm(in);
        break;
      case FuseOp::kDivMod:
        line += std::string(in.is_mod ? "mod." : "div.") + PhysName(in.vtype) +
                " " + ra + " " + rb;
        break;
      case FuseOp::kCmp:
        line += std::string(CmpName(in.cmp)) + "." + lane + " " + ra + " " +
                rb;
        break;
      case FuseOp::kCmpLit:
        line += std::string(CmpName(in.cmp)) + "." + lane + " " + ra + " #" +
                FmtLaneImm(in, strings_);
        break;
      case FuseOp::kInRange:
        line += std::string("inrange.") + lane + " " + ra + " " +
                (in.lo_strict ? "(" : "[") +
                (in.lane == PhysType::kDouble ? FmtF64(in.imm_f64)
                                              : std::to_string(in.imm_i64)) +
                ", " +
                (in.lane == PhysType::kDouble ? FmtF64(in.imm2_f64)
                                              : std::to_string(in.imm2_i64)) +
                (in.hi_strict ? ")" : "]");
        break;
      case FuseOp::kAnd:
        line += "and " + ra + " " + rb;
        break;
      case FuseOp::kOr:
        line += "or " + ra + " " + rb;
        break;
      case FuseOp::kNot:
        line += "not " + ra;
        break;
      case FuseOp::kIsNull:
        line += "isnull " + ra;
        break;
      case FuseOp::kIsNotNull:
        line += "isnotnull " + ra;
        break;
      case FuseOp::kIsTrue:
        line += "istrue " + ra;
        break;
      case FuseOp::kIsFalse:
        line += "isfalse " + ra;
        break;
      case FuseOp::kNeg:
        line += std::string("neg.") + PhysName(in.vtype) + " " + ra;
        break;
      case FuseOp::kCastI64F64:
        line += "i64tof64 " + ra;
        break;
      case FuseOp::kCastF64I64:
        line += "f64toi64 " + ra;
        break;
    }
    out += line;
    out += "\n";
  }
  out += "ret r" + std::to_string(result_reg_) + " " + PhysName(result_phys_) +
         " regs=" + std::to_string(num_registers_) + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// FusedExpr interpreter
// ---------------------------------------------------------------------------

namespace {

size_t WidthOf(PhysType t) {
  switch (t) {
    case PhysType::kBool: return 1;
    case PhysType::kString: return sizeof(StringRef);
    default: return 8;
  }
}

const uint8_t* ColData(const ColumnVector& c, size_t base) {
  switch (c.type) {
    case PhysType::kInt64:
      return reinterpret_cast<const uint8_t*>(c.i64 + base);
    case PhysType::kDouble:
      return reinterpret_cast<const uint8_t*>(c.f64 + base);
    case PhysType::kString:
      return reinterpret_cast<const uint8_t*>(c.str + base);
    default:
      return c.b8 + base;
  }
}

/// out[i] = cmp(a[i] vs b[i]) for bool and string lanes, whose three-way
/// results follow Value::Compare; `b` is null when every row compares
/// against `lit`. Rows NULL in `nulls` get 0 and are never read.
template <typename T, typename Cmp3>
void CmpRows(simd::Cmp cmp, const T* a, const T* b, const T& lit,
             const uint8_t* nulls, size_t len, uint8_t* out, Cmp3 cmp3) {
  for (size_t i = 0; i < len; ++i) {
    out[i] = (nulls == nullptr || nulls[i] == 0) &&
             CmpPasses(cmp, cmp3(a[i], b != nullptr ? b[i] : lit));
  }
}

/// Bool- and string-lane comparisons (numeric lanes run the simd kernels).
void CmpNonNumeric(const FuseInstr& ins, const std::vector<std::string>& strs,
                   const uint8_t* a, const uint8_t* b, const uint8_t* nulls,
                   size_t len, uint8_t* out) {
  if (ins.lane == PhysType::kBool) {
    const uint8_t lit = static_cast<uint8_t>(ins.imm_i64);
    CmpRows(ins.cmp, a, b, lit, nulls, len, out, [](uint8_t x, uint8_t y) {
      return static_cast<int>(x) - static_cast<int>(y);
    });
    return;
  }
  StringRef lit;
  if (b == nullptr) {
    const std::string& s = strs[ins.imm_i64];
    lit = StringRef{s.data(), static_cast<uint32_t>(s.size())};
  }
  CmpRows(ins.cmp, reinterpret_cast<const StringRef*>(a),
          reinterpret_cast<const StringRef*>(b), lit, nulls, len, out,
          [](const StringRef& x, const StringRef& y) {
            return x.view().compare(y.view());
          });
}

/// Division or modulus over non-NULL rows, raising on a zero divisor;
/// NULL rows keep canonical-zero data.
template <typename T, typename Op>
Status DivModRows(const T* x, const T* y, const uint8_t* nulls, size_t len,
                  T* out, Op op) {
  for (size_t i = 0; i < len; ++i) {
    if (nulls != nullptr && nulls[i] != 0) {
      out[i] = 0;
      continue;
    }
    if (y[i] == 0) return Status::RuntimeError("division by zero");
    out[i] = op(x[i], y[i]);
  }
  return Status::OK();
}

}  // namespace

const FuseProgram* FusedExpr::ProgramFor(const ColumnBatch& in) {
  bool same = compiled_ && compiled_phys_.size() == in.cols.size();
  if (same) {
    for (size_t i = 0; i < compiled_phys_.size(); ++i) {
      if (in.cols[i].type != compiled_phys_[i]) {
        same = false;
        break;
      }
    }
  }
  if (same) return program_.get();
  compiled_ = true;
  compiled_phys_.clear();
  compiled_phys_.reserve(in.cols.size());
  for (const ColumnVector& c : in.cols) compiled_phys_.push_back(c.type);
  program_ = FuseProgram::Compile(node_, compiled_phys_);
  return program_.get();
}

void FusedExpr::EnsureScratch() {
  const size_t nregs = static_cast<size_t>(program_->num_registers());
  const size_t data_bytes = program_->reg_width() * kFuseBlockRows;
  const size_t stride = data_bytes + kFuseBlockRows;
  if (scratch_.size() < nregs * stride) scratch_.resize(nregs * stride);
  if (regs_.size() < nregs) regs_.resize(nregs);
  uint8_t* base = scratch_.data();
  for (size_t i = 0; i < nregs; ++i) {
    regs_[i].slot_data = base + i * stride;
    regs_[i].slot_nulls = base + i * stride + data_bytes;
  }
}

/// Copies or aliases `s`'s null map into `d`. External pointers (input
/// batch storage) are stable for the block and alias freely; another
/// register's slot may be overwritten by register reuse before `d` is
/// consumed, so slot-backed maps are copied (skipped when `d` *is* that
/// register and the pointers already coincide).
void FusedExpr::CopyNulls(Reg* d, const Reg& s, size_t len) {
  if (s.nulls == nullptr) {
    d->nulls = nullptr;
    return;
  }
  if (s.nulls_external) {
    d->nulls = s.nulls;
    d->nulls_external = true;
    return;
  }
  if (d->slot_nulls != s.nulls) std::memcpy(d->slot_nulls, s.nulls, len);
  d->nulls = d->slot_nulls;
  d->nulls_external = false;
}

/// NULL-strict fold of two operands' null maps into `d` (the union).
void FusedExpr::FoldNulls(Reg* d, const Reg& a, const Reg& b, size_t len) {
  if (a.nulls != nullptr && b.nulls != nullptr) {
    simd::OrMasks(a.nulls, b.nulls, len, d->slot_nulls);
    d->nulls = d->slot_nulls;
    d->nulls_external = false;
    return;
  }
  CopyNulls(d, a.nulls != nullptr ? a : b, len);
}

Status FusedExpr::RunBlock(const ColumnBatch& in, size_t base,
                           const uint32_t* sel, size_t len) {
  for (const FuseInstr& ins : program_->instrs()) {
    Reg& d = regs_[ins.dst];
    switch (ins.op) {
      case FuseOp::kLoadCol: {
        const ColumnVector& c = in.cols[ins.col];
        if (sel == nullptr) {
          d.data = ColData(c, base);
          d.data_external = true;
          d.nulls = c.nulls != nullptr ? c.nulls + base : nullptr;
          d.nulls_external = true;
          break;
        }
        if (c.type == PhysType::kInt64) {
          int64_t* slot = reinterpret_cast<int64_t*>(d.slot_data);
          for (size_t i = 0; i < len; ++i) slot[i] = c.i64[sel[i]];
        } else if (c.type == PhysType::kDouble) {
          double* slot = reinterpret_cast<double*>(d.slot_data);
          for (size_t i = 0; i < len; ++i) slot[i] = c.f64[sel[i]];
        } else if (c.type == PhysType::kString) {
          StringRef* slot = reinterpret_cast<StringRef*>(d.slot_data);
          for (size_t i = 0; i < len; ++i) slot[i] = c.str[sel[i]];
        } else {
          for (size_t i = 0; i < len; ++i) d.slot_data[i] = c.b8[sel[i]];
        }
        d.data = d.slot_data;
        d.data_external = false;
        if (c.nulls != nullptr) {
          for (size_t i = 0; i < len; ++i) d.slot_nulls[i] = c.nulls[sel[i]];
          d.nulls = d.slot_nulls;
        } else {
          d.nulls = nullptr;
        }
        d.nulls_external = false;
        break;
      }
      case FuseOp::kLoadLitI64: {
        int64_t* slot = reinterpret_cast<int64_t*>(d.slot_data);
        for (size_t i = 0; i < len; ++i) slot[i] = ins.imm_i64;
        d.data = d.slot_data;
        d.data_external = false;
        d.nulls = nullptr;
        break;
      }
      case FuseOp::kLoadLitF64: {
        double* slot = reinterpret_cast<double*>(d.slot_data);
        for (size_t i = 0; i < len; ++i) slot[i] = ins.imm_f64;
        d.data = d.slot_data;
        d.data_external = false;
        d.nulls = nullptr;
        break;
      }
      case FuseOp::kLoadLitBool:
        std::memset(d.slot_data, ins.imm_i64 != 0 ? 1 : 0, len);
        d.data = d.slot_data;
        d.data_external = false;
        d.nulls = nullptr;
        break;
      case FuseOp::kLoadLitStr: {
        const std::string& lit = program_->strings()[ins.imm_i64];
        const StringRef ref{lit.data(), static_cast<uint32_t>(lit.size())};
        StringRef* slot = reinterpret_cast<StringRef*>(d.slot_data);
        for (size_t i = 0; i < len; ++i) slot[i] = ref;
        d.data = d.slot_data;
        d.data_external = false;
        d.nulls = nullptr;
        break;
      }
      case FuseOp::kLoadNull:
        std::memset(d.slot_data, 0, WidthOf(ins.vtype) * len);
        std::memset(d.slot_nulls, 1, len);
        d.data = d.slot_data;
        d.data_external = false;
        d.nulls = d.slot_nulls;
        d.nulls_external = false;
        break;
      case FuseOp::kArith: {
        const Reg& a = regs_[ins.a];
        const Reg& b = regs_[ins.b];
        FoldNulls(&d, a, b, len);
        if (ins.vtype == PhysType::kInt64) {
          int64_t* out = reinterpret_cast<int64_t*>(d.slot_data);
          simd::ArithI64(ins.arith, reinterpret_cast<const int64_t*>(a.data),
                         reinterpret_cast<const int64_t*>(b.data), len, out);
          if (d.nulls != nullptr) simd::MaskZeroI64(out, d.nulls, len);
        } else {
          double* out = reinterpret_cast<double*>(d.slot_data);
          simd::ArithF64(ins.arith, reinterpret_cast<const double*>(a.data),
                         reinterpret_cast<const double*>(b.data), len, out);
          if (d.nulls != nullptr) simd::MaskZeroF64(out, d.nulls, len);
        }
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kArithLit: {
        const Reg& a = regs_[ins.a];
        CopyNulls(&d, a, len);
        if (ins.vtype == PhysType::kInt64) {
          int64_t* out = reinterpret_cast<int64_t*>(d.slot_data);
          simd::ArithI64Lit(ins.arith,
                            reinterpret_cast<const int64_t*>(a.data),
                            ins.imm_i64, len, out);
          if (d.nulls != nullptr) simd::MaskZeroI64(out, d.nulls, len);
        } else {
          double* out = reinterpret_cast<double*>(d.slot_data);
          simd::ArithF64Lit(ins.arith, reinterpret_cast<const double*>(a.data),
                            ins.imm_f64, len, out);
          if (d.nulls != nullptr) simd::MaskZeroF64(out, d.nulls, len);
        }
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kDivModLit: {
        // Total by construction: the divisor is a non-NULL non-zero
        // literal, and NULL rows' canonical-zero data slots divide to
        // (-)0 — defined, and re-zeroed by any later arithmetic's mask.
        const Reg& a = regs_[ins.a];
        CopyNulls(&d, a, len);
        if (ins.vtype == PhysType::kInt64) {
          const int64_t* x = reinterpret_cast<const int64_t*>(a.data);
          int64_t* out = reinterpret_cast<int64_t*>(d.slot_data);
          const int64_t lit = ins.imm_i64;
          if (ins.is_mod) {
            for (size_t i = 0; i < len; ++i) out[i] = x[i] % lit;
          } else {
            for (size_t i = 0; i < len; ++i) out[i] = x[i] / lit;
          }
        } else {
          const double* x = reinterpret_cast<const double*>(a.data);
          double* out = reinterpret_cast<double*>(d.slot_data);
          const double lit = ins.imm_f64;
          if (ins.is_mod) {
            for (size_t i = 0; i < len; ++i) out[i] = std::fmod(x[i], lit);
          } else {
            for (size_t i = 0; i < len; ++i) out[i] = x[i] / lit;
          }
        }
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kDivMod: {
        const Reg& a = regs_[ins.a];
        const Reg& b = regs_[ins.b];
        FoldNulls(&d, a, b, len);
        Status status;
        if (ins.vtype == PhysType::kInt64) {
          status = DivModRows(
              reinterpret_cast<const int64_t*>(a.data),
              reinterpret_cast<const int64_t*>(b.data), d.nulls, len,
              reinterpret_cast<int64_t*>(d.slot_data),
              [mod = ins.is_mod](int64_t x, int64_t y) {
                return mod ? x % y : x / y;
              });
        } else {
          status = DivModRows(
              reinterpret_cast<const double*>(a.data),
              reinterpret_cast<const double*>(b.data), d.nulls, len,
              reinterpret_cast<double*>(d.slot_data),
              [mod = ins.is_mod](double x, double y) {
                return mod ? std::fmod(x, y) : x / y;
              });
        }
        CALCITE_RETURN_IF_ERROR(status);
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kCmp: {
        const Reg& a = regs_[ins.a];
        const Reg& b = regs_[ins.b];
        FoldNulls(&d, a, b, len);
        if (ins.lane == PhysType::kDouble) {
          simd::CmpF64(ins.cmp, reinterpret_cast<const double*>(a.data),
                       reinterpret_cast<const double*>(b.data), len,
                       d.slot_data);
        } else if (ins.lane == PhysType::kInt64) {
          simd::CmpI64(ins.cmp, reinterpret_cast<const int64_t*>(a.data),
                       reinterpret_cast<const int64_t*>(b.data), len,
                       d.slot_data);
        } else {
          CmpNonNumeric(ins, program_->strings(), a.data, b.data, d.nulls,
                        len, d.slot_data);
        }
        if (d.nulls != nullptr) simd::MaskZeroU8(d.slot_data, d.nulls, len);
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kCmpLit: {
        const Reg& a = regs_[ins.a];
        CopyNulls(&d, a, len);
        if (ins.lane == PhysType::kDouble) {
          simd::CmpF64Lit(ins.cmp, reinterpret_cast<const double*>(a.data),
                          ins.imm_f64, len, d.slot_data);
        } else if (ins.lane == PhysType::kInt64) {
          simd::CmpI64Lit(ins.cmp, reinterpret_cast<const int64_t*>(a.data),
                          ins.imm_i64, len, d.slot_data);
        } else {
          CmpNonNumeric(ins, program_->strings(), a.data, nullptr, d.nulls,
                        len, d.slot_data);
        }
        if (d.nulls != nullptr) simd::MaskZeroU8(d.slot_data, d.nulls, len);
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kInRange: {
        const Reg& a = regs_[ins.a];
        CopyNulls(&d, a, len);
        if (ins.lane == PhysType::kDouble) {
          simd::InRangeF64(reinterpret_cast<const double*>(a.data),
                           ins.imm_f64, ins.lo_strict, ins.imm2_f64,
                           ins.hi_strict, len, d.slot_data);
        } else {
          simd::InRangeI64(reinterpret_cast<const int64_t*>(a.data),
                           ins.imm_i64, ins.lo_strict, ins.imm2_i64,
                           ins.hi_strict, len, d.slot_data);
        }
        if (d.nulls != nullptr) simd::MaskZeroU8(d.slot_data, d.nulls, len);
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kAnd:
      case FuseOp::kOr: {
        // Kleene three-valued logic, evaluated blind. Operand data slots
        // are canonical-zero at NULL rows, so a 1 byte always means
        // "non-NULL true"; blind AND/OR of the values then agrees with
        // the short-circuit row oracle because both connectives commute
        // in Kleene logic.
        const Reg& a = regs_[ins.a];
        const Reg& b = regs_[ins.b];
        const uint8_t* av = a.data;
        const uint8_t* bv = b.data;
        uint8_t* out = d.slot_data;
        if (a.nulls == nullptr && b.nulls == nullptr) {
          if (ins.op == FuseOp::kAnd) {
            simd::AndMasks(av, bv, len, out);
          } else {
            simd::OrMasks(av, bv, len, out);
          }
          d.nulls = nullptr;
        } else {
          const uint8_t* an = a.nulls;
          const uint8_t* bn = b.nulls;
          uint8_t* dn = d.slot_nulls;
          if (ins.op == FuseOp::kAnd) {
            for (size_t i = 0; i < len; ++i) {
              const bool anul = an != nullptr && an[i] != 0;
              const bool bnul = bn != nullptr && bn[i] != 0;
              const bool off = (!anul && av[i] == 0) || (!bnul && bv[i] == 0);
              const uint8_t val = av[i] & bv[i] & 1;
              dn[i] = ((anul || bnul) && !off) ? 1 : 0;
              out[i] = val;
            }
          } else {
            for (size_t i = 0; i < len; ++i) {
              const bool anul = an != nullptr && an[i] != 0;
              const bool bnul = bn != nullptr && bn[i] != 0;
              const uint8_t val = (av[i] | bv[i]) & 1;
              dn[i] = ((anul || bnul) && val == 0) ? 1 : 0;
              out[i] = val;
            }
          }
          d.nulls = dn;
          d.nulls_external = false;
        }
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kNot: {
        const Reg& a = regs_[ins.a];
        CopyNulls(&d, a, len);
        const uint8_t* av = a.data;
        uint8_t* out = d.slot_data;
        for (size_t i = 0; i < len; ++i) out[i] = av[i] == 0 ? 1 : 0;
        if (d.nulls != nullptr) simd::MaskZeroU8(out, d.nulls, len);
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kIsNull:
      case FuseOp::kIsNotNull: {
        const Reg& a = regs_[ins.a];
        const bool want_null = ins.op == FuseOp::kIsNull;
        if (a.nulls == nullptr) {
          std::memset(d.slot_data, want_null ? 0 : 1, len);
        } else {
          const uint8_t* an = a.nulls;
          uint8_t* out = d.slot_data;
          for (size_t i = 0; i < len; ++i) {
            out[i] = (an[i] != 0) == want_null ? 1 : 0;
          }
        }
        d.data = d.slot_data;
        d.data_external = false;
        d.nulls = nullptr;
        break;
      }
      case FuseOp::kIsTrue:
      case FuseOp::kIsFalse: {
        const Reg& a = regs_[ins.a];
        const bool want = ins.op == FuseOp::kIsTrue;
        const uint8_t* av = a.data;
        const uint8_t* an = a.nulls;
        uint8_t* out = d.slot_data;
        for (size_t i = 0; i < len; ++i) {
          const bool is_null = an != nullptr && an[i] != 0;
          out[i] = (!is_null && (av[i] != 0) == want) ? 1 : 0;
        }
        d.data = d.slot_data;
        d.data_external = false;
        d.nulls = nullptr;
        break;
      }
      case FuseOp::kNeg: {
        const Reg& a = regs_[ins.a];
        CopyNulls(&d, a, len);
        if (ins.vtype == PhysType::kInt64) {
          const int64_t* x = reinterpret_cast<const int64_t*>(a.data);
          int64_t* out = reinterpret_cast<int64_t*>(d.slot_data);
          for (size_t i = 0; i < len; ++i) out[i] = -x[i];
        } else {
          const double* x = reinterpret_cast<const double*>(a.data);
          double* out = reinterpret_cast<double*>(d.slot_data);
          for (size_t i = 0; i < len; ++i) out[i] = -x[i];
        }
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kCastI64F64: {
        const Reg& a = regs_[ins.a];
        CopyNulls(&d, a, len);
        simd::I64ToF64(reinterpret_cast<const int64_t*>(a.data), len,
                       reinterpret_cast<double*>(d.slot_data));
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
      case FuseOp::kCastF64I64: {
        const Reg& a = regs_[ins.a];
        CopyNulls(&d, a, len);
        const double* x = reinterpret_cast<const double*>(a.data);
        int64_t* out = reinterpret_cast<int64_t*>(d.slot_data);
        // Blind truncation: NULL rows hold (-)0.0 and cast to 0, keeping
        // the canonical-zero invariant without a mask pass.
        for (size_t i = 0; i < len; ++i) {
          out[i] = static_cast<int64_t>(x[i]);
        }
        d.data = d.slot_data;
        d.data_external = false;
        break;
      }
    }
  }
  return Status::OK();
}

namespace {

/// One reused row for the per-row fallbacks, boxing only the columns the
/// expression references (wide lifted join rows would otherwise box every
/// cell per row); unreferenced cells stay NULL. References at or beyond
/// the batch width are skipped, so Eval still reports them out of range.
class RefGather {
 public:
  RefGather(const RexNodePtr& node, const ColumnBatch& batch)
      : batch_(batch), row_(batch.cols.size()) {
    for (int ref : RexUtil::InputRefs(node)) {
      if (ref >= 0 && static_cast<size_t>(ref) < row_.size()) {
        refs_.push_back(static_cast<size_t>(ref));
      }
    }
  }

  /// The row at physical index `i` (valid until the next call).
  const Row& At(size_t i) {
    for (size_t c : refs_) row_[c] = batch_.cols[c].GetValue(i);
    return row_;
  }

 private:
  const ColumnBatch& batch_;
  std::vector<size_t> refs_;
  Row row_;
};

}  // namespace

Status FusedExpr::RunDense(const ColumnBatch& in, ColumnBatch* out) {
  const FuseProgram& p = *program_;
  EnsureScratch();
  const size_t n = in.ActiveCount();
  const PhysType rt = p.result_phys();
  const size_t width = WidthOf(rt);
  uint8_t* data_buf =
      static_cast<uint8_t*>(out->arena->Allocate(width * (n > 0 ? n : 1)));
  uint8_t* nulls_buf = nullptr;
  Reg& res = regs_[p.result_reg()];
  const uint32_t* s = in.has_sel ? in.sel.data() : nullptr;
  size_t pos = 0;
  while (pos < n) {
    const size_t len = std::min(kFuseBlockRows, n - pos);
    // Contiguous selection runs (and dense batches) address columns
    // zero-copy at a base offset; genuinely sparse blocks gather.
    size_t base = pos;
    const uint32_t* g = nullptr;
    if (s != nullptr) {
      if (s[pos + len - 1] - s[pos] == len - 1) {
        base = s[pos];
      } else {
        g = s + pos;
      }
    }
    // Redirect the result register's slot into the output buffer so the
    // final instruction writes in place. Only for 8-byte results in 8-byte
    // registers: an intermediate reusing the register writes register
    // width, which would overrun a narrower region.
    const bool in_place = width == 8 && p.reg_width() == 8;
    uint8_t* saved_slot = res.slot_data;
    if (in_place) res.slot_data = data_buf + pos * 8;
    Status status = RunBlock(in, base, g, len);
    res.slot_data = saved_slot;
    CALCITE_RETURN_IF_ERROR(status);
    if (res.data != data_buf + pos * width) {
      std::memcpy(data_buf + pos * width, res.data, len * width);
    }
    if (res.nulls != nullptr) {
      if (nulls_buf == nullptr) {
        nulls_buf = static_cast<uint8_t*>(out->arena->Allocate(n));
        std::memset(nulls_buf, 0, pos);
      }
      std::memcpy(nulls_buf + pos, res.nulls, len);
    } else if (nulls_buf != nullptr) {
      std::memset(nulls_buf + pos, 0, len);
    }
    pos += len;
  }
  ColumnVector cv;
  cv.type = rt;
  switch (rt) {
    case PhysType::kInt64:
      cv.i64 = reinterpret_cast<const int64_t*>(data_buf);
      break;
    case PhysType::kDouble:
      cv.f64 = reinterpret_cast<const double*>(data_buf);
      break;
    case PhysType::kString:
      // Spans point into `in`'s storage (shared by `out`) or at the
      // program's string constants, which `out` pins.
      cv.str = reinterpret_cast<const StringRef*>(data_buf);
      out->pins.push_back(program_);
      break;
    default:
      cv.b8 = data_buf;
      break;
  }
  cv.nulls = nulls_buf;
  out->cols.push_back(cv);
  return Status::OK();
}

Status FusedExpr::RunNarrow(const ColumnBatch& batch, SelectionVector* sel) {
  const FuseProgram& p = *program_;
  EnsureScratch();
  uint32_t* s = sel->data();
  const size_t n = sel->size();
  Reg& res = regs_[p.result_reg()];
  size_t pos = 0;
  size_t write = 0;
  while (pos < n) {
    const size_t len = std::min(kFuseBlockRows, n - pos);
    const uint32_t* selblk = s + pos;
    size_t base = 0;
    const uint32_t* g = selblk;
    if (selblk[len - 1] - selblk[0] == len - 1) {
      base = selblk[0];
      g = nullptr;
    }
    CALCITE_RETURN_IF_ERROR(RunBlock(batch, base, g, len));
    const uint8_t* mask;
    if (res.nulls != nullptr) {
      simd::AndNotMask(res.data, res.nulls, len, res.slot_data);
      mask = res.slot_data;
    } else {
      mask = res.data;
    }
    // CompactSel reads at-or-ahead of its writes and write <= pos, so
    // compacting each block into the already-consumed prefix is safe.
    write += simd::CompactSel(mask, selblk, len, s + write);
    pos += len;
  }
  sel->resize(write);
  return Status::OK();
}

Status FusedExpr::AppendEvalColumn(const ColumnBatch& in, ColumnBatch* out) {
  if (const RexInputRef* ref = AsInputRef(node_)) {
    const size_t idx = static_cast<size_t>(ref->index());
    if (ref->index() < 0 || idx >= in.cols.size()) {
      return Status::RuntimeError("input reference $" + std::to_string(idx) +
                                  " out of range");
    }
    if (in.has_sel) {
      AppendGatheredColumn(&in.cols[idx], 1, nullptr, in.sel.data(),
                           in.sel.size(), out);
    } else {
      out->cols.push_back(in.cols[idx]);
    }
    return Status::OK();
  }
  if (ProgramFor(in) != nullptr) return RunDense(in, out);
  auto vals = std::make_shared<std::vector<Value>>();
  const size_t n = in.ActiveCount();
  vals->reserve(n);
  RefGather gather(node_, in);
  for (size_t k = 0; k < n; ++k) {
    CALCITE_ASSIGN_OR_RETURN(
        Value v, RexInterpreter::Eval(node_, gather.At(in.ActiveIndex(k))));
    vals->push_back(std::move(v));
  }
  ColumnVector cv;
  cv.type = PhysType::kValue;
  cv.boxed = vals->data();
  out->boxed_pool.push_back(std::move(vals));
  out->cols.push_back(cv);
  return Status::OK();
}

Status FusedExpr::NarrowSelection(const ColumnBatch& batch,
                                  SelectionVector* sel) {
  if (sel->empty()) return Status::OK();
  const FuseProgram* p = ProgramFor(batch);
  if (p != nullptr && p->result_phys() == PhysType::kBool) {
    return RunNarrow(batch, sel);
  }
  const RexCall* call = AsCall(node_);
  if (call != nullptr && call->op() == OpKind::kAnd) {
    if (conjuncts_.empty()) {
      conjuncts_.reserve(call->operands().size());
      for (const RexNodePtr& op : call->operands()) {
        conjuncts_.push_back(std::make_unique<FusedExpr>(op));
      }
    }
    for (const std::unique_ptr<FusedExpr>& c : conjuncts_) {
      CALCITE_RETURN_IF_ERROR(c->NarrowSelection(batch, sel));
      if (sel->empty()) break;
    }
    return Status::OK();
  }
  size_t out = 0;
  RefGather gather(node_, batch);
  for (uint32_t row : *sel) {
    CALCITE_ASSIGN_OR_RETURN(
        bool pass, RexInterpreter::EvalPredicate(node_, gather.At(row)));
    if (pass) (*sel)[out++] = row;
  }
  sel->resize(out);
  return Status::OK();
}

}  // namespace calcite
