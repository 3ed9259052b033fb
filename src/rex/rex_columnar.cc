#include "rex/rex_columnar.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>

#include "exec/simd.h"
#include "rex/operator.h"
#include "rex/rex_interpreter.h"
#include "rex/rex_util.h"

namespace calcite {
namespace {

bool IsArithOp(OpKind op) {
  switch (op) {
    case OpKind::kPlus:
    case OpKind::kMinus:
    case OpKind::kTimes:
    case OpKind::kDivide:
    case OpKind::kMod:
      return true;
    default:
      return false;
  }
}

bool IsNumericPhys(PhysType t) {
  return t == PhysType::kInt64 || t == PhysType::kDouble;
}

/// Physical class of a literal column; nullopt when no typed layout exists.
std::optional<PhysType> LiteralPhys(const RexLiteral& lit) {
  const Value& v = lit.value();
  if (v.IsNull()) {
    PhysType t = PhysTypeForRel(*lit.type());
    if (t == PhysType::kValue) return std::nullopt;
    return t;  // typed all-null column
  }
  if (v.is_int()) return PhysType::kInt64;
  if (v.is_double()) return PhysType::kDouble;
  if (v.is_bool()) return PhysType::kBool;
  if (v.is_string()) return PhysType::kString;
  return std::nullopt;
}

bool CmpPasses(OpKind op, int c) {
  switch (op) {
    case OpKind::kEquals:
      return c == 0;
    case OpKind::kNotEquals:
      return c != 0;
    case OpKind::kLessThan:
      return c < 0;
    case OpKind::kLessThanOrEqual:
      return c <= 0;
    case OpKind::kGreaterThan:
      return c > 0;
    case OpKind::kGreaterThanOrEqual:
      return c >= 0;
    default:
      return false;
  }
}

/// Evaluation context: `in` supplies the active rows, `out` owns all result
/// storage (arena for typed data, boxed_pool for Value columns, pins for
/// aliased inputs).
struct Ctx {
  const ColumnBatch& in;
  ColumnBatch* out;
  size_t n;  // active row count; every dense column has exactly n entries

  Arena& arena() { return *out->arena; }

  template <typename T>
  T* AllocZeroed() {
    T* p = out->arena->AllocateArray<T>(n);
    std::memset(static_cast<void*>(p), 0, n * sizeof(T));
    return p;
  }
};

Status EvalDense(Ctx& ctx, const RexNodePtr& node, ColumnVector* res);

std::optional<simd::Cmp> SimdCmp(OpKind op) {
  switch (op) {
    case OpKind::kEquals:
      return simd::Cmp::kEq;
    case OpKind::kNotEquals:
      return simd::Cmp::kNe;
    case OpKind::kLessThan:
      return simd::Cmp::kLt;
    case OpKind::kLessThanOrEqual:
      return simd::Cmp::kLe;
    case OpKind::kGreaterThan:
      return simd::Cmp::kGt;
    case OpKind::kGreaterThanOrEqual:
      return simd::Cmp::kGe;
    default:
      return std::nullopt;
  }
}

std::optional<simd::Arith> SimdArith(OpKind op) {
  switch (op) {
    case OpKind::kPlus:
      return simd::Arith::kAdd;
    case OpKind::kMinus:
      return simd::Arith::kSub;
    case OpKind::kTimes:
      return simd::Arith::kMul;
    default:
      return std::nullopt;
  }
}

/// OR-folds the operand null maps lane-wise into a fresh result map;
/// nullptr when neither operand can be NULL.
uint8_t* FoldNulls(Ctx& ctx, const uint8_t* an, const uint8_t* bn) {
  if (an == nullptr && bn == nullptr) return nullptr;
  uint8_t* rn = ctx.arena().AllocateArray<uint8_t>(ctx.n);
  if (an != nullptr && bn != nullptr) {
    simd::OrMasks(an, bn, ctx.n, rn);
  } else {
    std::memcpy(rn, an != nullptr ? an : bn, ctx.n);
  }
  return rn;
}

/// Dense double view of a numeric column: the column itself for kDouble,
/// an arena-widened copy for kInt64 (NULL slots are zero and widen to 0.0,
/// staying canonical).
const double* AsF64Dense(Ctx& ctx, const ColumnVector& col) {
  if (col.type == PhysType::kDouble) return col.f64;
  double* d = ctx.arena().AllocateArray<double>(ctx.n);
  simd::I64ToF64(col.i64, ctx.n, d);
  return d;
}

/// Materializes an input-ref column densely over the active rows: a
/// zero-copy alias when the batch has no selection, a typed gather when it
/// does. Handles every physical class, including boxed.
Status RefDense(Ctx& ctx, const RexInputRef& ref, ColumnVector* res) {
  const size_t idx = static_cast<size_t>(ref.index());
  if (idx >= ctx.in.cols.size()) {
    return Status::RuntimeError("input reference $" + std::to_string(idx) +
                                " out of range");
  }
  const ColumnVector& src = ctx.in.cols[idx];
  if (!ctx.in.has_sel) {
    *res = src;
    return Status::OK();
  }
  const SelectionVector& sel = ctx.in.sel;
  const size_t n = ctx.n;
  res->type = src.type;
  uint8_t* nn = nullptr;
  if (src.type != PhysType::kValue && src.nulls != nullptr) {
    nn = ctx.AllocZeroed<uint8_t>();
    for (size_t k = 0; k < n; ++k) nn[k] = src.nulls[sel[k]];
    res->nulls = nn;
  }
  switch (src.type) {
    case PhysType::kInt64: {
      int64_t* d = ctx.AllocZeroed<int64_t>();
      for (size_t k = 0; k < n; ++k) d[k] = src.i64[sel[k]];
      res->i64 = d;
      break;
    }
    case PhysType::kDouble: {
      double* d = ctx.AllocZeroed<double>();
      for (size_t k = 0; k < n; ++k) d[k] = src.f64[sel[k]];
      res->f64 = d;
      break;
    }
    case PhysType::kBool: {
      uint8_t* d = ctx.AllocZeroed<uint8_t>();
      for (size_t k = 0; k < n; ++k) d[k] = src.b8[sel[k]];
      res->b8 = d;
      break;
    }
    case PhysType::kString: {
      // Gathered spans keep pointing into the source blob, which the output
      // batch pins via ShareStorage.
      StringRef* d = ctx.AllocZeroed<StringRef>();
      for (size_t k = 0; k < n; ++k) d[k] = src.str[sel[k]];
      res->str = d;
      break;
    }
    case PhysType::kValue: {
      auto vals = std::make_shared<std::vector<Value>>();
      vals->reserve(n);
      for (size_t k = 0; k < n; ++k) vals->push_back(src.boxed[sel[k]]);
      ctx.out->boxed_pool.push_back(vals);
      res->boxed = vals->data();
      break;
    }
  }
  return Status::OK();
}

/// Broadcasts a literal to a dense column.
Status LiteralDense(Ctx& ctx, const RexLiteral& lit, ColumnVector* res) {
  const Value& v = lit.value();
  const size_t n = ctx.n;
  if (v.IsNull()) {
    auto phys = LiteralPhys(lit);
    assert(phys.has_value());
    res->type = *phys;
    uint8_t* nn = ctx.AllocZeroed<uint8_t>();
    std::memset(nn, 1, n);
    res->nulls = nn;
    switch (*phys) {
      case PhysType::kInt64:
        res->i64 = ctx.AllocZeroed<int64_t>();
        break;
      case PhysType::kDouble:
        res->f64 = ctx.AllocZeroed<double>();
        break;
      case PhysType::kBool:
        res->b8 = ctx.AllocZeroed<uint8_t>();
        break;
      case PhysType::kString:
        res->str = ctx.AllocZeroed<StringRef>();
        break;
      case PhysType::kValue:
        break;
    }
    return Status::OK();
  }
  if (v.is_int()) {
    int64_t* d = ctx.arena().AllocateArray<int64_t>(n);
    for (size_t k = 0; k < n; ++k) d[k] = v.AsInt();
    res->type = PhysType::kInt64;
    res->i64 = d;
  } else if (v.is_double()) {
    double* d = ctx.arena().AllocateArray<double>(n);
    for (size_t k = 0; k < n; ++k) d[k] = v.AsDouble();
    res->type = PhysType::kDouble;
    res->f64 = d;
  } else if (v.is_bool()) {
    uint8_t* d = ctx.arena().AllocateArray<uint8_t>(n);
    std::memset(d, v.AsBool() ? 1 : 0, n);
    res->type = PhysType::kBool;
    res->b8 = d;
  } else if (v.is_string()) {
    const std::string& s = v.AsString();
    char* bytes = ctx.arena().AllocateArray<char>(s.size());
    std::memcpy(bytes, s.data(), s.size());
    StringRef span{bytes, static_cast<uint32_t>(s.size())};
    StringRef* d = ctx.arena().AllocateArray<StringRef>(n);
    for (size_t k = 0; k < n; ++k) d[k] = span;
    res->type = PhysType::kString;
    res->str = d;
  } else {
    auto vals = std::make_shared<std::vector<Value>>(n, v);
    ctx.out->boxed_pool.push_back(vals);
    res->type = PhysType::kValue;
    res->boxed = vals->data();
  }
  return Status::OK();
}

/// Binary arithmetic over dense numeric columns. NULL-strict with the NULL
/// check strictly before the division-by-zero check, like EvalArithmetic.
/// Data slots of NULL rows are zero, so blind stores stay defined.
Status ArithDense(Ctx& ctx, OpKind op, const ColumnVector& a,
                  const ColumnVector& b, ColumnVector* res) {
  const size_t n = ctx.n;
  uint8_t* rn = FoldNulls(ctx, a.nulls, b.nulls);
  res->nulls = rn;
  const auto va = SimdArith(op);
  const bool integral = a.type == PhysType::kInt64 && b.type == PhysType::kInt64;
  if (integral) {
    const int64_t* x = a.i64;
    const int64_t* y = b.i64;
    res->type = PhysType::kInt64;
    if (va.has_value()) {
      // Blind +-* over every slot (NULL slots are zero, so lanes stay
      // defined), then re-zero NULL rows so their data slots stay canonical.
      int64_t* d = ctx.arena().AllocateArray<int64_t>(n);
      simd::ArithI64(*va, x, y, n, d);
      if (rn != nullptr) simd::MaskZeroI64(d, rn, n);
      res->i64 = d;
      return Status::OK();
    }
    // Division/modulus stay scalar: they raise per-row errors and must skip
    // NULL rows (the NULL check comes strictly before the zero check).
    int64_t* d = ctx.AllocZeroed<int64_t>();
    res->i64 = d;
    for (size_t i = 0; i < n; ++i) {
      if (rn != nullptr && rn[i]) continue;
      if (y[i] == 0) return Status::RuntimeError("division by zero");
      d[i] = op == OpKind::kDivide ? x[i] / y[i] : x[i] % y[i];
    }
    return Status::OK();
  }
  const double* x = AsF64Dense(ctx, a);
  const double* y = AsF64Dense(ctx, b);
  res->type = PhysType::kDouble;
  if (va.has_value()) {
    double* d = ctx.arena().AllocateArray<double>(n);
    simd::ArithF64(*va, x, y, n, d);
    if (rn != nullptr) simd::MaskZeroF64(d, rn, n);
    res->f64 = d;
    return Status::OK();
  }
  double* d = ctx.AllocZeroed<double>();
  res->f64 = d;
  for (size_t i = 0; i < n; ++i) {
    if (rn != nullptr && rn[i]) continue;
    if (y[i] == 0) return Status::RuntimeError("division by zero");
    d[i] = op == OpKind::kDivide ? x[i] / y[i] : std::fmod(x[i], y[i]);
  }
  return Status::OK();
}

/// Comparison over dense columns of compatible classes; result is a BOOLEAN
/// column, NULL where either side is NULL (three-valued logic).
Status CompareDense(Ctx& ctx, OpKind op, const ColumnVector& a,
                    const ColumnVector& b, ColumnVector* res) {
  const size_t n = ctx.n;
  uint8_t* rn = FoldNulls(ctx, a.nulls, b.nulls);
  res->nulls = rn;
  res->type = PhysType::kBool;
  const auto vc = SimdCmp(op);
  if (!vc.has_value()) return Status::Internal("unexpected comparison operator");
  if (a.type == PhysType::kInt64 && b.type == PhysType::kInt64) {
    uint8_t* d = ctx.arena().AllocateArray<uint8_t>(n);
    simd::CmpI64(*vc, a.i64, b.i64, n, d);
    if (rn != nullptr) simd::MaskZeroU8(d, rn, n);
    res->b8 = d;
    return Status::OK();
  }
  if (IsNumericPhys(a.type) && IsNumericPhys(b.type)) {
    const double* x = AsF64Dense(ctx, a);
    const double* y = AsF64Dense(ctx, b);
    uint8_t* d = ctx.arena().AllocateArray<uint8_t>(n);
    simd::CmpF64(*vc, x, y, n, d);
    if (rn != nullptr) simd::MaskZeroU8(d, rn, n);
    res->b8 = d;
    return Status::OK();
  }
  uint8_t* d = ctx.AllocZeroed<uint8_t>();
  res->b8 = d;
  if (a.type == PhysType::kString && b.type == PhysType::kString) {
    for (size_t i = 0; i < n; ++i) {
      if (rn != nullptr && rn[i]) continue;
      d[i] = CmpPasses(op, a.str[i].view().compare(b.str[i].view()));
    }
  } else if (a.type == PhysType::kBool && b.type == PhysType::kBool) {
    for (size_t i = 0; i < n; ++i) {
      d[i] = CmpPasses(op, static_cast<int>(a.b8[i]) -
                               static_cast<int>(b.b8[i]));
    }
    if (rn != nullptr) simd::MaskZeroU8(d, rn, n);
  } else {
    return Status::Internal("incomparable columnar operand classes");
  }
  return Status::OK();
}

/// Comparison of a dense numeric column against a non-NULL numeric constant:
/// skips the literal broadcast entirely and runs the fused column-vs-scalar
/// kernel. The literal side is never NULL, so the result nulls are exactly
/// the operand's bytemap (aliased, not copied).
Status CompareLitDense(Ctx& ctx, OpKind op, const ColumnVector& a,
                       const Value& lit, ColumnVector* res) {
  const size_t n = ctx.n;
  const auto vc = SimdCmp(op);
  if (!vc.has_value()) return Status::Internal("unexpected comparison operator");
  uint8_t* d = ctx.arena().AllocateArray<uint8_t>(n);
  if (a.type == PhysType::kInt64 && lit.is_int()) {
    simd::CmpI64Lit(*vc, a.i64, lit.AsInt(), n, d);
  } else {
    simd::CmpF64Lit(*vc, AsF64Dense(ctx, a), lit.AsDouble(), n, d);
  }
  res->type = PhysType::kBool;
  res->b8 = d;
  if (a.nulls != nullptr) {
    res->nulls = a.nulls;
    simd::MaskZeroU8(d, a.nulls, n);
  }
  return Status::OK();
}

Status CallDense(Ctx& ctx, const RexCall& call, const RelDataTypePtr& type,
                 ColumnVector* res) {
  const OpKind op = call.op();
  const size_t n = ctx.n;

  if (IsArithOp(op)) {
    ColumnVector a, b;
    Status s = EvalDense(ctx, call.operand(0), &a);
    if (!s.ok()) return s;
    s = EvalDense(ctx, call.operand(1), &b);
    if (!s.ok()) return s;
    return ArithDense(ctx, op, a, b, res);
  }
  if (IsComparison(op)) {
    // Expression-vs-literal peephole: exactly one side a non-NULL numeric
    // constant folds into the column-vs-scalar kernel (literal-on-left
    // flips the operator instead of broadcasting).
    const RexLiteral* lita = AsLiteral(call.operand(0));
    const RexLiteral* litb = AsLiteral(call.operand(1));
    const RexLiteral* lit = litb != nullptr ? litb : lita;
    if (lit != nullptr && (lita == nullptr || litb == nullptr) &&
        !lit->value().IsNull() && lit->value().is_numeric()) {
      ColumnVector a;
      Status s = EvalDense(ctx, call.operand(lit == litb ? 0 : 1), &a);
      if (!s.ok()) return s;
      if (IsNumericPhys(a.type)) {
        const OpKind eff = lit == litb ? op : ReverseComparison(op);
        return CompareLitDense(ctx, eff, a, lit->value(), res);
      }
      ColumnVector b;
      s = LiteralDense(ctx, *lit, &b);
      if (!s.ok()) return s;
      return lit == litb ? CompareDense(ctx, op, a, b, res)
                         : CompareDense(ctx, op, b, a, res);
    }
    ColumnVector a, b;
    Status s = EvalDense(ctx, call.operand(0), &a);
    if (!s.ok()) return s;
    s = EvalDense(ctx, call.operand(1), &b);
    if (!s.ok()) return s;
    return CompareDense(ctx, op, a, b, res);
  }

  switch (op) {
    case OpKind::kIsNull:
    case OpKind::kIsNotNull: {
      ColumnVector a;
      Status s = EvalDense(ctx, call.operand(0), &a);
      if (!s.ok()) return s;
      uint8_t* d = ctx.AllocZeroed<uint8_t>();
      const bool want_null = op == OpKind::kIsNull;
      if (a.nulls == nullptr) {
        std::memset(d, want_null ? 0 : 1, n);
      } else {
        for (size_t i = 0; i < n; ++i) {
          d[i] = (a.nulls[i] != 0) == want_null;
        }
      }
      res->type = PhysType::kBool;
      res->b8 = d;
      return Status::OK();
    }
    case OpKind::kIsTrue:
    case OpKind::kIsFalse: {
      ColumnVector a;
      Status s = EvalDense(ctx, call.operand(0), &a);
      if (!s.ok()) return s;
      uint8_t* d = ctx.AllocZeroed<uint8_t>();
      const bool want = op == OpKind::kIsTrue;
      for (size_t i = 0; i < n; ++i) {
        bool is_null = a.nulls != nullptr && a.nulls[i];
        d[i] = !is_null && (a.b8[i] != 0) == want;
      }
      res->type = PhysType::kBool;
      res->b8 = d;
      return Status::OK();
    }
    case OpKind::kNot: {
      ColumnVector a;
      Status s = EvalDense(ctx, call.operand(0), &a);
      if (!s.ok()) return s;
      uint8_t* d = ctx.AllocZeroed<uint8_t>();
      for (size_t i = 0; i < n; ++i) d[i] = a.b8[i] == 0;
      if (a.nulls != nullptr) {
        for (size_t i = 0; i < n; ++i) {
          if (a.nulls[i]) d[i] = 0;
        }
      }
      res->type = PhysType::kBool;
      res->b8 = d;
      res->nulls = a.nulls;  // NULL-strict: NOT NULL is NULL
      return Status::OK();
    }
    case OpKind::kUnaryMinus: {
      ColumnVector a;
      Status s = EvalDense(ctx, call.operand(0), &a);
      if (!s.ok()) return s;
      res->nulls = a.nulls;
      if (a.type == PhysType::kInt64) {
        int64_t* d = ctx.AllocZeroed<int64_t>();
        for (size_t i = 0; i < n; ++i) d[i] = -a.i64[i];
        res->type = PhysType::kInt64;
        res->i64 = d;
      } else {
        double* d = ctx.AllocZeroed<double>();
        for (size_t i = 0; i < n; ++i) d[i] = -a.f64[i];
        res->type = PhysType::kDouble;
        res->f64 = d;
      }
      return Status::OK();
    }
    case OpKind::kCast: {
      ColumnVector a;
      Status s = EvalDense(ctx, call.operand(0), &a);
      if (!s.ok()) return s;
      const PhysType target = PhysTypeForRel(*type);
      if (target == a.type) {
        *res = a;  // numeric identity cast: alias the operand
        return Status::OK();
      }
      res->nulls = a.nulls;
      if (target == PhysType::kInt64) {
        int64_t* d = ctx.AllocZeroed<int64_t>();
        for (size_t i = 0; i < n; ++i) {
          if (a.nulls != nullptr && a.nulls[i]) continue;
          d[i] = static_cast<int64_t>(a.f64[i]);
        }
        res->type = PhysType::kInt64;
        res->i64 = d;
      } else {
        double* d = ctx.AllocZeroed<double>();
        for (size_t i = 0; i < n; ++i) d[i] = static_cast<double>(a.i64[i]);
        res->type = PhysType::kDouble;
        res->f64 = d;
      }
      return Status::OK();
    }
    default:
      return Status::Internal("unsupported columnar operator");
  }
}

Status EvalDense(Ctx& ctx, const RexNodePtr& node, ColumnVector* res) {
  switch (node->node_kind()) {
    case RexNode::NodeKind::kInputRef:
      return RefDense(ctx, *static_cast<const RexInputRef*>(node.get()), res);
    case RexNode::NodeKind::kLiteral:
      return LiteralDense(ctx, *static_cast<const RexLiteral*>(node.get()),
                          res);
    case RexNode::NodeKind::kCall:
      return CallDense(ctx, *static_cast<const RexCall*>(node.get()),
                       node->type(), res);
  }
  return Status::Internal("unknown rex node kind");
}

/// One reused row for the row-oracle fallbacks, boxing only the columns
/// the expression references (wide lifted join rows would otherwise box
/// every cell per row); unreferenced cells stay NULL. References at or
/// beyond the batch width are skipped, so Eval still reports them out of
/// range.
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

/// Evaluates the active rows per-row — the semantic anchor for everything
/// the typed kernels do not cover.
Status FallbackDense(Ctx& ctx, const RexNodePtr& node, ColumnVector* res) {
  auto vals = std::make_shared<std::vector<Value>>();
  vals->reserve(ctx.n);
  RefGather gather(node, ctx.in);
  for (size_t k = 0; k < ctx.n; ++k) {
    auto v = RexInterpreter::Eval(node, gather.At(ctx.in.ActiveIndex(k)));
    if (!v.ok()) return v.status();
    vals->push_back(std::move(v).value());
  }
  ctx.out->boxed_pool.push_back(vals);
  res->type = PhysType::kValue;
  res->boxed = vals->data();
  return Status::OK();
}

/// Recognizes `node` as a pushdown-shaped predicate (`$col <op> literal`,
/// `literal <op> $col`, `$col IS [NOT] NULL`) and converts it, so narrowing
/// reuses the typed leaf-predicate loops.
std::optional<ScanPredicate> AsScanPredicateShape(const RexNodePtr& node) {
  const RexCall* call = AsCall(node);
  if (call == nullptr) return std::nullopt;
  const OpKind op = call->op();
  if (op == OpKind::kIsNull || op == OpKind::kIsNotNull) {
    const RexInputRef* ref = AsInputRef(call->operand(0));
    if (ref == nullptr) return std::nullopt;
    ScanPredicate pred;
    pred.kind = op == OpKind::kIsNull ? ScanPredicate::Kind::kIsNull
                                      : ScanPredicate::Kind::kIsNotNull;
    pred.column = ref->index();
    return pred;
  }
  if (!IsComparison(op)) return std::nullopt;
  const RexInputRef* ref = AsInputRef(call->operand(0));
  const RexLiteral* lit = AsLiteral(call->operand(1));
  OpKind effective = op;
  if (ref == nullptr || lit == nullptr) {
    ref = AsInputRef(call->operand(1));
    lit = AsLiteral(call->operand(0));
    if (ref == nullptr || lit == nullptr) return std::nullopt;
    effective = ReverseComparison(op);
  }
  ScanPredicate pred;
  switch (effective) {
    case OpKind::kEquals:
      pred.kind = ScanPredicate::Kind::kEquals;
      break;
    case OpKind::kNotEquals:
      pred.kind = ScanPredicate::Kind::kNotEquals;
      break;
    case OpKind::kLessThan:
      pred.kind = ScanPredicate::Kind::kLessThan;
      break;
    case OpKind::kLessThanOrEqual:
      pred.kind = ScanPredicate::Kind::kLessThanOrEqual;
      break;
    case OpKind::kGreaterThan:
      pred.kind = ScanPredicate::Kind::kGreaterThan;
      break;
    case OpKind::kGreaterThanOrEqual:
      pred.kind = ScanPredicate::Kind::kGreaterThanOrEqual;
      break;
    default:
      return std::nullopt;
  }
  pred.column = ref->index();
  pred.literal = lit->value();
  return pred;
}

}  // namespace

std::optional<PhysType> RexColumnar::ColumnarPhys(
    const RexNodePtr& node, const std::vector<PhysType>& input_phys) {
  if (node == nullptr) return std::nullopt;
  switch (node->node_kind()) {
    case RexNode::NodeKind::kInputRef: {
      const auto* ref = static_cast<const RexInputRef*>(node.get());
      const size_t idx = static_cast<size_t>(ref->index());
      if (ref->index() < 0 || idx >= input_phys.size()) return std::nullopt;
      if (input_phys[idx] == PhysType::kValue) return std::nullopt;
      return input_phys[idx];
    }
    case RexNode::NodeKind::kLiteral:
      return LiteralPhys(*static_cast<const RexLiteral*>(node.get()));
    case RexNode::NodeKind::kCall:
      break;
  }
  const auto* call = static_cast<const RexCall*>(node.get());
  const OpKind op = call->op();
  if (IsArithOp(op)) {
    if (call->operands().size() != 2) return std::nullopt;
    auto a = ColumnarPhys(call->operand(0), input_phys);
    auto b = ColumnarPhys(call->operand(1), input_phys);
    if (!a || !b || !IsNumericPhys(*a) || !IsNumericPhys(*b)) {
      return std::nullopt;
    }
    return (*a == PhysType::kInt64 && *b == PhysType::kInt64)
               ? PhysType::kInt64
               : PhysType::kDouble;
  }
  if (IsComparison(op)) {
    if (call->operands().size() != 2) return std::nullopt;
    auto a = ColumnarPhys(call->operand(0), input_phys);
    auto b = ColumnarPhys(call->operand(1), input_phys);
    if (!a || !b) return std::nullopt;
    const bool compatible = (IsNumericPhys(*a) && IsNumericPhys(*b)) ||
                            (*a == PhysType::kString && *b == PhysType::kString) ||
                            (*a == PhysType::kBool && *b == PhysType::kBool);
    if (!compatible) return std::nullopt;
    return PhysType::kBool;
  }
  switch (op) {
    case OpKind::kIsNull:
    case OpKind::kIsNotNull: {
      if (call->operands().size() != 1) return std::nullopt;
      if (!ColumnarPhys(call->operand(0), input_phys)) return std::nullopt;
      return PhysType::kBool;
    }
    case OpKind::kIsTrue:
    case OpKind::kIsFalse:
    case OpKind::kNot: {
      if (call->operands().size() != 1) return std::nullopt;
      auto a = ColumnarPhys(call->operand(0), input_phys);
      if (!a || *a != PhysType::kBool) return std::nullopt;
      return PhysType::kBool;
    }
    case OpKind::kUnaryMinus: {
      if (call->operands().size() != 1) return std::nullopt;
      auto a = ColumnarPhys(call->operand(0), input_phys);
      if (!a || !IsNumericPhys(*a)) return std::nullopt;
      return *a;
    }
    case OpKind::kCast: {
      if (call->operands().size() != 1) return std::nullopt;
      auto a = ColumnarPhys(call->operand(0), input_phys);
      if (!a || !IsNumericPhys(*a)) return std::nullopt;
      const PhysType target = PhysTypeForRel(*node->type());
      if (!IsNumericPhys(target)) return std::nullopt;
      return target;
    }
    default:
      return std::nullopt;
  }
}

std::optional<PhysType> RexColumnar::ColumnarPhys(const RexNodePtr& node,
                                                  const ColumnBatch& in) {
  std::vector<PhysType> phys;
  phys.reserve(in.cols.size());
  for (const ColumnVector& col : in.cols) phys.push_back(col.type);
  return ColumnarPhys(node, phys);
}

Status RexColumnar::AppendEvalColumn(const RexNodePtr& node,
                                     const ColumnBatch& in, ColumnBatch* out) {
  Ctx ctx{in, out, in.ActiveCount()};
  ColumnVector res;
  Status s;
  if (const RexInputRef* ref = AsInputRef(node)) {
    // Plain column references alias (or gather) regardless of class.
    s = RefDense(ctx, *ref, &res);
  } else if (ColumnarPhys(node, in).has_value()) {
    s = EvalDense(ctx, node, &res);
  } else {
    s = FallbackDense(ctx, node, &res);
  }
  if (!s.ok()) return s;
  out->cols.push_back(res);
  return Status::OK();
}

Status RexColumnar::NarrowSelection(const RexNodePtr& node,
                                    const ColumnBatch& batch,
                                    const ArenaPtr& scratch,
                                    SelectionVector* sel) {
  if (sel->empty()) return Status::OK();

  // Conjunctions narrow progressively: later conjuncts only see earlier
  // survivors, so their evaluation errors on dropped rows are suppressed,
  // as the per-row AND short-circuit does.
  if (const RexCall* call = AsCall(node)) {
    if (call->op() == OpKind::kAnd) {
      for (const RexNodePtr& operand : call->operands()) {
        Status s = NarrowSelection(operand, batch, scratch, sel);
        if (!s.ok()) return s;
        if (sel->empty()) break;
      }
      return Status::OK();
    }
  }

  // Fused typed loops for pushdown-shaped predicates on the raw columns.
  if (auto pred = AsScanPredicateShape(node)) {
    NarrowByScanPredicate(*pred, batch, sel);
    return Status::OK();
  }

  // Dense-evaluable boolean expression: evaluate over the candidate rows
  // into scratch storage, then keep rows whose result is TRUE.
  if (ColumnarPhys(node, batch) == PhysType::kBool) {
    ColumnBatch view = batch;  // shallow: shares column storage
    view.sel = *sel;
    view.has_sel = true;
    ColumnBatch tmp;
    tmp.arena = scratch != nullptr ? scratch : std::make_shared<Arena>();
    tmp.num_rows = sel->size();
    tmp.ShareStorage(view);
    Ctx ctx{view, &tmp, sel->size()};
    ColumnVector res;
    Status s = EvalDense(ctx, node, &res);
    if (!s.ok()) return s;
    // res is a positional bytemask over the candidates (TRUE and not NULL
    // passes). Identity selections refill via the table-driven expansion;
    // narrowed ones compact in place.
    const size_t n = sel->size();
    const uint8_t* pass = res.b8;
    if (res.nulls != nullptr) {
      uint8_t* m = tmp.arena->AllocateArray<uint8_t>(n);
      simd::AndNotMask(res.b8, res.nulls, n, m);
      pass = m;
    }
    if (sel->back() + 1 == n) {
      sel->resize(n + simd::kSelSlack);
      sel->resize(simd::MaskToSel(pass, n, sel->data()));
    } else {
      sel->resize(simd::CompactSel(pass, sel->data(), n, sel->data()));
    }
    return Status::OK();
  }

  // Row-oracle fallback over the candidate rows only.
  size_t out = 0;
  RefGather gather(node, batch);
  for (size_t k = 0; k < sel->size(); ++k) {
    auto pass = RexInterpreter::EvalPredicate(node, gather.At((*sel)[k]));
    if (!pass.ok()) return pass.status();
    if (pass.value()) (*sel)[out++] = (*sel)[k];
  }
  sel->resize(out);
  return Status::OK();
}

}  // namespace calcite
