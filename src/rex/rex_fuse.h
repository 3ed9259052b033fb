#ifndef CALCITE_REX_REX_FUSE_H_
#define CALCITE_REX_REX_FUSE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/column_batch.h"
#include "exec/simd.h"
#include "rex/rex_node.h"
#include "util/status.h"

namespace calcite {

/// The columnar expression evaluator: lowers a whole RexNode tree into a
/// flat register-allocated bytecode program and executes it
/// block-at-a-time (kFuseBlockRows rows) against the simd.h primitives.
/// Every intermediate lives in a fixed per-register scratch slot reused
/// across blocks, so a fused evaluation allocates exactly the result column
/// from the output arena and nothing else, and intermediates stay L1-hot.
///
/// Register allocation is Sethi-Ullman-shaped: operands are lowered in
/// post-order, their registers are freed as each operator consumes them,
/// and destinations come from the free list first — so a program uses at
/// most (tree depth + 1) registers, not one per node.
///
/// Semantics are identical to the per-row oracle (RexInterpreter::Eval) —
/// the differential fuzz suite diffs the two on every generated tree:
///
///  - Errors: the only instruction that can fail is kDivMod (a divisor
///    that is not a non-zero literal). It raises `division by zero` for an
///    evaluated row whose divisor is a non-NULL zero, NULL check first, as
///    Eval does. Blind evaluation of AND/OR would raise on rows Eval
///    short-circuits, so Compile() rejects kDivMod below an AND or OR.
///  - Fallback: Compile() returns nullptr for any tree it cannot lower
///    (boxed columns, unsupported operators, such a guarded division), and
///    FusedExpr evaluates those trees per active row through Eval. A tree
///    either fuses whole or runs per row; a top-level AND that does not
///    fuse narrows conjunct by conjunct.
///
/// AND lowering additionally folds range pairs: a lower and an upper bound
/// on the same column ($0 >= a AND $0 < b) fuse into one kInRange interval
/// instruction instead of two compares and a mask AND.
inline constexpr size_t kFuseBlockRows = 1024;

/// One bytecode operation. The operand fields are a union-in-spirit; which
/// ones are meaningful depends on the op (see FuseInstr).
enum class FuseOp : uint8_t {
  kLoadCol,     // dst <- input column `col` (alias when dense, gather via sel)
  kLoadLitI64,  // dst <- broadcast imm_i64
  kLoadLitF64,  // dst <- broadcast imm_f64
  kLoadLitBool, // dst <- broadcast imm_i64 (0/1)
  kLoadLitStr,  // dst <- broadcast string constant imm_i64
  kLoadNull,    // dst <- typed all-NULL column
  kArith,       // dst <- a (+|-|*) b, NULL-strict, null slots re-zeroed
  kArithLit,    // dst <- a (+|-|*) literal
  kDivModLit,   // dst <- a (/|%) literal  (literal non-NULL, non-zero)
  kDivMod,      // dst <- a (/|%) b, raises on a non-NULL zero divisor
  kCmp,         // dst <- a <cmp> b as 0/1 bytes, NULL-strict
  kCmpLit,      // dst <- a <cmp> literal
  kInRange,     // dst <- lo (<|<=) a (<|<=) hi fused interval test
  kAnd,         // dst <- a AND b, Kleene three-valued
  kOr,          // dst <- a OR b, Kleene three-valued
  kNot,         // dst <- NOT a, NULL-propagating
  kIsNull,      // dst <- a IS NULL (never NULL itself)
  kIsNotNull,   // dst <- a IS NOT NULL
  kIsTrue,      // dst <- a IS TRUE  (NULL -> false)
  kIsFalse,     // dst <- a IS FALSE (NULL -> false)
  kNeg,         // dst <- -a, NULL-propagating
  kCastI64F64,  // dst <- double(a)
  kCastF64I64,  // dst <- int64(trunc(a)) on non-NULL rows
};

/// One instruction. `dst`/`a`/`b` are register numbers; `vtype` is the
/// physical class of the *result* (kInt64/kDouble/kBool/kString). For
/// kCmp/kCmpLit/kInRange — whose result is bool — `lane` records the
/// operands' class. Literal operands ride in imm_i64/imm_f64 (a string
/// literal as an index into FuseProgram::strings(), a bool as 0/1);
/// kInRange uses imm/imm2 as the lo/hi bounds with lo_strict/hi_strict
/// picking > vs >= and < vs <=. kLoadCol reads input column `col`.
struct FuseInstr {
  FuseOp op;
  uint8_t dst = 0;
  uint8_t a = 0;
  uint8_t b = 0;
  PhysType vtype = PhysType::kValue;
  PhysType lane = PhysType::kInt64;
  simd::Cmp cmp = simd::Cmp::kEq;
  simd::Arith arith = simd::Arith::kAdd;
  bool is_mod = false;
  bool lo_strict = false;
  bool hi_strict = false;
  int32_t col = 0;
  int64_t imm_i64 = 0;
  int64_t imm2_i64 = 0;
  double imm_f64 = 0.0;
  double imm2_f64 = 0.0;
};

/// A compiled, immutable bytecode program for one RexNode tree against one
/// input column-class layout. Shareable across threads (execution state
/// lives in FusedExpr).
class FuseProgram {
 public:
  /// Lowers `node` against inputs of the given physical classes. Returns
  /// nullptr when any part of the tree is unsupported — the caller must
  /// fall back to per-row evaluation. Never partially fuses a tree.
  static std::shared_ptr<const FuseProgram> Compile(
      const RexNodePtr& node, const std::vector<PhysType>& input_phys);

  const std::vector<FuseInstr>& instrs() const { return instrs_; }
  int num_registers() const { return num_registers_; }
  int result_reg() const { return result_reg_; }
  PhysType result_phys() const { return result_phys_; }
  /// String constants of the kLoadLitStr / string kCmpLit instructions.
  const std::vector<std::string>& strings() const { return strings_; }
  /// Bytes per row of the widest register (16 once strings are loaded).
  size_t reg_width() const { return reg_width_; }

  /// Human-readable listing, one instruction per line plus a `ret` footer —
  /// the golden-test surface (tests/rex_fuse_test.cc).
  std::string Disassemble() const;

 private:
  FuseProgram() = default;

  std::vector<FuseInstr> instrs_;
  std::vector<std::string> strings_;
  size_t reg_width_ = 8;
  int num_registers_ = 0;
  int result_reg_ = 0;
  PhysType result_phys_ = PhysType::kValue;
};

/// Executable wrapper owning the per-thread interpreter state (register
/// scratch, cached program). Like ArenaPool it is NOT thread-safe: each
/// producer thread owns its own FusedExpr for a given expression.
class FusedExpr {
 public:
  explicit FusedExpr(RexNodePtr node) : node_(std::move(node)) {}

  const RexNodePtr& node() const { return node_; }

  /// Evaluates the expression over the *active* rows of `in` and appends
  /// the result as a dense column (one entry per active row, no selection)
  /// to `out`. A plain input reference aliases its column (or gathers it
  /// under a selection), whatever its class; a fused tree writes a typed
  /// column into out->arena (a string result points into `in`'s storage or
  /// the pinned program); any other tree is evaluated per row through
  /// Eval into a boxed column in out->boxed_pool. The caller must have
  /// called out->ShareStorage(in) and set out->num_rows ==
  /// in.ActiveCount().
  Status AppendEvalColumn(const ColumnBatch& in, ColumnBatch* out);

  /// Narrows `sel` — ascending candidate indexes into `batch`'s physical
  /// rows — to those where the expression passes as a filter (NULL/UNKNOWN
  /// fail), in place. A fused predicate narrows block by block; a top-level
  /// AND that does not fuse whole narrows conjunct by conjunct (later
  /// conjuncts only see earlier survivors, so their errors on dropped rows
  /// are suppressed, with early exit once nothing survives); any other
  /// predicate runs per candidate row through EvalPredicate.
  Status NarrowSelection(const ColumnBatch& batch, SelectionVector* sel);

 private:
  /// Interpreter register: `data`/`nulls` point at the current block's
  /// content — either this register's scratch slot or, zero-copy, at input
  /// batch storage (marked external; external pointers are stable for the
  /// block, so later instructions may alias them, while another register's
  /// slot may be overwritten by reuse and must be copied instead).
  struct Reg {
    const uint8_t* data = nullptr;
    const uint8_t* nulls = nullptr;  // nullptr = no NULL rows
    bool data_external = false;
    bool nulls_external = false;
    uint8_t* slot_data = nullptr;
    uint8_t* slot_nulls = nullptr;
  };

  /// Program for `in`'s column classes; compiles on first use and
  /// recompiles only when the input layout changes (it never does within
  /// one pipeline). nullptr = tree not fusible for this layout.
  const FuseProgram* ProgramFor(const ColumnBatch& in);

  void EnsureScratch();
  void CopyNulls(Reg* d, const Reg& s, size_t len);
  void FoldNulls(Reg* d, const Reg& a, const Reg& b, size_t len);
  /// Executes the program over one block: rows base..base+len-1 when `sel`
  /// is null, else the rows named by sel[0..len). Fails only on a division
  /// by zero.
  Status RunBlock(const ColumnBatch& in, size_t base, const uint32_t* sel,
                  size_t len);
  Status RunDense(const ColumnBatch& in, ColumnBatch* out);
  Status RunNarrow(const ColumnBatch& batch, SelectionVector* sel);

  RexNodePtr node_;
  bool compiled_ = false;
  std::vector<PhysType> compiled_phys_;
  std::shared_ptr<const FuseProgram> program_;
  std::vector<uint8_t> scratch_;
  std::vector<Reg> regs_;
  /// Lazy per-conjunct fused exprs for the AND-narrowing path.
  std::vector<std::unique_ptr<FusedExpr>> conjuncts_;
};

}  // namespace calcite

#endif  // CALCITE_REX_REX_FUSE_H_
