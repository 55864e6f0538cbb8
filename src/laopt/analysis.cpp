#include "laopt/analysis.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmml::laopt {

namespace {

// Bytes per stored nonzero in a CSR-style layout: 8 for the value plus 8 for
// the column index (kept at 64-bit so the estimate stays conservative).
constexpr uint64_t kSparseCellBytes = 16;

// Diagnostics embed the offending node's rendering; cap it so a deep DAG
// does not turn one error line into pages.
std::string Abbreviate(const ExprNode& node) {
  std::string s = node.ToString();
  constexpr size_t kMax = 120;
  if (s.size() > kMax) s = s.substr(0, kMax) + "...";
  return s;
}

// a × b, saturating at UINT64_MAX instead of wrapping.
uint64_t SatMul(uint64_t a, uint64_t b, bool* saturated) {
  uint64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) {
    *saturated = true;
    return UINT64_MAX;
  }
  return out;
}

uint64_t SatAdd(uint64_t a, uint64_t b, bool* saturated) {
  uint64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    *saturated = true;
    return UINT64_MAX;
  }
  return out;
}

double ClampSparsity(double s) { return std::min(1.0, std::max(0.0, s)); }

// Sparsity of A·B, or dense when the inner dimension is unknown.
double MatMulSparsity(double sa, double sb, const Dim& inner) {
  if (ClampSparsity(sa * sb) == 0.0) return 0.0;
  if (!inner.known) return 1.0;  // No k to reason with: assume dense.
  return MatMulSparsityEstimate(sa, sb, inner.value);
}

// Sparsity of one elementwise op under independence: a ± b is nonzero when
// either side is (sa + sb − sa·sb), a ⊙ b when both are (sa·sb), α·a keeps
// a's pattern unless α = 0. The elementwise arms and a fused node's program
// replay both go through here, so fusing a region keeps its estimate.
double CellOpSparsity(const la::CellOp& op, double sa, double sb) {
  switch (op.code) {
    case la::CellOp::kMul:
      return ClampSparsity(sa * sb);
    case la::CellOp::kScale:
      return op.alpha == 0.0 ? 0.0 : sa;
    default:
      return ClampSparsity(sa + sb - sa * sb);
  }
}

// Sparsity of a length-k reduction of cells with sparsity s (a row/col sum
// is nonzero if any summand is).
double ReduceSparsity(double s, const Dim& length) {
  if (s == 0.0) return 0.0;
  if (!length.known) return 1.0;
  return ClampSparsity(1.0 - std::pow(1.0 - s, static_cast<double>(length.value)));
}

Status ShapeError(const ExprNode& node, const char* what, const Shape& left,
                  const Shape& right) {
  DMML_COUNTER_INC("laopt.analysis.shape_rejects");
  return Status::InvalidArgument(
      std::string("plan-time shape error at node ") + Abbreviate(node) + ": " +
      what + ": left operand is " + left.ToString() + ", right operand is " +
      right.ToString());
}

void FillFootprint(NodeAnalysis* info) {
  if (!info->shape.FullyKnown()) return;
  info->bytes_known = true;
  bool saturated = false;
  const uint64_t rows = info->shape.rows.value;
  const uint64_t cols = info->shape.cols.value;
  info->dense_bytes = DenseFootprintBytes(rows, cols, &saturated);

  // CSR-style alternative: ~16 bytes per estimated nonzero plus one 8-byte
  // row pointer per row (+1). Only cheaper when the matrix is quite sparse.
  const uint64_t cells = SatMul(rows, cols, &saturated);
  const auto nnz = static_cast<uint64_t>(
      std::ceil(info->sparsity * static_cast<double>(cells)));
  uint64_t sparse = SatMul(nnz, kSparseCellBytes, &saturated);
  sparse = SatAdd(sparse, SatMul(rows + 1, sizeof(uint64_t), &saturated),
                  &saturated);
  info->est_bytes = std::min(info->dense_bytes, sparse);
  info->bytes_saturated = saturated;
  if (saturated) DMML_COUNTER_INC("laopt.analysis.footprint_saturations");
}

std::string HumanBytes(uint64_t bytes) {
  std::ostringstream os;
  if (bytes >= (1ull << 30)) {
    os << static_cast<double>(bytes) / static_cast<double>(1ull << 30) << "GiB";
  } else if (bytes >= (1ull << 20)) {
    os << static_cast<double>(bytes) / static_cast<double>(1ull << 20) << "MiB";
  } else if (bytes >= (1ull << 10)) {
    os << static_cast<double>(bytes) / static_cast<double>(1ull << 10) << "KiB";
  } else {
    os << bytes << "B";
  }
  return os.str();
}

}  // namespace

std::string Dim::ToString() const {
  return known ? std::to_string(value) : std::string("?");
}

std::string Shape::ToString() const {
  return rows.ToString() + "x" + cols.ToString();
}

double MatMulSparsityEstimate(double sa, double sb, size_t inner) {
  // A result cell is nonzero unless all `inner` products a_ir·b_rc vanish;
  // under independence each product is nonzero with probability sa·sb.
  const double cell = ClampSparsity(sa * sb);
  if (cell == 0.0 || inner == 0) return 0.0;
  return ClampSparsity(1.0 - std::pow(1.0 - cell, static_cast<double>(inner)));
}

uint64_t DenseFootprintBytes(uint64_t rows, uint64_t cols, bool* saturated) {
  bool sat = false;
  uint64_t bytes = SatMul(SatMul(rows, cols, &sat), sizeof(double), &sat);
  if (saturated) *saturated = sat;
  return bytes;
}

DagAnalysis::DagAnalysis(AnalysisOptions options) : options_(options) {}

const NodeAnalysis* DagAnalysis::Find(const ExprNode* node) const {
  auto it = info_.find(node);
  return it == info_.end() ? nullptr : &it->second.second;
}

Result<NodeAnalysis> DagAnalysis::Ensure(const ExprPtr& node) {
  if (!node) return Status::InvalidArgument("analysis: null expression");
  if (const NodeAnalysis* cached = Find(node.get())) return *cached;

  // Children first (memoized, so shared sub-DAGs are analyzed once).
  std::vector<NodeAnalysis> kids;
  kids.reserve(node->children().size());
  for (const auto& c : node->children()) {
    DMML_ASSIGN_OR_RETURN(NodeAnalysis k, Ensure(c));
    kids.push_back(k);
  }

  NodeAnalysis info;
  info.shape.rows = Dim::FromNode(node->rows());
  info.shape.cols = Dim::FromNode(node->cols());

  switch (node->kind()) {
    case OpKind::kInput: {
      const Operand& op = node->operand();
      if (op.bound()) {
        // Exact for CSR (it carries its nnz) and for dense (counted once per
        // binding; every leaf copied from it shares the count). Compressed
        // and factorized operands read 1.0: they are costed as dense cells
        // but with their own footprint below — for a factorized operand the
        // gap is the redundancy the factorized route avoids.
        info.sparsity = op.Sparsity();
      } else {
        info.sparsity = ClampSparsity(options_.default_placeholder_sparsity);
        DMML_COUNTER_INC("laopt.analysis.placeholders");
      }
      break;
    }
    case OpKind::kMatMul: {
      const Dim& inner_l = kids[0].shape.cols;
      const Dim& inner_r = kids[1].shape.rows;
      if (inner_l.known && inner_r.known && inner_l.value != inner_r.value) {
        return ShapeError(*node, "matmul inner dimension mismatch",
                          kids[0].shape, kids[1].shape);
      }
      info.shape.rows = kids[0].shape.rows;
      info.shape.cols = kids[1].shape.cols;
      info.sparsity = MatMulSparsity(kids[0].sparsity, kids[1].sparsity,
                                     inner_l.known ? inner_l : inner_r);
      break;
    }
    case OpKind::kTranspose:
      info.shape.rows = kids[0].shape.cols;
      info.shape.cols = kids[0].shape.rows;
      info.sparsity = kids[0].sparsity;
      break;
    case OpKind::kAdd:
    case OpKind::kSubtract:
    case OpKind::kElemMul: {
      const Shape& a = kids[0].shape;
      const Shape& b = kids[1].shape;
      if ((a.rows.known && b.rows.known && a.rows.value != b.rows.value) ||
          (a.cols.known && b.cols.known && a.cols.value != b.cols.value)) {
        return ShapeError(*node, "elementwise operand shape mismatch", a, b);
      }
      info.shape.rows = a.rows.known ? a.rows : b.rows;
      info.shape.cols = a.cols.known ? a.cols : b.cols;
      info.sparsity =
          CellOpSparsity(CellOpOf(*node), kids[0].sparsity, kids[1].sparsity);
      break;
    }
    case OpKind::kScalarMul:
      info.shape = kids[0].shape;
      info.sparsity = CellOpSparsity(CellOpOf(*node), kids[0].sparsity, 0.0);
      break;
    case OpKind::kFused: {
      const Status valid = ValidateFused(node->children(), node->program(),
                                         node->rows(), node->cols());
      if (!valid.ok()) {
        DMML_COUNTER_INC("laopt.analysis.shape_rejects");
        return Status::InvalidArgument("plan-time error at node " +
                                       Abbreviate(*node) + ": " +
                                       valid.message());
      }
      // Replay the program's sparsity through the per-op formulas.
      std::vector<double> stack;
      for (const la::CellOp& op : node->program()) {
        if (op.code == la::CellOp::kLoad) {
          stack.push_back(kids[op.input].sparsity);
        } else if (op.code == la::CellOp::kScale) {
          stack.back() = CellOpSparsity(op, stack.back(), 0.0);
        } else {
          const double sb = stack.back();
          stack.pop_back();
          stack.back() = CellOpSparsity(op, stack.back(), sb);
        }
      }
      info.sparsity = stack.back();
      break;
    }
    case OpKind::kSum:
      info.sparsity = kids[0].sparsity > 0.0 ? 1.0 : 0.0;
      break;
    case OpKind::kRowSums:
      info.shape.rows = kids[0].shape.rows;
      info.sparsity = ReduceSparsity(kids[0].sparsity, kids[0].shape.cols);
      break;
    case OpKind::kColSums:
      info.shape.cols = kids[0].shape.cols;
      info.sparsity = ReduceSparsity(kids[0].sparsity, kids[0].shape.rows);
      break;
  }

  FillFootprint(&info);

  // Representation choice. Bound leaves keep the representation they carry
  // (re-encoding an input is not this planner's call); everything else picks
  // CSR exactly when the estimated CSR footprint beats dense.
  if (node->kind() == OpKind::kInput && node->operand().bound()) {
    info.chosen_repr = node->operand().repr();
    if ((info.chosen_repr == Repr::kCompressed ||
         info.chosen_repr == Repr::kFactorized) &&
        info.bytes_known) {
      // The actual compressed/normalized size is known — report it instead
      // of the dense/CSR estimate.
      info.est_bytes = std::min<uint64_t>(node->operand().SizeInBytes(),
                                          info.dense_bytes);
    }
  } else {
    info.chosen_repr = (info.bytes_known && info.est_bytes < info.dense_bytes)
                           ? Repr::kSparse
                           : Repr::kDense;
  }
  switch (info.chosen_repr) {
    case Repr::kDense: DMML_COUNTER_INC("laopt.repr.chosen_dense"); break;
    case Repr::kSparse: DMML_COUNTER_INC("laopt.repr.chosen_sparse"); break;
    case Repr::kCompressed:
      DMML_COUNTER_INC("laopt.repr.chosen_compressed");
      break;
    case Repr::kFactorized:
      DMML_COUNTER_INC("laopt.repr.chosen_factorized");
      break;
  }

  if (!info.shape.FullyKnown()) DMML_COUNTER_INC("laopt.analysis.unknown_shapes");
  info_.emplace(node.get(), std::make_pair(node, info));
  return info;
}

std::string DagAnalysis::Explain(const ExprPtr& root) {
  std::ostringstream os;
  if (!root) return "EXPLAIN: <null plan>\n";

  Status error = Status::OK();
  std::unordered_map<const ExprNode*, size_t> ids;
  std::vector<ExprPtr> order;
  // Iterative post-order so the dump is topological (children before users).
  std::vector<std::pair<ExprPtr, bool>> stack{{root, false}};
  while (!stack.empty()) {
    auto [node, expanded] = stack.back();
    stack.pop_back();
    if (ids.count(node.get())) continue;
    if (expanded) {
      ids.emplace(node.get(), order.size());
      order.push_back(node);
      continue;
    }
    stack.push_back({node, true});
    for (const auto& c : node->children()) stack.push_back({c, false});
  }

  os << "EXPLAIN plan: " << order.size() << " nodes\n";
  for (const ExprPtr& node : order) {
    auto analyzed = Ensure(node);
    os << "  [" << ids[node.get()] << "] " << node->Label();
    if (node->kind() == OpKind::kInput) {
      os << " " << (node->name().empty() ? "_" : node->name());
      if (!node->operand().bound()) os << " (placeholder)";
    } else {
      os << "(";
      for (size_t i = 0; i < node->children().size(); ++i) {
        os << (i ? ", " : "") << "[" << ids[node->children()[i].get()] << "]";
      }
      os << ")";
    }
    if (node->kind() == OpKind::kScalarMul) os << " alpha=" << node->scalar();
    if (!analyzed.ok()) {
      os << ": " << analyzed.status().message() << "\n";
      error = analyzed.status();
      break;  // Everything above this node is equally unanalyzable.
    }
    const NodeAnalysis& a = *analyzed;
    os << ": " << a.shape.ToString() << ", sparsity " << a.sparsity
       << ", repr " << ReprName(a.chosen_repr);
    if (a.bytes_known) {
      os << ", est " << HumanBytes(a.est_bytes) << " (dense "
         << HumanBytes(a.dense_bytes) << ")";
      if (a.bytes_saturated) os << " [saturated]";
    } else {
      os << ", est ?";
    }
    os << "\n";
  }
  if (!error.ok()) os << "  plan rejected: " << error.message() << "\n";
  return os.str();
}

Result<DagAnalysis> AnalyzeDag(const ExprPtr& root, const AnalysisOptions& options) {
  if (!root) return Status::InvalidArgument("AnalyzeDag: null expression");
  DMML_TRACE_SPAN("laopt.analyze");
  DagAnalysis analysis(options);
  DMML_RETURN_IF_ERROR(analysis.Ensure(root).status());
  DMML_COUNTER_INC("laopt.analysis.runs");
  DMML_COUNTER_ADD("laopt.analysis.nodes", analysis.NumAnalyzed());
  return analysis;
}

// ---------------------------------------------------------------------------
// Static concurrency + liveness analysis.
// ---------------------------------------------------------------------------

std::vector<const ExprNode*> OperandReads(const ExprNode* node) {
  std::vector<const ExprNode*> reads;
  if (node == nullptr) return reads;
  for (const auto& c : node->children()) {
    if (c) reads.push_back(c.get());
  }
  // Fused kernels read *through* a child: report the grandchild as well so
  // liveness covers both the fused and the generic dispatch.
  if (node->kind() == OpKind::kMatMul && node->children().size() == 2) {
    for (const auto& c : node->children()) {
      if (c && c->kind() == OpKind::kTranspose && !c->children().empty() &&
          c->children()[0]) {
        reads.push_back(c->children()[0].get());
      }
    }
  }
  if (node->kind() == OpKind::kRowSums && !node->children().empty()) {
    const auto& c = node->children()[0];
    if (c && c->kind() == OpKind::kElemMul && c->children().size() == 2 &&
        c->children()[0] && c->children()[0].get() == c->children()[1].get()) {
      reads.push_back(c->children()[0].get());
    }
  }
  return reads;
}

namespace {

// Recursive builder mirroring BufferedExecutor's evaluation order. The one
// deviation from plain post-order: a matmul whose left child is a transpose
// evaluates the transpose's *source* first, then the right operand, and only
// then (if the fused kernel declined) the transpose itself — so the
// transpose completes after the right operand here, never before.
struct ScheduleBuilder {
  std::vector<ScheduleEntry> order;
  std::unordered_map<const ExprNode*, size_t> index;
  std::unordered_set<const ExprNode*> visiting;

  bool Done(const ExprNode* n) const { return index.count(n) != 0; }

  void Complete(const ExprNode* n) {
    if (Done(n)) return;
    size_t level = 0;
    for (const auto& c : n->children()) {
      const auto it = index.find(c.get());
      const size_t child_level = it == index.end() ? 0 : order[it->second].level;
      level = std::max(level, child_level + 1);
    }
    index.emplace(n, order.size());
    order.push_back({n, level, order.size(), order.size()});
  }

  Status Visit(const ExprPtr& n) {  // NOLINT(misc-no-recursion)
    if (!n) return Status::InvalidArgument("schedule: null child in plan");
    if (Done(n.get())) return Status::OK();
    if (!visiting.insert(n.get()).second) {
      return Status::InvalidArgument("schedule: plan is not a DAG (cycle)");
    }
    const auto& kids = n->children();
    const ExprPtr* lc = kids.size() == 2 ? &kids[0] : nullptr;
    if (n->kind() == OpKind::kMatMul && lc != nullptr && *lc &&
        (*lc)->kind() == OpKind::kTranspose && !Done(lc->get()) &&
        (*lc)->children().size() == 1) {
      if (!visiting.insert(lc->get()).second) {
        visiting.erase(n.get());
        return Status::InvalidArgument("schedule: plan is not a DAG (cycle)");
      }
      DMML_RETURN_IF_ERROR(Visit((*lc)->children()[0]));
      DMML_RETURN_IF_ERROR(Visit(kids[1]));
      Complete(lc->get());
      visiting.erase(lc->get());
    } else {
      for (const auto& c : kids) DMML_RETURN_IF_ERROR(Visit(c));
    }
    Complete(n.get());
    visiting.erase(n.get());
    return Status::OK();
  }
};

}  // namespace

const ScheduleEntry* PlanSchedule::Find(const ExprNode* node) const {
  const auto it = index_.find(node);
  return it == index_.end() ? nullptr : &order_[it->second];
}

bool PlanSchedule::Interferes(const ExprNode* a, const ExprNode* b) const {
  const ScheduleEntry* ea = Find(a);
  const ScheduleEntry* eb = Find(b);
  if (ea == nullptr || eb == nullptr) return false;
  return ea->def <= eb->last_use && eb->def <= ea->last_use;
}

bool PlanSchedule::DependsOnPos(size_t consumer_pos, size_t producer_pos) const {
  if (consumer_pos >= order_.size() || producer_pos >= order_.size()) {
    return false;
  }
  const uint64_t word =
      closure_[consumer_pos * closure_words_ + producer_pos / 64];
  return (word >> (producer_pos % 64) & 1) != 0;
}

bool PlanSchedule::DependsOn(const ExprNode* consumer,
                             const ExprNode* producer) const {
  const auto ci = index_.find(consumer);
  const auto pi = index_.find(producer);
  if (ci == index_.end() || pi == index_.end()) return false;
  return DependsOnPos(ci->second, pi->second);
}

bool PlanSchedule::MayRunConcurrently(const ExprNode* a, const ExprNode* b) const {
  if (a == nullptr || b == nullptr || a == b) return false;
  if (Find(a) == nullptr || Find(b) == nullptr) return false;
  // Neither may be a (transitive) operand of the other. The OperandReads
  // closure subsumes plain child reachability: every child edge is a read
  // edge, and the fused-through extras are transitively implied.
  return !DependsOn(a, b) && !DependsOn(b, a);
}

Result<PlanSchedule> ComputeSchedule(const ExprPtr& root) {
  if (!root) return Status::InvalidArgument("ComputeSchedule: null plan");
  ScheduleBuilder builder;
  DMML_RETURN_IF_ERROR(builder.Visit(root));

  PlanSchedule schedule;
  schedule.root_ = root;
  schedule.order_ = std::move(builder.order);
  schedule.index_ = std::move(builder.index);
  for (const ScheduleEntry& e : schedule.order_) {
    schedule.num_levels_ = std::max(schedule.num_levels_, e.level + 1);
  }

  // Transitive-dependency closure over OperandReads edges. The schedule is a
  // valid completion order (every read precedes its reader), so one
  // front-to-back pass OR-ing each read's row into the reader's row closes
  // the relation.
  const size_t n = schedule.order_.size();
  schedule.closure_words_ = (n + 63) / 64;
  schedule.closure_.assign(n * schedule.closure_words_, 0);
  for (const ScheduleEntry& e : schedule.order_) {
    uint64_t* bits = schedule.closure_.data() + e.def * schedule.closure_words_;
    for (const ExprNode* read : OperandReads(e.node)) {
      const auto it = schedule.index_.find(read);
      if (it == schedule.index_.end()) continue;
      const size_t src = it->second;
      bits[src / 64] |= uint64_t{1} << (src % 64);
      const uint64_t* src_bits =
          schedule.closure_.data() + src * schedule.closure_words_;
      for (size_t w = 0; w < schedule.closure_words_; ++w) bits[w] |= src_bits[w];
    }
  }

  // last_use: the latest completion position that still reads the value.
  for (const ScheduleEntry& e : schedule.order_) {
    for (const ExprNode* read : OperandReads(e.node)) {
      const auto it = schedule.index_.find(read);
      if (it != schedule.index_.end()) {
        ScheduleEntry& src = schedule.order_[it->second];
        src.last_use = std::max(src.last_use, e.def);
      }
    }
  }
  // The root's value is the Run() result: live until the next Run().
  schedule.order_.back().last_use = SIZE_MAX;

  // Peak simultaneous liveness of non-leaf values (the buffer lower bound),
  // by line sweep over [def, last_use] intervals.
  std::vector<int64_t> delta(schedule.order_.size() + 1, 0);
  for (const ScheduleEntry& e : schedule.order_) {
    if (e.node->kind() == OpKind::kInput) continue;
    ++delta[e.def];
    const size_t end = e.last_use == SIZE_MAX ? schedule.order_.size()
                                              : e.last_use + 1;
    if (end < delta.size()) --delta[end];
  }
  int64_t live = 0;
  for (const int64_t d : delta) {
    live += d;
    schedule.max_live_ =
        std::max(schedule.max_live_, static_cast<size_t>(std::max<int64_t>(live, 0)));
  }

  DMML_COUNTER_INC("laopt.analysis.schedules");
  DMML_COUNTER_ADD("laopt.analysis.schedule_nodes", schedule.order_.size());
  return schedule;
}

}  // namespace dmml::laopt
