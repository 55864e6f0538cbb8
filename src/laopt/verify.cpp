#include "laopt/verify.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "laopt/analysis.h"
#include "laopt/operand.h"
#include "obs/metrics.h"

namespace dmml::laopt {
namespace {

bool Known(size_t dim) { return dim != ExprNode::kUnknownDim; }

std::string DimStr(size_t dim) {
  return Known(dim) ? std::to_string(dim) : std::string("?");
}

std::string ShapeStr(size_t rows, size_t cols) {
  return DimStr(rows) + "x" + DimStr(cols);
}

// Compatible = equal or at least one side unknown (mirrors expr.cpp).
bool DimsCompatible(size_t a, size_t b) {
  return !Known(a) || !Known(b) || a == b;
}

constexpr size_t kAbbrevLimit = 120;
constexpr int kAbbrevDepth = 6;

// Depth-limited rendering in ExprNode::ToString's style. The verifier must
// be able to name a node inside a *cyclic* plan, where ToString itself would
// recurse forever — the depth cap bounds both output size and cycles.
void RenderNode(const ExprNode* node, int depth, std::string* out) {
  if (node == nullptr) {
    *out += "<null>";
    return;
  }
  if (depth >= kAbbrevDepth || out->size() > kAbbrevLimit) {
    *out += "...";
    return;
  }
  const auto& kids = node->children();
  switch (node->kind()) {
    case OpKind::kInput:
      *out += node->name().empty() ? "_" : node->name();
      return;
    case OpKind::kFused:
      *out += node->Label() + "(";
      for (size_t i = 0; i < kids.size(); ++i) {
        if (i > 0) *out += ", ";
        RenderNode(kids[i].get(), depth + 1, out);
      }
      *out += ")";
      return;
    case OpKind::kScalarMul: {
      std::ostringstream s;
      s << node->scalar();
      *out += "(" + s.str() + " * ";
      RenderNode(kids.empty() ? nullptr : kids[0].get(), depth + 1, out);
      *out += ")";
      return;
    }
    case OpKind::kTranspose:
    case OpKind::kSum:
    case OpKind::kRowSums:
    case OpKind::kColSums: {
      const char* fn = node->kind() == OpKind::kTranspose  ? "t"
                       : node->kind() == OpKind::kSum      ? "sum"
                       : node->kind() == OpKind::kRowSums  ? "rowSums"
                                                           : "colSums";
      *out += std::string(fn) + "(";
      RenderNode(kids.empty() ? nullptr : kids[0].get(), depth + 1, out);
      *out += ")";
      return;
    }
    default: {
      const char* op = node->kind() == OpKind::kMatMul     ? " %*% "
                       : node->kind() == OpKind::kAdd      ? " + "
                       : node->kind() == OpKind::kSubtract ? " - "
                                                           : " * ";
      *out += "(";
      RenderNode(kids.empty() ? nullptr : kids[0].get(), depth + 1, out);
      *out += op;
      RenderNode(kids.size() < 2 ? nullptr : kids[1].get(), depth + 1, out);
      *out += ")";
      return;
    }
  }
}

std::string Abbreviate(const ExprNode* node) {
  if (node == nullptr) return "<null>";
  std::string s;
  RenderNode(node, 0, &s);
  if (s.size() > kAbbrevLimit) {
    s.resize(kAbbrevLimit - 3);
    s += "...";
  }
  return s;
}

bool EnvFlag(const char* name, bool default_value) {
  // Read-only env access; the process never calls setenv concurrently with
  // plan compilation (tests toggle it single-threaded).
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  if (v == nullptr || v[0] == '\0') return default_value;
  return !(v[0] == '0' && v[1] == '\0');
}

size_t ExpectedArity(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return 0;
    case OpKind::kMatMul:
    case OpKind::kAdd:
    case OpKind::kSubtract:
    case OpKind::kElemMul:
      return 2;
    default:
      return 1;
  }
}

void AddDiag(std::vector<Diagnostic>* diags, Severity severity,
             std::string rule, const ExprNode* node, std::string message) {
  diags->push_back(
      {severity, std::move(rule), Abbreviate(node), std::move(message)});
}

// Per-node structural checks: arity, null children, operand/shape
// consistency, and an exact shape re-derivation with DerivedShape, the rule
// every factory in expr.cpp builds with. A node whose recorded dims differ from the
// derivation is a *stale shape* — the signature of a rewrite that patched
// children without rebuilding the node.
void CheckNode(const ExprNode* node, std::vector<Diagnostic>* diags) {
  const auto& kids = node->children();
  if (node->kind() == OpKind::kFused) {
    // The same check ExprNode::Fused ran, re-run on what the node holds now.
    const Status fused =
        ValidateFused(kids, node->program(), node->rows(), node->cols());
    if (!fused.ok()) {
      AddDiag(diags, Severity::kError, "verify.fused_program", node,
              fused.message());
    }
    return;
  }
  const size_t arity = ExpectedArity(node->kind());
  if (kids.size() != arity) {
    AddDiag(diags, Severity::kError, "verify.arity", node,
            std::string(OpKindName(node->kind())) + " node has " +
                std::to_string(kids.size()) + " children, expected " +
                std::to_string(arity));
    return;  // Shape derivation below indexes children by arity.
  }
  for (const auto& c : kids) {
    if (!c) {
      AddDiag(diags, Severity::kError, "verify.null_child", node,
              "node has a null child");
      return;
    }
  }

  size_t want_rows = node->rows();
  size_t want_cols = node->cols();
  if (node->kind() != OpKind::kInput) {
    std::tie(want_rows, want_cols) = DerivedShape(node->kind(), kids);
  } else if (node->operand().bound()) {
    want_rows = node->operand().rows();
    want_cols = node->operand().cols();
  }
  if (node->kind() == OpKind::kMatMul && Known(kids[0]->cols()) &&
      Known(kids[1]->rows()) && kids[0]->cols() != kids[1]->rows()) {
    AddDiag(diags, Severity::kError, "verify.shape_mismatch", node,
            "matmul inner dimensions disagree: " +
                std::to_string(kids[0]->cols()) + " vs " +
                std::to_string(kids[1]->rows()));
  }
  if (IsElementwise(node->kind()) && kids.size() == 2 &&
      (!DimsCompatible(kids[0]->rows(), kids[1]->rows()) ||
       !DimsCompatible(kids[0]->cols(), kids[1]->cols()))) {
    AddDiag(diags, Severity::kError, "verify.shape_mismatch", node,
            std::string(OpKindName(node->kind())) +
                " operand shapes disagree: " +
                ShapeStr(kids[0]->rows(), kids[0]->cols()) + " vs " +
                ShapeStr(kids[1]->rows(), kids[1]->cols()));
  }
  if (node->rows() != want_rows || node->cols() != want_cols) {
    AddDiag(diags, Severity::kError, "verify.stale_shape", node,
            "node records shape " + ShapeStr(node->rows(), node->cols()) +
                " but " +
                (node->kind() == OpKind::kInput ? "its bound operand is "
                                                : "its children derive ") +
                ShapeStr(want_rows, want_cols));
  }
}

// Collects every distinct node under `root` (cycle-tolerant: a back edge is
// simply not re-walked).
std::vector<const ExprNode*> CollectNodes(const ExprPtr& root) {
  std::vector<const ExprNode*> order;
  if (!root) return order;
  std::unordered_set<const ExprNode*> seen;
  std::vector<const ExprNode*> stack{root.get()};
  while (!stack.empty()) {
    const ExprNode* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    order.push_back(node);
    for (const auto& c : node->children()) {
      if (c) stack.push_back(c.get());
    }
  }
  return order;
}

size_t CountErrors(const std::vector<Diagnostic>& diags) {
  size_t n = 0;
  for (const auto& d : diags) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

// Canonical structural value identity shared across two DAGs: two nodes get
// the same id iff they compute the same value under the CSE equivalence.
// Keyed by StructuralKey, the function CSE merges by, so the soundness check
// and the pass agree on what "the same value" means.
class ValueIdTable {
 public:
  size_t Intern(const ExprNode* node) {
    if (node == nullptr) return 0;
    auto it = memo_.find(node);
    if (it != memo_.end()) return it->second;
    if (!visiting_.insert(node).second) return 0;  // Cycle sentinel.
    std::vector<size_t> child_ids;
    child_ids.reserve(node->children().size());
    for (const auto& c : node->children()) child_ids.push_back(Intern(c.get()));
    visiting_.erase(node);
    auto [slot, inserted] =
        ids_.emplace(StructuralKey(*node, child_ids), ids_.size() + 1);
    memo_[node] = slot->second;
    return slot->second;
  }

 private:
  std::map<std::string, size_t> ids_;
  std::unordered_map<const ExprNode*, size_t> memo_;
  std::unordered_set<const ExprNode*> visiting_;
};

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

bool VerifyEnabled() {
#ifdef NDEBUG
  constexpr bool kDefault = false;
#else
  constexpr bool kDefault = true;
#endif
  return EnvFlag("DMML_VERIFY", kDefault);
}

bool LintEnabled() { return EnvFlag("DMML_LINT", false); }

std::vector<Diagnostic> VerifyPlan(const ExprPtr& root) {
  DMML_COUNTER_INC("laopt.verify.runs");
  std::vector<Diagnostic> diags;
  if (!root) {
    AddDiag(&diags, Severity::kError, "verify.null_root", nullptr,
            "plan root is null");
    DMML_COUNTER_INC("laopt.verify.errors");
    return diags;
  }

  // Iterative DFS with gray/black coloring: a gray-to-gray edge is a cycle.
  enum Color : uint8_t { kGray, kBlack };
  std::unordered_map<const ExprNode*, Color> color;
  std::vector<std::pair<const ExprNode*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  color[root.get()] = kGray;
  bool cycle_reported = false;
  while (!stack.empty()) {
    auto& top = stack.back();
    const ExprNode* node = top.first;
    if (top.second < node->children().size()) {
      const ExprNode* child = node->children()[top.second].get();
      ++top.second;
      if (child == nullptr) continue;  // Reported by CheckNode.
      auto it = color.find(child);
      if (it == color.end()) {
        color[child] = kGray;
        stack.emplace_back(child, 0);
      } else if (it->second == kGray && !cycle_reported) {
        AddDiag(&diags, Severity::kError, "verify.cycle", child,
                "plan is not a DAG: node is reachable from itself");
        cycle_reported = true;
      }
    } else {
      color[node] = kBlack;
      CheckNode(node, &diags);
      stack.pop_back();
    }
  }

  DMML_COUNTER_ADD("laopt.verify.errors", CountErrors(diags));
  return diags;
}

std::vector<Diagnostic> VerifyRewrite(const std::string& pass,
                                      const ExprPtr& before,
                                      const ExprPtr& after,
                                      bool expect_hash_consed) {
  DMML_COUNTER_INC("laopt.verify.rewrites");
  std::vector<Diagnostic> diags = VerifyPlan(after);
  if (!before) {
    AddDiag(&diags, Severity::kError, "verify.null_root", nullptr,
            "pre-rewrite plan root is null (pass '" + pass + "')");
  }
  if (!before || !after) {
    DMML_COUNTER_ADD("laopt.verify.errors", before ? 0 : 1);
    return diags;
  }
  const size_t prior_errors = CountErrors(diags);

  if (before->rows() != after->rows() || before->cols() != after->cols()) {
    AddDiag(&diags, Severity::kError, "verify.root_shape", after.get(),
            "pass '" + pass + "' changed the root shape from " +
                ShapeStr(before->rows(), before->cols()) + " to " +
                ShapeStr(after->rows(), after->cols()));
  }

  // Leaf provenance: a rewrite may drop inputs (dead code) but must never
  // invent a bound payload or substitute a different placeholder node.
  std::unordered_set<const void*> before_payloads;
  std::unordered_set<const ExprNode*> before_placeholders;
  for (const ExprNode* n : CollectNodes(before)) {
    if (n->kind() != OpKind::kInput) continue;
    if (n->operand().bound()) {
      before_payloads.insert(n->operand().payload());
    } else {
      before_placeholders.insert(n);
    }
  }
  const std::vector<const ExprNode*> after_nodes = CollectNodes(after);
  for (const ExprNode* n : after_nodes) {
    if (n->kind() != OpKind::kInput) continue;
    if (n->operand().bound()) {
      if (before_payloads.count(n->operand().payload()) == 0) {
        AddDiag(&diags, Severity::kError, "verify.foreign_leaf", n,
                "pass '" + pass +
                    "' introduced a bound leaf absent from the input plan");
      }
    } else if (before_placeholders.count(n) == 0) {
      AddDiag(&diags, Severity::kError, "verify.foreign_leaf", n,
              "pass '" + pass +
                  "' replaced a placeholder leaf (bindings would no longer "
                  "attach)");
    }
  }

  // CSE/fusion soundness: every structural value class of the input is still
  // produced, by exactly one survivor. Only meaningful for hash-consing
  // passes — rewrites like chain reordering legitimately retire value
  // classes. Skipped when the output already failed structurally (a cyclic
  // `after` has no well-defined value classes).
  if (expect_hash_consed && prior_errors == 0) {
    ValueIdTable table;
    std::unordered_map<size_t, const ExprNode*> before_by_id;
    for (const ExprNode* n : CollectNodes(before)) {
      before_by_id.emplace(table.Intern(n), n);
    }
    std::unordered_map<size_t, size_t> after_count;
    for (const ExprNode* n : after_nodes) ++after_count[table.Intern(n)];
    for (const auto& [id, node] : before_by_id) {
      auto it = after_count.find(id);
      if (it == after_count.end()) {
        AddDiag(&diags, Severity::kError, "verify.value_lost", node,
                "pass '" + pass +
                    "' no longer produces this value of the input plan");
      } else if (it->second != 1) {
        AddDiag(&diags, Severity::kError, "verify.duplicate_value", node,
                "pass '" + pass + "' left " + std::to_string(it->second) +
                    " structurally identical producers of this value");
      }
    }
  }

  // Estimate drift is informational: chain reordering changes the
  // independence-model sparsity estimate without changing the value. Leaf
  // counts come from the bindings, so a leaf the pass already analyzed is
  // not scanned again.
  if (CountErrors(diags) == 0) {
    auto ab = AnalyzeDag(before);
    auto aa = AnalyzeDag(after);
    if (ab.ok() && aa.ok()) {
      const NodeAnalysis* nb = ab->Find(before.get());
      const NodeAnalysis* na = aa->Find(after.get());
      if (nb != nullptr && na != nullptr &&
          std::abs(nb->sparsity - na->sparsity) > 1e-9) {
        AddDiag(&diags, Severity::kInfo, "verify.sparsity_drift", after.get(),
                "pass '" + pass + "' moved the root sparsity estimate from " +
                    std::to_string(nb->sparsity) + " to " +
                    std::to_string(na->sparsity));
      }
    }
  }

  DMML_COUNTER_ADD("laopt.verify.errors", CountErrors(diags) - prior_errors);
  return diags;
}

namespace {

std::vector<Diagnostic> LintImpl(const ExprPtr& root,
                                 const std::vector<std::string>* bound_names) {
  DMML_COUNTER_INC("laopt.verify.lint_runs");
  std::vector<Diagnostic> diags;
  if (!root) return diags;

  const std::vector<const ExprNode*> nodes = CollectNodes(root);
  std::unordered_map<const ExprNode*, std::vector<const ExprNode*>> consumers;
  for (const ExprNode* n : nodes) {
    for (const auto& c : n->children()) {
      if (c) consumers[c.get()].push_back(n);
    }
  }

  DagAnalysis analysis;
  const bool have_analysis = analysis.Ensure(root).ok();
  if (!have_analysis) {
    AddDiag(&diags, Severity::kWarning, "lint.analysis_failed", root.get(),
            "plan-time analysis failed; sparsity-based lint rules skipped");
  }

  // The representation a node's value actually has at run time, mirroring
  // the executor's dispatch: bound leaves keep their repr, a transpose of a
  // runtime-sparse value stays sparse (native CSR transpose), everything
  // else materializes dense.
  std::unordered_map<const ExprNode*, Repr> repr_memo;
  auto runtime_repr = [&](const ExprNode* n, auto&& self) -> Repr {
    auto it = repr_memo.find(n);
    if (it != repr_memo.end()) return it->second;
    Repr r = Repr::kDense;
    if (n->kind() == OpKind::kInput) {
      if (n->operand().bound()) r = n->operand().repr();
    } else if (n->kind() == OpKind::kTranspose && !n->children().empty()) {
      if (self(n->children()[0].get(), self) == Repr::kSparse) {
        r = Repr::kSparse;
      }
    }
    repr_memo.emplace(n, r);
    return r;
  };
  auto repr_of = [&](const ExprNode* n) { return runtime_repr(n, runtime_repr); };

  // True when the executor's fused kernels absorb `n` so it never evaluates
  // standalone: the ⊙ inside rowSums(G ⊙ G), or a t(X) consumed only as the
  // left factor of matmuls (t(U)·V family, native for every repr).
  auto absorbed_by_fusion = [&](const ExprNode* n) {
    const auto it = consumers.find(n);
    if (it == consumers.end() || it->second.empty()) return false;
    if (n->kind() == OpKind::kElemMul && n->children().size() == 2 &&
        n->children()[0].get() == n->children()[1].get()) {
      for (const ExprNode* p : it->second) {
        if (p->kind() != OpKind::kRowSums) return false;
      }
      return true;
    }
    if (n->kind() == OpKind::kTranspose) {
      for (const ExprNode* p : it->second) {
        if (p->kind() != OpKind::kMatMul || p->children().empty() ||
            p->children()[0].get() != n) {
          return false;
        }
      }
      return true;
    }
    return false;
  };

  for (const ExprNode* n : nodes) {
    const auto& kids = n->children();
    switch (n->kind()) {
      case OpKind::kScalarMul:
        if (n->scalar() == 0.0) {
          AddDiag(&diags, Severity::kWarning, "lint.dead_zero_scalar", n,
                  "multiplies by a statically-zero scalar: the operand "
                  "subtree is dead and the result is all zeros");
        } else if (!std::isfinite(n->scalar())) {
          AddDiag(&diags, Severity::kWarning, "lint.nonfinite_scalar", n,
                  "scalar factor is not finite: the result is NaN/Inf "
                  "everywhere the operand is nonzero");
        }
        break;
      case OpKind::kTranspose:
        if (!kids.empty() && kids[0] &&
            kids[0]->kind() == OpKind::kTranspose) {
          AddDiag(&diags, Severity::kWarning, "lint.redundant_transpose", n,
                  "t(t(X)) is the identity; the optimizer's transpose "
                  "elimination removes this pair");
        }
        break;
      case OpKind::kSubtract:
        if (kids.size() == 2 && kids[0] && kids[0].get() == kids[1].get()) {
          AddDiag(&diags, Severity::kWarning, "lint.self_subtract", n,
                  "subtracts an expression from itself: statically zero");
        }
        break;
      default:
        break;
    }

    if (have_analysis &&
        (n->kind() == OpKind::kMatMul || n->kind() == OpKind::kElemMul)) {
      for (const auto& c : kids) {
        const NodeAnalysis* ca = c ? analysis.Find(c.get()) : nullptr;
        if (ca != nullptr && ca->sparsity == 0.0) {
          AddDiag(&diags, Severity::kWarning, "lint.zero_operand", n,
                  "operand's static sparsity bound is 0 (all zeros), so the "
                  "product is statically zero");
          break;
        }
      }
    }

    // Always-densifying repr choices: a non-dense value reaching a kernel
    // family that only runs dense costs one densify per Run(), forever.
    const ExprNode* densified = nullptr;
    switch (n->kind()) {
      case OpKind::kMatMul:
        // The generic matmul path densifies its right operand; every fused
        // left-side pattern (t(U)·V, the compressed, sparse and factorized
        // transpose products) keeps the left factor native, and the Gram
        // t(U)·U runs every binding's own kernel.
        if (kids.size() == 2 && kids[1] && repr_of(kids[1].get()) != Repr::kDense &&
            !(kids[0] && kids[0]->kind() == OpKind::kTranspose &&
              !kids[0]->children().empty() &&
              kids[0]->children()[0].get() == kids[1].get())) {
          densified = kids[1].get();
        }
        break;
      case OpKind::kAdd:
      case OpKind::kSubtract:
      case OpKind::kElemMul:
      case OpKind::kScalarMul:
      case OpKind::kFused:
        if (!absorbed_by_fusion(n)) {
          for (const auto& c : kids) {
            if (c && repr_of(c.get()) != Repr::kDense) {
              densified = c.get();
              break;
            }
          }
        }
        break;
      case OpKind::kTranspose:
        if (!kids.empty() && kids[0] &&
            (repr_of(kids[0].get()) == Repr::kCompressed ||
             repr_of(kids[0].get()) == Repr::kFactorized) &&
            !absorbed_by_fusion(n)) {
          densified = kids[0].get();
        }
        break;
      default:
        break;  // sum/rowSums/colSums execute natively on every repr.
    }
    if (densified != nullptr) {
      AddDiag(&diags, Severity::kWarning, "lint.densify_bound", n,
              "operand " + Abbreviate(densified) + " (" +
                  ReprName(repr_of(densified)) +
                  ") is densified on every run by this " +
                  OpKindName(n->kind()) + " node");
    }
  }

  if (bound_names != nullptr) {
    std::unordered_set<std::string> leaf_names;
    for (const ExprNode* n : nodes) {
      if (n->kind() == OpKind::kInput && !n->name().empty()) {
        leaf_names.insert(n->name());
      }
    }
    for (const std::string& name : *bound_names) {
      if (leaf_names.count(name) == 0) {
        diags.push_back({Severity::kWarning, "lint.unused_binding", name,
                         "bound in the environment but never referenced by "
                         "the plan"});
      }
    }
  }

  DMML_COUNTER_ADD("laopt.verify.lint_findings", diags.size());
  return diags;
}

}  // namespace

std::vector<Diagnostic> LintPlan(const ExprPtr& root) {
  return LintImpl(root, nullptr);
}

std::vector<Diagnostic> LintPlan(const ExprPtr& root,
                                 const std::vector<std::string>& bound_names) {
  return LintImpl(root, &bound_names);
}

Severity MaxSeverity(const std::vector<Diagnostic>& diags) {
  Severity max = Severity::kInfo;
  for (const auto& d : diags) {
    if (d.severity > max) max = d.severity;
  }
  return max;
}

std::string RenderDiagnostics(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  for (const auto& d : diags) {
    os << SeverityName(d.severity) << " [" << d.rule << "] " << d.node << ": "
       << d.message << "\n";
  }
  return os.str();
}

Status DiagnosticsToStatus(const std::string& pass,
                           const std::vector<Diagnostic>& diags) {
  for (const auto& d : diags) {
    if (d.severity != Severity::kError) continue;
    DMML_COUNTER_INC("laopt.verify.pass_failures");
    return Status::Internal("plan verification failed in pass '" + pass +
                            "' at node " + d.node + ": " + d.message + "\n" +
                            RenderDiagnostics(diags));
  }
  return Status::OK();
}

Status VerifyPassOutput(const std::string& pass, const ExprPtr& before,
                        const ExprPtr& after, bool expect_hash_consed,
                        std::vector<Diagnostic>* out_diags) {
  if (!VerifyEnabled()) return Status::OK();
  std::vector<Diagnostic> diags =
      VerifyRewrite(pass, before, after, expect_hash_consed);
  if (out_diags != nullptr) {
    out_diags->insert(out_diags->end(), diags.begin(), diags.end());
  }
  return DiagnosticsToStatus(pass, diags);
}

}  // namespace dmml::laopt
