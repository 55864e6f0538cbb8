#include "laopt/profile.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "laopt/analysis.h"
#include "laopt/executor.h"
#include "obs/metrics.h"

namespace dmml::laopt {

namespace {

/// CSR-style footprint: values + column indices + row offsets, ~16 bytes per
/// stored nonzero — the same constant the plan-time analyzer uses, so the
/// est-vs-actual bytes comparison is apples to apples.
constexpr uint64_t kSparseBytesPerNnz = 16;

std::string FormatDouble3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string FormatMs(uint64_t us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(us) / 1000.0);
  return buf;
}

std::string FormatPct(double frac) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
  return buf;
}

std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Plan-time work estimate for one node, in the same units the optimizer's
/// chain costing thinks in (flops over estimated shapes, discounted by the
/// operand sparsity when the chosen representation skips zeros). Unknown
/// shapes cost 0 — they contribute nothing to the cost-share denominator.
double EstimatedFlops(const ExprNode* node, const DagAnalysis& analysis) {
  const NodeAnalysis* self = analysis.Find(node);
  if (self == nullptr || !self->shape.FullyKnown()) return 0.0;
  const double m = static_cast<double>(self->shape.rows.value);
  const double n = static_cast<double>(self->shape.cols.value);
  if (node->kind() == OpKind::kMatMul) {
    const NodeAnalysis* left = analysis.Find(node->children()[0].get());
    if (left == nullptr || !left->shape.cols.known) return 0.0;
    const double k = static_cast<double>(left->shape.cols.value);
    double discount =
        left->chosen_repr != Repr::kDense ? std::max(left->sparsity, 1e-6) : 1.0;
    return 2.0 * m * n * k * discount;
  }
  // Elementwise ops, transposes, and reductions all touch each output (or
  // input) cell once.
  return m * n;
}

/// The per-node calibration row shared by the text and JSON renderers.
struct CalibratedNode {
  const ExprNode* node = nullptr;
  const NodeProfile* prof = nullptr;   // nullptr: never executed
  const PlanEstimate* est = nullptr;   // nullptr: analysis failed / not seen
  double time_share = 0.0;  // self_us / sum(self_us) within the root
  double cost_share = 0.0;  // est_flops / sum(est_flops) within the root
};

/// Post-order walk collecting each distinct node of `root`'s sub-DAG once.
void CollectPostOrder(const ExprNode* node,
                      std::unordered_set<const ExprNode*>* seen,
                      std::vector<const ExprNode*>* out) {
  if (!seen->insert(node).second) return;
  for (const ExprPtr& child : node->children()) {
    CollectPostOrder(child.get(), seen, out);
  }
  out->push_back(node);
}

}  // namespace

uint64_t NodeProfile::ActualBytes() const {
  if (out_repr == Repr::kSparse) return out_nnz * kSparseBytesPerNnz;
  return static_cast<uint64_t>(out_rows) * out_cols * sizeof(double);
}

void PlanProfile::BeginRun(const ExprPtr& root) {
  DMML_COUNTER_INC("laopt.profile.runs");
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool known = false;
    for (const ExprPtr& r : roots_) known = known || r.get() == root.get();
    if (known) return;
  }

  // First sighting of this root: capture the estimate side now, while the
  // imminent Run() guarantees every bound operand is alive. Renders join
  // against this cache and never touch operands again — a later scrape must
  // stay safe even after non-owning leaf referents have died.
  Result<DagAnalysis> analysis = AnalyzeDag(root);
  std::unordered_map<const ExprNode*, PlanEstimate> captured;
  std::string error;
  if (analysis.ok()) {
    std::unordered_set<const ExprNode*> seen;
    std::vector<const ExprNode*> order;
    CollectPostOrder(root.get(), &seen, &order);
    for (const ExprNode* node : order) {
      const NodeAnalysis* info = analysis->Find(node);
      if (info == nullptr) continue;
      PlanEstimate est;
      est.shape = info->shape.ToString();
      est.sparsity = info->sparsity;
      est.bytes_known = info->bytes_known;
      est.est_bytes = info->est_bytes;
      est.chosen_repr = info->chosen_repr;
      est.est_flops = EstimatedFlops(node, *analysis);
      captured.emplace(node, std::move(est));
    }
  } else {
    error = analysis.status().ToString();
  }

  // Static diagnostics ride along with the runtime evidence: verifier
  // findings always matter when verification is on, lint findings only when
  // the user opted in.
  std::vector<Diagnostic> diags;
  if (VerifyEnabled()) {
    std::vector<Diagnostic> v = VerifyPlan(root);
    diags.insert(diags.end(), v.begin(), v.end());
  }
  if (LintEnabled()) {
    std::vector<Diagnostic> l = LintPlan(root);
    diags.insert(diags.end(), l.begin(), l.end());
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const ExprPtr& r : roots_) {
    if (r.get() == root.get()) return;  // lost a race with another executor
  }
  roots_.push_back(root);
  root_errors_.push_back(std::move(error));
  root_diags_.push_back(std::move(diags));
  for (auto& [node, est] : captured) est_.insert_or_assign(node, std::move(est));
}

NodeProfile& PlanProfile::EnsureNodeLocked(const ExprNode* node) {
  auto [it, inserted] = nodes_.try_emplace(node);
  if (inserted) {
    DMML_COUNTER_INC("laopt.profile.nodes_tracked");
    it->second.kind = node->kind();
    it->second.name = node->name().empty() ? node->Label() : node->name();
  }
  return it->second;
}

void PlanProfile::AddNodeSample(const ExprNode* node, uint64_t incl_us,
                                uint64_t self_us, Repr dispatch, Repr out_repr,
                                size_t out_rows, size_t out_cols,
                                uint64_t out_nnz) {
  DMML_COUNTER_INC("laopt.profile.samples");
  std::lock_guard<std::mutex> lock(mu_);
  NodeProfile& p = EnsureNodeLocked(node);
  p.invocations++;
  p.total_us += incl_us;
  p.self_us += self_us;
  p.last_dispatch = dispatch;
  p.out_repr = out_repr;
  p.out_rows = out_rows;
  p.out_cols = out_cols;
  p.out_nnz = out_nnz;
}

void PlanProfile::AddDensify(const ExprNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureNodeLocked(node).densify_fallbacks++;
}

void PlanProfile::AddMemoHit(const ExprNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureNodeLocked(node).memo_hits++;
}

void PlanProfile::AddFusedUse(const ExprNode* node) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureNodeLocked(node).fused_uses++;
}

void PlanProfile::EndRun(const ExecStats& run_tally) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.runs++;
  totals_.ops_executed += run_tally.ops_executed;
  totals_.memo_hits += run_tally.memo_hits;
  totals_.densify_fallbacks += run_tally.densify_fallbacks;
}

uint64_t PlanProfile::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_.runs;
}

size_t PlanProfile::NumNodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_.size();
}

ExecStats PlanProfile::TotalStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExecStats stats;
  stats.ops_executed = totals_.ops_executed;
  stats.memo_hits = totals_.memo_hits;
  stats.densify_fallbacks = totals_.densify_fallbacks;
  return stats;
}

const NodeProfile* PlanProfile::Find(const ExprNode* node) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

void PlanProfile::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  totals_ = Totals();
  nodes_.clear();
  roots_.clear();
  root_errors_.clear();
  root_diags_.clear();
  est_.clear();
}

namespace {

/// Joins the profile snapshot against the captured estimate rows of `root`
/// and computes the two share columns. A node absent from `est` (analysis
/// failed at capture time) keeps est == nullptr; the report still carries
/// the actuals.
std::vector<CalibratedNode> Calibrate(
    const ExprNode* root,
    const std::unordered_map<const ExprNode*, NodeProfile>& nodes,
    const std::unordered_map<const ExprNode*, PlanEstimate>& est) {
  std::unordered_set<const ExprNode*> seen;
  std::vector<const ExprNode*> order;
  CollectPostOrder(root, &seen, &order);

  std::vector<CalibratedNode> out;
  out.reserve(order.size());
  double total_self_us = 0.0;
  double total_flops = 0.0;
  for (const ExprNode* node : order) {
    CalibratedNode row;
    row.node = node;
    auto it = nodes.find(node);
    row.prof = it == nodes.end() ? nullptr : &it->second;
    auto eit = est.find(node);
    row.est = eit == est.end() ? nullptr : &eit->second;
    if (node->kind() != OpKind::kInput) {
      if (row.prof != nullptr) total_self_us += static_cast<double>(row.prof->self_us);
      if (row.est != nullptr) total_flops += row.est->est_flops;
    }
    out.push_back(row);
  }
  for (CalibratedNode& row : out) {
    if (row.node->kind() == OpKind::kInput) continue;
    if (row.prof != nullptr && total_self_us > 0.0) {
      row.time_share = static_cast<double>(row.prof->self_us) / total_self_us;
    }
    if (row.est != nullptr && total_flops > 0.0) {
      row.cost_share = row.est->est_flops / total_flops;
    }
  }
  return out;
}

void RenderNodeText(const ExprNode* node,
                    const std::unordered_map<const ExprNode*, CalibratedNode>& rows,
                    std::unordered_set<const ExprNode*>* printed, int depth,
                    std::ostringstream& os) {
  for (int i = 0; i < depth; ++i) os << "  ";
  if (depth > 0) os << "-> ";
  const CalibratedNode& row = rows.at(node);
  if (!printed->insert(node).second) {
    os << "[" << (row.prof ? row.prof->name : node->Label())
       << " — shared, shown above]\n";
    return;
  }

  if (node->kind() == OpKind::kInput) {
    os << "Input '" << (node->name().empty() ? "_" : node->name()) << "'";
    if (row.est != nullptr) {
      os << " " << row.est->shape << " repr=" << ReprName(row.est->chosen_repr)
         << " est_sparsity=" << FormatDouble3(row.est->sparsity);
    }
    os << "\n";
    return;
  }

  os << node->Label();
  if (row.prof != nullptr && row.prof->invocations == 0 &&
      row.prof->fused_uses > 0) {
    // Absorbed by the consumer's fused kernel: its time is charged to the
    // parent; there is no standalone execution to report.
    os << " (fused into consumer, " << row.prof->fused_uses << " uses)";
    if (row.est != nullptr) {
      os << " sparsity est=" << FormatDouble3(row.est->sparsity);
    }
    os << "\n";
    for (const ExprPtr& child : node->children()) {
      RenderNodeText(child.get(), rows, printed, depth + 1, os);
    }
    return;
  }
  if (row.prof != nullptr && row.prof->invocations > 0) {
    const NodeProfile& p = *row.prof;
    os << " (actual " << FormatMs(p.total_us) << " self " << FormatMs(p.self_us)
       << ", " << p.invocations << " inv";
    if (p.memo_hits) os << ", " << p.memo_hits << " memo";
    if (p.densify_fallbacks) os << ", " << p.densify_fallbacks << " densify";
    os << ") repr=" << ReprName(p.last_dispatch) << " out=" << p.out_rows << "x"
       << p.out_cols;
    double est_sp = row.est != nullptr ? row.est->sparsity : 1.0;
    double act_sp = p.ActualSparsity();
    os << " sparsity est=" << FormatDouble3(est_sp)
       << " actual=" << FormatDouble3(act_sp)
       << " err=" << FormatDouble3(act_sp - est_sp);
    if (row.est != nullptr && row.est->bytes_known) {
      os << " bytes est=" << row.est->est_bytes << " actual=" << p.ActualBytes();
    }
    os << " time_share=" << FormatPct(row.time_share)
       << " cost_share=" << FormatPct(row.cost_share);
  } else {
    os << " (never executed)";
  }
  os << "\n";
  for (const ExprPtr& child : node->children()) {
    RenderNodeText(child.get(), rows, printed, depth + 1, os);
  }
}

}  // namespace

std::string PlanProfile::ExplainAnalyzeText() const {
  // Snapshot under the lock, render outside it: a concurrent scrape must
  // not block Run(). Estimates come from the BeginRun capture — rendering
  // touches only immutable DAG metadata, never live operands.
  std::unordered_map<const ExprNode*, NodeProfile> nodes;
  std::unordered_map<const ExprNode*, PlanEstimate> est;
  std::vector<ExprPtr> roots;
  std::vector<std::string> root_errors;
  std::vector<std::vector<Diagnostic>> root_diags;
  Totals totals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nodes = nodes_;
    est = est_;
    roots = roots_;
    root_errors = root_errors_;
    root_diags = root_diags_;
    totals = totals_;
  }

  std::ostringstream os;
  os << "EXPLAIN ANALYZE: runs=" << totals.runs
     << " ops_executed=" << totals.ops_executed
     << " memo_hits=" << totals.memo_hits
     << " densify_fallbacks=" << totals.densify_fallbacks << "\n";
  if (roots.empty()) {
    os << "(no profiled runs)\n";
    return os.str();
  }
  for (size_t i = 0; i < roots.size(); ++i) {
    const ExprNode* root = roots[i].get();
    os << "plan " << i << ":\n";
    if (i < root_errors.size() && !root_errors[i].empty()) {
      os << "  (analysis failed: " << root_errors[i] << ")\n";
    }
    if (i < root_diags.size() && !root_diags[i].empty()) {
      for (const Diagnostic& d : root_diags[i]) {
        os << "  diag: " << SeverityName(d.severity) << " [" << d.rule << "] "
           << d.node << ": " << d.message << "\n";
      }
    }
    std::vector<CalibratedNode> cal = Calibrate(root, nodes, est);
    std::unordered_map<const ExprNode*, CalibratedNode> by_node;
    for (const CalibratedNode& row : cal) by_node[row.node] = row;
    std::unordered_set<const ExprNode*> printed;
    RenderNodeText(root, by_node, &printed, 1, os);
  }
  return os.str();
}

std::string PlanProfile::ExplainAnalyzeJson() const {
  std::unordered_map<const ExprNode*, NodeProfile> nodes;
  std::unordered_map<const ExprNode*, PlanEstimate> est;
  std::vector<ExprPtr> roots;
  std::vector<std::vector<Diagnostic>> root_diags;
  Totals totals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nodes = nodes_;
    est = est_;
    roots = roots_;
    root_diags = root_diags_;
    totals = totals_;
  }

  std::ostringstream os;
  os << "{\"runs\":" << totals.runs << ",\"totals\":{\"ops_executed\":"
     << totals.ops_executed << ",\"memo_hits\":" << totals.memo_hits
     << ",\"densify_fallbacks\":" << totals.densify_fallbacks
     << "},\"roots\":[";
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i) os << ",";
    const ExprNode* root = roots[i].get();
    std::vector<CalibratedNode> cal = Calibrate(root, nodes, est);
    // Stable per-root ids so "children" can reference rows.
    std::unordered_map<const ExprNode*, size_t> ids;
    for (const CalibratedNode& row : cal) ids.emplace(row.node, ids.size());
    os << "{\"diagnostics\":[";
    if (i < root_diags.size()) {
      for (size_t d = 0; d < root_diags[i].size(); ++d) {
        const Diagnostic& diag = root_diags[i][d];
        if (d) os << ",";
        os << "{\"severity\":\"" << SeverityName(diag.severity)
           << "\",\"rule\":\"" << obs::JsonEscape(diag.rule) << "\",\"node\":\""
           << obs::JsonEscape(diag.node) << "\",\"message\":\""
           << obs::JsonEscape(diag.message) << "\"}";
      }
    }
    os << "],\"nodes\":[";
    for (size_t j = 0; j < cal.size(); ++j) {
      const CalibratedNode& row = cal[j];
      if (j) os << ",";
      os << "{\"id\":" << ids[row.node] << ",\"op\":\""
         << obs::JsonEscape(OpKindName(row.node->kind())) << "\",\"name\":\""
         << obs::JsonEscape(row.node->name().empty()
                                ? OpKindName(row.node->kind())
                                : row.node->name())
         << "\",\"children\":[";
      for (size_t c = 0; c < row.node->children().size(); ++c) {
        if (c) os << ",";
        os << ids[row.node->children()[c].get()];
      }
      os << "]";
      if (row.est != nullptr) {
        os << ",\"est\":{\"shape\":\"" << obs::JsonEscape(row.est->shape)
           << "\",\"sparsity\":" << JsonDouble(row.est->sparsity)
           << ",\"bytes\":" << row.est->est_bytes << ",\"repr\":\""
           << ReprName(row.est->chosen_repr) << "\"}";
      }
      if (row.prof != nullptr) {
        const NodeProfile& p = *row.prof;
        os << ",\"actual\":{\"invocations\":" << p.invocations
           << ",\"fused_uses\":" << p.fused_uses
           << ",\"memo_hits\":" << p.memo_hits << ",\"total_us\":" << p.total_us
           << ",\"self_us\":" << p.self_us
           << ",\"densify_fallbacks\":" << p.densify_fallbacks
           << ",\"dispatch\":\"" << ReprName(p.last_dispatch)
           << "\",\"out_repr\":\"" << ReprName(p.out_repr)
           << "\",\"rows\":" << p.out_rows << ",\"cols\":" << p.out_cols
           << ",\"nnz\":" << p.out_nnz
           << ",\"sparsity\":" << JsonDouble(p.ActualSparsity())
           << ",\"bytes\":" << p.ActualBytes() << "}"
           << ",\"time_share\":" << JsonDouble(row.time_share)
           << ",\"cost_share\":" << JsonDouble(row.cost_share);
      }
      os << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

obs::ScopedProfileRegistration RegisterProfile(
    const std::string& name, std::shared_ptr<const PlanProfile> profile) {
  return obs::ScopedProfileRegistration(
      name, [profile = std::move(profile)]() -> std::string {
        return profile ? profile->ExplainAnalyzeJson() : std::string();
      });
}

}  // namespace dmml::laopt
