#include "laopt/cse.h"

#include <unordered_map>

#include "obs/metrics.h"

namespace dmml::laopt {

namespace {

class HashConser {
 public:
  explicit HashConser(CseReport* report) : report_(report) {}

  Result<ExprPtr> Intern(const ExprPtr& node) {
    auto memo_it = visited_.find(node.get());
    if (memo_it != visited_.end()) return memo_it->second;

    std::vector<ExprPtr> kids;
    std::vector<size_t> child_ids;
    kids.reserve(node->children().size());
    for (const auto& c : node->children()) {
      DMML_ASSIGN_OR_RETURN(ExprPtr interned, Intern(c));
      child_ids.push_back(ids_.at(interned.get()));
      kids.push_back(std::move(interned));
    }

    std::string key = StructuralKey(*node, child_ids);
    auto it = table_.find(key);
    if (it != table_.end()) {
      if (it->second.get() != node.get()) DMML_COUNTER_INC("laopt.cse.merges");
      if (report_ && it->second.get() != node.get()) report_->merges++;
      visited_.emplace(node.get(), it->second);
      return it->second;
    }

    // Rebuild the node over the interned children (children may have been
    // replaced by canonical representatives).
    DMML_ASSIGN_OR_RETURN(ExprPtr rebuilt, WithChildren(node, std::move(kids)));
    ids_.emplace(rebuilt.get(), next_id_++);
    table_.emplace(std::move(key), rebuilt);
    visited_.emplace(node.get(), rebuilt);
    return rebuilt;
  }

 private:
  CseReport* report_;
  std::unordered_map<std::string, ExprPtr> table_;
  std::unordered_map<const ExprNode*, ExprPtr> visited_;
  std::unordered_map<const ExprNode*, size_t> ids_;
  size_t next_id_ = 0;
};

}  // namespace

Result<ExprPtr> EliminateCommonSubexpressions(const ExprPtr& root, CseReport* report) {
  if (!root) return Status::InvalidArgument("CSE: null expression");
  if (report) {
    *report = CseReport{};
    report->nodes_before = root->NumNodes();
  }
  HashConser conser(report);
  DMML_ASSIGN_OR_RETURN(ExprPtr result, conser.Intern(root));
  // Checked-build soundness gate, with the hash-consing value-coverage
  // check: every structural value of the input must survive, produced by
  // exactly one node (the CSE invariant this pass exists to establish).
  DMML_RETURN_IF_ERROR(VerifyPassOutput("cse", root, result,
                                        /*expect_hash_consed=*/true,
                                        report ? &report->verify : nullptr));
  if (report) report->nodes_after = result->NumNodes();
  return result;
}

}  // namespace dmml::laopt
