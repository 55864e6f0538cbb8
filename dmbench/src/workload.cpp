#include "workload.h"

#include "stats.h"

namespace dmbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "star_factorized", "star_refresh", "select_cla", "script_gd"};
  return kNames;
}

Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               const WorkloadContext& ctx) {
  if (name == "star_factorized") return MakeStarFactorized(ctx);
  if (name == "star_refresh") return MakeStarRefresh(ctx);
  if (name == "select_cla") return MakeSelectCla(ctx);
  if (name == "script_gd") return MakeScriptGd(ctx);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

Status CheckIterations(const OpOutput& out, size_t budget) {
  if (out.iterations == budget) return Status::OK();
  return Status::Internal("ran " + std::to_string(out.iterations) + " of " +
                          std::to_string(budget) + " iterations");
}

Status CheckModel(const OpOutput& out, const std::vector<double>& reference,
                  double tol, const char* what) {
  const double diff = MaxRelDiff(out.model, reference);
  if (diff <= tol) return Status::OK();
  return Status::Internal(std::string("model differs from the ") + what +
                          " by " + std::to_string(diff));
}

}  // namespace dmbench
