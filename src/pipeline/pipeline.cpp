#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "cla/compressed_matrix.h"
#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "laopt/analysis.h"
#include "laopt/expr.h"
#include "ml/encoding.h"
#include "ml/unified_trainers.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace dmml::pipeline {

using la::DenseMatrix;
using laopt::ExprNode;
using laopt::ExprPtr;
using relational::LogicalNode;
using relational::LogicalPlan;
using storage::Column;
using storage::DataType;
using storage::Table;

const char* RouteName(Route route) {
  switch (route) {
    case Route::kAuto: return "auto";
    case Route::kMaterialize: return "materialized";
    case Route::kFactorized: return "factorized";
  }
  return "?";
}

const char* BindingName(Binding binding) {
  switch (binding) {
    case Binding::kAuto: return "auto";
    case Binding::kDense: return "dense";
    case Binding::kCsr: return "csr";
    case Binding::kCla: return "cla";
  }
  return "?";
}

namespace {

bool ExplainEnvEnabled() {
  const char* v = std::getenv("DMML_EXPLAIN");  // NOLINT(concurrency-mt-unsafe)
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

// Logs a terminal call's EXPLAIN under DMML_EXPLAIN=1, once everything it
// decides before training is in the report.
void MaybeLogExplain(const PipelineReport& report) {
  if (ExplainEnvEnabled()) {
    DMML_LOG(Info) << "DMML_EXPLAIN pipeline\n" << report.ExplainText();
  }
}

// Cost-model constants, in flop-equivalents. Materializing a join writes
// every output cell through a hash probe and a row copy; the factorized
// route instead pays per-epoch gather traffic and a one-time key-map build.
constexpr double kJoinCostPerCell = 8.0;
constexpr double kGatherCostPerRowTable = 6.0;
constexpr double kBuildCostPerKey = 2.0;

// The representative epoch core both trainers share: Xᵀ·(X·w). Flop and
// memory estimates of this program are what the route chooser compares.
Result<ExprPtr> EpochProgram(ExprPtr x, size_t d) {
  DMML_ASSIGN_OR_RETURN(ExprPtr w, ExprNode::Placeholder(d, 1, "w"));
  DMML_ASSIGN_OR_RETURN(ExprPtr xw, ExprNode::MatMul(x, std::move(w)));
  DMML_ASSIGN_OR_RETURN(ExprPtr xt, ExprNode::Transpose(std::move(x)));
  return ExprNode::MatMul(std::move(xt), std::move(xw));
}

Status StageError(const std::string& stage, const Status& cause) {
  return Status(cause.code(), "pipeline stage " + stage + ": " + cause.message());
}

}  // namespace

std::string PipelineReport::ExplainText() const {
  std::ostringstream os;
  os << "== pipeline plan ==\n";
  os << "route: " << RouteName(chosen_route) << " (" << route_reason << ")";
  if (materialized_cost > 0 && factorized_cost > 0) {
    os << std::setprecision(3) << " — cost materialized " << materialized_cost
       << " vs factorized " << factorized_cost << " flop-eq";
  }
  os << "\nbinding: " << BindingName(chosen_binding) << ", feature matrix "
     << actual_rows << " x " << feature_cols;
  if (materialized_bytes > 0 || factorized_bytes > 0) {
    os << " (est bytes: materialized " << materialized_bytes << ", factorized "
       << factorized_bytes << ")";
  }
  if (training_route) {
    const std::streamsize precision = os.precision(3);
    os << "\ntraining: batch GD on the "
       << ml::BatchGdRouteName(training_route->route)
       << " route — cost statistics " << training_route->statistics_cost
       << " vs scan " << training_route->scan_cost << " flop-eq";
    os.precision(precision);
  }
  os << "\nrelational prefix (operator, est rows vs actual rows):\n";
  for (const relational::OperatorObservation& op : relational_ops) {
    os << "  " << std::left << std::setw(40) << op.op_name << " est "
       << std::setw(12) << op.estimated_rows << " actual " << std::setw(10)
       << op.actual_rows;
    os << std::setprecision(1) << std::fixed << " (misest "
       << op.MisestimatePct() << "%)";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
    if (chosen_route == Route::kFactorized &&
        op.op_name.rfind("Join(", 0) == 0) {
      os << "  [factorized: join not materialized]";
    }
    os << "\n";
  }
  os << "laopt epoch program (" << RouteName(chosen_route) << " binding):\n"
     << laopt_explain;
  return os.str();
}

Pipeline Pipeline::From(const storage::Catalog* catalog, std::string table) {
  Pipeline p;
  p.catalog_ = catalog;
  p.base_table_ = table;
  p.plan_ = LogicalNode::Scan(table);
  p.base_plan_ = p.plan_;
  return p;
}

Pipeline& Pipeline::Filter(relational::PredicatePtr pred) {
  plan_ = LogicalNode::Filter(plan_, pred);
  if (joins_.empty()) {
    base_plan_ = plan_;
  } else {
    // A filter over the join output cannot be pushed below the join by the
    // factorized lowering (it may reference columns from several tables).
    star_shape_ = false;
  }
  return *this;
}

Pipeline& Pipeline::Join(std::string table, std::string left_key,
                         std::string right_key) {
  plan_ = LogicalNode::Join(plan_, LogicalNode::Scan(table), left_key,
                            right_key);
  joins_.push_back(JoinSpec{std::move(table), std::move(left_key),
                            std::move(right_key), plan_});
  return *this;
}

Pipeline& Pipeline::Features(std::vector<std::string> columns) {
  for (std::string& c : columns) features_.push_back(std::move(c));
  return *this;
}

Pipeline& Pipeline::CategoricalFeatures(std::vector<std::string> columns) {
  for (std::string& c : columns) categoricals_.push_back(std::move(c));
  return *this;
}

Pipeline& Pipeline::Label(std::string column) {
  label_ = std::move(column);
  return *this;
}

Pipeline& Pipeline::WithOptions(PipelineOptions options) {
  options_ = options;
  return *this;
}

struct Pipeline::LoweredProgram {
  laopt::Operand x;
  DenseMatrix y;  ///< n x 1 when a label was extracted, else 0 x 0.
};

namespace {

/// How the factorized lowering sees the declared features: grouped by the
/// table that owns each column (base first, then join order).
struct FeatureGroups {
  std::vector<std::string> base;               ///< Base-table features.
  std::vector<std::vector<std::string>> dims;  ///< Per joined table.
  bool resolvable = true;  ///< Every feature owned by exactly one table.
};

double CellValue(const Column& col, size_t row) {
  if (!col.IsValid(row)) return 0.0;
  return col.type() == DataType::kInt64
             ? static_cast<double>(col.GetInt64(row))
             : col.GetDouble(row);
}

}  // namespace

Result<Pipeline::LoweredProgram> Pipeline::Lower(size_t epochs,
                                                 bool need_label,
                                                 ThreadPool* pool,
                                                 PipelineReport* report) const {
  if (catalog_ == nullptr || !plan_) {
    return Status::InvalidArgument("pipeline: empty (use Pipeline::From)");
  }
  if (features_.empty() && categoricals_.empty()) {
    return StageError("Features",
                      Status::InvalidArgument("no feature columns declared"));
  }
  if (need_label && label_.empty()) {
    return StageError("Label",
                      Status::InvalidArgument("no label column declared"));
  }
  const size_t epochs_clamped = std::max<size_t>(epochs, 1);

  // ---- Validate: schemas, features, label — before anything executes. ----
  DMML_ASSIGN_OR_RETURN(storage::Schema joined,
                        relational::OutputSchema(*plan_, *catalog_));
  for (const std::string& c : features_) {
    Result<size_t> idx = joined.RequireField(c);
    if (!idx.ok()) return StageError("Features", idx.status());
    const DataType t = joined.field(idx.ValueOrDie()).type;
    if (t != DataType::kDouble && t != DataType::kInt64) {
      return StageError("Features", Status::InvalidArgument(
                                        "column " + c + " is not numeric"));
    }
  }
  for (const std::string& c : categoricals_) {
    Result<size_t> idx = joined.RequireField(c);
    if (!idx.ok()) return StageError("CategoricalFeatures", idx.status());
    if (joined.field(idx.ValueOrDie()).type != DataType::kString) {
      return StageError(
          "CategoricalFeatures",
          Status::InvalidArgument("column " + c + " is not a string column"));
    }
  }
  if (need_label) {
    Result<size_t> idx = joined.RequireField(label_);
    if (!idx.ok()) return StageError("Label", idx.status());
  }

  // ---- Resolve feature ownership for the factorized lowering. ----
  DMML_ASSIGN_OR_RETURN(std::shared_ptr<const Table> base_table,
                        catalog_->GetTable(base_table_));
  std::vector<std::shared_ptr<const Table>> dim_tables;
  dim_tables.reserve(joins_.size());
  for (const JoinSpec& j : joins_) {
    DMML_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                          catalog_->GetTable(j.table));
    dim_tables.push_back(std::move(t));
  }
  FeatureGroups groups;
  groups.dims.resize(joins_.size());
  for (const std::string& c : features_) {
    size_t owners = 0;
    const bool in_base = base_table->schema().FieldIndex(c).has_value();
    if (in_base) ++owners;
    size_t dim_owner = joins_.size();
    for (size_t j = 0; j < dim_tables.size(); ++j) {
      if (dim_tables[j]->schema().FieldIndex(c).has_value()) {
        ++owners;
        dim_owner = j;
      }
    }
    if (owners != 1) {
      groups.resolvable = false;
      break;
    }
    if (in_base) {
      groups.base.push_back(c);
    } else {
      groups.dims[dim_owner].push_back(c);
    }
  }

  // Canonical feature order shared by both routes (base block first, then
  // each joined table's block) so the two physical lowerings produce the
  // same logical matrix column-for-column and the fitted weights line up.
  std::vector<std::string> ordered;
  if (groups.resolvable) {
    ordered = groups.base;
    for (const auto& g : groups.dims) {
      ordered.insert(ordered.end(), g.begin(), g.end());
    }
  } else {
    ordered = features_;
  }
  report->feature_names = ordered;

  // ---- Factorized eligibility (structure only; key checks come later). ----
  std::string ineligible_reason;
  if (joins_.empty()) {
    ineligible_reason = "no joins to factorize";
  } else if (!star_shape_) {
    ineligible_reason = "filter over join output";
  } else if (!categoricals_.empty()) {
    ineligible_reason = "categorical features need the CSR assembly";
  } else if (!groups.resolvable) {
    ineligible_reason = "feature not owned by exactly one table";
  } else if (need_label &&
             !base_table->schema().FieldIndex(label_).has_value()) {
    ineligible_reason = "label not on the base table";
  }
  if (ineligible_reason.empty()) {
    for (size_t j = 0; j < joins_.size(); ++j) {
      const std::optional<size_t> lk =
          base_table->schema().FieldIndex(joins_[j].left_key);
      const std::optional<size_t> rk =
          dim_tables[j]->schema().FieldIndex(joins_[j].right_key);
      if (!lk.has_value() ||
          base_table->schema().field(*lk).type != DataType::kInt64 ||
          !rk.has_value() ||
          dim_tables[j]->schema().field(*rk).type != DataType::kInt64) {
        ineligible_reason = "join keys not int64 base-to-dimension";
        break;
      }
    }
  }

  // ---- Cardinality estimates + route cost model. ----
  relational::StatisticsCache stats(catalog_);
  DMML_ASSIGN_OR_RETURN(double est_rows,
                        relational::EstimateCardinality(*plan_, &stats));
  const size_t d_numeric = ordered.size();
  report->est_rows = est_rows;

  Route route = options_.route;
  if (!ineligible_reason.empty()) {
    if (route == Route::kFactorized) {
      return StageError("Join", Status::InvalidArgument(
                                    "factorized route forced but ineligible: " +
                                    ineligible_reason));
    }
    route = Route::kMaterialize;
    report->route_reason = ineligible_reason;
  }

  if (route == Route::kAuto || ineligible_reason.empty()) {
    // Cost both routes even when the route is forced, so EXPLAIN always
    // shows the comparison the chooser would have made.
    DMML_ASSIGN_OR_RETURN(double base_rows,
                          relational::EstimateCardinality(*base_plan_, &stats));
    const size_t n_est =
        static_cast<size_t>(std::llround(std::max(est_rows, 1.0)));
    DMML_ASSIGN_OR_RETURN(
        ExprPtr xph, ExprNode::Placeholder(n_est, std::max<size_t>(d_numeric, 1),
                                           "X"));
    DMML_ASSIGN_OR_RETURN(ExprPtr dense_epoch,
                          EpochProgram(xph, std::max<size_t>(d_numeric, 1)));
    const double dense_epoch_flops = laopt::EstimateFlops(dense_epoch);
    {
      laopt::DagAnalysis analysis;
      DMML_ASSIGN_OR_RETURN(laopt::NodeAnalysis xinfo, analysis.Ensure(xph));
      report->materialized_bytes = xinfo.bytes_known ? xinfo.est_bytes : 0;
    }
    report->materialized_cost =
        kJoinCostPerCell * est_rows * static_cast<double>(d_numeric) +
        static_cast<double>(epochs_clamped) * dense_epoch_flops;

    // Factorized: per-epoch work touches each block once plus a per-table
    // gather over the entity rows; the one-time cost is the key-map build.
    double block_flops = 4.0 * base_rows * groups.base.size();
    double fact_bytes = base_rows * groups.base.size() * sizeof(double);
    double build_keys = 0;
    for (size_t j = 0; j < joins_.size(); ++j) {
      const double nr = static_cast<double>(dim_tables[j]->num_rows());
      block_flops += 4.0 * nr * groups.dims[j].size() +
                     kGatherCostPerRowTable * base_rows;
      fact_bytes += nr * groups.dims[j].size() * sizeof(double) +
                    base_rows * sizeof(uint32_t);
      build_keys += nr + base_rows;
    }
    report->factorized_bytes = static_cast<uint64_t>(fact_bytes);
    report->factorized_cost =
        kBuildCostPerKey * build_keys +
        static_cast<double>(epochs_clamped) * block_flops;

    if (route == Route::kAuto) {
      route = report->factorized_cost < report->materialized_cost
                  ? Route::kFactorized
                  : Route::kMaterialize;
      report->route_reason = "cost";
    } else if (report->route_reason.empty()) {
      report->route_reason = "forced";
    }
  } else if (report->route_reason.empty()) {
    report->route_reason = "forced";
  }

  // ---- Execute the chosen route. ----
  LoweredProgram out;
  bool factorized_fallback = false;
  if (route == Route::kFactorized) {
    // Execute only the base chain (scan + pre-join filters); the joins are
    // replaced by the normalized-matrix binding.
    std::vector<relational::OperatorObservation> ops;
    Result<Table> entity_r =
        relational::ExecutePlan(*base_plan_, *catalog_, &stats, &ops);
    if (!entity_r.ok()) return entity_r.status();
    Table entity = std::move(entity_r).ValueOrDie();
    const size_t ns = entity.num_rows();

    // Dimension scans (estimates are exact by construction, like Scan).
    for (size_t j = 0; j < joins_.size(); ++j) {
      ops.push_back({"Scan(" + joins_[j].table + ")",
                     static_cast<double>(dim_tables[j]->num_rows()),
                     dim_tables[j]->num_rows()});
    }

    // Key maps: pk value -> dimension row. Duplicate keys mean the "dim"
    // side is not a PK side — the normalized form cannot represent the
    // multiplicity, so fall back to materializing.
    std::vector<std::unordered_map<int64_t, uint32_t>> keymaps(joins_.size());
    for (size_t j = 0; j < joins_.size() && !factorized_fallback; ++j) {
      DMML_ASSIGN_OR_RETURN(const Column* key,
                            dim_tables[j]->ColumnByName(joins_[j].right_key));
      keymaps[j].reserve(dim_tables[j]->num_rows());
      for (size_t i = 0; i < dim_tables[j]->num_rows(); ++i) {
        if (!key->IsValid(i)) continue;
        if (!keymaps[j].emplace(key->GetInt64(i), static_cast<uint32_t>(i))
                 .second) {
          factorized_fallback = true;  // Duplicate PK.
          break;
        }
      }
    }

    if (!factorized_fallback) {
      // Inner-join semantics without the join: a row survives iff every
      // foreign key matches. Per-join actual cardinalities fall out of the
      // cumulative keep count.
      std::vector<char> keep(ns, 1);
      std::vector<std::vector<uint32_t>> fks(
          joins_.size(), std::vector<uint32_t>(ns, 0));
      for (size_t j = 0; j < joins_.size(); ++j) {
        DMML_ASSIGN_OR_RETURN(const Column* fkcol,
                              entity.ColumnByName(joins_[j].left_key));
        size_t kept = 0;
        for (size_t i = 0; i < ns; ++i) {
          if (!keep[i]) continue;
          auto it = fkcol->IsValid(i)
                        ? keymaps[j].find(fkcol->GetInt64(i))
                        : keymaps[j].end();
          if (it == keymaps[j].end()) {
            keep[i] = 0;
          } else {
            fks[j][i] = it->second;
            ++kept;
          }
        }
        DMML_ASSIGN_OR_RETURN(
            double join_est,
            relational::EstimateCardinality(*joins_[j].prefix, &stats));
        ops.push_back({joins_[j].prefix->Describe(), join_est, kept});
      }

      std::vector<size_t> kept_rows;
      kept_rows.reserve(ns);
      for (size_t i = 0; i < ns; ++i) {
        if (keep[i]) kept_rows.push_back(i);
      }
      const size_t n = kept_rows.size();

      // Entity feature block + compacted per-table key vectors.
      DenseMatrix xs(n, groups.base.size());
      std::vector<const Column*> base_cols;
      for (const std::string& c : groups.base) {
        DMML_ASSIGN_OR_RETURN(const Column* col, entity.ColumnByName(c));
        base_cols.push_back(col);
      }
      for (size_t r = 0; r < n; ++r) {
        for (size_t j = 0; j < base_cols.size(); ++j) {
          xs.At(r, j) = CellValue(*base_cols[j], kept_rows[r]);
        }
      }
      std::vector<factorized::AttributeTable> tables;
      tables.reserve(joins_.size());
      for (size_t j = 0; j < joins_.size(); ++j) {
        factorized::AttributeTable t;
        Result<DenseMatrix> xr = dim_tables[j]->ToMatrix(groups.dims[j]);
        if (!xr.ok()) return StageError("Features", xr.status());
        t.features = std::move(xr).ValueOrDie();
        t.fk.resize(n);
        for (size_t r = 0; r < n; ++r) t.fk[r] = fks[j][kept_rows[r]];
        tables.push_back(std::move(t));
      }
      Result<factorized::NormalizedMatrix> nm =
          factorized::NormalizedMatrix::Make(std::move(xs), std::move(tables));
      if (!nm.ok()) return StageError("Join", nm.status());
      out.x = factorized::MakeFactorizedOperand(std::move(nm).ValueOrDie());

      if (need_label) {
        DMML_ASSIGN_OR_RETURN(const Column* ycol, entity.ColumnByName(label_));
        out.y = DenseMatrix(n, 1);
        for (size_t r = 0; r < n; ++r) {
          out.y.At(r, 0) = CellValue(*ycol, kept_rows[r]);
        }
      }
      report->relational_ops = std::move(ops);
      report->chosen_route = Route::kFactorized;
      report->chosen_binding = Binding::kAuto;
      DMML_COUNTER_INC("pipeline.route.factorized");
    } else {
      route = Route::kMaterialize;
      report->route_reason = "duplicate dimension keys (fell back)";
    }
  }

  if (route == Route::kMaterialize) {
    std::vector<relational::OperatorObservation> ops;
    Result<Table> joined_r =
        relational::ExecutePlan(*plan_, *catalog_, &stats, &ops);
    if (!joined_r.ok()) return joined_r.status();
    Table joined_t = std::move(joined_r).ValueOrDie();
    report->relational_ops = std::move(ops);

    Binding binding = options_.binding;
    if (binding == Binding::kAuto) {
      binding = categoricals_.empty() ? Binding::kDense : Binding::kCsr;
    }
    if (binding == Binding::kDense && !categoricals_.empty()) {
      return StageError("CategoricalFeatures",
                        Status::InvalidArgument(
                            "dense binding cannot hold one-hot blocks; use "
                            "Binding::kCsr (or kAuto)"));
    }
    if (binding == Binding::kCsr) {
      Result<ml::AssembledFeatures> asm_r =
          ml::AssembleFeaturesCsr(joined_t, ordered, categoricals_);
      if (!asm_r.ok()) return StageError("Features", asm_r.status());
      ml::AssembledFeatures assembled = std::move(asm_r).ValueOrDie();
      report->feature_names = assembled.feature_names;
      out.x = laopt::Operand(std::make_shared<const la::SparseMatrix>(
          std::move(assembled.matrix)));
    } else {
      Result<DenseMatrix> x = joined_t.ToMatrix(ordered);
      if (!x.ok()) return StageError("Features", x.status());
      if (binding == Binding::kCla) {
        out.x = laopt::Operand(std::make_shared<const cla::CompressedMatrix>(
            cla::CompressedMatrix::Compress(x.ValueOrDie(), {}, pool)));
      } else {
        out.x = laopt::Operand(std::make_shared<const DenseMatrix>(
            std::move(x).ValueOrDie()));
      }
    }
    if (need_label) {
      Result<DenseMatrix> y = joined_t.ColumnToVector(label_);
      if (!y.ok()) return StageError("Label", y.status());
      out.y = std::move(y).ValueOrDie();
    }
    report->chosen_route = Route::kMaterialize;
    report->chosen_binding = binding;
    DMML_COUNTER_INC("pipeline.route.materialized");
  }

  report->feature_cols = out.x.cols();
  report->actual_rows = out.x.rows();

  // ---- EXPLAIN: the laopt epoch program over the actual binding. ----
  {
    DMML_ASSIGN_OR_RETURN(ExprPtr xleaf, ExprNode::InputOperand(out.x, "X"));
    DMML_ASSIGN_OR_RETURN(ExprPtr program,
                          EpochProgram(xleaf, out.x.cols()));
    laopt::DagAnalysis analysis;
    report->laopt_explain = analysis.Explain(program);
    if (const laopt::NodeAnalysis* info = analysis.Find(xleaf.get())) {
      if (info->bytes_known) {
        if (report->chosen_route == Route::kFactorized) {
          report->factorized_bytes = info->est_bytes;
        } else {
          report->materialized_bytes = info->est_bytes;
        }
      }
    }
  }
  return out;
}

Result<GlmFit> Pipeline::TrainGlm(const ml::GlmConfig& config,
                                  ThreadPool* pool) const {
  GlmFit fit;
  DMML_ASSIGN_OR_RETURN(
      LoweredProgram lp,
      Lower(config.max_epochs, /*need_label=*/true, pool, &fit.report));
  const size_t n = lp.x.rows();
  fit.report.training_route = ml::ChooseBatchGdRoute(lp.x, {{n, n}}, {config});
  MaybeLogExplain(fit.report);
  DMML_ASSIGN_OR_RETURN(fit.model,
                        ml::TrainGlmOnOperand(lp.x, lp.y, config, pool));
  return fit;
}

Result<GlmFit> Pipeline::NormalEquations(const ml::GlmConfig& config,
                                         ThreadPool* pool) const {
  GlmFit fit;
  DMML_ASSIGN_OR_RETURN(
      LoweredProgram lp,
      Lower(/*epochs=*/1, /*need_label=*/true, pool, &fit.report));
  MaybeLogExplain(fit.report);
  DMML_RETURN_IF_ERROR(
      ml::RunNormalEquationsOnOperand(lp.x, lp.y, config, pool, &fit.model));
  return fit;
}

Result<KMeansFit> Pipeline::TrainKMeans(const ml::KMeansConfig& config,
                                        ThreadPool* pool) const {
  KMeansFit fit;
  DMML_ASSIGN_OR_RETURN(
      LoweredProgram lp,
      Lower(config.max_iters, /*need_label=*/false, pool, &fit.report));
  MaybeLogExplain(fit.report);
  DMML_ASSIGN_OR_RETURN(fit.model,
                        ml::TrainKMeansOnOperand(lp.x, config, pool));
  return fit;
}

}  // namespace dmml::pipeline
