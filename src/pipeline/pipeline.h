/// \file pipeline.h
/// \brief Declarative pipeline front-end: one optimizer from tables to
/// trained models.
///
/// The builder composes the whole analysis — base table, filters, PK-FK
/// joins, feature/label selection, trainer — into a single logical plan
/// before anything executes:
///
///   auto fit = Pipeline::From(&catalog, "orders")
///                  .Filter(relational::Compare("xs0", CompareOp::kGt, -2.0))
///                  .Join("products", /*left_key=*/"fk", /*right_key=*/"rid")
///                  .Features({"xs0", "xs1", "xr0", ...})
///                  .Label("y")
///                  .TrainGlm(config, &pool);
///
/// A physical chooser then lowers the plan one of two ways:
///
///  * kMaterialize — execute the relational prefix eagerly (Filter /
///    HashJoin), bind the joined feature matrix to a laopt leaf (dense, CSR
///    via ml::AssembleFeaturesCsr, or CLA-compressed), and train.
///  * kFactorized — never materialize the join: build a
///    factorized::NormalizedMatrix over the filtered entity table and the
///    dimension tables and bind it through factorized::MakeFactorizedOperand,
///    so every epoch's X·w / Xᵀ·r / XᵀX runs factorized (Orion/Morpheus).
///
/// Both routes execute the *same* ml/unified_trainers laopt program — the
/// route only changes the leaf binding — so the fitted models agree to
/// floating-point noise. The chooser costs the routes with the relational
/// cardinality estimates (relational/logical_plan.h) and laopt's
/// DagAnalysis/EstimateFlops machinery, and the whole decision is rendered
/// by PipelineReport::ExplainText() (logged when DMML_EXPLAIN=1): relational
/// prefix with estimated-vs-actual cardinalities on top, the laopt epoch
/// program underneath.
#ifndef DMML_PIPELINE_PIPELINE_H_
#define DMML_PIPELINE_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ml/glm.h"
#include "ml/kmeans.h"
#include "ml/unified_trainers.h"
#include "relational/logical_plan.h"
#include "relational/operators.h"
#include "relational/predicate.h"
#include "storage/catalog.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace dmml::pipeline {

/// Physical route for the relational prefix.
enum class Route {
  kAuto,         ///< Cost-based choice (the default).
  kMaterialize,  ///< Execute the join, bind the materialized matrix.
  kFactorized,   ///< Bind the normalized (factorized) matrix; no join.
};

/// Physical representation of the materialized feature matrix.
enum class Binding {
  kAuto,   ///< Dense, or CSR when categorical features are present.
  kDense,  ///< Row-major la::DenseMatrix.
  kCsr,    ///< CSR via ml::AssembleFeaturesCsr.
  kCla,    ///< CLA column compression of the dense matrix.
};

const char* RouteName(Route route);
const char* BindingName(Binding binding);

/// \brief Pipeline-level options (route forcing is how tests pin a route).
struct PipelineOptions {
  Route route = Route::kAuto;
  Binding binding = Binding::kAuto;
};

/// \brief What the optimizer decided and what actually happened.
struct PipelineReport {
  Route chosen_route = Route::kMaterialize;
  Binding chosen_binding = Binding::kDense;
  /// Why the chooser picked `chosen_route` ("forced", "cost", a fallback
  /// reason like "categorical features", ...).
  std::string route_reason;

  /// Estimated join-output rows (relational cardinality estimate) and the
  /// feature-matrix width.
  double est_rows = 0;
  size_t feature_cols = 0;
  size_t actual_rows = 0;  ///< Rows the chosen route actually trained on.

  /// Cost-model totals in flop-equivalents (one-time lowering cost plus
  /// per-epoch work x epochs). Both populated only when the chooser ran.
  double materialized_cost = 0;
  double factorized_cost = 0;
  /// Estimated resident bytes of the bound feature operand per route, from
  /// DagAnalysis over the candidate epoch programs.
  uint64_t materialized_bytes = 0;
  uint64_t factorized_bytes = 0;

  /// Canonical feature order used by both routes (base-table features first,
  /// then each joined table's, preserving the declared relative order). The
  /// fitted weight at index j corresponds to feature_names[j].
  std::vector<std::string> feature_names;

  /// Estimated vs. actual cardinality per executed relational operator.
  std::vector<relational::OperatorObservation> relational_ops;

  /// Pipeline::TrainGlm only: the batch-GD engine's route for the bound
  /// operand and its two costs (ml::ChooseBatchGdRoute).
  std::optional<ml::BatchGdRouteChoice> training_route;

  /// DagAnalysis dump of the epoch program over the chosen binding.
  std::string laopt_explain;

  /// \brief Full EXPLAIN: route + relational prefix (operator, est vs
  /// actual rows, chosen route) above the laopt node tree.
  std::string ExplainText() const;
};

/// \brief A fitted GLM plus the optimizer's report.
struct GlmFit {
  ml::GlmModel model;
  PipelineReport report;
};

/// \brief A fitted k-means clustering plus the optimizer's report.
struct KMeansFit {
  ml::KMeansModel model;
  PipelineReport report;
};

/// \brief Builder for a declarative table-to-model pipeline.
///
/// Stages compose left to right; nothing executes until a terminal Train*
/// call. Errors (unknown table/column, key type mismatch, non-numeric
/// feature) surface from the terminal call with the offending pipeline
/// stage named.
class Pipeline {
 public:
  /// \brief Starts a pipeline reading `table` from `catalog` (borrowed; must
  /// outlive the terminal call).
  static Pipeline From(const storage::Catalog* catalog, std::string table);

  /// \brief Keeps rows satisfying `pred`. Filters declared before any Join
  /// apply to the base table (and keep the factorized route eligible);
  /// filters after a Join apply to the join output and force materialization.
  Pipeline& Filter(relational::PredicatePtr pred);

  /// \brief PK-FK equi-joins `table` (dimension side, unique key) into the
  /// pipeline on `left_key` = `right_key`.
  Pipeline& Join(std::string table, std::string left_key,
                 std::string right_key);

  /// \brief Numeric feature columns (resolved against the joined schema).
  Pipeline& Features(std::vector<std::string> columns);

  /// \brief Categorical (string) feature columns, one-hot encoded into the
  /// CSR feature assembly. Forces the materialized route.
  Pipeline& CategoricalFeatures(std::vector<std::string> columns);

  /// \brief Label column (required for GLM terminals; must live on the base
  /// table for the factorized route).
  Pipeline& Label(std::string column);

  /// \brief Route/binding overrides.
  Pipeline& WithOptions(PipelineOptions options);

  /// \brief Gradient-descent GLM through the chosen route.
  Result<GlmFit> TrainGlm(const ml::GlmConfig& config,
                          ThreadPool* pool = nullptr) const;

  /// \brief Closed-form ridge (normal equations) through the chosen route.
  Result<GlmFit> NormalEquations(const ml::GlmConfig& config,
                                 ThreadPool* pool = nullptr) const;

  /// \brief Lloyd's k-means through the chosen route (no Label needed).
  Result<KMeansFit> TrainKMeans(const ml::KMeansConfig& config,
                                ThreadPool* pool = nullptr) const;

  /// \brief The composed logical plan (for inspection / EXPLAIN tests).
  const relational::LogicalPlan& plan() const { return plan_; }

 private:
  struct JoinSpec {
    std::string table;
    std::string left_key;
    std::string right_key;
    /// Plan prefix ending at this join (for per-join cardinality estimates).
    relational::LogicalPlan prefix;
  };

  Pipeline() = default;

  /// Everything a terminal call needs: the bound operand (chosen route and
  /// binding), the label vector, and the filled report.
  struct LoweredProgram;

  /// \brief Validates the plan, runs the chooser, executes the chosen route
  /// and binds the feature operand. `epochs` scales the per-epoch cost in
  /// the route cost model; `need_label` gates label extraction.
  Result<LoweredProgram> Lower(size_t epochs, bool need_label,
                               ThreadPool* pool, PipelineReport* report) const;

  const storage::Catalog* catalog_ = nullptr;
  std::string base_table_;
  relational::LogicalPlan plan_;       ///< Full prefix including joins.
  relational::LogicalPlan base_plan_;  ///< Base scan + pre-join filters.
  std::vector<JoinSpec> joins_;
  bool star_shape_ = true;  ///< Scan(+filters) ⋈ scans only, so far.
  std::vector<std::string> features_;
  std::vector<std::string> categoricals_;
  std::string label_;
  PipelineOptions options_;
};

}  // namespace dmml::pipeline

#endif  // DMML_PIPELINE_PIPELINE_H_
