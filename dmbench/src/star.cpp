// The two star-schema workloads: learning over a PK-FK join through the
// declarative pipeline, once over tables that never change
// (star_factorized) and once with a new version of the fact table ingested
// before every op (star_refresh).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "factorized/factorized_operand.h"
#include "factorized/normalized_matrix.h"
#include "gen.h"
#include "laopt/profile.h"
#include "ml/encoding.h"
#include "ml/unified_trainers.h"
#include "pipeline/pipeline.h"
#include "relational/logical_plan.h"
#include "relational/predicate.h"
#include "stats.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "workload.h"

namespace dmbench {
namespace {

namespace la = dmml::la;
namespace ml = dmml::ml;
namespace pl = dmml::pipeline;
namespace rel = dmml::relational;
using dmml::storage::Catalog;
using dmml::storage::DataType;
using dmml::storage::Field;
using dmml::storage::Schema;
using dmml::storage::Table;

// xs0 > kFilterCut keeps about 90% of orders: P(N(0,1) > -1.2816) = 0.9.
constexpr double kFilterCut = -1.2815515655446004;
constexpr size_t kOrderFeatures = 4;

std::vector<std::string> Names(const std::string& prefix, size_t n) {
  std::vector<std::string> out;
  for (size_t j = 0; j < n; ++j) out.push_back(prefix + std::to_string(j));
  return out;
}

std::vector<std::string> Concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Key column(s) first, then the named doubles.
Schema MakeSchema(const std::vector<std::string>& keys,
                  const std::vector<std::string>& doubles,
                  const std::vector<std::string>& strings = {}) {
  std::vector<Field> fields;
  for (const std::string& k : keys) fields.push_back({k, DataType::kInt64, false});
  for (const std::string& d : doubles) fields.push_back({d, DataType::kDouble, false});
  for (const std::string& s : strings) fields.push_back({s, DataType::kString, false});
  return Schema(std::move(fields));
}

// CSV ingest through storage: the program's own load path.
Status Ingest(Catalog* catalog, const std::string& name, const std::string& path,
              const Schema& schema, size_t* rows) {
  DMML_ASSIGN_OR_RETURN(Table t, Table::FromCsvFile(path, schema));
  *rows += t.num_rows();
  catalog->PutTable(name, std::move(t));
  return Status::OK();
}

Status WriteDimension(const std::string& path, const std::string& key,
                      const std::vector<std::string>& features,
                      const la::DenseMatrix& values,
                      const std::vector<std::string>* categories = nullptr,
                      const std::string& category_column = "") {
  std::vector<std::string> header = Concat({key}, features);
  if (categories != nullptr) header.push_back(category_column);
  return WriteCsv(path, header, values.rows(), [&](size_t i, std::string* line) {
    AppendCell(line, static_cast<int64_t>(i));
    for (size_t j = 0; j < values.cols(); ++j) AppendCell(line, values.At(i, j));
    if (categories != nullptr) AppendCell(line, (*categories)[i]);
  });
}

la::DenseMatrix NormalMatrix(size_t rows, size_t cols, Gen* g) {
  la::DenseMatrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.At(i, j) = g->Normal();
  }
  return m;
}

std::vector<double> GlmParams(const ml::GlmModel& m) {
  std::vector<double> p(m.weights.data(), m.weights.data() + m.weights.size());
  p.push_back(m.intercept);
  return p;
}

// Σ per-node self seconds of a PlanProfile by dispatch representation
// ("laopt.self_s.<repr>") plus their total ("laopt.self_s.all"), read from
// its EXPLAIN ANALYZE JSON. A node shared by two roots is listed under each
// root with identical actuals, so it is counted once.
Values ProfileSelfSeconds(const dmml::laopt::PlanProfile& profile) {
  const std::string json = profile.ExplainAnalyzeJson();
  auto field = [&](size_t from, size_t to, const std::string& key) {
    const size_t at = json.find("\"" + key + "\":", from);
    if (at == std::string::npos || at >= to) return std::string();
    size_t begin = at + key.size() + 3;
    if (json[begin] == '"') {
      ++begin;
      return json.substr(begin, json.find('"', begin) - begin);
    }
    return json.substr(begin, json.find_first_of(",}", begin) - begin);
  };
  Values out{{"laopt.self_s.all", 0.0}};
  std::set<std::string> seen;
  for (size_t pos = json.find("{\"id\":"); pos != std::string::npos;) {
    const size_t next = json.find("{\"id\":", pos + 1);
    const size_t end = next == std::string::npos ? json.size() : next;
    const size_t actual = json.find("\"actual\":{", pos);
    if (actual < end) {
      const std::string body =
          json.substr(actual, json.find('}', actual) - actual);
      const std::string key =
          field(pos, end, "op") + "|" + field(pos, end, "name") + "|" + body;
      if (seen.insert(key).second) {
        const double s = 1e-6 * std::strtod(field(actual, end, "self_us").c_str(),
                                            nullptr);
        out["laopt.self_s." + field(actual, end, "dispatch")] += s;
        out["laopt.self_s.all"] += s;
      }
    }
    pos = next;
  }
  return out;
}

// Trainer wall time minus laopt node time: the per-row scalar loops and
// plan preparation that run outside executor nodes.
void AddTrainerValues(const dmml::laopt::PlanProfile& profile, double train_s,
                      Values* values) {
  Values self = ProfileSelfSeconds(profile);
  for (const char* repr : {"factorized", "sparse"}) {
    (*values)[std::string("laopt.self_s.") + repr] =
        self["laopt.self_s." + std::string(repr)];
  }
  (*values)["ml.bookkeeping_s"] = train_s - self["laopt.self_s.all"];
}

// ---------------------------------------------------------------------------
// star_factorized: orders ⋈ products ⋈ stores, binomial GLM, Route::kAuto.
// ---------------------------------------------------------------------------

class StarFactorized : public Workload {
 public:
  explicit StarFactorized(const WorkloadContext& ctx)
      : ctx_(ctx),
        orders_(ctx.tiny ? 3000 : 25000),
        products_(ctx.tiny ? 60 : 250),
        stores_(ctx.tiny ? 6 : 50),
        order_features_(Names("xs", kOrderFeatures)),
        product_features_(Names("xp", 40)),
        store_features_(Names("xt", 8)) {
    config_.family = ml::GlmFamily::kBinomial;
    config_.solver = ml::GlmSolver::kBatchGd;
    config_.learning_rate = 0.5;
    config_.l2 = 1e-4;
    config_.max_epochs = 50;
    config_.tolerance = 0;  // Fixed work per op.
  }

  Status Prologue() override {
    Gen g(SubSeed(ctx_.seed, 1));
    const la::DenseMatrix p = NormalMatrix(products_, product_features_.size(), &g);
    const la::DenseMatrix t = NormalMatrix(stores_, store_features_.size(), &g);
    const la::DenseMatrix w = NormalMatrix(
        kOrderFeatures + product_features_.size() + store_features_.size(), 1, &g);
    // Zipf-0.8 product popularity over a random ranking of product ids.
    std::vector<int64_t> rank_to_pid(products_);
    for (size_t i = 0; i < products_; ++i) rank_to_pid[i] = static_cast<int64_t>(i);
    for (size_t i = products_ - 1; i > 0; --i) {
      std::swap(rank_to_pid[i], rank_to_pid[g.Below(i + 1)]);
    }
    const Zipf zipf(products_, 0.8);

    DMML_RETURN_IF_ERROR(WriteDimension(Path("products"), "pid", product_features_, p));
    DMML_RETURN_IF_ERROR(WriteDimension(Path("stores"), "sid", store_features_, t));
    const std::vector<std::string> header = Concat(
        Concat({"oid", "pfk", "sfk"}, order_features_), {"y"});
    DMML_RETURN_IF_ERROR(WriteCsv(
        Path("orders"), header, orders_, [&](size_t i, std::string* line) {
          const int64_t pfk = rank_to_pid[zipf.Sample(&g)];
          const int64_t sfk = static_cast<int64_t>(g.Below(stores_));
          AppendCell(line, static_cast<int64_t>(i));
          AppendCell(line, pfk);
          AppendCell(line, sfk);
          double z = 0;
          size_t wj = 0;
          for (size_t j = 0; j < kOrderFeatures; ++j) {
            const double x = g.Normal();
            AppendCell(line, x);
            z += 0.3 * w.At(wj++, 0) * x;
          }
          for (size_t j = 0; j < p.cols(); ++j) {
            z += 0.3 * w.At(wj++, 0) * p.At(static_cast<size_t>(pfk), j);
          }
          for (size_t j = 0; j < t.cols(); ++j) {
            z += 0.3 * w.At(wj++, 0) * t.At(static_cast<size_t>(sfk), j);
          }
          AppendCell(line, g.Uniform() < 1.0 / (1.0 + std::exp(-z)) ? 1.0 : 0.0);
        }));

    // Reference: the same pipeline forced onto the materialized route with
    // the dense binding, over the same ingested tables.
    Catalog ref;
    size_t rows = 0;
    DMML_RETURN_IF_ERROR(IngestAll(&ref, &rows));
    pl::PipelineOptions forced;
    forced.route = pl::Route::kMaterialize;
    forced.binding = pl::Binding::kDense;
    DMML_ASSIGN_OR_RETURN(pl::GlmFit fit,
                          MakePipeline(&ref).WithOptions(forced).TrainGlm(
                              config_, ctx_.pool));
    if (fit.model.epochs_run != config_.max_epochs) {
      return Status::Internal("star_factorized reference stopped early");
    }
    reference_ = GlmParams(fit.model);
    return Status::OK();
  }

  Status Setup(Values* values) override {
    catalog_.reset();
    catalog_ = std::make_unique<Catalog>();
    size_t rows = 0;
    const uint64_t t0 = NowNs();
    DMML_RETURN_IF_ERROR(IngestAll(catalog_.get(), &rows));
    const double s = SecondsSince(t0);
    (*values)["storage.ingest_s"] = s;
    (*values)["storage.ingest_rows_per_s"] = static_cast<double>(rows) / s;
    return Status::OK();
  }

  Result<OpOutput> RunOp(size_t /*op*/) override {
    DMML_ASSIGN_OR_RETURN(pl::GlmFit fit,
                          MakePipeline(catalog_.get()).TrainGlm(config_, ctx_.pool));
    OpOutput out;
    out.model = GlmParams(fit.model);
    out.iterations = fit.model.epochs_run;
    out.work = static_cast<double>(fit.report.actual_rows * fit.model.epochs_run);
    out.route = pl::RouteName(fit.report.chosen_route);
    return out;
  }

  // The calls Pipeline::TrainGlm makes on the route the plain op took: the
  // factorized route, or the materialized route with the dense binding.
  Result<OpOutput> ReplayOp(size_t op, const OpOutput& plain, SpanRecorder* spans,
                            Values* values) override {
    const bool factorized = plain.route == pl::RouteName(pl::Route::kFactorized);
    const Catalog& catalog = *catalog_;
    const pl::Pipeline pipeline = MakePipeline(&catalog);
    const rel::LogicalPlan base = BasePlan();
    rel::StatisticsCache stats(&catalog);
    {
      ScopedSpan s(spans, "relational.stats");
      DMML_RETURN_IF_ERROR(
          rel::EstimateCardinality(*pipeline.plan(), &stats).status());
      DMML_RETURN_IF_ERROR(rel::EstimateCardinality(*base, &stats).status());
    }
    // The factorized route executes only the pre-join chain.
    const rel::LogicalPlan& plan = factorized ? base : pipeline.plan();
    Result<Table> rows_r = Status::Internal("unset");
    {
      ScopedSpan s(spans, "relational.exec");
      rows_r = rel::ExecutePlan(*plan, catalog, &stats);
    }
    DMML_ASSIGN_OR_RETURN(Table rows, std::move(rows_r));
    la::DenseMatrix y;
    DMML_ASSIGN_OR_RETURN(dmml::laopt::Operand x,
                          factorized ? Factorize(rows, spans, &y)
                                     : Materialize(rows, spans, &y));
    dmml::laopt::PlanProfile profile;
    Result<ml::GlmModel> model_r = Status::Internal("unset");
    {
      ScopedSpan s(spans, "ml.train");
      model_r = ml::TrainGlmOnOperand(x, y, config_, ctx_.pool, &profile);
    }
    DMML_ASSIGN_OR_RETURN(ml::GlmModel model, std::move(model_r));
    AddTrainerValues(profile, spans->Seconds(op, "ml.train"), values);

    OpOutput out;
    out.model = GlmParams(model);
    out.iterations = model.epochs_run;
    out.work = static_cast<double>(x.rows() * model.epochs_run);
    out.route = plain.route;
    return out;
  }

  bool ThroughPipeline() const override { return true; }

  Status CheckOp(size_t /*op*/, const OpOutput& out) override {
    DMML_RETURN_IF_ERROR(CheckIterations(out, config_.max_epochs));
    return CheckModel(out, reference_, 1e-9, "materialized dense reference");
  }

 private:
  std::string Path(const std::string& table) const {
    return ctx_.workdir + "/" + table + ".csv";
  }

  Status IngestAll(Catalog* catalog, size_t* rows) const {
    DMML_RETURN_IF_ERROR(Ingest(catalog, "products", Path("products"),
                                MakeSchema({"pid"}, product_features_), rows));
    DMML_RETURN_IF_ERROR(Ingest(catalog, "stores", Path("stores"),
                                MakeSchema({"sid"}, store_features_), rows));
    return Ingest(catalog, "orders", Path("orders"),
                  MakeSchema({"oid", "pfk", "sfk"}, Concat(order_features_, {"y"})),
                  rows);
  }

  rel::LogicalPlan BasePlan() const {
    return rel::LogicalNode::Filter(
        rel::LogicalNode::Scan("orders"),
        rel::Compare("xs0", rel::CompareOp::kGt, kFilterCut));
  }

  pl::Pipeline MakePipeline(const Catalog* catalog) const {
    pl::Pipeline p = pl::Pipeline::From(catalog, "orders");
    p.Filter(rel::Compare("xs0", rel::CompareOp::kGt, kFilterCut))
        .Join("products", "pfk", "pid")
        .Join("stores", "sfk", "sid")
        .Features(Features())
        .Label("y");
    return p;
  }

  std::vector<std::string> Features() const {
    return Concat(Concat(order_features_, product_features_), store_features_);
  }

  // The materialized route's dense binding of the joined rows.
  Result<dmml::laopt::Operand> Materialize(const Table& joined, SpanRecorder* spans,
                                           la::DenseMatrix* y) const {
    ScopedSpan s(spans, "storage.to_matrix");
    DMML_ASSIGN_OR_RETURN(la::DenseMatrix x, joined.ToMatrix(Features()));
    DMML_ASSIGN_OR_RETURN(*y, joined.ColumnToVector("y"));
    return dmml::laopt::Operand(std::make_shared<const la::DenseMatrix>(std::move(x)));
  }

  // The factorized route's normalized matrix over the filtered orders and
  // the dimension tables, with the pipeline's key maps as foreign-key
  // vectors (every key matches).
  Result<dmml::laopt::Operand> Factorize(const Table& entity, SpanRecorder* spans,
                                         la::DenseMatrix* y) const {
    DMML_ASSIGN_OR_RETURN(std::shared_ptr<const Table> products,
                          catalog_->GetTable("products"));
    DMML_ASSIGN_OR_RETURN(std::shared_ptr<const Table> stores,
                          catalog_->GetTable("stores"));
    std::vector<dmml::factorized::AttributeTable> tables(2);
    DMML_RETURN_IF_ERROR(KeyVector(entity, "pfk", *products, "pid", &tables[0].fk));
    DMML_RETURN_IF_ERROR(KeyVector(entity, "sfk", *stores, "sid", &tables[1].fk));

    la::DenseMatrix xs;
    {
      ScopedSpan s(spans, "storage.to_matrix");
      DMML_ASSIGN_OR_RETURN(xs, entity.ToMatrix(order_features_));
      DMML_ASSIGN_OR_RETURN(*y, entity.ColumnToVector("y"));
      DMML_ASSIGN_OR_RETURN(tables[0].features, products->ToMatrix(product_features_));
      DMML_ASSIGN_OR_RETURN(tables[1].features, stores->ToMatrix(store_features_));
    }
    ScopedSpan s(spans, "factorized.build");
    DMML_ASSIGN_OR_RETURN(
        dmml::factorized::NormalizedMatrix nm,
        dmml::factorized::NormalizedMatrix::Make(std::move(xs), std::move(tables)));
    return dmml::factorized::MakeFactorizedOperand(std::move(nm));
  }

  // fk[i] = row of `dim` whose `dim_key` equals row i's `fact_key`.
  static Status KeyVector(const Table& fact, const std::string& fact_key,
                          const Table& dim, const std::string& dim_key,
                          std::vector<uint32_t>* fk) {
    DMML_ASSIGN_OR_RETURN(const dmml::storage::Column* dk, dim.ColumnByName(dim_key));
    DMML_ASSIGN_OR_RETURN(const dmml::storage::Column* fcol,
                          fact.ColumnByName(fact_key));
    std::unordered_map<int64_t, uint32_t> rows;
    for (size_t i = 0; i < dim.num_rows(); ++i) {
      rows.emplace(dk->GetInt64(i), static_cast<uint32_t>(i));
    }
    fk->resize(fact.num_rows());
    for (size_t i = 0; i < fact.num_rows(); ++i) {
      auto it = rows.find(fcol->GetInt64(i));
      if (it == rows.end()) return Status::Internal("dangling key in " + fact_key);
      (*fk)[i] = it->second;
    }
    return Status::OK();
  }

  WorkloadContext ctx_;
  size_t orders_, products_, stores_;
  std::vector<std::string> order_features_, product_features_, store_features_;
  ml::GlmConfig config_;
  std::unique_ptr<Catalog> catalog_;
  std::vector<double> reference_;
};

// ---------------------------------------------------------------------------
// star_refresh: a new orders version per op, ⋈ products with a categorical
// column, k-means over the one-hot CSR assembly (materialized route).
// ---------------------------------------------------------------------------

class StarRefresh : public Workload {
 public:
  explicit StarRefresh(const WorkloadContext& ctx)
      : ctx_(ctx),
        orders_(ctx.tiny ? 3000 : 12500),
        products_(ctx.tiny ? 300 : 1250),
        categories_(ctx.tiny ? 20 : 400),
        order_features_(Names("xs", kOrderFeatures)),
        product_features_(Names("xp", 12)) {
    config_.k = 16;
    config_.max_iters = 10;
    config_.tolerance = 0;  // Fixed work per op.
  }

  Status Prologue() override {
    Gen g(SubSeed(ctx_.seed, 2));
    const la::DenseMatrix p = NormalMatrix(products_, product_features_.size(), &g);
    std::vector<std::string> category(products_);
    for (std::string& c : category) c = "c" + std::to_string(g.Below(categories_));
    return WriteDimension(ctx_.workdir + "/products.csv", "pid", product_features_,
                          p, &category, "category");
  }

  // Writes the orders version op `op` ingests; no earlier op has seen it.
  Status PrepareOp(size_t op) override {
    if (op > 0) std::remove(VersionPath(op - 1).c_str());
    Gen g(SubSeed(ctx_.seed, 1000 + op));
    size_t kept = 0;
    DMML_RETURN_IF_ERROR(WriteCsv(
        VersionPath(op), Concat({"oid", "pfk"}, order_features_), orders_,
        [&](size_t i, std::string* line) {
          AppendCell(line, static_cast<int64_t>(i));
          AppendCell(line, static_cast<int64_t>(g.Below(products_)));
          for (size_t j = 0; j < kOrderFeatures; ++j) {
            const double x = g.Normal();
            if (j == 0 && x > kFilterCut) ++kept;
            AppendCell(line, x);
          }
        }));
    expected_rows_ = kept;
    return Status::OK();
  }

  Status Setup(Values* values) override {
    catalog_.reset();
    catalog_ = std::make_unique<Catalog>();
    size_t rows = 0;
    const uint64_t t0 = NowNs();
    DMML_RETURN_IF_ERROR(Ingest(catalog_.get(), "products",
                                ctx_.workdir + "/products.csv", ProductSchema(),
                                &rows));
    const double s = SecondsSince(t0);
    (*values)["storage.ingest_s"] = s;
    (*values)["storage.ingest_rows_per_s"] = static_cast<double>(rows) / s;
    return Status::OK();
  }

  Result<OpOutput> RunOp(size_t op) override {
    size_t rows = 0;
    DMML_RETURN_IF_ERROR(
        Ingest(catalog_.get(), "orders", VersionPath(op), OrderSchema(), &rows));
    DMML_ASSIGN_OR_RETURN(pl::KMeansFit fit,
                          MakePipeline(catalog_.get()).TrainKMeans(config_, ctx_.pool));
    return Output(fit.model, fit.report.actual_rows,
                  pl::RouteName(fit.report.chosen_route));
  }

  // The calls the materialized CSR route makes inside Pipeline::TrainKMeans;
  // the one-hot features leave the pipeline no other route.
  Result<OpOutput> ReplayOp(size_t op, const OpOutput& /*plain*/,
                            SpanRecorder* spans, Values* values) override {
    size_t rows = 0;
    {
      ScopedSpan s(spans, "storage.ingest");
      DMML_RETURN_IF_ERROR(
          Ingest(catalog_.get(), "orders", VersionPath(op), OrderSchema(), &rows));
    }
    (*values)["storage.ingest_rows_per_s"] =
        static_cast<double>(rows) / spans->Seconds(op, "storage.ingest");
    const Catalog& catalog = *catalog_;
    const pl::Pipeline pipeline = MakePipeline(&catalog);
    rel::StatisticsCache stats(&catalog);
    {
      ScopedSpan s(spans, "relational.stats");
      DMML_RETURN_IF_ERROR(
          rel::EstimateCardinality(*pipeline.plan(), &stats).status());
    }
    Result<Table> joined_r = Status::Internal("unset");
    {
      ScopedSpan s(spans, "relational.exec");
      joined_r = rel::ExecutePlan(*pipeline.plan(), catalog, &stats);
    }
    DMML_ASSIGN_OR_RETURN(Table joined, std::move(joined_r));
    Result<ml::AssembledFeatures> assembled_r = Status::Internal("unset");
    {
      ScopedSpan s(spans, "ml.assemble");
      assembled_r = ml::AssembleFeaturesCsr(joined, NumericFeatures(), {"category"});
    }
    DMML_ASSIGN_OR_RETURN(ml::AssembledFeatures assembled, std::move(assembled_r));
    (*values)["ml.assemble_nnz"] = static_cast<double>(assembled.matrix.nnz());
    const dmml::laopt::Operand x(
        std::make_shared<const la::SparseMatrix>(std::move(assembled.matrix)));
    dmml::laopt::PlanProfile profile;
    Result<ml::KMeansModel> model_r = Status::Internal("unset");
    {
      ScopedSpan s(spans, "ml.train");
      model_r = ml::TrainKMeansOnOperand(x, config_, ctx_.pool, &profile);
    }
    DMML_ASSIGN_OR_RETURN(ml::KMeansModel model, std::move(model_r));
    AddTrainerValues(profile, spans->Seconds(op, "ml.train"), values);
    return Output(model, x.rows(), pl::RouteName(pl::Route::kMaterialize));
  }

  bool ThroughPipeline() const override { return true; }

  Status CheckOp(size_t op, const OpOutput& out) override {
    DMML_RETURN_IF_ERROR(CheckIterations(out, config_.max_iters));
    if (out.labels.size() != expected_rows_) {
      return Status::Internal("assigned " + std::to_string(out.labels.size()) +
                              " rows, join has " + std::to_string(expected_rows_));
    }
    for (int label : out.labels) {
      if (label < 0 || static_cast<size_t>(label) >= config_.k) {
        return Status::Internal("row assigned to no cluster");
      }
    }
    for (size_t t = 0; t < out.history.size(); ++t) {
      if (!std::isfinite(out.history[t])) return Status::Internal("inertia not finite");
      // Lloyd's inertia never increases; the slack covers rounding in the
      // expanded-distance form.
      if (t > 0 && out.history[t] > out.history[t - 1] * (1 + 1e-9)) {
        return Status::Internal("inertia increased at iteration " + std::to_string(t));
      }
    }
    if (op % kReferenceEvery != 0) return Status::OK();

    // Dense-binding reference over the same joined rows.
    rel::StatisticsCache stats(catalog_.get());
    DMML_ASSIGN_OR_RETURN(
        Table joined,
        rel::ExecutePlan(*MakePipeline(catalog_.get()).plan(), *catalog_, &stats));
    DMML_ASSIGN_OR_RETURN(ml::AssembledFeatures assembled,
                          ml::AssembleFeaturesCsr(joined, NumericFeatures(), {"category"}));
    const la::DenseMatrix dense = assembled.matrix.ToDense();
    DMML_ASSIGN_OR_RETURN(
        ml::KMeansModel ref,
        ml::TrainKMeansOnOperand(ml::BorrowOperand(dense), config_, ctx_.pool));
    if (ref.labels != out.labels) {
      return Status::Internal("assignment differs from the dense reference");
    }
    return CheckModel(out, Output(ref, dense.rows(), "").model, 1e-9,
                      "dense-binding reference");
  }

 private:
  // Every kReferenceEvery-th op is also compared with a dense-binding run.
  static constexpr size_t kReferenceEvery = 8;

  std::string VersionPath(size_t op) const {
    return ctx_.workdir + "/orders_v" + std::to_string(op) + ".csv";
  }
  Schema OrderSchema() const { return MakeSchema({"oid", "pfk"}, order_features_); }
  Schema ProductSchema() const {
    return MakeSchema({"pid"}, product_features_, {"category"});
  }
  std::vector<std::string> NumericFeatures() const {
    return Concat(order_features_, product_features_);
  }

  pl::Pipeline MakePipeline(const Catalog* catalog) const {
    pl::Pipeline p = pl::Pipeline::From(catalog, "orders");
    p.Filter(rel::Compare("xs0", rel::CompareOp::kGt, kFilterCut))
        .Join("products", "pfk", "pid")
        .Features(NumericFeatures())
        .CategoricalFeatures({"category"});
    return p;
  }

  static OpOutput Output(const ml::KMeansModel& m, size_t rows, std::string route) {
    OpOutput out;
    out.model.assign(m.centers.data(), m.centers.data() + m.centers.size());
    out.iterations = m.iters_run;
    out.work = static_cast<double>(rows * m.iters_run);
    out.route = std::move(route);
    out.history = m.inertia_history;
    out.labels = m.labels;
    return out;
  }

  WorkloadContext ctx_;
  size_t orders_, products_, categories_;
  std::vector<std::string> order_features_, product_features_;
  ml::KMeansConfig config_;
  std::unique_ptr<Catalog> catalog_;
  size_t expected_rows_ = 0;  ///< Orders of the current version that pass the filter.
};

}  // namespace

std::unique_ptr<Workload> MakeStarFactorized(const WorkloadContext& ctx) {
  return std::make_unique<StarFactorized>(ctx);
}

std::unique_ptr<Workload> MakeStarRefresh(const WorkloadContext& ctx) {
  return std::make_unique<StarRefresh>(ctx);
}

}  // namespace dmbench
