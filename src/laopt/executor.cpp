#include "laopt/executor.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "la/kernels.h"
#include "laopt/analysis.h"
#include "laopt/profile.h"
#include "laopt/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmml::laopt {

using la::DenseMatrix;
using la::SparseMatrix;

namespace {

constexpr size_t kNumOpKinds = static_cast<size_t>(OpKind::kFused) + 1;

// Per-op-kind instruments, resolved once. The names double as span labels so
// metrics and trace rows line up (e.g. counter laopt.executor.ops.matmul and
// span "laopt.op.matmul").
struct OpInstruments {
  std::array<obs::Counter*, kNumOpKinds> count;
  std::array<obs::Counter*, kNumOpKinds> micros;
  // Span names must outlive the trace rings; the instance below is immortal
  // (leaked but always reachable, so LeakSanitizer stays quiet).
  std::array<std::string, kNumOpKinds> span_name;

  static const OpInstruments& Get() {
    static const OpInstruments* instruments = [] {
      auto* out = new OpInstruments();
      auto& reg = obs::MetricsRegistry::Global();
      for (size_t k = 0; k < kNumOpKinds; ++k) {
        const char* name = OpKindName(static_cast<OpKind>(k));
        out->count[k] = reg.GetCounter(std::string("laopt.executor.ops.") + name);
        out->micros[k] =
            reg.GetCounter(std::string("laopt.executor.op_us.") + name);
        out->span_name[k] = std::string("laopt.op.") + name;
      }
      return out;
    }();
    return *instruments;
  }
};

// Inter-node scheduler instruments.
struct SchedInstruments {
  obs::Counter* runs;              ///< Inter-node Run()s started.
  obs::Counter* nodes_launched;    ///< Dataflow tasks submitted to the pool.
  obs::Counter* pool_shared_runs;  ///< Inter-node runs on GlobalThreadPool().
  obs::Counter* buffer_conflicts;  ///< Failed pool-buffer write claims (== 0).
  obs::Gauge* max_ready_width;     ///< Peak in-flight tasks of any run so far.
  obs::Histogram* ready_width;     ///< In-flight width sampled at each launch.

  static const SchedInstruments& Get() {
    static const SchedInstruments inst = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return SchedInstruments{
          reg.GetCounter("laopt.sched.runs"),
          reg.GetCounter("laopt.sched.nodes_launched"),
          reg.GetCounter("laopt.sched.pool_shared_runs"),
          reg.GetCounter("laopt.sched.buffer_conflicts"),
          reg.GetGauge("laopt.sched.max_ready_width"),
          reg.GetHistogram("laopt.sched.ready_width",
                           obs::ExponentialBuckets(1, 2, 8)),
      };
    }();
    return inst;
  }
};

// Nonzeros actually materialized in a dense buffer — the ground truth the
// analyzer's sparsity estimate is calibrated against.
uint64_t CountDenseNnz(const DenseMatrix& m) {
  uint64_t nnz = 0;
  const double* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) nnz += data[i] != 0.0;
  return nnz;
}

// Accumulated-child-time cell for inter-node runs: tasks on pool threads
// each fold their own recursion, so the serial member cell cannot be shared.
thread_local uint64_t t_child_us = 0;  // NOLINT(misc-use-internal-linkage)

// Nodes the serial executor may absorb into a consumer's fused kernel
// instead of executing: the transpose operand of a matmul (t(U)·V, t(U)·U,
// U·t(V)) and the G⊙G under rowSums. These get no dataflow task of their
// own — whichever consumer needs the materialized value evaluates them
// inline, exactly as the serial repr-dependent fall-through does.
void AddAbsorbable(const ExprNode* n,
                   std::unordered_set<const ExprNode*>* absorbable) {
  if (n->kind() == OpKind::kMatMul && n->children().size() == 2) {
    const ExprPtr& lc = n->children()[0];
    const ExprPtr& rc = n->children()[1];
    if (lc && lc->kind() == OpKind::kTranspose && lc->children().size() == 1) {
      absorbable->insert(lc.get());
    } else if (rc && rc->kind() == OpKind::kTranspose &&
               rc->children().size() == 1) {
      absorbable->insert(rc.get());
    }
  }
  if (n->kind() == OpKind::kRowSums && !n->children().empty()) {
    const ExprPtr& c = n->children()[0];
    if (c && c->kind() == OpKind::kElemMul && c->children().size() == 2 &&
        c->children()[0] && c->children()[0].get() == c->children()[1].get()) {
      absorbable->insert(c.get());
    }
  }
}

std::unordered_set<const ExprNode*> AbsorbablePositions(
    const PlanSchedule& schedule) {
  std::unordered_set<const ExprNode*> absorbable;
  for (const ScheduleEntry& e : schedule.order()) {
    AddAbsorbable(e.node, &absorbable);
  }
  return absorbable;
}

}  // namespace

// Which kernel family executed a node — the laopt.repr.* dispatch counters.
void BufferedExecutor::CountDispatch(Slot& slot, Repr repr) {
  slot.last_dispatch = repr;
  switch (repr) {
    case Repr::kDense:
      DMML_COUNTER_INC("laopt.repr.dense_ops");
      break;
    case Repr::kSparse:
      DMML_COUNTER_INC("laopt.repr.sparse_ops");
      break;
    case Repr::kCompressed:
      DMML_COUNTER_INC("laopt.repr.compressed_ops");
      break;
    case Repr::kFactorized:
      DMML_COUNTER_INC("laopt.repr.factorized_ops");
      break;
  }
}

void BufferedExecutor::RecordNodeProfile(const ExprPtr& node, const Slot& slot,
                                         uint64_t incl_us, uint64_t self_us) {
  const Value& v = slot.out;
  size_t rows = 0;
  size_t cols = 0;
  uint64_t nnz = 0;
  switch (v.repr) {
    case Repr::kDense:
      rows = v.d->rows();
      cols = v.d->cols();
      nnz = CountDenseNnz(*v.d);
      break;
    case Repr::kSparse:
      rows = v.s->rows();
      cols = v.s->cols();
      nnz = v.s->nnz();
      break;
    case Repr::kCompressed:
      // Compressed values never carry an exact nnz without decompressing;
      // report dense (the conservative assumption, matching the analyzer).
      rows = v.c->rows();
      cols = v.c->cols();
      nnz = static_cast<uint64_t>(rows) * cols;
      break;
    case Repr::kFactorized:
      // Matrix-free operators expose only their logical shape.
      rows = v.lo->rows();
      cols = v.lo->cols();
      nnz = static_cast<uint64_t>(rows) * cols;
      break;
  }
  profile_->AddNodeSample(node.get(), incl_us, self_us, slot.last_dispatch,
                          v.repr, rows, cols, nnz);
}

uint64_t& BufferedExecutor::child_us_accum() {
  return par_run_ ? t_child_us : prof_child_us_;
}

bool BufferedExecutor::inter_node() const {
  if (inter_node_ >= 0) return inter_node_ != 0;
  static const int env_default = [] {
    const char* e = std::getenv("DMML_INTER_NODE");  // NOLINT(concurrency-mt-unsafe)
    if (e == nullptr || e[0] == '\0') return -1;
    return (e[0] == '0' && e[1] == '\0') ? 0 : 1;
  }();
  if (env_default >= 0) return env_default != 0;
  return true;
}

la::DenseMatrix* BufferedExecutor::BufferFor(const ExprNode* node,
                                             size_t* pool_id) {
  *pool_id = SIZE_MAX;
  if (current_assign_ != nullptr) {
    const auto it = current_assign_->find(node);
    if (it != current_assign_->end()) {
      if (it->second >= pool_buffers_.size()) {
        pool_buffers_.resize(it->second + 1);
      }
      auto& buf = pool_buffers_[it->second];
      if (!buf) {
        buf = std::make_unique<DenseMatrix>();
        DMML_COUNTER_INC("laopt.executor.pool_buffers");
      }
      *pool_id = it->second;
      return buf.get();
    }
  }
  return &dedicated_[node];
}

Status BufferedExecutor::PreparePlan(const ExprPtr& root) {
  if (VerifyEnabled()) {
    // Covers plans that never went through the optimizer pipeline (e.g. the
    // trainers build DAGs directly): a structurally broken plan is rejected
    // here, before any kernel touches a buffer.
    DMML_RETURN_IF_ERROR(DiagnosticsToStatus("executor", VerifyPlan(root)));
  }
  PreparedPlan plan;
  plan.roots = {root};
  const bool want_par = pool_ != nullptr && inter_node();
  if (buffer_sharing_ || want_par) {
    // A schedule failure (e.g. in release builds with the verifier off) is
    // not an execution error — fall back to serial, dedicated buffers.
    Result<PlanSchedule> schedule = ComputeSchedule(root);
    if (schedule.ok()) {
      std::unordered_set<const ExprNode*> absorbable;
      if (want_par) absorbable = AbsorbablePositions(*schedule);
      if (buffer_sharing_) {
        // Linear-scan allocation over [def, last_use] live ranges in schedule
        // order. Expiry is strict (< def): a value read *at* this position is
        // still live, so an operand can never share with its consumer. The
        // root keeps a dedicated buffer (its value outlives the Run), and
        // leaves write no buffers at all.
        //
        // Inter-node plans strengthen the interference test: serial order no
        // longer implies temporal order, so a candidate may take over a
        // retired buffer only when the dependency closure proves it launches
        // after every task that can still read the previous value — "live
        // ranges overlap or the nodes may run concurrently" both veto
        // sharing. Absorbable nodes (executed inside a consumer's window, if
        // at all) keep dedicated buffers under inter-node plans.
        const size_t n = schedule->order().size();
        std::vector<std::vector<size_t>> eff_readers;
        if (want_par) {
          std::vector<std::vector<size_t>> readers(n);
          for (const ScheduleEntry& e : schedule->order()) {
            for (const ExprNode* read : OperandReads(e.node)) {
              const ScheduleEntry* src = schedule->Find(read);
              if (src != nullptr) readers[src->def].push_back(e.def);
            }
          }
          // Task-level readers: an absorbable reader executes inside *its*
          // readers' windows, so it expands (in reverse schedule order, as
          // readers always sit later) to the scheduled tasks above it.
          eff_readers.resize(n);
          for (size_t p = n; p-- > 0;) {
            for (const size_t d : readers[p]) {
              const ExprNode* dn = schedule->order()[d].node;
              if (dn->kind() != OpKind::kInput && absorbable.count(dn) == 0) {
                eff_readers[p].push_back(d);
              } else {
                eff_readers[p].insert(eff_readers[p].end(),
                                      eff_readers[d].begin(),
                                      eff_readers[d].end());
              }
            }
            std::sort(eff_readers[p].begin(), eff_readers[p].end());
            eff_readers[p].erase(
                std::unique(eff_readers[p].begin(), eff_readers[p].end()),
                eff_readers[p].end());
          }
        }
        struct Active {
          size_t last_use;
          size_t id;
          size_t holder;  ///< Schedule position of the buffer's last writer.
        };
        const auto later = [](const Active& a, const Active& b) {
          return a.last_use > b.last_use;  // Min-heap on last_use.
        };
        std::vector<Active> active;
        struct FreeBuf {
          size_t id;
          size_t holder;
        };
        std::vector<FreeBuf> free_bufs;
        for (const ScheduleEntry& e : schedule->order()) {
          if (e.node->kind() == OpKind::kInput) continue;
          if (e.last_use == SIZE_MAX) continue;
          if (want_par && absorbable.count(e.node) != 0) continue;
          while (!active.empty() && active.front().last_use < e.def) {
            free_bufs.push_back({active.front().id, active.front().holder});
            std::pop_heap(active.begin(), active.end(), later);
            active.pop_back();
          }
          size_t id = SIZE_MAX;
          if (!want_par) {
            if (!free_bufs.empty()) {
              id = free_bufs.back().id;
              free_bufs.pop_back();
            }
          } else {
            for (size_t f = 0; f < free_bufs.size(); ++f) {
              const std::vector<size_t>& readers = eff_readers[free_bufs[f].holder];
              const bool ordered = std::all_of(
                  readers.begin(), readers.end(), [&](size_t t) {
                    return t == e.def || schedule->DependsOnPos(e.def, t);
                  });
              if (ordered) {
                id = free_bufs[f].id;
                free_bufs[f] = free_bufs.back();
                free_bufs.pop_back();
                break;
              }
            }
          }
          if (id == SIZE_MAX) {
            id = next_buffer_id_++;
          } else {
            DMML_COUNTER_INC("laopt.executor.buffers_shared");
          }
          plan.assign.emplace(e.node, id);
          active.push_back({e.last_use, id, e.def});
          std::push_heap(active.begin(), active.end(), later);
        }
        DMML_COUNTER_ADD("laopt.executor.pooled_nodes", plan.assign.size());
      }
      if (want_par) {
        plan.par = BuildParallelPlan(root, *schedule, absorbable, plan.assign);
      }
    }
  }
  assignments_.emplace(root.get(), std::move(plan));
  return Status::OK();
}

Result<BufferedExecutor::PreparedPlan> BufferedExecutor::PrepareMultiPlan(
    const std::vector<ExprPtr>& roots) {
  if (VerifyEnabled()) {
    for (const ExprPtr& r : roots) {
      DMML_RETURN_IF_ERROR(DiagnosticsToStatus("executor", VerifyPlan(r)));
    }
  }
  PreparedPlan plan;
  plan.roots = roots;
  if (pool_ != nullptr && inter_node()) {
    // Children-first postorder over the union of roots; shared sub-DAGs
    // (e.g. the bound X leaf every fold branch reads) appear once.
    std::vector<const ExprNode*> order;
    std::unordered_set<const ExprNode*> seen;
    std::function<void(const ExprNode*)> post =
        [&](const ExprNode* n) {  // NOLINT(misc-no-recursion)
          if (n == nullptr || !seen.insert(n).second) return;
          for (const auto& c : n->children()) post(c.get());
          order.push_back(n);
        };
    for (const ExprPtr& r : roots) post(r.get());
    std::unordered_set<const ExprNode*> absorbable;
    for (const ExprNode* n : order) AddAbsorbable(n, &absorbable);
    // A root absorbed into another root's consumer would never publish its
    // own value — roots always get a task.
    for (const ExprPtr& r : roots) absorbable.erase(r.get());
    plan.par = BuildParallelPlanFromOrder(roots, order, absorbable, plan.assign);
  }
  return plan;
}

std::unique_ptr<BufferedExecutor::ParallelPlan>
BufferedExecutor::BuildParallelPlan(
    const ExprPtr& root, const PlanSchedule& schedule,
    const std::unordered_set<const ExprNode*>& absorbable,
    const BufferAssignment& assign) {
  std::vector<const ExprNode*> order;
  order.reserve(schedule.order().size());
  for (const ScheduleEntry& e : schedule.order()) order.push_back(e.node);
  return BuildParallelPlanFromOrder({root}, order, absorbable, assign);
}

std::unique_ptr<BufferedExecutor::ParallelPlan>
BufferedExecutor::BuildParallelPlanFromOrder(
    const std::vector<ExprPtr>& roots,
    const std::vector<const ExprNode*>& order,
    const std::unordered_set<const ExprNode*>& absorbable,
    const BufferAssignment& assign) {
  auto par = std::make_unique<ParallelPlan>();

  // Shared-pointer handles for every plan node: tasks outlive the caller's
  // root references, and Eval takes ExprPtr.
  std::unordered_map<const ExprNode*, ExprPtr> ptrs;
  std::function<void(const ExprPtr&)> collect =
      [&](const ExprPtr& n) {  // NOLINT(misc-no-recursion)
        if (!n || !ptrs.emplace(n.get(), n).second) return;
        for (const auto& c : n->children()) collect(c);
      };
  for (const ExprPtr& r : roots) collect(r);

  std::unordered_map<const ExprNode*, uint32_t> task_index;
  for (const ExprNode* node : order) {
    Slot& slot = slots_[node];  // Pre-create: no rehash during the run.
    par->all_slots.push_back(&slot);
    if (node->kind() == OpKind::kInput) {
      par->leaves.emplace_back(ptrs.at(node), &slot);
      continue;
    }
    // Pre-create the dedicated entry for every node the pool did not cover
    // (including absorbable ones — a repr fall-through may execute them), so
    // BufferFor never mutates the map from a task thread.
    if (assign.count(node) == 0) dedicated_[node];
    if (absorbable.count(node) != 0) continue;
    task_index.emplace(node, static_cast<uint32_t>(par->tasks.size()));
    ParallelTask task;
    task.node = ptrs.at(node);
    task.slot = &slot;
    par->tasks.push_back(std::move(task));
  }
  par->root_slot = &slots_[roots.front().get()];
  par->root_slots.reserve(roots.size());
  for (const ExprPtr& r : roots) par->root_slots.push_back(&slots_[r.get()]);

  // Task-level dependencies: every read resolves to the task producing it —
  // leaves are prefilled (no dependency), absorbable reads dissolve into
  // their own reads (the consumer evaluates them inline, so it must wait for
  // their operands, not for them).
  par->deps_remaining =
      std::make_unique<std::atomic<uint32_t>[]>(par->tasks.size());
  for (uint32_t i = 0; i < par->tasks.size(); ++i) {
    std::set<uint32_t> deps;
    std::function<void(const ExprNode*)> add =
        [&](const ExprNode* r) {  // NOLINT(misc-no-recursion)
          if (r == nullptr || r->kind() == OpKind::kInput) return;
          const auto it = task_index.find(r);
          if (it != task_index.end()) {
            if (it->second != i) deps.insert(it->second);
            return;
          }
          for (const ExprNode* rr : OperandReads(r)) add(rr);
        };
    for (const ExprNode* r : OperandReads(par->tasks[i].node.get())) add(r);
    par->tasks[i].num_deps = static_cast<uint32_t>(deps.size());
    for (const uint32_t d : deps) par->tasks[d].consumers.push_back(i);
  }

  // Pre-size shared-buffer storage so task threads never grow containers.
  if (pool_buffers_.size() < next_buffer_id_) {
    pool_buffers_.resize(next_buffer_id_);
  }
  if (pool_writer_size_ < next_buffer_id_) {
    auto grown =
        std::make_unique<std::atomic<const ExprNode*>[]>(next_buffer_id_);
    for (size_t i = 0; i < next_buffer_id_; ++i) {
      grown[i].store(nullptr, std::memory_order_relaxed);
    }
    pool_writer_ = std::move(grown);
    pool_writer_size_ = next_buffer_id_;
  }
  return par;
}

Result<const DenseMatrix*> BufferedExecutor::Run(const ExprPtr& root,
                                                 ExecStats* stats) {
  if (!root) return Status::InvalidArgument("Execute: null expression");
  DMML_TRACE_SPAN("laopt.execute");
  auto prepared = assignments_.find(root.get());
  if (prepared == assignments_.end()) {
    DMML_RETURN_IF_ERROR(PreparePlan(root));
    prepared = assignments_.find(root.get());
  }
  PreparedPlan& plan = prepared->second;
  current_assign_ = &plan.assign;
  ++epoch_;
  run_tally_.Reset();
  if (profile_ != nullptr) {
    profile_->BeginRun(root);
    prof_child_us_ = 0;
  }
  // The tally folds into caller stats and the profile on every exit path: a
  // failed Eval/Densify still executed real ops, and BeginRun has already
  // recorded the root, so skipping EndRun on error would leave runs() and
  // the totals inconsistent with the per-node samples.
  struct RunFinalizer {
    BufferedExecutor* ex;
    ExecStats* stats;
    ~RunFinalizer() {
      const ExecStats run = ex->run_tally_.Snapshot();
      if (stats != nullptr) {
        stats->ops_executed += run.ops_executed;
        stats->memo_hits += run.memo_hits;
        stats->densify_fallbacks += run.densify_fallbacks;
      }
      if (ex->profile_ != nullptr) ex->profile_->EndRun(run);
    }
  } finalizer{this, stats};
  Value out;
  if (plan.par != nullptr && pool_ != nullptr && plan.par->tasks.size() > 1) {
    DMML_ASSIGN_OR_RETURN(out, RunInterNode(root, *plan.par));
  } else {
    DMML_ASSIGN_OR_RETURN(out, Eval(root));
  }
  // Callers receive dense results; a non-dense root (e.g. a bare sparse
  // leaf, or a transpose of one) is densified into executor storage.
  DMML_ASSIGN_OR_RETURN(const DenseMatrix* dense, Densify(root, out));
  return dense;
}

Result<std::vector<const DenseMatrix*>> BufferedExecutor::RunMany(
    const std::vector<ExprPtr>& roots, ExecStats* stats) {
  if (roots.empty()) return std::vector<const DenseMatrix*>{};
  if (roots.size() == 1) {
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* out, Run(roots[0], stats));
    return std::vector<const DenseMatrix*>{out};
  }
  for (const ExprPtr& r : roots) {
    if (!r) return Status::InvalidArgument("RunMany: null expression");
  }
  DMML_TRACE_SPAN("laopt.execute_many");
  // The profiler's run model is per-root; suspend it for the fused run
  // rather than mis-attributing every node to roots[0].
  PlanProfile* saved_profile = profile_;
  profile_ = nullptr;
  struct ProfileRestore {
    BufferedExecutor* ex;
    PlanProfile* saved;
    ~ProfileRestore() { ex->profile_ = saved; }
  } restore{this, saved_profile};

  std::vector<const ExprNode*> key;
  key.reserve(roots.size());
  for (const ExprPtr& r : roots) key.push_back(r.get());
  auto prepared = multi_plans_.find(key);
  if (prepared == multi_plans_.end()) {
    DMML_ASSIGN_OR_RETURN(PreparedPlan plan, PrepareMultiPlan(roots));
    prepared = multi_plans_.emplace(std::move(key), std::move(plan)).first;
  }
  PreparedPlan& plan = prepared->second;
  current_assign_ = &plan.assign;
  ++epoch_;
  run_tally_.Reset();
  struct RunFinalizer {
    BufferedExecutor* ex;
    ExecStats* stats;
    ~RunFinalizer() {
      if (stats != nullptr) {
        const ExecStats run = ex->run_tally_.Snapshot();
        stats->ops_executed += run.ops_executed;
        stats->memo_hits += run.memo_hits;
        stats->densify_fallbacks += run.densify_fallbacks;
      }
    }
  } finalizer{this, stats};

  std::vector<const DenseMatrix*> outs;
  outs.reserve(roots.size());
  if (plan.par != nullptr && pool_ != nullptr && plan.par->tasks.size() > 1) {
    DMML_RETURN_IF_ERROR(DriveInterNode(*plan.par));
    for (size_t i = 0; i < roots.size(); ++i) {
      DMML_ASSIGN_OR_RETURN(const DenseMatrix* d,
                            Densify(roots[i], plan.par->root_slots[i]->out));
      outs.push_back(d);
    }
    return outs;
  }
  // Serial fallback: every root under ONE memo epoch, so shared sub-DAGs
  // still evaluate once across roots.
  for (const ExprPtr& r : roots) {
    DMML_ASSIGN_OR_RETURN(Value v, Eval(r));
    DMML_ASSIGN_OR_RETURN(const DenseMatrix* d, Densify(r, v));
    outs.push_back(d);
  }
  return outs;
}

Result<BufferedExecutor::Value> BufferedExecutor::RunInterNode(
    const ExprPtr& /*root*/, ParallelPlan& par) {
  DMML_RETURN_IF_ERROR(DriveInterNode(par));
  return par.root_slot->out;
}

Status BufferedExecutor::DriveInterNode(ParallelPlan& par) {
  // Per-run resets happen on the driving thread, before any task exists;
  // the task launches below publish them.
  for (Slot* s : par.all_slots) {
    s->exec_state.store(0, std::memory_order_relaxed);
    s->aux_state.store(0, std::memory_order_relaxed);
    s->first_pending.store(false, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < par.tasks.size(); ++i) {
    par.deps_remaining[i].store(par.tasks[i].num_deps,
                                std::memory_order_relaxed);
  }
  // Prefill every leaf (the serial kInput path, hoisted): bind errors
  // surface here, before any task launches.
  for (auto& [leaf, slot] : par.leaves) {
    DMML_ASSIGN_OR_RETURN(slot->out, LeafValue(leaf));
    slot->first_pending.store(true, std::memory_order_relaxed);
    slot->epoch.store(epoch_, std::memory_order_release);
  }
  run_failed_.store(false, std::memory_order_relaxed);
  first_error_ = Status::OK();
  sched_inflight_.store(0, std::memory_order_relaxed);
  sched_run_max_.store(0, std::memory_order_relaxed);

  const SchedInstruments& si = SchedInstruments::Get();
  si.runs->Add(1);
  if (pool_ == GlobalThreadPool()) si.pool_shared_runs->Add(1);

  WaitGroup wg;
  // Reset on every exit path: Wait rethrows the first exception a task body
  // raised (after the group has fully drained), and stale par-run state
  // would corrupt the next — serial — Run.
  struct ParRunGuard {
    BufferedExecutor* ex;
    ~ParRunGuard() {
      ex->par_run_ = false;
      ex->run_wg_ = nullptr;
    }
  } par_guard{this};
  run_wg_ = &wg;
  par_run_ = true;
  for (uint32_t i = 0; i < par.tasks.size(); ++i) {
    if (par.tasks[i].num_deps == 0) LaunchTask(par, i);
  }
  pool_->Wait(wg);

  // CAS-max: concurrent executors sharing GlobalThreadPool() finish runs
  // concurrently, and a read-then-set pair here could move the peak
  // backwards.
  si.max_ready_width->SetMax(
      static_cast<double>(sched_run_max_.load(std::memory_order_relaxed)));

  if (run_failed_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(err_mu_);
    return first_error_;
  }
  return Status::OK();
}

void BufferedExecutor::LaunchTask(ParallelPlan& par, uint32_t idx) {
  const SchedInstruments& si = SchedInstruments::Get();
  si.nodes_launched->Add(1);
  const uint32_t width =
      sched_inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint32_t cur = sched_run_max_.load(std::memory_order_relaxed);
  while (width > cur && !sched_run_max_.compare_exchange_weak(
                            cur, width, std::memory_order_relaxed)) {
  }
  si.ready_width->Observe(static_cast<double>(width));
  pool_->Submit(*run_wg_, [this, &par, idx] { RunTaskBody(par, idx); });
}

void BufferedExecutor::RunTaskBody(ParallelPlan& par, uint32_t idx) {
  ParallelTask& task = par.tasks[idx];
  if (!run_failed_.load(std::memory_order_acquire)) {
    const bool profiled = profile_ != nullptr;
    uint64_t saved_child_us = 0;
    uint64_t start_us = 0;
    if (profiled) {
      saved_child_us = t_child_us;
      t_child_us = 0;
      start_us = obs::NowMicros();
    }
    const Result<Value> r = Eval(task.node);
    if (profiled) {
      // A cooperatively-run task is child time from the viewpoint of
      // whatever profiled evaluation this thread was blocked in.
      t_child_us = saved_child_us + (obs::NowMicros() - start_us);
    }
    if (r.ok()) {
      // The serial executor's first consumer call is the one that executes
      // the node; here the task did, so the first post-completion read must
      // stay uncounted (see Slot::first_pending).
      task.slot->first_pending.store(true, std::memory_order_release);
    } else {
      std::lock_guard<std::mutex> lock(err_mu_);
      if (!run_failed_.load(std::memory_order_relaxed)) {
        first_error_ = r.status();
        run_failed_.store(true, std::memory_order_release);
      }
    }
  }
  sched_inflight_.fetch_sub(1, std::memory_order_relaxed);
  // Even after a failure the counters must drain so every consumer launches
  // (as a no-op) and the run's WaitGroup completes.
  for (const uint32_t c : task.consumers) {
    if (par.deps_remaining[c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      LaunchTask(par, c);
    }
  }
}

Status BufferedExecutor::Bind(const ExprPtr& leaf, Operand operand) {
  if (!leaf || leaf->kind() != OpKind::kInput) {
    return Status::InvalidArgument("Bind: not an input leaf");
  }
  if (!operand.bound()) return Status::InvalidArgument("Bind: unbound operand");
  const bool rows_ok = leaf->rows() == ExprNode::kUnknownDim ||
                       leaf->rows() == operand.rows();
  const bool cols_ok = leaf->cols() == ExprNode::kUnknownDim ||
                       leaf->cols() == operand.cols();
  if (!rows_ok || !cols_ok) {
    return Status::InvalidArgument(
        "Bind: operand shape " + std::to_string(operand.rows()) + "x" +
        std::to_string(operand.cols()) + " contradicts leaf '" +
        (leaf->name().empty() ? std::string("_") : leaf->name()) + "'");
  }
  binds_[leaf.get()] = std::move(operand);
  return Status::OK();
}

Result<const DenseMatrix*> BufferedExecutor::Densify(const ExprPtr& owner,
                                                     const Value& v) {
  if (v.repr == Repr::kDense && !v.windowed) return v.d;
  Slot& slot = slots_[owner.get()];
  const void* src = v.repr == Repr::kDense        ? static_cast<const void*>(v.d)
                    : v.repr == Repr::kSparse     ? static_cast<const void*>(v.s)
                    : v.repr == Repr::kFactorized ? static_cast<const void*>(v.lo)
                                                  : static_cast<const void*>(v.c);
  PoolClaimScope steal_guard;
  if (par_run_) {
    // Claim the fill so concurrent consumers get one fully-published copy
    // (and one fallback count). Losing claimants spin-yield, never stealing
    // pool tasks — see AwaitConcurrentEval.
    for (;;) {
      if (slot.aux_state.load(std::memory_order_acquire) == 2) {
        return &slot.aux;
      }
      uint8_t expected = 0;
      if (slot.aux_state.compare_exchange_weak(expected, 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        break;
      }
      std::this_thread::yield();
    }
    // The fill below may fan out on the pool (Decompress morsels); while
    // this claim is held its cooperative waits must not steal sibling node
    // tasks, which could spin on this very fill (see PoolClaimScope).
    steal_guard.Acquire();
  }
  // Publishes the claim's outcome on every exit path: valid on commit, back
  // to unchecked if the fill threw (a chunk exception rethrown by the
  // cooperative wait), so a spinning consumer retries instead of hanging.
  struct AuxClaim {
    Slot* slot = nullptr;
    bool committed = false;
    ~AuxClaim() {
      if (slot != nullptr) {
        slot->aux_state.store(committed ? 2 : 0, std::memory_order_release);
      }
    }
  } aux_claim;
  if (par_run_) aux_claim.slot = &slot;
  // One densified copy per node per run, shared by all consumers. The buffer
  // itself persists across runs; only the fill is repeated (leaf payloads
  // may be mutated in place between runs).
  if (slot.aux_epoch != epoch_ || slot.aux_src != src) {
    run_tally_.densify_fallbacks.fetch_add(1, std::memory_order_relaxed);
    DMML_COUNTER_INC("laopt.repr.densify_fallbacks");
    if (profile_ != nullptr) profile_->AddDensify(owner.get());
    if (v.windowed) {
      // Materialize only the window, window-relative. (The hot paths —
      // ranged matmuls — never come through here; this covers reductions
      // and elementwise consumers of a windowed leaf.)
      const size_t range = v.win_end - v.win_begin;
      switch (v.repr) {
        case Repr::kDense:
          slot.aux.Reshape(range, v.d->cols());
          std::copy(v.d->Row(v.win_begin), v.d->Row(v.win_begin) + range * v.d->cols(),
                    slot.aux.data());
          break;
        case Repr::kSparse:
          slot.aux.Reshape(range, v.s->cols());
          slot.aux.Fill(0.0);
          for (size_t r = v.win_begin; r < v.win_end; ++r) {
            for (size_t k = v.s->RowBegin(r); k < v.s->RowEnd(r); ++k) {
              slot.aux.At(r - v.win_begin, v.s->col_idx()[k]) = v.s->values()[k];
            }
          }
          break;
        case Repr::kCompressed:
          DMML_RETURN_IF_ERROR(
              v.c->DecompressRangeInto(v.win_begin, v.win_end, &slot.aux, pool_));
          break;
        case Repr::kFactorized:
          slot.aux = v.lo->Materialize(v.win_begin, v.win_end, pool_);
          break;
      }
    } else if (v.repr == Repr::kSparse) {
      slot.aux.Reshape(v.s->rows(), v.s->cols());
      slot.aux.Fill(0.0);
      for (size_t r = 0; r < v.s->rows(); ++r) {
        for (size_t k = v.s->RowBegin(r); k < v.s->RowEnd(r); ++k) {
          slot.aux.At(r, v.s->col_idx()[k]) = v.s->values()[k];
        }
      }
    } else if (v.repr == Repr::kFactorized) {
      slot.aux = v.lo->Materialize(0, v.lo->rows(), pool_);
    } else {
      slot.aux = v.c->Decompress(pool_);
    }
    slot.aux_src = src;
    slot.aux_epoch = epoch_;
  }
  aux_claim.committed = true;
  return &slot.aux;
}

// Matmul is where representation dispatch earns its keep: beyond picking the
// kernel family from the operand representations, the transpose patterns
// t(U)·V, t(U)·U and U·t(V) are recognized structurally and routed to fused
// kernels that never materialize the transpose (SystemML-style physical
// operator selection).
Result<BufferedExecutor::Value> BufferedExecutor::EvalMatMul(
    const ExprPtr& node, Slot& slot) {
  const ExprPtr& lc = node->children()[0];
  const ExprPtr& rc = node->children()[1];

  if (lc->kind() == OpKind::kTranspose) {
    const ExprPtr& u = lc->children()[0];
    DMML_ASSIGN_OR_RETURN(Value uv, Eval(u));
    if (rc.get() == u.get()) {
      // t(U) %*% U — the binding's own Gram over U's window (every row when
      // U is not sliced): the dense SYRK, the CSR row-pair products, CLA's
      // blockwise decompress + SYRK, or the factorized cofactor blocks. No
      // binding densifies U.
      if (profile_ != nullptr) profile_->AddFusedUse(lc.get());
      switch (uv.repr) {
        case Repr::kDense:
          la::GramRangeInto(*uv.d, uv.windowed ? uv.win_begin : 0,
                            uv.windowed ? uv.win_end : uv.d->rows(), slot.buf,
                            pool_);
          break;
        case Repr::kSparse:
          la::SparseGramRangeInto(*uv.s, uv.windowed ? uv.win_begin : 0,
                                  uv.windowed ? uv.win_end : uv.s->rows(),
                                  slot.buf, pool_);
          break;
        case Repr::kCompressed:
          DMML_RETURN_IF_ERROR(
              uv.c->GramRangeInto(uv.win_begin, uv.win_end, slot.buf, pool_));
          break;
        case Repr::kFactorized:
          DMML_ASSIGN_OR_RETURN(*slot.buf,
                                uv.lo->Gram(uv.win_begin, uv.win_end, pool_));
          break;
      }
      CountDispatch(slot, uv.repr);
      return Value{Repr::kDense, slot.buf, nullptr, nullptr};
    }
    if (uv.repr == Repr::kDense) {
      DMML_ASSIGN_OR_RETURN(Value vv, Eval(rc));
      DMML_ASSIGN_OR_RETURN(const DenseMatrix* vd, Densify(rc, vv));
      if (profile_ != nullptr) profile_->AddFusedUse(lc.get());
      if (uv.windowed) {
        // t(X[b:e)) %*% M with a window-relative M: the ranged fused kernel
        // reads X rows in place — the fold-training gradient path.
        la::TransposeMultiplyRangeInto(*uv.d, uv.win_begin, uv.win_end, *vd,
                                       slot.buf, pool_);
      } else {
        la::TransposeMultiplyInto(*uv.d, *vd, slot.buf, pool_);
      }
      CountDispatch(slot, Repr::kDense);
      return Value{Repr::kDense, slot.buf, nullptr, nullptr};
    }
    if (uv.repr == Repr::kCompressed) {
      // t(X[b:e)) %*% M, any k: the ranged group kernels seek into the
      // window positionally (a compressed value is always a leaf, whose
      // window spans every row when it is not sliced).
      DMML_ASSIGN_OR_RETURN(Value vv, Eval(rc));
      DMML_ASSIGN_OR_RETURN(const DenseMatrix* vd, Densify(rc, vv));
      if (profile_ != nullptr) profile_->AddFusedUse(lc.get());
      DMML_RETURN_IF_ERROR(uv.c->TransposeMultiplyMatrixRangeInto(
          *vd, uv.win_begin, uv.win_end, slot.buf, pool_));
      CountDispatch(slot, Repr::kCompressed);
      return Value{Repr::kDense, slot.buf, nullptr, nullptr};
    }
    if (uv.repr == Repr::kFactorized) {
      // t(T[b:e)) %*% M: factorized RMM over the window's fact rows — rows
      // of M group-accumulate through the join keys before touching the
      // attribute tables (a factorized value is always a leaf).
      DMML_ASSIGN_OR_RETURN(Value vv, Eval(rc));
      DMML_ASSIGN_OR_RETURN(const DenseMatrix* vd, Densify(rc, vv));
      if (profile_ != nullptr) profile_->AddFusedUse(lc.get());
      DMML_ASSIGN_OR_RETURN(*slot.buf, uv.lo->TransposeMultiply(
                                           *vd, uv.win_begin, uv.win_end, pool_));
      CountDispatch(slot, Repr::kFactorized);
      return Value{Repr::kDense, slot.buf, nullptr, nullptr};
    }
    if (uv.repr == Repr::kSparse) {
      // t(S[b:e)) %*% M, any k: the ranged CSR reduction scatters each row
      // of S against its row of M — no materialized transpose. An unsliced
      // S is its own [0, rows) window.
      DMML_ASSIGN_OR_RETURN(Value vv, Eval(rc));
      DMML_ASSIGN_OR_RETURN(const DenseMatrix* vd, Densify(rc, vv));
      if (profile_ != nullptr) profile_->AddFusedUse(lc.get());
      la::SparseTransposeMultiplyRangeInto(
          *uv.s, uv.windowed ? uv.win_begin : 0,
          uv.windowed ? uv.win_end : uv.s->rows(), *vd, slot.buf, pool_);
      CountDispatch(slot, Repr::kSparse);
      return Value{Repr::kDense, slot.buf, nullptr, nullptr};
    }
  } else if (rc->kind() == OpKind::kTranspose) {
    DMML_ASSIGN_OR_RETURN(Value av, Eval(lc));
    DMML_ASSIGN_OR_RETURN(Value bv, Eval(rc->children()[0]));
    if (av.repr == Repr::kDense && bv.repr == Repr::kDense && !av.windowed &&
        !bv.windowed) {
      if (profile_ != nullptr) profile_->AddFusedUse(rc.get());
      la::MultiplyTransposeBInto(*av.d, *bv.d, slot.buf, pool_);
      CountDispatch(slot, Repr::kDense);
      return Value{Repr::kDense, slot.buf, nullptr, nullptr};
    }
    // Non-dense operands: fall through to the generic path (the transpose
    // node evaluates against the memoized grandchild).
  }

  DMML_ASSIGN_OR_RETURN(Value a, Eval(lc));
  DMML_ASSIGN_OR_RETURN(Value b, Eval(rc));
  DMML_ASSIGN_OR_RETURN(const DenseMatrix* bd, Densify(rc, b));
  // X[b:e) %*% M: the ranged kernels touch only the window's rows (the
  // shared-scan score pass over a fold's training window). Compressed and
  // factorized values are always leaves, whose window spans every row when
  // unsliced; dense and sparse values may be windowless intermediates.
  switch (a.repr) {
    case Repr::kDense:
      if (a.windowed) {
        la::MultiplyRangeInto(*a.d, a.win_begin, a.win_end, *bd, slot.buf,
                              pool_);
      } else {
        la::MultiplyInto(*a.d, *bd, slot.buf, pool_);
      }
      break;
    case Repr::kSparse:
      if (a.windowed) {
        la::SparseMultiplyDenseRangeInto(*a.s, a.win_begin, a.win_end, *bd,
                                         slot.buf, pool_);
      } else {
        la::SparseMultiplyDenseInto(*a.s, *bd, slot.buf, pool_);
      }
      break;
    case Repr::kCompressed:
      DMML_RETURN_IF_ERROR(a.c->MultiplyMatrixRangeInto(
          *bd, a.win_begin, a.win_end, slot.buf, pool_));
      break;
    case Repr::kFactorized:
      // Factorized LMM: per-table products hit each attribute table once
      // (nR rows) and gather through the window's foreign keys.
      DMML_ASSIGN_OR_RETURN(*slot.buf,
                            a.lo->Multiply(*bd, a.win_begin, a.win_end, pool_));
      break;
  }
  CountDispatch(slot, a.repr);
  return Value{Repr::kDense, slot.buf, nullptr, nullptr};
}

Result<BufferedExecutor::Value> BufferedExecutor::MemoReturn(
    const ExprPtr& node, Slot& slot) {
  if (par_run_ && slot.first_pending.exchange(false, std::memory_order_relaxed)) {
    // The read standing in for the serial executor's first consumer call —
    // the call that executes the node and counts nothing.
    return slot.out;
  }
  run_tally_.memo_hits.fetch_add(1, std::memory_order_relaxed);
  DMML_COUNTER_INC("laopt.executor.memo_hits");
  if (profile_ != nullptr && node->kind() != OpKind::kInput) {
    profile_->AddMemoHit(node.get());
  }
  return slot.out;
}

Result<BufferedExecutor::Value> BufferedExecutor::AwaitConcurrentEval(
    const ExprPtr& node, Slot& slot) {
  for (;;) {
    const uint8_t s = slot.exec_state.load(std::memory_order_acquire);
    if (s == 2) return MemoReturn(node, slot);
    if (s == 3) {
      return Status::Internal(
          "laopt: operand evaluation failed on another thread");
    }
    // Never run pool tasks here: a stolen task could itself wait on a claim
    // held lower in this very stack. Pure yielding is deadlock-free: claim
    // waits follow DAG edges and claim holders' own cooperative waits are
    // steal-restricted (PoolClaimScope), so the holder of the awaited claim
    // is always making real progress.
    std::this_thread::yield();
  }
}

Result<BufferedExecutor::Value> BufferedExecutor::LeafValue(
    const ExprPtr& leaf) const {
  const auto bound = binds_.find(leaf.get());
  const Operand& operand = bound != binds_.end() ? bound->second : leaf->operand();
  if (!operand.bound()) {
    return Status::FailedPrecondition(
        "cannot execute unbound placeholder '" +
        (leaf->name().empty() ? std::string("_") : leaf->name()) + "'");
  }
  Value v;
  v.repr = operand.repr();
  v.d = operand.dense();
  v.s = operand.sparse();
  v.c = operand.compressed();
  v.lo = operand.linear();
  v.windowed = operand.windowed();
  v.win_begin = operand.window_begin();
  v.win_end = operand.window_end();
  return v;
}

Result<BufferedExecutor::Value> BufferedExecutor::Eval(const ExprPtr& node) {
  // unordered_map element references are stable across the recursive inserts
  // below, so holding `slot` through child evaluation is safe. (Inter-node
  // plans pre-create every slot, so task threads never insert.)
  Slot& slot = slots_[node.get()];
  if (slot.epoch.load(std::memory_order_acquire) == epoch_) {
    return MemoReturn(node, slot);
  }

  if (node->kind() == OpKind::kInput) {
    DMML_ASSIGN_OR_RETURN(slot.out, LeafValue(node));
    slot.epoch.store(epoch_, std::memory_order_release);
    return slot.out;
  }

  // Publishes the slot's final execution state on every exit path: done on
  // commit, failed otherwise (so concurrent waiters never hang on an
  // error), releasing the pool-buffer write claim either way.
  struct ExecClaim {
    Slot* slot = nullptr;
    std::atomic<const ExprNode*>* writer = nullptr;
    bool committed = false;
    ~ExecClaim() {
      if (slot == nullptr) return;
      if (writer != nullptr) writer->store(nullptr, std::memory_order_release);
      slot->exec_state.store(committed ? 2 : 3, std::memory_order_release);
    }
  };
  ExecClaim claim;
  PoolClaimScope steal_guard;
  if (par_run_) {
    uint8_t expected = 0;
    if (!slot.exec_state.compare_exchange_strong(expected, 1,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
      return AwaitConcurrentEval(node, slot);
    }
    claim.slot = &slot;
    // While this claim is held, cooperative waits inside the node's kernel
    // (ParallelForChunks morsels) may only run the kernel's own chunk tasks:
    // a stolen sibling node task could wait on this very claim, and the
    // frame holding it — below the thief on this stack — could never resume.
    steal_guard.Acquire();
  }
  run_tally_.ops_executed.fetch_add(1, std::memory_order_relaxed);

  const size_t kind_idx = static_cast<size_t>(node->kind());
  const OpInstruments& instruments = OpInstruments::Get();
  instruments.count[kind_idx]->Add(1);
  obs::ScopedTimerUs op_timer(instruments.micros[kind_idx]);
  DMML_TRACE_SPAN(instruments.span_name[kind_idx].c_str());

  // Profiling prologue: note the wall clock and open a fresh child-time
  // scope, so inclusive minus accumulated-child time yields self time.
  const bool profiled = profile_ != nullptr;
  uint64_t prof_start_us = 0;
  uint64_t saved_child_us = 0;
  if (profiled) {
    prof_start_us = obs::NowMicros();
    saved_child_us = child_us_accum();
    child_us_accum() = 0;
  }

  // Resolve the node's output buffer for this Run: assignments are
  // per-root, so a node shared between plans may write different storage
  // under each.
  size_t pool_id = SIZE_MAX;
  slot.buf = BufferFor(node.get(), &pool_id);
  if (par_run_ && pool_id != SIZE_MAX && pool_id < pool_writer_size_) {
    // Runtime check of the concurrency-aware assignment: exactly one
    // in-flight writer per pool buffer, or the conflict counter moves.
    const ExprNode* expected = nullptr;
    if (pool_writer_[pool_id].compare_exchange_strong(
            expected, node.get(), std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      claim.writer = &pool_writer_[pool_id];
    } else {
      SchedInstruments::Get().buffer_conflicts->Add(1);
    }
  }
  slot.out = {Repr::kDense, slot.buf, nullptr, nullptr};
  switch (node->kind()) {
    case OpKind::kMatMul: {
      DMML_ASSIGN_OR_RETURN(slot.out, EvalMatMul(node, slot));
      break;
    }
    case OpKind::kTranspose: {
      DMML_ASSIGN_OR_RETURN(Value a, Eval(node->children()[0]));
      if (a.repr == Repr::kSparse && !a.windowed) {
        // Transposes of sparse values stay CSR (O(nnz) counting transpose),
        // so t(S) %*% M downstream still runs sparse kernels. Windowed CSR
        // densifies instead (window-relative) before the dense transpose.
        slot.sbuf = la::SparseTranspose(*a.s);
        slot.out = {Repr::kSparse, nullptr, &slot.sbuf, nullptr};
        CountDispatch(slot, Repr::kSparse);
      } else {
        DMML_ASSIGN_OR_RETURN(const DenseMatrix* ad,
                              Densify(node->children()[0], a));
        la::TransposeInto(*ad, slot.buf, pool_);
        CountDispatch(slot, Repr::kDense);
      }
      break;
    }
    case OpKind::kAdd:
    case OpKind::kSubtract:
    case OpKind::kElemMul: {
      DMML_ASSIGN_OR_RETURN(Value a, Eval(node->children()[0]));
      DMML_ASSIGN_OR_RETURN(Value b, Eval(node->children()[1]));
      DMML_ASSIGN_OR_RETURN(const DenseMatrix* ad,
                            Densify(node->children()[0], a));
      DMML_ASSIGN_OR_RETURN(const DenseMatrix* bd,
                            Densify(node->children()[1], b));
      if (node->kind() == OpKind::kAdd) {
        la::AddInto(*ad, *bd, slot.buf);
      } else if (node->kind() == OpKind::kSubtract) {
        la::SubtractInto(*ad, *bd, slot.buf);
      } else {
        la::ElementwiseMultiplyInto(*ad, *bd, slot.buf);
      }
      CountDispatch(slot, Repr::kDense);
      break;
    }
    case OpKind::kScalarMul: {
      DMML_ASSIGN_OR_RETURN(Value a, Eval(node->children()[0]));
      DMML_ASSIGN_OR_RETURN(const DenseMatrix* ad,
                            Densify(node->children()[0], a));
      la::ScaleInto(*ad, node->scalar(), slot.buf);
      CountDispatch(slot, Repr::kDense);
      break;
    }
    case OpKind::kSum: {
      DMML_ASSIGN_OR_RETURN(Value a, Eval(node->children()[0]));
      slot.buf->Reshape(1, 1);
      if (a.windowed) {
        // Window-relative reductions run over the densified window copy; the
        // repr-native kernels below sum the full payload.
        DMML_ASSIGN_OR_RETURN(const DenseMatrix* ad,
                              Densify(node->children()[0], a));
        slot.buf->At(0, 0) = la::Sum(*ad, pool_);
        CountDispatch(slot, Repr::kDense);
      } else if (a.repr == Repr::kSparse) {
        slot.buf->At(0, 0) = la::SparseSum(*a.s);
        CountDispatch(slot, Repr::kSparse);
      } else if (a.repr == Repr::kCompressed) {
        slot.buf->At(0, 0) = a.c->Sum(pool_);
        CountDispatch(slot, Repr::kCompressed);
      } else if (a.repr == Repr::kFactorized) {
        // sum(T) == sum(colSums(T)): d values instead of n·d cells.
        DMML_ASSIGN_OR_RETURN(slot.aux, a.lo->ColumnSums(pool_));
        slot.buf->At(0, 0) = la::Sum(slot.aux, pool_);
        CountDispatch(slot, Repr::kFactorized);
      } else {
        slot.buf->At(0, 0) = la::Sum(*a.d, pool_);
        CountDispatch(slot, Repr::kDense);
      }
      break;
    }
    case OpKind::kRowSums: {
      const ExprPtr& ch = node->children()[0];
      // Fused squared-norms pattern: rowSums(G ⊙ G) over a non-dense G maps
      // to the representation's native row-squared-norms kernel — the k-means
      // distance expansion never decompresses X.
      if (ch->kind() == OpKind::kElemMul &&
          ch->children()[0].get() == ch->children()[1].get()) {
        DMML_ASSIGN_OR_RETURN(Value g, Eval(ch->children()[0]));
        if (g.windowed) {
          // Windowed G: the native row-squared-norms kernels read the full
          // payload; take the generic (densifying) path instead.
        } else if (g.repr == Repr::kCompressed) {
          if (profile_ != nullptr) profile_->AddFusedUse(ch.get());
          DMML_RETURN_IF_ERROR(g.c->RowSquaredNormsInto(slot.buf, pool_));
          CountDispatch(slot, Repr::kCompressed);
          break;
        } else if (g.repr == Repr::kSparse) {
          if (profile_ != nullptr) profile_->AddFusedUse(ch.get());
          la::SparseRowSquaredNormsInto(*g.s, slot.buf);
          CountDispatch(slot, Repr::kSparse);
          break;
        } else if (g.repr == Repr::kFactorized) {
          // rowSums(T ⊙ T) — per-table squared norms gathered through the
          // keys; the k-means distance expansion stays factorized.
          if (profile_ != nullptr) profile_->AddFusedUse(ch.get());
          DMML_ASSIGN_OR_RETURN(*slot.buf, g.lo->RowSquaredNorms(pool_));
          CountDispatch(slot, Repr::kFactorized);
          break;
        }
        // Dense G: the generic path below is already one fused pass short of
        // optimal but keeps op accounting unchanged.
      }
      DMML_ASSIGN_OR_RETURN(Value a, Eval(ch));
      if (a.windowed) {
        DMML_ASSIGN_OR_RETURN(const DenseMatrix* ad, Densify(ch, a));
        la::RowSumsInto(*ad, slot.buf, pool_);
        CountDispatch(slot, Repr::kDense);
      } else if (a.repr == Repr::kSparse) {
        la::SparseRowSumsInto(*a.s, slot.buf);
        CountDispatch(slot, Repr::kSparse);
      } else if (a.repr == Repr::kCompressed) {
        // rowSums(X) == X %*% 1: reuse this node's aux as the ones vector.
        slot.aux.Reshape(a.c->cols(), 1);
        slot.aux.Fill(1.0);
        DMML_RETURN_IF_ERROR(a.c->MultiplyVectorInto(slot.aux, slot.buf, pool_));
        CountDispatch(slot, Repr::kCompressed);
      } else if (a.repr == Repr::kFactorized) {
        // rowSums(T) == T %*% 1 through the factorized LMM.
        slot.aux.Reshape(a.lo->cols(), 1);
        slot.aux.Fill(1.0);
        DMML_ASSIGN_OR_RETURN(*slot.buf,
                              a.lo->Multiply(slot.aux, 0, a.lo->rows(), pool_));
        CountDispatch(slot, Repr::kFactorized);
      } else {
        la::RowSumsInto(*a.d, slot.buf, pool_);
        CountDispatch(slot, Repr::kDense);
      }
      break;
    }
    case OpKind::kColSums: {
      DMML_ASSIGN_OR_RETURN(Value a, Eval(node->children()[0]));
      if (a.windowed) {
        DMML_ASSIGN_OR_RETURN(const DenseMatrix* ad,
                              Densify(node->children()[0], a));
        la::ColumnSumsInto(*ad, slot.buf, pool_);
        CountDispatch(slot, Repr::kDense);
      } else if (a.repr == Repr::kSparse) {
        la::SparseColumnSumsInto(*a.s, slot.buf);
        CountDispatch(slot, Repr::kSparse);
      } else if (a.repr == Repr::kCompressed) {
        // colSums(X) == 1^T X via the pre-aggregating VectorMultiply.
        slot.aux.Reshape(a.c->rows(), 1);
        slot.aux.Fill(1.0);
        DMML_RETURN_IF_ERROR(a.c->VectorMultiplyInto(slot.aux, slot.buf, pool_));
        CountDispatch(slot, Repr::kCompressed);
      } else if (a.repr == Repr::kFactorized) {
        // colSums(T) decomposes per table (Tᵀ1 block sums).
        DMML_ASSIGN_OR_RETURN(*slot.buf, a.lo->ColumnSums(pool_));
        CountDispatch(slot, Repr::kFactorized);
      } else {
        la::ColumnSumsInto(*a.d, slot.buf, pool_);
        CountDispatch(slot, Repr::kDense);
      }
      break;
    }
    case OpKind::kFused: {
      // One pass of the region's cell program over its dense inputs.
      const auto& kids = node->children();
      std::vector<const DenseMatrix*> inputs(kids.size());
      for (size_t i = 0; i < kids.size(); ++i) {
        DMML_ASSIGN_OR_RETURN(Value v, Eval(kids[i]));
        DMML_ASSIGN_OR_RETURN(inputs[i], Densify(kids[i], v));
      }
      la::CellProgramInto(node->program(), inputs, slot.buf, pool_);
      CountDispatch(slot, Repr::kDense);
      break;
    }
    case OpKind::kInput:
      return Status::Internal("unknown op kind in executor");
  }
  slot.epoch.store(epoch_, std::memory_order_release);
  claim.committed = true;
  if (profiled) {
    const uint64_t incl_us = obs::NowMicros() - prof_start_us;
    const uint64_t child_us = child_us_accum();
    RecordNodeProfile(node, slot, incl_us,
                      incl_us > child_us ? incl_us - child_us : 0);
    // This node's inclusive time is child time from the parent's viewpoint.
    child_us_accum() = saved_child_us + incl_us;
  }
  return slot.out;
}

Result<DenseMatrix> Execute(const ExprPtr& root, ThreadPool* pool, ExecStats* stats) {
  BufferedExecutor executor(pool);
  DMML_ASSIGN_OR_RETURN(const DenseMatrix* out, executor.Run(root, stats));
  return *out;  // Copies out of the executor's transient buffers.
}

}  // namespace dmml::laopt
