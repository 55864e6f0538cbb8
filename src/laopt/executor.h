/// \file executor.h
/// \brief Evaluates LA expression DAGs with common-subexpression memoization
/// and representation-polymorphic kernel dispatch.
///
/// Leaves may be bound (via ExprNode::InputOperand or BufferedExecutor::Bind)
/// to any of the three physical representations — dense, CSR sparse, or
/// CLA-compressed. Each DAG node is dispatched to the best physical kernel
/// for its operands:
///
///  * dense·dense matmul       → blocked GEMM; t(U)·V → TransposeMultiply,
///    t(U)·U → GramRange (SYRK over U's window), U·t(V) →
///    MultiplyTransposeB — never materializing the transpose;
///  * sparse·dense matmul      → the ranged CSR kernels: S·M →
///    SparseMultiplyDenseRange (a gemv loop at one column), t(S)·M →
///    SparseTransposeMultiplyRange (a row-scatter reduction), t(S)·S →
///    SparseGramRange — never materializing the transpose;
///  * compressed·dense matmul  → the ranged cla::CompressedMatrix operators
///    (MultiplyMatrixRange / TransposeMultiplyMatrixRange, vector loops at
///    one column; t(X)·X → GramRange), including the fused
///    rowSums(X ⊙ X) → RowSquaredNorms pattern;
///  * factorized leaves        → the abstract LinearOperator virtuals (T·m,
///    Tᵀ·m and t(T)·T → Gram over the leaf's window of rows, colSums, the
///    fused rowSums(T ⊙ T)), so a normalized-join design matrix trains —
///    also fold by fold — without ever materializing the join;
///  * row-windowed leaves      → the ranged form of each product above;
///  * fused elementwise regions (kFused nodes, built by Optimize) → one
///    morsel-parallel la::CellProgramInto pass over the node's children,
///    bit-equal to running the region's ops one by one;
///  * everything else          → densify-on-mismatch fallback: the non-dense
///    operand is materialized into an executor-owned buffer (cached per
///    node, reused across runs) and the dense kernel runs. Every fallback
///    increments `laopt.repr.densify_fallbacks`.
///
/// Per-op dispatch outcomes are observable via the `laopt.repr.dense_ops`,
/// `laopt.repr.sparse_ops`, and `laopt.repr.compressed_ops` counters.
///
/// With a thread pool attached the executor additionally runs *inter-node*
/// parallel (SystemDS-style inter-operator parallelism): PreparePlan derives
/// a dataflow task graph from the static schedule, and Run launches every
/// node whose operands have completed onto the pool — true dependency-counter
/// dataflow, not level barriers — while each node's kernel keeps using the
/// same pool for intra-node (morsel) parallelism via the pool's cooperative
/// waiting. Results are bit-identical to serial execution and ExecStats /
/// PlanProfile counts are exact. See DESIGN.md §11 and the laopt.sched.*
/// metrics. Default on when a pool is attached; DMML_INTER_NODE=0/1
/// overrides the default, set_inter_node() overrides both.
#ifndef DMML_LAOPT_EXECUTOR_H_
#define DMML_LAOPT_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "la/sparse_matrix.h"
#include "laopt/expr.h"
#include "laopt/operand.h"
#include "util/thread_pool.h"

namespace dmml::laopt {

class PlanProfile;
class PlanSchedule;

/// \brief Execution statistics.
///
/// Backed by the executor's per-run tally: Run() counts into one internal
/// tally and folds it into both the caller's ExecStats (accumulating across
/// runs, as before) and the attached PlanProfile's totals — the two views
/// are projections of the same counts and can never disagree. Inter-node
/// parallel runs produce exactly the counts the serial executor would.
struct ExecStats {
  size_t ops_executed = 0;       ///< Non-leaf nodes evaluated.
  size_t memo_hits = 0;          ///< Shared sub-DAGs reused.
  size_t densify_fallbacks = 0;  ///< Operands materialized dense for dispatch.
};

/// \brief DAG evaluator with persistent per-node output buffers.
///
/// Every non-leaf node gets a buffer slot that survives across Run() calls;
/// ops execute through the `...Into` kernels, so re-running a program whose
/// shapes have not changed performs zero matrix allocations in steady state
/// (observable via the `la.inplace.reuses` / `la.inplace.allocs` counters).
/// Within one Run, shared sub-DAGs are evaluated once via an epoch-stamped
/// memo — same semantics as the one-shot Execute() below.
///
/// The first Run() of each distinct root prepares the plan: in checked
/// builds (see VerifyEnabled in laopt/verify.h) it is structurally verified,
/// and — unless set_buffer_sharing(false) — the static liveness analysis
/// (ComputeSchedule in laopt/analysis.h) assigns dense output buffers
/// register-allocation-style, so nodes whose live ranges do not overlap
/// share one buffer instead of each owning a dedicated one. The number of
/// distinct buffers backing the plan is observable via num_buffers() and the
/// laopt.executor.pool_buffers / laopt.executor.buffers_shared counters;
/// results are bit-identical to the dedicated-buffer mode because a buffer
/// is only reused after its previous value's last reader has completed. For
/// inter-node plans the interference test is strengthened: a buffer may be
/// reused only when the candidate provably runs after every reader of the
/// previous value (live ranges overlap *or* the nodes may run concurrently
/// ⇒ no sharing), so pooled buffers are never written by two in-flight
/// nodes — asserted at runtime by the laopt.sched.buffer_conflicts counter,
/// which stays zero.
///
/// Not externally thread-safe; one BufferedExecutor per driving thread.
/// Internally, inter-node runs fan node evaluations out across the pool —
/// multiple executors may share GlobalThreadPool() concurrently.
class BufferedExecutor {
 public:
  explicit BufferedExecutor(ThreadPool* pool = nullptr) : pool_(pool) {}

  /// \brief Evaluates `root`. The returned pointer aliases executor-owned
  /// storage (or a leaf's bound matrix) and remains valid until the next
  /// Run() on this executor, Clear(), or destruction. Non-dense root values
  /// (e.g. a bare sparse leaf) are densified into executor storage.
  Result<const la::DenseMatrix*> Run(const ExprPtr& root,
                                     ExecStats* stats = nullptr);

  /// \brief Evaluates several roots as ONE fused plan: shared sub-DAGs are
  /// evaluated once (one memo epoch spans all roots), and with a pool
  /// attached the inter-node scheduler interleaves independent branches of
  /// *different* roots — the wide-rung execution shape of shared-scan model
  /// selection, where per-fold branches share the bound X operand. Returned
  /// pointers alias executor storage exactly like Run()'s, one per root, and
  /// stay valid until the next Run()/RunMany()/Clear(). The attached
  /// profiler (per-root by construction) is suspended for the fused run.
  Result<std::vector<const la::DenseMatrix*>> RunMany(
      const std::vector<ExprPtr>& roots, ExecStats* stats = nullptr);

  /// \brief Binds (or rebinds) `leaf` to `operand` for subsequent Run()s on
  /// this executor, overriding any payload carried by the node itself. The
  /// standard way to execute one compiled plan against changing data — or
  /// against a different physical representation. Rebinding to a different
  /// shape or representation is safe: node buffers are reshaped by the
  /// `...Into` kernels and densify caches are keyed by payload identity, so
  /// stale buffer contents are never observed.
  ///
  /// Fails if `leaf` is not a kInput node, `operand` is unbound, or the
  /// operand's shape contradicts the leaf's plan-time dimensions (unknown
  /// plan dims accept anything).
  Status Bind(const ExprPtr& leaf, Operand operand);

  /// \brief Drops all retained buffers, bindings, and prepared plan state
  /// (e.g. between unrelated programs).
  void Clear() {
    slots_.clear();
    binds_.clear();
    assignments_.clear();
    multi_plans_.clear();
    pool_buffers_.clear();
    dedicated_.clear();
    current_assign_ = nullptr;
    next_buffer_id_ = 0;
    pool_writer_.reset();
    pool_writer_size_ = 0;
  }

  /// \brief Number of node buffers currently retained.
  size_t num_slots() const { return slots_.size(); }

  /// \brief Enables/disables liveness-driven buffer sharing for plans
  /// prepared *after* the call (already-prepared roots keep their
  /// assignment). On by default; turn off to give every node a dedicated
  /// buffer (e.g. to bisect a suspected aliasing bug).
  void set_buffer_sharing(bool on) { buffer_sharing_ = on; }
  bool buffer_sharing() const { return buffer_sharing_; }

  /// \brief Enables/disables inter-node (dataflow) scheduling for plans
  /// prepared *after* the call. Takes effect only with a thread pool
  /// attached; serial execution is used otherwise. Overrides the
  /// DMML_INTER_NODE environment default (which in turn overrides the
  /// built-in default of on).
  void set_inter_node(bool on) { inter_node_ = on ? 1 : 0; }

  /// \brief The effective inter-node setting for plans prepared now.
  bool inter_node() const;

  /// \brief Number of distinct dense output buffers materialized so far:
  /// shared pool buffers plus dedicated (per-node) ones. With sharing on,
  /// this approaches the schedule's max_live() instead of the non-leaf node
  /// count. (Inter-node plans pre-create dedicated buffers for the nodes
  /// fused kernels may fall through to, so the count is an upper bound on
  /// buffers actually written there.)
  size_t num_buffers() const {
    size_t n = dedicated_.size();
    for (const auto& b : pool_buffers_) n += b != nullptr ? 1 : 0;
    return n;
  }

  /// \brief Attaches (or detaches, with nullptr) a runtime profile: every
  /// subsequent Run() records per-node wall time, dispatch representation,
  /// and output nnz into it (see laopt/profile.h). `profile` must outlive
  /// the executor or a later set_profile(nullptr). With no profile attached
  /// the executor takes the exact pre-profiler code path — one pointer test
  /// per node, zero profile allocations.
  void set_profile(PlanProfile* profile) { profile_ = profile; }
  PlanProfile* profile() const { return profile_; }

 private:
  /// A node's evaluated result: exactly one pointer is set. Leaves surface
  /// their bound representation; non-leaf results are dense (except
  /// transpose-of-sparse, which stays CSR).
  struct Value {
    Repr repr = Repr::kDense;
    const la::DenseMatrix* d = nullptr;
    const la::SparseMatrix* s = nullptr;
    const cla::CompressedMatrix* c = nullptr;
    const LinearOperator* lo = nullptr;  ///< kFactorized leaves only.
    /// Row-windowed leaf values (Operand::Slice): the pointer above is the
    /// full payload and only rows [win_begin, win_end) belong to the value.
    /// Consumers dispatch ranged kernels; Densify materializes the window.
    bool windowed = false;
    size_t win_begin = 0;
    size_t win_end = 0;
  };

  struct Slot {
    la::DenseMatrix* buf = nullptr;  ///< Dense output buffer (non-leaf nodes):
                                     ///< a shared pool buffer when the plan's
                                     ///< liveness assignment granted one, else
                                     ///< this node's dedicated buffer.
                                     ///< Refreshed per Run (per-root
                                     ///< assignments may differ).
    la::SparseMatrix sbuf;        ///< CSR output (transpose-of-sparse only).
    la::DenseMatrix aux;          ///< Densified copy of this node's value, or
                                  ///< kernel scratch (ones vector).
    const void* aux_src = nullptr;  ///< Payload the aux densify came from.
    uint64_t aux_epoch = 0;       ///< Last Run() that refreshed aux.
    /// Last Run() that filled the slot. Atomic because inter-node runs
    /// publish completed values through it (release store by the evaluating
    /// thread, acquire load in the memo check); serial runs use it with
    /// relaxed ordering at identical cost.
    std::atomic<uint64_t> epoch{0};
    Repr last_dispatch = Repr::kDense;  ///< Kernel family that last filled it.
    Value out;

    // Inter-node run state, reset by the driving thread before each run.
    std::atomic<uint8_t> exec_state{0};  ///< 0 idle, 1 running, 2 done, 3 failed.
    std::atomic<uint8_t> aux_state{0};   ///< 0 unchecked, 1 filling, 2 valid.
    /// True until the first post-completion read. The serial executor's
    /// first consumer call *executes* the node (uncounted); under dataflow
    /// the node's own task executes it, so the first consumer read consumes
    /// this flag instead of counting a memo hit — keeping memo_hits exactly
    /// equal between modes.
    std::atomic<bool> first_pending{false};
  };

  /// One schedulable node of an inter-node plan.
  struct ParallelTask {
    ExprPtr node;
    Slot* slot = nullptr;
    std::vector<uint32_t> consumers;  ///< Task indices unblocked by this one.
    uint32_t num_deps = 0;            ///< Distinct task-level dependencies.
  };

  /// The dataflow shape of one prepared root: derived once in PreparePlan,
  /// reused (with per-run counter resets) by every inter-node Run.
  struct ParallelPlan {
    std::vector<ParallelTask> tasks;  ///< Schedule (completion) order.
    std::vector<std::pair<ExprPtr, Slot*>> leaves;  ///< Prefilled per run.
    std::vector<Slot*> all_slots;     ///< Every plan node, for state resets.
    Slot* root_slot = nullptr;
    std::vector<Slot*> root_slots;    ///< Multi-root plans: one per root.
    std::unique_ptr<std::atomic<uint32_t>[]> deps_remaining;  ///< Per task.
  };

  struct PreparedPlan {
    /// The prepared roots. This executor keys plans, slots and buffers by
    /// node address; holding the roots keeps every such node allocated, so
    /// a root the caller releases cannot be recycled into a stale plan.
    std::vector<ExprPtr> roots;
    /// node → pool buffer id. An empty map = verified, dedicated buffers.
    std::unordered_map<const ExprNode*, size_t> assign;
    std::unique_ptr<ParallelPlan> par;  ///< Null when prepared serial-only.
  };
  using BufferAssignment = std::unordered_map<const ExprNode*, size_t>;

  Result<Value> Eval(const ExprPtr& node);

  /// The value of a leaf under its current binding (Bind() wins over the
  /// node's own payload); fails on an unbound placeholder, naming it.
  Result<Value> LeafValue(const ExprPtr& leaf) const;
  Result<Value> EvalMatMul(const ExprPtr& node, Slot& slot);

  /// Memo-hit return path: counts a hit (exactly as the serial executor
  /// does) unless this is the first read of a dataflow-completed value.
  Result<Value> MemoReturn(const ExprPtr& node, Slot& slot);

  /// Another thread holds `slot`'s execution claim: spin-yield until it
  /// publishes done (→ memo semantics) or failed. Never runs pool tasks —
  /// stealing here could nest a task that waits on a claim this very stack
  /// holds. Progress is guaranteed because claim waits follow DAG edges and
  /// claim holders mark themselves with PoolClaimScope, which keeps their
  /// nested kernel waits from stealing tasks that could block on the claim.
  Result<Value> AwaitConcurrentEval(const ExprPtr& node, Slot& slot);

  /// First-sighting plan preparation: structural verification (checked
  /// builds), the liveness-driven buffer assignment for `root`, and — with a
  /// pool attached and inter-node enabled — the dataflow task graph. Inserts
  /// the root's plan only on success, so a rejected plan is re-verified —
  /// and re-rejected — on the next Run.
  Status PreparePlan(const ExprPtr& root);

  /// Multi-root preparation: verifies each root, merges the roots' sub-DAGs
  /// into one DFS postorder (shared nodes once), and builds the fused
  /// dataflow graph with dedicated buffers (liveness-driven sharing is a
  /// per-schedule analysis and is skipped for fused plans).
  Result<PreparedPlan> PrepareMultiPlan(const std::vector<ExprPtr>& roots);

  /// Builds the dataflow task graph mirroring the serial evaluation:
  /// absorbable-position nodes (a matmul's transpose operand, the G⊙G under
  /// rowSums) get no task of their own — consumers evaluate them inline
  /// through the same repr-dependent paths the serial executor takes.
  std::unique_ptr<ParallelPlan> BuildParallelPlan(
      const ExprPtr& root, const PlanSchedule& schedule,
      const std::unordered_set<const ExprNode*>& absorbable,
      const BufferAssignment& assign);

  /// Shared core of single- and multi-root plan building: `order` is any
  /// topological (children-first) order over the union of the roots'
  /// sub-DAGs.
  std::unique_ptr<ParallelPlan> BuildParallelPlanFromOrder(
      const std::vector<ExprPtr>& roots,
      const std::vector<const ExprNode*>& order,
      const std::unordered_set<const ExprNode*>& absorbable,
      const BufferAssignment& assign);

  /// Executes one prepared plan as a dataflow: prefills leaves, launches
  /// zero-dependency tasks, cooperatively waits the run out, and returns the
  /// root's value (or the first task error).
  Result<Value> RunInterNode(const ExprPtr& root, ParallelPlan& par);

  /// The dataflow drive loop shared by Run and RunMany: per-run resets, leaf
  /// prefill, task launches, cooperative wait, first-error return.
  Status DriveInterNode(ParallelPlan& par);

  void LaunchTask(ParallelPlan& par, uint32_t idx);
  void RunTaskBody(ParallelPlan& par, uint32_t idx);

  /// The dense output buffer `node` writes this Run: its pool buffer under
  /// the current root's assignment (materialized lazily, so fused-absorbed
  /// nodes never allocate one), else its dedicated buffer. `*pool_id` is set
  /// to the pool slot index, or SIZE_MAX for dedicated buffers.
  la::DenseMatrix* BufferFor(const ExprNode* node, size_t* pool_id);

  /// Dense view of `v` (the value of `owner`): returns it directly when
  /// dense, otherwise materializes into `owner`'s aux buffer (cached per
  /// payload per run) and counts a `laopt.repr.densify_fallbacks`. In
  /// inter-node runs the fill is claimed by CAS so concurrent consumers of
  /// one non-dense value get a single, fully-published copy and a single
  /// fallback count.
  Result<const la::DenseMatrix*> Densify(const ExprPtr& owner, const Value& v);

  /// Bumps the laopt.repr.* dispatch counter and notes the kernel family in
  /// `slot` so the profiler can report the chosen representation.
  static void CountDispatch(Slot& slot, Repr repr);

  /// Folds one node execution (inclusive/self wall micros plus the slot's
  /// materialized output) into the attached profile.
  void RecordNodeProfile(const ExprPtr& node, const Slot& slot,
                         uint64_t incl_us, uint64_t self_us);

  /// The profiler's accumulated-child-time cell for the current evaluation
  /// context: the member below for serial runs, a thread-local for
  /// inter-node runs (each task thread folds its own recursion).
  uint64_t& child_us_accum();

  ThreadPool* pool_ = nullptr;
  uint64_t epoch_ = 0;
  std::unordered_map<const ExprNode*, Slot> slots_;
  std::unordered_map<const ExprNode*, Operand> binds_;

  /// Prepared per-root plans. Presence of a root's entry marks it prepared.
  std::unordered_map<const ExprNode*, PreparedPlan> assignments_;
  /// Prepared fused plans, keyed by the exact root list (order-sensitive).
  std::map<std::vector<const ExprNode*>, PreparedPlan> multi_plans_;
  const BufferAssignment* current_assign_ = nullptr;  ///< Run() in flight.
  std::vector<std::unique_ptr<la::DenseMatrix>> pool_buffers_;
  std::unordered_map<const ExprNode*, la::DenseMatrix> dedicated_;
  size_t next_buffer_id_ = 0;  ///< Pool ids are globally fresh across roots:
                               ///< a node shared by two plans never collides
                               ///< with either plan's other assignments.
  bool buffer_sharing_ = true;
  int inter_node_ = -1;  ///< -1 auto (env, then default on), 0 off, 1 on.

  /// Runtime assertion backing the concurrency-aware buffer assignment: the
  /// node currently writing each pool buffer. A failed claim increments
  /// laopt.sched.buffer_conflicts (must stay zero) instead of silently
  /// racing.
  std::unique_ptr<std::atomic<const ExprNode*>[]> pool_writer_;
  size_t pool_writer_size_ = 0;

  /// Counts for the Run() in flight; folded into caller stats and the
  /// profile at Run() end (see ExecStats doc). Atomic because inter-node
  /// tasks count concurrently; relaxed increments, folded on the driving
  /// thread after the run's tasks have drained.
  struct RunTally {
    std::atomic<size_t> ops_executed{0};
    std::atomic<size_t> memo_hits{0};
    std::atomic<size_t> densify_fallbacks{0};

    void Reset() {
      ops_executed.store(0, std::memory_order_relaxed);
      memo_hits.store(0, std::memory_order_relaxed);
      densify_fallbacks.store(0, std::memory_order_relaxed);
    }
    ExecStats Snapshot() const {
      return {ops_executed.load(std::memory_order_relaxed),
              memo_hits.load(std::memory_order_relaxed),
              densify_fallbacks.load(std::memory_order_relaxed)};
    }
  };
  RunTally run_tally_;

  // Inter-node run state (valid only while a Run is in flight).
  bool par_run_ = false;  ///< True while an inter-node Run is executing.
  WaitGroup* run_wg_ = nullptr;      ///< Completion group of the run.
  std::atomic<bool> run_failed_{false};
  std::mutex err_mu_;
  Status first_error_;               ///< Guarded by err_mu_.
  std::atomic<uint32_t> sched_inflight_{0};   ///< Launched minus completed.
  std::atomic<uint32_t> sched_run_max_{0};    ///< Peak in-flight this run.

  PlanProfile* profile_ = nullptr;
  /// Inclusive micros of already-profiled children of the node currently
  /// evaluating — subtracted from the parent's inclusive time to get self
  /// time (saved/restored around each recursion level). Serial runs only;
  /// see child_us_accum().
  uint64_t prof_child_us_ = 0;
};

/// \brief Evaluates `root`, reusing results for shared sub-DAGs (pointer
/// identity). Thread pool, if given, parallelizes large kernels. One-shot:
/// buffers die with the call — iterative callers should hold a
/// BufferedExecutor instead.
Result<la::DenseMatrix> Execute(const ExprPtr& root, ThreadPool* pool = nullptr,
                                ExecStats* stats = nullptr);

}  // namespace dmml::laopt

#endif  // DMML_LAOPT_EXECUTOR_H_
