//! The context-sensitive points-to solver: an explicit worklist
//! implementation of the Datalog rules in the paper's Figure 3.
//!
//! The solver computes, for a [`Program`] and a [`ContextPolicy`], the four
//! output relations of the model — VARPOINTSTO, FLDPOINTSTO, CALLGRAPH,
//! REACHABLE — with on-the-fly call-graph construction. Rule-for-rule
//! correspondence (tested against the executable Datalog model in
//! `rudoop-datalog`):
//!
//! - the ALLOC rules are the solver's `Alloc` instantiation arm (RECORD is
//!   `policy.record`; the OBJECTTOREFINE guard lives inside an
//!   [`crate::policy::Introspective`] policy),
//! - the MOVE rule is a graph edge between context-qualified variables,
//! - INTERPROCASSIGN is the argument/return edges added per call-graph edge,
//! - the LOAD/STORE rules are edges through *field nodes* — one node per
//!   (context-qualified object, field) pair,
//! - the VCALL rule (and its MERGEREFINED duplicate, again folded into the
//!   policy) is the solver's receiver-call processing step.
//!
//! A [`Budget`] models the paper's 90-minute/24 GB wall: when exceeded the
//! solver stops and reports [`Outcome::BudgetExhausted`], which the
//! evaluation harness renders the way the paper renders timed-out bars.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rudoop_ir::{
    AllocId, ClassHierarchy, FieldId, GlobalId, IdxVec, Instruction, InvokeId, InvokeKind,
    MethodId, Program, VarId,
};

use crate::bitset::{IdBitSet, SparseBitSet};
use crate::context::{CObj, CtxId, CtxTables, HCtxId};
use crate::hash::{FxHashMap, FxHashSet};
use crate::policy::ContextPolicy;
use crate::rewrite::{ParamRewrite, RetAtom};

/// Resource limits for one solver run.
///
/// `max_derivations` bounds the number of tuple insertions (context-
/// sensitive var-points-to facts plus call-graph edges); it is the
/// deterministic analogue of the paper's timeout and the preferred limit
/// for reproducible experiments. `max_bytes` bounds the solver's modeled
/// memory footprint ([`SolverStats::bytes_estimate`]) — the deterministic
/// analogue of the paper's 24 GB wall. `max_duration` is a wall-clock
/// backstop.
///
/// Limits compose with the `and_*` combinators:
///
/// ```
/// use std::time::Duration;
/// use rudoop_core::solver::Budget;
///
/// let b = Budget::derivations(1_000_000)
///     .and_bytes(24 * 1024 * 1024 * 1024)
///     .and_duration(Duration::from_secs(90 * 60));
/// assert_eq!(b.max_derivations, Some(1_000_000));
/// assert!(b.max_bytes.is_some() && b.max_duration.is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Maximum tuple insertions; `None` = unlimited.
    pub max_derivations: Option<u64>,
    /// Maximum wall-clock time; `None` = unlimited.
    pub max_duration: Option<Duration>,
    /// Maximum modeled memory in bytes; `None` = unlimited.
    pub max_bytes: Option<u64>,
}

impl Budget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Budget of `n` tuple insertions.
    pub fn derivations(n: u64) -> Self {
        Budget {
            max_derivations: Some(n),
            ..Budget::default()
        }
    }

    /// Budget of `d` wall-clock time.
    pub fn duration(d: Duration) -> Self {
        Budget {
            max_duration: Some(d),
            ..Budget::default()
        }
    }

    /// Budget of `n` modeled bytes (see [`SolverStats::bytes_estimate`]).
    pub fn bytes(n: u64) -> Self {
        Budget {
            max_bytes: Some(n),
            ..Budget::default()
        }
    }

    /// Adds a derivation limit to this budget.
    pub fn and_derivations(mut self, n: u64) -> Self {
        self.max_derivations = Some(n);
        self
    }

    /// Adds a wall-clock limit to this budget.
    pub fn and_duration(mut self, d: Duration) -> Self {
        self.max_duration = Some(d);
        self
    }

    /// Adds a modeled-memory limit to this budget.
    pub fn and_bytes(mut self, n: u64) -> Self {
        self.max_bytes = Some(n);
        self
    }

    /// Whether no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_derivations.is_none() && self.max_duration.is_none() && self.max_bytes.is_none()
    }
}

/// A cooperative cancellation token, checked by the solver's worklist loop.
///
/// Clones share one flag. The supervisor's watchdog thread uses it to
/// enforce wall-clock deadlines from outside the solver; clients (CLIs,
/// servers) can use it to abort an analysis from a signal handler or a
/// request-timeout path.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a run stopped before reaching the fixpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExhaustionCause {
    /// [`Budget::max_derivations`] was reached.
    Derivations,
    /// [`Budget::max_bytes`] was reached (the modeled 24 GB wall).
    Memory,
    /// [`Budget::max_duration`] elapsed.
    WallClock,
    /// The run's [`CancelToken`] was cancelled (e.g. by a watchdog).
    Cancelled,
    /// The propagation-graph node table hit its capacity limit.
    NodeTable,
    /// A context table hit its capacity limit (contexts saturated to `★`).
    ContextTable,
}

impl ExhaustionCause {
    /// Whether the cause is an internal capacity limit rather than a
    /// user-supplied budget.
    pub fn is_capacity(self) -> bool {
        matches!(
            self,
            ExhaustionCause::NodeTable | ExhaustionCause::ContextTable
        )
    }

    /// A short human-readable description.
    pub fn describe(self) -> &'static str {
        match self {
            ExhaustionCause::Derivations => "derivation budget exhausted",
            ExhaustionCause::Memory => "memory budget exhausted",
            ExhaustionCause::WallClock => "wall-clock budget exhausted",
            ExhaustionCause::Cancelled => "cancelled",
            ExhaustionCause::NodeTable => "node table capacity exceeded",
            ExhaustionCause::ContextTable => "context table capacity exceeded",
        }
    }
}

impl fmt::Display for ExhaustionCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// A structured solver-internal failure: a capacity table filled up.
///
/// These used to be `expect` panics on the hot path; they now surface as
/// [`Outcome::CapacityExceeded`] so callers (most importantly the
/// [`crate::supervisor`]) can degrade instead of crashing the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// The propagation graph needed more than `limit` nodes.
    NodeCapacity {
        /// The configured (or `u32`-intrinsic) node limit.
        limit: usize,
    },
    /// A context interner needed more than `limit` distinct contexts.
    ContextCapacity {
        /// The configured (or `u32`-intrinsic) context limit.
        limit: usize,
    },
}

impl SolverError {
    /// The exhaustion cause this error maps to.
    pub fn cause(self) -> ExhaustionCause {
        match self {
            SolverError::NodeCapacity { .. } => ExhaustionCause::NodeTable,
            SolverError::ContextCapacity { .. } => ExhaustionCause::ContextTable,
        }
    }
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NodeCapacity { limit } => {
                write!(f, "propagation graph exceeded {limit} nodes")
            }
            SolverError::ContextCapacity { limit } => {
                write!(f, "context table exceeded {limit} entries")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// How a solver run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fixpoint reached; the result is sound and complete for the abstraction.
    Complete,
    /// The budget ran out; the result is partial (an under-approximation of
    /// the fixpoint). The paper reports this as a timed-out analysis.
    BudgetExhausted,
    /// An internal capacity table (nodes, contexts) filled up; the result is
    /// partial, exactly as for budget exhaustion.
    CapacityExceeded,
}

impl Outcome {
    /// Whether the run completed.
    pub fn is_complete(self) -> bool {
        matches!(self, Outcome::Complete)
    }

    /// Whether the run stopped early (budget or capacity).
    pub fn is_partial(self) -> bool {
        !self.is_complete()
    }
}

/// Solver configuration.
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// Resource limits (default: unlimited).
    pub budget: Budget,
    /// Record the full context-sensitive tuples in
    /// [`PointsToResult::cs_dump`] (used by differential tests; costs
    /// memory, off by default).
    pub record_contexts: bool,
    /// Filter object flow at `cast` instructions by the cast's target type
    /// (Doop's assign-cast filtering). Off by default to match the paper's
    /// model, where casts are plain moves; turning it on makes every
    /// analysis more precise at a small cost.
    pub filter_casts: bool,
    /// Cooperative cancellation: when the token is cancelled the solver
    /// stops at the next worklist step with [`ExhaustionCause::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Capacity cap on propagation-graph nodes (default: the `u32`
    /// intrinsic limit). Exceeding it yields [`Outcome::CapacityExceeded`].
    pub max_nodes: Option<usize>,
    /// Capacity cap on each context table (default: the `u32` intrinsic
    /// limit). Exceeding it yields [`Outcome::CapacityExceeded`].
    pub max_contexts: Option<usize>,
    /// Call-edge rewrites of a context-free pre-analysis (the
    /// [`crate::cutshortcut`] or [`crate::summaries`] pass). When present,
    /// every call edge reroutes the parameters and returns the table
    /// marks (see [`crate::rewrite`]) and the run reports the table's
    /// analysis name. Only meaningful under the insensitive policy: a
    /// `Formal` return atom reads its formal under the callee context.
    /// `None` (the default) analyzes every call edge as written.
    pub rewrites: Option<Arc<crate::rewrite::RewriteTable>>,
    /// Optional telemetry recorder. Instrumentation never feeds back into
    /// the analysis: results are byte-identical with and without it.
    pub telemetry: crate::telemetry::TelemetryHandle,
}

/// Counters describing the work and output size of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Tuple insertions performed (the budget currency).
    pub derivations: u64,
    /// Context-sensitive var-points-to tuples `(var, ctx, heap, hctx)`.
    pub cs_var_points_to: u64,
    /// Context-sensitive field-points-to tuples.
    pub cs_field_points_to: u64,
    /// Context-sensitive call-graph edges.
    pub call_graph_edges: u64,
    /// Context-qualified reachable methods `(meth, ctx)`.
    pub reachable_contexts: u64,
    /// Distinct calling contexts created.
    pub contexts: u64,
    /// Distinct heap contexts created.
    pub heap_contexts: u64,
    /// Graph nodes (context-qualified variables + field slots).
    pub nodes: u64,
    /// Copy edges in the propagation graph.
    pub edges: u64,
    /// Wall-clock time of the run.
    pub duration: Duration,
}

/// Deterministic per-entity cost constants of the solver's memory model.
/// A node owns slots in nine parallel arrays plus hash-table entries; a
/// tuple is a hash-set entry plus its delta slot; an edge is a successor
/// slot plus an `edge_set` entry; a context is an interned boxed sequence
/// plus its table entry.
const BYTES_PER_NODE: u64 = 168;
const BYTES_PER_TUPLE: u64 = 48;
const BYTES_PER_EDGE: u64 = 72;
const BYTES_PER_CTX: u64 = 96;
const BYTES_PER_REACHABLE: u64 = 16;

/// The modeled memory footprint given the live counters of a run. Shared
/// between [`SolverStats::bytes_estimate`] and the solver's in-loop budget
/// check so the two always agree.
fn model_bytes(
    nodes: u64,
    edges: u64,
    derivations: u64,
    contexts: u64,
    heap_contexts: u64,
    reachable: u64,
) -> u64 {
    nodes * BYTES_PER_NODE
        + edges * BYTES_PER_EDGE
        + derivations * BYTES_PER_TUPLE
        + (contexts + heap_contexts) * BYTES_PER_CTX
        + reachable * BYTES_PER_REACHABLE
}

impl SolverStats {
    /// A deterministic estimate of the run's peak memory footprint, derived
    /// from relation and graph sizes (not from the allocator). This is the
    /// quantity [`Budget::max_bytes`] limits — the reproducible analogue of
    /// the paper's 24 GB memory wall.
    pub fn bytes_estimate(&self) -> u64 {
        model_bytes(
            self.nodes,
            self.edges,
            self.derivations,
            self.contexts,
            self.heap_contexts,
            self.reachable_contexts,
        )
    }

    /// A copy with the wall-clock duration zeroed: two runs of the same
    /// program under the same derivation/byte budget produce *identical*
    /// canonical stats, which is what reproducibility tests compare.
    pub fn canonical(&self) -> SolverStats {
        SolverStats {
            duration: Duration::ZERO,
            ..self.clone()
        }
    }
}

/// Full context-sensitive relations, recorded when
/// [`SolverConfig::record_contexts`] is set.
#[derive(Debug, Clone, Default)]
pub struct CsDump {
    /// VARPOINTSTO tuples.
    pub var_points_to: Vec<(VarId, CtxId, AllocId, HCtxId)>,
    /// FLDPOINTSTO tuples.
    pub field_points_to: Vec<(AllocId, HCtxId, FieldId, AllocId, HCtxId)>,
    /// CALLGRAPH tuples.
    pub call_graph: Vec<(InvokeId, CtxId, MethodId, CtxId)>,
    /// REACHABLE tuples.
    pub reachable: Vec<(MethodId, CtxId)>,
}

impl CsDump {
    /// Var-points-to indexed by `(var, ctx)`, each set sorted and
    /// deduplicated — the shape clients that re-traverse value flow (the
    /// taint analysis) consume.
    pub fn var_pts_index(&self) -> FxHashMap<(VarId, CtxId), Vec<(AllocId, HCtxId)>> {
        let mut index: FxHashMap<(VarId, CtxId), Vec<(AllocId, HCtxId)>> = FxHashMap::default();
        for &(var, ctx, heap, hctx) in &self.var_points_to {
            index.entry((var, ctx)).or_default().push((heap, hctx));
        }
        for objs in index.values_mut() {
            objs.sort_unstable();
            objs.dedup();
        }
        index
    }
}

/// The output of one analysis run: projected (context-insensitive)
/// relations for clients, statistics, and optionally the raw
/// context-sensitive tuples.
///
/// Projections are what the paper's precision metrics consume — e.g. "calls
/// that cannot be devirtualized" needs per-invocation target sets with
/// contexts collapsed.
#[derive(Debug, Clone)]
pub struct PointsToResult {
    /// The analysis name: the rewrite table's name when
    /// [`SolverConfig::rewrites`] is set, otherwise `policy.name()`.
    pub analysis: String,
    /// Completion status.
    pub outcome: Outcome,
    /// Why the run stopped early; `None` when it completed.
    pub exhaustion: Option<ExhaustionCause>,
    /// Work and size counters.
    pub stats: SolverStats,
    /// Projected var-points-to: per variable, the sorted set of allocation
    /// sites it may point to (over all contexts).
    pub var_pts: IdxVec<VarId, Vec<AllocId>>,
    /// Projected field-points-to: per (base allocation, field), the sorted
    /// set of pointed-to allocation sites.
    pub field_pts: FxHashMap<(AllocId, FieldId), Vec<AllocId>>,
    /// Projected static-field points-to: per global, the sorted set of
    /// pointed-to allocation sites.
    pub global_pts: FxHashMap<GlobalId, Vec<AllocId>>,
    /// Projected call graph: per invocation, the sorted set of target
    /// methods.
    pub call_targets: FxHashMap<InvokeId, Vec<MethodId>>,
    /// Methods reachable in at least one context.
    pub reachable_methods: IdBitSet<MethodId>,
    /// Context tables of the run (for inspecting context strings).
    pub tables: CtxTables,
    /// Raw context-sensitive tuples, when requested.
    pub cs_dump: Option<CsDump>,
}

impl PointsToResult {
    /// Number of reachable methods (one of the paper's precision metrics).
    pub fn reachable_method_count(&self) -> usize {
        self.reachable_methods.count()
    }

    /// Projected points-to set of `var`.
    pub fn points_to(&self, var: VarId) -> &[AllocId] {
        &self.var_pts[var]
    }
}

/// Node identifier in the propagation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NodeId(u32);

#[derive(Debug, Clone, Copy)]
enum NodeKind {
    /// A context-qualified variable.
    Var(VarId, CtxId),
    /// A field of a context-qualified object.
    Field(CObj, FieldId),
    /// A static field: one context-insensitive slot program-wide.
    Global(GlobalId),
}

/// Runs the analysis of `program` under `policy`.
///
/// This is the crate's main entry point for a single pass; the two-pass
/// introspective flow lives in [`crate::driver`].
pub fn analyze(
    program: &Program,
    hierarchy: &ClassHierarchy,
    policy: &dyn ContextPolicy,
    config: &SolverConfig,
) -> PointsToResult {
    let result = Solver::new(program, hierarchy, policy, config.clone()).run();
    record_run_counters(&config.telemetry, &result);
    result
}

/// Records the deterministic post-run counter block for a finished
/// analysis. Called once per [`analyze`]; every value is derived from the
/// final result, so the counter stream is byte-identical across runs.
fn record_run_counters(tele: &crate::telemetry::TelemetryHandle, result: &PointsToResult) {
    let Some(tele) = tele.as_deref() else { return };
    let name = &result.analysis;
    let s = &result.stats;
    tele.counter(&format!("{name}.derivations"), s.derivations);
    tele.counter(&format!("{name}.cs_var_points_to"), s.cs_var_points_to);
    tele.counter(&format!("{name}.cs_field_points_to"), s.cs_field_points_to);
    tele.counter(&format!("{name}.call_graph_edges"), s.call_graph_edges);
    tele.counter(&format!("{name}.reachable_contexts"), s.reachable_contexts);
    tele.counter(&format!("{name}.contexts"), s.contexts);
    tele.counter(&format!("{name}.heap_contexts"), s.heap_contexts);
    tele.counter(&format!("{name}.nodes"), s.nodes);
    tele.counter(&format!("{name}.edges"), s.edges);
    tele.counter(&format!("{name}.bytes_estimate"), s.bytes_estimate());
    let outcome = match result.outcome {
        Outcome::Complete => 0,
        Outcome::BudgetExhausted => 1,
        Outcome::CapacityExceeded => 2,
    };
    tele.counter(&format!("{name}.outcome"), outcome);
}

/// Deterministic counts of the work the worklist did, recorded in the
/// telemetry metric stream (never the counter stream: they describe the
/// engine, not the result).
#[derive(Debug, Default)]
struct WorkCounters {
    /// Nodes popped off the worklist.
    drains: u64,
    /// Source words processed by word-level set unions.
    words_unioned: u64,
    /// Ids of drained deltas, summed over drains.
    ids_propagated: u64,
    /// Receiver-call (VCALL) evaluations, one per receiver object.
    receiver_calls: u64,
    /// Method bodies instantiated under a context.
    instantiations: u64,
    /// Field-node lookups (hits and creations).
    field_lookups: u64,
}

impl WorkCounters {
    fn record(&self, tele: &crate::telemetry::Telemetry) {
        tele.metric("seq.worklist_drains", self.drains);
        tele.metric("seq.words_unioned", self.words_unioned);
        tele.metric("seq.ids_propagated", self.ids_propagated);
        tele.metric("seq.receiver_calls", self.receiver_calls);
        tele.metric("seq.instantiations", self.instantiations);
        tele.metric("seq.field_lookups", self.field_lookups);
    }
}

struct Solver<'p> {
    program: &'p Program,
    hierarchy: &'p ClassHierarchy,
    policy: &'p dyn ContextPolicy,
    config: SolverConfig,
    tables: CtxTables,

    nodes: Vec<NodeKind>,
    /// Per-node points-to set and not-yet-propagated delta, over dense
    /// object ids (`delta ⊆ pts`).
    pts: Vec<SparseBitSet>,
    delta: Vec<SparseBitSet>,
    succ: Vec<Vec<NodeId>>,
    loads: Vec<Vec<(FieldId, NodeId)>>,
    stores: Vec<Vec<(FieldId, NodeId)>>,
    calls: Vec<Vec<InvokeId>>,
    node_ctx: Vec<CtxId>,

    filter_succ: Vec<Vec<(rudoop_ir::ClassId, NodeId)>>,
    var_nodes: FxHashMap<u64, NodeId>,
    /// Keyed by `(object id << 32) | field`.
    field_nodes: FxHashMap<u64, NodeId>,
    global_nodes: FxHashMap<u32, NodeId>,
    edge_set: FxHashSet<(u32, u32)>,

    /// Dense object ids: a context-qualified object gets the next id on
    /// its first insertion into any points-to set.
    obj_ids: FxHashMap<u64, u32>,
    obj_of: Vec<CObj>,

    reachable: FxHashSet<u64>,
    cg_edges: FxHashSet<(u64, u64)>,
    inst_queue: VecDeque<(MethodId, CtxId)>,

    worklist: VecDeque<NodeId>,
    in_worklist: Vec<bool>,

    derivations: u64,
    cg_edge_count: u64,
    work: WorkCounters,
    start: Instant,
    exhausted: Option<ExhaustionCause>,
    node_cap: usize,
}

impl<'p> Solver<'p> {
    fn new(
        program: &'p Program,
        hierarchy: &'p ClassHierarchy,
        policy: &'p dyn ContextPolicy,
        config: SolverConfig,
    ) -> Self {
        let node_cap = config
            .max_nodes
            .unwrap_or(u32::MAX as usize)
            .min(u32::MAX as usize);
        let mut tables = CtxTables::new();
        if let Some(limit) = config.max_contexts {
            tables.set_capacity(limit);
        }
        Solver {
            program,
            hierarchy,
            policy,
            config,
            tables,
            nodes: Vec::new(),
            pts: Vec::new(),
            delta: Vec::new(),
            succ: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            calls: Vec::new(),
            node_ctx: Vec::new(),
            filter_succ: Vec::new(),
            var_nodes: FxHashMap::default(),
            field_nodes: FxHashMap::default(),
            global_nodes: FxHashMap::default(),
            edge_set: FxHashSet::default(),
            obj_ids: FxHashMap::default(),
            obj_of: Vec::new(),
            reachable: FxHashSet::default(),
            cg_edges: FxHashSet::default(),
            inst_queue: VecDeque::new(),
            worklist: VecDeque::new(),
            in_worklist: Vec::new(),
            derivations: 0,
            cg_edge_count: 0,
            work: WorkCounters::default(),
            start: Instant::now(),
            exhausted: None,
            node_cap,
        }
    }

    /// Allocates a propagation-graph node. Fails (instead of panicking)
    /// when the node table is at capacity; the error propagates to the main
    /// loop, which stops the run with [`Outcome::CapacityExceeded`].
    fn new_node(&mut self, kind: NodeKind, ctx: CtxId) -> Result<NodeId, SolverError> {
        if self.nodes.len() >= self.node_cap {
            return Err(SolverError::NodeCapacity {
                limit: self.node_cap,
            });
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.pts.push(SparseBitSet::new());
        self.delta.push(SparseBitSet::new());
        self.succ.push(Vec::new());
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        self.calls.push(Vec::new());
        self.node_ctx.push(ctx);
        self.filter_succ.push(Vec::new());
        self.in_worklist.push(false);
        Ok(id)
    }

    fn var_node(&mut self, var: VarId, ctx: CtxId) -> Result<NodeId, SolverError> {
        let key = (u64::from(var.0) << 32) | u64::from(ctx.0);
        if let Some(&n) = self.var_nodes.get(&key) {
            return Ok(n);
        }
        let n = self.new_node(NodeKind::Var(var, ctx), ctx)?;
        self.var_nodes.insert(key, n);
        Ok(n)
    }

    fn field_node(&mut self, obj: u32, field: FieldId) -> Result<NodeId, SolverError> {
        self.work.field_lookups += 1;
        let key = (u64::from(obj) << 32) | u64::from(field.0);
        if let Some(&n) = self.field_nodes.get(&key) {
            return Ok(n);
        }
        let n = self.new_node(
            NodeKind::Field(self.obj_of[obj as usize], field),
            CtxId::EMPTY,
        )?;
        self.field_nodes.insert(key, n);
        Ok(n)
    }

    fn global_node(&mut self, global: GlobalId) -> Result<NodeId, SolverError> {
        if let Some(&n) = self.global_nodes.get(&global.0) {
            return Ok(n);
        }
        let n = self.new_node(NodeKind::Global(global), CtxId::EMPTY)?;
        self.global_nodes.insert(global.0, n);
        Ok(n)
    }

    fn enqueue(&mut self, node: NodeId) {
        if !self.in_worklist[node.0 as usize] {
            self.in_worklist[node.0 as usize] = true;
            self.worklist.push_back(node);
        }
    }

    /// The dense id of `obj`, assigned on first use.
    fn intern(&mut self, obj: CObj) -> u32 {
        let next = self.obj_of.len() as u32;
        let id = *self.obj_ids.entry(obj.0).or_insert(next);
        if id == next {
            self.obj_of.push(obj);
        }
        id
    }

    fn add_obj(&mut self, node: NodeId, obj: u32) {
        let i = node.0 as usize;
        if self.pts[i].insert(obj) {
            self.derivations += 1;
            self.delta[i].insert(obj);
            self.enqueue(node);
        }
    }

    /// Word-level union of `objs` into `to`'s points-to set; the newly
    /// added ids also join its delta, and each counts as one derivation.
    fn add_objs(&mut self, to: NodeId, objs: &SparseBitSet) {
        let i = to.0 as usize;
        self.work.words_unioned += objs.word_count() as u64;
        let new = self.pts[i].union_with_delta(objs, &mut self.delta[i]);
        if new > 0 {
            self.derivations += new;
            self.enqueue(to);
        }
    }

    /// Adds `obj` to `to` when its allocation's class conforms to `class`.
    fn add_obj_filtered(&mut self, to: NodeId, obj: u32, class: rudoop_ir::ClassId) {
        let heap_class = self.program.allocs[self.obj_of[obj as usize].heap()].class;
        if self.hierarchy.is_subtype(heap_class, class) {
            self.add_obj(to, obj);
        }
    }

    /// The ids currently in `node`'s points-to set, for registering a
    /// load, store or call on a base variable that already has objects.
    fn objs_of(&self, node: NodeId) -> Vec<u32> {
        self.pts[node.0 as usize].iter().collect()
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if from == to || !self.edge_set.insert((from.0, to.0)) {
            return;
        }
        self.succ[from.0 as usize].push(to);
        if !self.pts[from.0 as usize].is_empty() {
            // `from != to`, so lending out the source set is safe.
            let objs = std::mem::take(&mut self.pts[from.0 as usize]);
            self.add_objs(to, &objs);
            self.pts[from.0 as usize] = objs;
        }
    }

    /// A copy edge that only lets objects whose class conforms to `class`
    /// through (Doop's assign-cast filtering).
    fn add_filtered_edge(&mut self, from: NodeId, to: NodeId, class: rudoop_ir::ClassId) {
        self.filter_succ[from.0 as usize].push((class, to));
        for o in self.objs_of(from) {
            self.add_obj_filtered(to, o, class);
        }
    }

    fn ensure_reachable(&mut self, method: MethodId, ctx: CtxId) {
        let key = (u64::from(method.0) << 32) | u64::from(ctx.0);
        if self.reachable.insert(key) {
            self.inst_queue.push_back((method, ctx));
        }
    }

    /// The CALLGRAPH head plus INTERPROCASSIGN rules: adds a call edge and,
    /// if new, the argument/return copy edges and callee reachability.
    fn add_call_edge(
        &mut self,
        invoke: InvokeId,
        caller: CtxId,
        target: MethodId,
        callee: CtxId,
    ) -> Result<(), SolverError> {
        let key = (
            (u64::from(invoke.0) << 32) | u64::from(caller.0),
            (u64::from(target.0) << 32) | u64::from(callee.0),
        );
        if !self.cg_edges.insert(key) {
            return Ok(());
        }
        self.cg_edge_count += 1;
        self.derivations += 1;
        self.ensure_reachable(target, callee);
        let inv = &self.program.invokes[invoke];
        let callee_m = &self.program.methods[target];
        let n_args = inv.args.len().min(callee_m.params.len());
        let rewrites = self.config.rewrites.clone();
        let rewrites = rewrites.as_deref();
        let result = self.program.invokes[invoke].result;
        for i in 0..n_args {
            let arg = self.program.invokes[invoke].args[i];
            match rewrites.and_then(|r| r.param(target, i)) {
                // Identity: the actual flows straight to the call's result,
                // never through the shared formal. A result-less call site
                // drops the value entirely (the callee provably only
                // returned it).
                Some(ParamRewrite::ToResult) => {
                    if let Some(result) = result {
                        let from = self.var_node(arg, caller)?;
                        let to = self.var_node(result, caller)?;
                        self.add_edge(from, to);
                    }
                }
                // Setter: store the actual into the field of *this site's*
                // receiver objects — registered on the base variable
                // exactly like a `Store` instruction, so later receivers
                // are handled by the worklist.
                Some(ParamRewrite::ToReceiverField(field)) => {
                    if let Some(base) = self.invoke_base(invoke) {
                        let b = self.var_node(base, caller)?;
                        let f = self.var_node(arg, caller)?;
                        self.stores[b.0 as usize].push((field, f));
                        for o in self.objs_of(b) {
                            let fnode = self.field_node(o, field)?;
                            self.add_edge(f, fnode);
                        }
                    }
                }
                None => {
                    let from = self.var_node(arg, caller)?;
                    let to = self.var_node(self.program.methods[target].params[i], callee)?;
                    self.add_edge(from, to);
                }
            }
        }
        let (Some(result), Some(ret)) = (result, self.program.methods[target].ret) else {
            return Ok(());
        };
        let Some(atoms) = rewrites.and_then(|r| r.ret(target)) else {
            let from = self.var_node(ret, callee)?;
            let to = self.var_node(result, caller)?;
            self.add_edge(from, to);
            return Ok(());
        };
        let to = self.var_node(result, caller)?;
        // Rewritten return: each atom feeds the result directly instead of
        // the conflating `ret → result` edge. `Formal` deliberately reads
        // the *formal* parameter (the union over all call sites) of the
        // method it names — the callee itself, or a transitive callee for
        // summary atoms inherited through composition — not this site's
        // actual: a per-site argument edge would make summaries strictly
        // more precise than `2objH` wherever that flavor conflates call
        // sites, breaking the pinned soundness chain
        // `pts(2objH) ⊆ pts(summaries)`. The formal is read under `callee`,
        // the single context of the insensitive policy rewrites run under.
        // `ReceiverField` (a getter cut or a summary field atom) loads the
        // field off *this site's* receiver objects only — where the
        // precision over insensitivity comes from.
        for &atom in atoms {
            match atom {
                RetAtom::Formal(m, i) => {
                    let param = self.program.methods[m].params[i];
                    let from = self.var_node(param, callee)?;
                    self.add_edge(from, to);
                }
                RetAtom::ReceiverField(field) => {
                    if let Some(base) = self.invoke_base(invoke) {
                        let b = self.var_node(base, caller)?;
                        self.loads[b.0 as usize].push((field, to));
                        for o in self.objs_of(b) {
                            let fnode = self.field_node(o, field)?;
                            self.add_edge(fnode, to);
                        }
                    }
                }
                RetAtom::Alloc(h) => {
                    let obj = self.intern(CObj::new(h, HCtxId::EMPTY));
                    self.add_obj(to, obj);
                }
                RetAtom::Global(g) => {
                    let from = self.global_node(g)?;
                    self.add_edge(from, to);
                }
            }
        }
        Ok(())
    }

    /// Receiver variable of `invoke`, when it has one (virtual/special
    /// calls and spawns; `None` for static calls).
    fn invoke_base(&self, invoke: InvokeId) -> Option<VarId> {
        match self.program.invokes[invoke].kind {
            InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => Some(base),
            InvokeKind::Static { .. } => None,
        }
    }

    /// The VCALL rule: one receiver object (by dense id) arriving at the
    /// base variable of a virtual or special call.
    fn process_receiver_call(
        &mut self,
        invoke: InvokeId,
        caller: CtxId,
        id: u32,
    ) -> Result<(), SolverError> {
        self.work.receiver_calls += 1;
        let obj = self.obj_of[id as usize];
        let target = match self.program.invokes[invoke].kind {
            InvokeKind::Virtual { sig, .. } => {
                let class = self.program.allocs[obj.heap()].class;
                match self.hierarchy.lookup(class, sig) {
                    Some(t) => t,
                    None => return Ok(()), // no method of this signature: dead dispatch
                }
            }
            InvokeKind::Special { target, .. } => target,
            // Static calls are never registered as receiver calls; keep the
            // release hot path panic-free regardless.
            InvokeKind::Static { .. } => {
                debug_assert!(false, "static calls are not receiver calls");
                return Ok(());
            }
        };
        let callee = self.policy.merge(
            &mut self.tables,
            obj.heap(),
            obj.hctx(),
            invoke,
            target,
            caller,
        );
        if let Some(this) = self.program.methods[target].this {
            let tnode = self.var_node(this, callee)?;
            self.add_obj(tnode, id);
        }
        self.add_call_edge(invoke, caller, target, callee)
    }

    /// Instantiates the body of `method` under `ctx`: the REACHABLE-guarded
    /// premises of every rule in Figure 3.
    fn instantiate(&mut self, method: MethodId, ctx: CtxId) -> Result<(), SolverError> {
        self.work.instantiations += 1;
        let body_len = self.program.methods[method].body.len();
        for idx in 0..body_len {
            let instr = self.program.methods[method].body[idx].clone();
            match instr {
                Instruction::Alloc { var, alloc } => {
                    let hctx = self.policy.record(&mut self.tables, alloc, ctx);
                    let node = self.var_node(var, ctx)?;
                    let obj = self.intern(CObj::new(alloc, hctx));
                    self.add_obj(node, obj);
                }
                Instruction::Move { to, from } => {
                    let f = self.var_node(from, ctx)?;
                    let t = self.var_node(to, ctx)?;
                    self.add_edge(f, t);
                }
                Instruction::Cast { to, from, class } => {
                    let f = self.var_node(from, ctx)?;
                    let t = self.var_node(to, ctx)?;
                    if self.config.filter_casts {
                        self.add_filtered_edge(f, t, class);
                    } else {
                        self.add_edge(f, t);
                    }
                }
                Instruction::Load { to, base, field } => {
                    let b = self.var_node(base, ctx)?;
                    let t = self.var_node(to, ctx)?;
                    self.loads[b.0 as usize].push((field, t));
                    for o in self.objs_of(b) {
                        let fnode = self.field_node(o, field)?;
                        self.add_edge(fnode, t);
                    }
                }
                Instruction::Store { base, field, from } => {
                    let b = self.var_node(base, ctx)?;
                    let f = self.var_node(from, ctx)?;
                    self.stores[b.0 as usize].push((field, f));
                    for o in self.objs_of(b) {
                        let fnode = self.field_node(o, field)?;
                        self.add_edge(f, fnode);
                    }
                }
                Instruction::LoadGlobal { to, global } => {
                    let g = self.global_node(global)?;
                    let t = self.var_node(to, ctx)?;
                    self.add_edge(g, t);
                }
                Instruction::StoreGlobal { global, from } => {
                    let f = self.var_node(from, ctx)?;
                    let g = self.global_node(global)?;
                    self.add_edge(f, g);
                }
                Instruction::Return { var } => {
                    if let Some(ret) = self.program.methods[method].ret {
                        let f = self.var_node(var, ctx)?;
                        let t = self.var_node(ret, ctx)?;
                        self.add_edge(f, t);
                    }
                }
                // A spawn's implied `var.run()` call resolves like any other
                // call: its call-graph edges *are* the thread-creation
                // graph the race client consumes.
                Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
                    match self.program.invokes[invoke].kind {
                        InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => {
                            let b = self.var_node(base, ctx)?;
                            self.calls[b.0 as usize].push(invoke);
                            for o in self.objs_of(b) {
                                self.process_receiver_call(invoke, ctx, o)?;
                            }
                        }
                        InvokeKind::Static { target } => {
                            let callee =
                                self.policy
                                    .merge_static(&mut self.tables, invoke, target, ctx);
                            self.add_call_edge(invoke, ctx, target, callee)?;
                        }
                    }
                }
                // Join and monitor instructions constrain the race client's
                // happens-before/lock-set reasoning only; they neither
                // create nor move references.
                Instruction::Join { .. }
                | Instruction::MonitorEnter { .. }
                | Instruction::MonitorExit { .. } => {}
            }
        }
        Ok(())
    }

    /// The per-step stopping check, evaluated between units of work. The
    /// first matching cause wins, in deterministic order: cancellation,
    /// context-table overflow, derivation budget, memory budget, wall clock.
    fn stop_cause(&self) -> Option<ExhaustionCause> {
        if let Some(cancel) = &self.config.cancel {
            if cancel.is_cancelled() {
                return Some(ExhaustionCause::Cancelled);
            }
        }
        if self.tables.overflowed() {
            return Some(ExhaustionCause::ContextTable);
        }
        if let Some(max) = self.config.budget.max_derivations {
            if self.derivations > max {
                return Some(ExhaustionCause::Derivations);
            }
        }
        if let Some(max) = self.config.budget.max_bytes {
            let bytes = model_bytes(
                self.nodes.len() as u64,
                self.edge_set.len() as u64,
                self.derivations,
                self.tables.ctx_count() as u64,
                self.tables.hctx_count() as u64,
                self.reachable.len() as u64,
            );
            if bytes > max {
                return Some(ExhaustionCause::Memory);
            }
        }
        if let Some(max) = self.config.budget.max_duration {
            // Amortize clock reads: only check every 4096 derivations would
            // complicate determinism; an Instant read is ~20ns, acceptable.
            if self.start.elapsed() > max {
                return Some(ExhaustionCause::WallClock);
            }
        }
        None
    }

    fn analysis_name(&self) -> String {
        match &self.config.rewrites {
            Some(table) => table.name().to_owned(),
            None => self.policy.name(),
        }
    }

    fn run(mut self) -> PointsToResult {
        let tele = self.config.telemetry.clone();
        let span = crate::telemetry::span_opt(&tele, "solve");
        if let Some(span) = &span {
            span.arg("analysis", self.analysis_name());
        }
        for &entry in &self.program.entry_points {
            self.ensure_reachable(entry, CtxId::EMPTY);
        }
        if let Err(err) = self.solve() {
            self.exhausted = Some(err.cause());
        }
        if let Some(tele) = tele.as_deref() {
            // Engine metrics: how the worklist did its work. Not in the
            // counter stream, which holds only values derived from the
            // final result.
            self.work.record(tele);
        }
        let result = self.finish();
        if let Some(span) = &span {
            span.arg("derivations", result.stats.derivations);
            span.arg("outcome", format!("{:?}", result.outcome));
        }
        result
    }

    fn solve(&mut self) -> Result<(), SolverError> {
        'outer: loop {
            while let Some((m, c)) = self.inst_queue.pop_front() {
                if let Some(cause) = self.stop_cause() {
                    self.exhausted = Some(cause);
                    break 'outer;
                }
                self.instantiate(m, c)?;
            }
            let Some(node) = self.worklist.pop_front() else {
                break;
            };
            let i = node.0 as usize;
            self.in_worklist[i] = false;
            self.work.drains += 1;
            if let Some(cause) = self.stop_cause() {
                self.exhausted = Some(cause);
                break;
            }
            let d = std::mem::take(&mut self.delta[i]);
            if d.is_empty() {
                continue;
            }
            self.work.ids_propagated += d.len() as u64;
            // The adjacency lists may grow while `node` drains (an edge out
            // of `node` added by a store, a cut registered on it); entries
            // added meanwhile already received the full set when added, so
            // each loop walks only the entries present at its start.
            for k in 0..self.succ[i].len() {
                let s = self.succ[i][k];
                self.add_objs(s, &d);
            }
            for k in 0..self.filter_succ[i].len() {
                let (class, s) = self.filter_succ[i][k];
                for o in d.iter() {
                    self.add_obj_filtered(s, o, class);
                }
            }
            for k in 0..self.loads[i].len() {
                let (field, to) = self.loads[i][k];
                for o in d.iter() {
                    let fnode = self.field_node(o, field)?;
                    self.add_edge(fnode, to);
                }
            }
            for k in 0..self.stores[i].len() {
                let (field, from) = self.stores[i][k];
                for o in d.iter() {
                    let fnode = self.field_node(o, field)?;
                    self.add_edge(from, fnode);
                }
            }
            let caller = self.node_ctx[i];
            for k in 0..self.calls[i].len() {
                let invoke = self.calls[i][k];
                for o in d.iter() {
                    self.process_receiver_call(invoke, caller, o)?;
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> PointsToResult {
        let tele = self.config.telemetry.clone();
        let _span = crate::telemetry::span_opt(&tele, "project");
        let duration = self.start.elapsed();

        // Union projection: OR the sets of every context node of a
        // variable (or of every heap context of a field's base object),
        // then map each distinct id to its allocation site once.
        let mut var_sets: IdxVec<VarId, SparseBitSet> = (0..self.program.vars.len())
            .map(|_| SparseBitSet::new())
            .collect();
        let mut field_sets: FxHashMap<(AllocId, FieldId), SparseBitSet> = FxHashMap::default();
        let mut global_sets: FxHashMap<GlobalId, SparseBitSet> = FxHashMap::default();
        let mut cs_var = 0u64;
        let mut cs_field = 0u64;
        let mut dump = self.config.record_contexts.then(CsDump::default);

        for (i, kind) in self.nodes.iter().enumerate() {
            let pts = &self.pts[i];
            match *kind {
                NodeKind::Var(v, ctx) => {
                    cs_var += pts.len() as u64;
                    var_sets[v].union(pts);
                    if let Some(d) = dump.as_mut() {
                        for o in pts.iter() {
                            let obj = self.obj_of[o as usize];
                            d.var_points_to.push((v, ctx, obj.heap(), obj.hctx()));
                        }
                    }
                }
                NodeKind::Global(global) => {
                    global_sets.entry(global).or_default().union(pts);
                }
                NodeKind::Field(base, field) => {
                    cs_field += pts.len() as u64;
                    field_sets
                        .entry((base.heap(), field))
                        .or_default()
                        .union(pts);
                    if let Some(d) = dump.as_mut() {
                        for o in pts.iter() {
                            let obj = self.obj_of[o as usize];
                            d.field_points_to.push((
                                base.heap(),
                                base.hctx(),
                                field,
                                obj.heap(),
                                obj.hctx(),
                            ));
                        }
                    }
                }
            }
        }
        let heaps = |set: &SparseBitSet| -> Vec<AllocId> {
            let mut out: Vec<AllocId> =
                set.iter().map(|o| self.obj_of[o as usize].heap()).collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let var_pts: IdxVec<VarId, Vec<AllocId>> = var_sets.values().map(heaps).collect();
        let field_pts: FxHashMap<(AllocId, FieldId), Vec<AllocId>> =
            field_sets.iter().map(|(&k, set)| (k, heaps(set))).collect();
        let global_pts: FxHashMap<GlobalId, Vec<AllocId>> = global_sets
            .iter()
            .map(|(&k, set)| (k, heaps(set)))
            .collect();

        let mut call_targets: FxHashMap<InvokeId, Vec<MethodId>> = FxHashMap::default();
        for &(ic, mc) in &self.cg_edges {
            let invoke = InvokeId((ic >> 32) as u32);
            let target = MethodId((mc >> 32) as u32);
            call_targets.entry(invoke).or_default().push(target);
            if let Some(d) = dump.as_mut() {
                d.call_graph
                    .push((invoke, CtxId(ic as u32), target, CtxId(mc as u32)));
            }
        }
        for set in call_targets.values_mut() {
            set.sort_unstable();
            set.dedup();
        }

        let mut reachable_methods = IdBitSet::new(self.program.methods.len());
        for &key in &self.reachable {
            let m = MethodId((key >> 32) as u32);
            reachable_methods.insert(m);
            if let Some(d) = dump.as_mut() {
                d.reachable.push((m, CtxId(key as u32)));
            }
        }

        let stats = SolverStats {
            derivations: self.derivations,
            cs_var_points_to: cs_var,
            cs_field_points_to: cs_field,
            call_graph_edges: self.cg_edge_count,
            reachable_contexts: self.reachable.len() as u64,
            contexts: self.tables.ctx_count() as u64,
            heap_contexts: self.tables.hctx_count() as u64,
            nodes: self.nodes.len() as u64,
            edges: self.edge_set.len() as u64,
            duration,
        };

        PointsToResult {
            analysis: self.analysis_name(),
            outcome: match self.exhausted {
                None => Outcome::Complete,
                Some(cause) if cause.is_capacity() => Outcome::CapacityExceeded,
                Some(_) => Outcome::BudgetExhausted,
            },
            exhaustion: self.exhausted,
            stats,
            var_pts,
            field_pts,
            global_pts,
            call_targets,
            reachable_methods,
            tables: self.tables,
            cs_dump: dump,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CallSiteSensitive, Insensitive, ObjectSensitive};
    use rudoop_ir::ProgramBuilder;

    fn run(program: &Program, policy: &dyn ContextPolicy) -> PointsToResult {
        let hierarchy = ClassHierarchy::new(program);
        analyze(program, &hierarchy, policy, &SolverConfig::default())
    }

    /// main: x = new A; y = x
    #[test]
    fn alloc_and_move_propagate() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        let h = b.alloc(main, x, a);
        b.mov(main, y, x);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert_eq!(r.points_to(x), &[h]);
        assert_eq!(r.points_to(y), &[h]);
        assert!(r.outcome.is_complete());
    }

    /// Store then load through the same object reaches the loaded var.
    #[test]
    fn field_store_load_flow() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        let main = b.method(obj, "main", &[], true);
        let bx = b.var(main, "bx");
        let v = b.var(main, "v");
        let out = b.var(main, "out");
        let _hb = b.alloc(main, bx, box_c);
        let hv = b.alloc(main, v, obj);
        b.store(main, bx, f, v);
        b.load(main, out, bx, f);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert_eq!(r.points_to(out), &[hv]);
    }

    /// Load registered before the store still sees the value (fixpoint).
    #[test]
    fn load_before_store_is_order_insensitive() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        let main = b.method(obj, "main", &[], true);
        let bx = b.var(main, "bx");
        let v = b.var(main, "v");
        let out = b.var(main, "out");
        b.load(main, out, bx, f); // before bx even points anywhere
        b.alloc(main, bx, box_c);
        let hv = b.alloc(main, v, obj);
        b.store(main, bx, f, v);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert_eq!(r.points_to(out), &[hv]);
    }

    /// Virtual dispatch selects the override matching the receiver's class.
    #[test]
    fn virtual_dispatch_resolves_by_receiver_type() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let animal = b.class("Animal", Some(obj));
        let dog = b.class("Dog", Some(animal));
        let cat = b.class("Cat", Some(animal));
        // Animal.sound returns a Generic marker; Dog/Cat override.
        let m_dog = b.method(dog, "sound", &[], false);
        let dog_ret = b.var(m_dog, "r");
        let h_dog_sound = b.alloc(m_dog, dog_ret, dog);
        b.ret(m_dog, dog_ret);
        let m_cat = b.method(cat, "sound", &[], false);
        let cat_ret = b.var(m_cat, "r");
        let _h_cat_sound = b.alloc(m_cat, cat_ret, cat);
        b.ret(m_cat, cat_ret);

        let main = b.method(obj, "main", &[], true);
        let d = b.var(main, "d");
        let out = b.var(main, "out");
        b.alloc(main, d, dog);
        b.vcall(main, Some(out), d, "sound", &[]);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        // Only Dog.sound runs: out points to the dog-sound allocation only.
        assert_eq!(r.points_to(out), &[h_dog_sound]);
        assert!(r.reachable_methods.contains(m_dog));
        assert!(!r.reachable_methods.contains(m_cat));
    }

    /// Arguments flow into formals; returns flow back.
    #[test]
    fn interprocedural_assignments() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let id_m = b.method(obj, "id", &["x"], true);
        let xp = b.param(id_m, 0);
        b.ret(id_m, xp);
        let main = b.method(obj, "main", &[], true);
        let a = b.var(main, "a");
        let out = b.var(main, "out");
        let h = b.alloc(main, a, obj);
        b.scall(main, Some(out), id_m, &[a]);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert_eq!(r.points_to(out), &[h]);
        assert_eq!(r.points_to(xp), &[h]);
    }

    /// The classic context-sensitivity litmus: an identity method called
    /// with two different objects. Insensitive conflates; 1-call-site does
    /// not.
    #[test]
    fn call_site_sensitivity_separates_identity_calls() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let id_m = b.method(obj, "id", &["x"], true);
        let xp = b.param(id_m, 0);
        b.ret(id_m, xp);
        let main = b.method(obj, "main", &[], true);
        let a = b.var(main, "a");
        let c = b.var(main, "c");
        let r1 = b.var(main, "r1");
        let r2 = b.var(main, "r2");
        let h1 = b.alloc(main, a, obj);
        let h2 = b.alloc(main, c, obj);
        b.scall(main, Some(r1), id_m, &[a]);
        b.scall(main, Some(r2), id_m, &[c]);
        b.entry(main);
        let p = b.finish();

        let insens = run(&p, &Insensitive);
        assert_eq!(insens.points_to(r1), &[h1, h2]);
        assert_eq!(insens.points_to(r2), &[h1, h2]);

        let cs = run(&p, &CallSiteSensitive::new(1, 0));
        assert_eq!(cs.points_to(r1), &[h1]);
        assert_eq!(cs.points_to(r2), &[h2]);
    }

    /// Object-sensitivity litmus: one wrapper class used from two sites via
    /// its `this`-carried state.
    #[test]
    fn object_sensitivity_separates_per_receiver_state() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let box_c = b.class("Box", Some(obj));
        let f = b.field(box_c, "val");
        // Box.set(v) { this.val = v }  Box.get() { return this.val }
        let set_m = b.method(box_c, "set", &["v"], false);
        let set_this = b.this(set_m);
        let set_v = b.param(set_m, 0);
        b.store(set_m, set_this, f, set_v);
        let get_m = b.method(box_c, "get", &[], false);
        let get_this = b.this(get_m);
        let gr = b.var(get_m, "r");
        b.load(get_m, gr, get_this, f);
        b.ret(get_m, gr);

        let main = b.method(obj, "main", &[], true);
        let b1 = b.var(main, "b1");
        let b2 = b.var(main, "b2");
        let v1 = b.var(main, "v1");
        let v2 = b.var(main, "v2");
        let o1 = b.var(main, "o1");
        let o2 = b.var(main, "o2");
        let _hb1 = b.alloc(main, b1, box_c);
        let _hb2 = b.alloc(main, b2, box_c);
        let h1 = b.alloc(main, v1, obj);
        let h2 = b.alloc(main, v2, obj);
        b.vcall(main, None, b1, "set", &[v1]);
        b.vcall(main, None, b2, "set", &[v2]);
        b.vcall(main, Some(o1), b1, "get", &[]);
        b.vcall(main, Some(o2), b2, "get", &[]);
        b.entry(main);
        let p = b.finish();

        // Two distinct Box allocations: even insensitively the *objects*
        // separate the fields, so this needs method-level conflation to
        // show: the `set_v` parameter conflates insensitively...
        let insens = run(&p, &Insensitive);
        assert_eq!(insens.points_to(o1), &[h1, h2]);
        assert_eq!(insens.points_to(o2), &[h1, h2]);

        // ...but 1-object-sensitivity keeps the two receivers' set() calls
        // apart, so each get() returns only its own value.
        let objsens = run(&p, &ObjectSensitive::new(1, 0));
        assert_eq!(objsens.points_to(o1), &[h1]);
        assert_eq!(objsens.points_to(o2), &[h2]);
    }

    /// Budget exhaustion stops the solver and is reported.
    #[test]
    fn budget_exhaustion_reports_partial_outcome() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let mut prev = b.var(main, "v0");
        b.alloc(main, prev, obj);
        for i in 1..50 {
            let v = b.var(main, &format!("v{i}"));
            b.alloc(main, v, obj);
            b.mov(main, v, prev);
            prev = v;
        }
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        let config = SolverConfig {
            budget: Budget::derivations(10),
            ..SolverConfig::default()
        };
        let r = analyze(&p, &hierarchy, &Insensitive, &config);
        assert_eq!(r.outcome, Outcome::BudgetExhausted);
        // And the unlimited run completes with more derivations.
        let full = analyze(&p, &hierarchy, &Insensitive, &SolverConfig::default());
        assert!(full.outcome.is_complete());
        assert!(full.stats.derivations > 10);
    }

    /// Unreachable code contributes nothing.
    #[test]
    fn unreachable_methods_are_not_analyzed() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let dead = b.method(obj, "dead", &[], true);
        let d = b.var(dead, "d");
        b.alloc(dead, d, obj);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.entry(main);
        let p = b.finish();
        let r = run(&p, &Insensitive);
        assert!(r.reachable_methods.contains(main));
        assert!(!r.reachable_methods.contains(dead));
        assert!(r.points_to(d).is_empty());
    }

    /// Recursion converges (fixpoint, no infinite context growth at k=1).
    #[test]
    fn recursion_terminates_with_bounded_context() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let rec = b.method(obj, "rec", &["x"], true);
        let xp = b.param(rec, 0);
        let y = b.var(rec, "y");
        b.alloc(rec, y, obj);
        b.scall(rec, None, rec, &[y]);
        b.scall(rec, None, rec, &[xp]);
        let main = b.method(obj, "main", &[], true);
        let a = b.var(main, "a");
        b.alloc(main, a, obj);
        b.scall(main, None, rec, &[a]);
        b.entry(main);
        let p = b.finish();
        for policy in [
            &CallSiteSensitive::new(1, 0) as &dyn ContextPolicy,
            &CallSiteSensitive::new(2, 1),
        ] {
            let r = run(&p, policy);
            assert!(r.outcome.is_complete());
            assert!(!r.points_to(xp).is_empty());
        }
    }

    /// Static fields act as single program-wide slots: a store in one
    /// method is visible to a load in another, across contexts.
    #[test]
    fn globals_flow_across_methods_and_contexts() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let g = b.global(obj, "shared");
        let writer = b.method(obj, "writer", &[], true);
        let w = b.var(writer, "w");
        let h = b.alloc(writer, w, obj);
        b.store_global(writer, g, w);
        let reader = b.method(obj, "reader", &[], true);
        let r = b.var(reader, "r");
        b.load_global(reader, r, g);
        let main = b.method(obj, "main", &[], true);
        b.scall(main, None, writer, &[]);
        b.scall(main, None, reader, &[]);
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        for policy in [
            &Insensitive as &dyn ContextPolicy,
            &CallSiteSensitive::new(2, 1),
        ] {
            let result = analyze(&p, &hierarchy, policy, &SolverConfig::default());
            assert_eq!(result.points_to(r), &[h], "under {}", policy.name());
            assert_eq!(
                result
                    .global_pts
                    .get(&rudoop_ir::GlobalId(0))
                    .map(Vec::as_slice),
                Some(&[h][..])
            );
        }
    }

    /// Cast filtering blocks non-conforming objects at cast edges.
    #[test]
    fn cast_filtering_blocks_nonconforming_objects() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let c = b.class("C", Some(obj));
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        let ha = b.alloc(main, x, a);
        let _hc = b.alloc(main, x, c);
        b.cast(main, y, x, a);
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        // Unfiltered: the cast is a move; both objects flow.
        let plain = analyze(
            &p,
            &hierarchy,
            &crate::policy::Insensitive,
            &SolverConfig::default(),
        );
        assert_eq!(plain.points_to(y).len(), 2);
        // Filtered: only the A-object conforms to `(A)`.
        let cfg = SolverConfig {
            filter_casts: true,
            ..SolverConfig::default()
        };
        let filtered = analyze(&p, &hierarchy, &crate::policy::Insensitive, &cfg);
        assert_eq!(filtered.points_to(y), &[ha]);
    }

    /// Filtering applies on later flow too (edge added before objects).
    #[test]
    fn cast_filtering_applies_to_late_arrivals() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        let y = b.var(main, "y");
        b.cast(main, y, x, a); // cast registered before x has any objects
        let ha = b.alloc(main, x, a);
        b.alloc(main, x, obj);
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        let cfg = SolverConfig {
            filter_casts: true,
            ..SolverConfig::default()
        };
        let r = analyze(&p, &hierarchy, &crate::policy::Insensitive, &cfg);
        assert_eq!(r.points_to(y), &[ha]);
    }

    /// cs_dump carries the context-sensitive tuples when requested.
    #[test]
    fn record_contexts_dumps_tuples() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, obj);
        b.entry(main);
        let p = b.finish();
        let hierarchy = ClassHierarchy::new(&p);
        let config = SolverConfig {
            record_contexts: true,
            ..SolverConfig::default()
        };
        let r = analyze(&p, &hierarchy, &Insensitive, &config);
        assert!(r.outcome.is_complete(), "stopped early: {:?}", r.exhaustion);
        let dump = r.cs_dump.unwrap_or_default();
        assert_eq!(dump.var_points_to.len(), 1);
        assert_eq!(dump.reachable.len(), 1);
        assert!(r.stats.cs_var_points_to >= 1);
    }
}
