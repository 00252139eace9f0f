//! The paper's Figures 2–3, executable: the points-to analysis and
//! call-graph construction as Datalog rules over EDB relations extracted
//! from a [`Program`], with context constructors as external functions.
//!
//! This module is the *reference model*: it is evaluated with the generic
//! semi-naive engine, rule for rule as printed in the paper (plus the
//! static/special-call and entry-point rules that the paper's prose
//! delegates to "the full implementation"). The optimized solver in
//! `rudoop-core` is differential-tested against it.
//!
//! Deviation from the paper's letter, documented: our MERGE constructor
//! receives the resolved target method as an extra argument (the paper
//! keeps the `(invo, meth)` pair only in the SITETOREFINE guard). All three
//! classic flavors ignore the argument; it exists so the same
//! [`ContextPolicy`] objects drive both the model and the solver.

use std::cell::RefCell;
use std::rc::Rc;

use rudoop_core::context::{CtxId, CtxTables, HCtxId};
use rudoop_core::cutshortcut::CutSummary;
use rudoop_core::policy::{ContextPolicy, RefinementSet};
use rudoop_core::rewrite::{ParamRewrite, RetAtom, RewriteTable};
use rudoop_core::summaries::SummaryTable;
use rudoop_ir::{
    AllocId, ClassHierarchy, FieldId, Instruction, InvokeId, InvokeKind, MethodId, Program, VarId,
};

use crate::engine::Engine;
use crate::rule::{RelId, RuleBuilder, RuleError, Value};

/// The context-sensitive relations computed by the model.
#[derive(Debug, Clone, Default)]
pub struct ModelResult {
    /// VARPOINTSTO tuples.
    pub var_points_to: Vec<(VarId, CtxId, AllocId, HCtxId)>,
    /// FLDPOINTSTO tuples.
    pub field_points_to: Vec<(AllocId, HCtxId, FieldId, AllocId, HCtxId)>,
    /// CALLGRAPH tuples.
    pub call_graph: Vec<(InvokeId, CtxId, MethodId, CtxId)>,
    /// REACHABLE tuples.
    pub reachable: Vec<(MethodId, CtxId)>,
    /// The context tables used by the run (for rendering context strings).
    pub tables: CtxTables,
    /// Engine rounds (for curiosity/stats).
    pub rounds: u64,
}

impl ModelResult {
    /// Projected var-points-to: sorted, deduplicated `(var, heap)` pairs.
    pub fn var_points_to_projected(&self) -> Vec<(VarId, AllocId)> {
        let mut v: Vec<(VarId, AllocId)> = self
            .var_points_to
            .iter()
            .map(|&(var, _, heap, _)| (var, heap))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Projected call graph: sorted, deduplicated `(invoke, target)` pairs.
    pub fn call_graph_projected(&self) -> Vec<(InvokeId, MethodId)> {
        let mut v: Vec<(InvokeId, MethodId)> =
            self.call_graph.iter().map(|&(i, _, m, _)| (i, m)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Projected reachable methods, sorted and deduplicated.
    pub fn reachable_projected(&self) -> Vec<MethodId> {
        let mut v: Vec<MethodId> = self.reachable.iter().map(|&(m, _)| m).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Runs the Figure 2–3 model of `program` with `default`/`refined` context
/// constructors and the given refinement sets.
///
/// For a plain (non-introspective) analysis pass `RefinementSet::refine_all`
/// and make `refined` the analysis policy (the default is then never
/// consulted, because every element is refined) — or vice versa with the
/// complement. For a context-insensitive run pass two `Insensitive`
/// policies.
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
pub fn run_model(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
) -> Result<ModelResult, RuleError> {
    run_model_with_rewrites(program, hierarchy, default, refined, refinement, None)
}

/// [`run_model`] with an optional call-edge rewrite table (the output of
/// the cut-shortcut or summary pass): rewritten parameters and returns are
/// excluded from the interprocedural-assignment rules and replaced by the
/// rewrite rules, mirroring the optimized solver's `add_call_edge`.
/// Passing `None` (or a table that rewrites nothing) leaves every rule's
/// behavior unchanged.
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
pub fn run_model_with_rewrites(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
    rewrites: Option<&RewriteTable>,
) -> Result<ModelResult, RuleError> {
    let tables = Rc::new(RefCell::new(CtxTables::new()));
    let mut engine = Engine::new();
    let rels = install_base_model(
        &mut engine,
        &tables,
        program,
        hierarchy,
        default,
        refined,
        refinement,
        rewrites,
    )?;
    let stats = engine.run()?;
    let mut result = extract_result(&engine, &rels, stats.rounds);
    drop(engine);
    result.tables = Rc::try_unwrap(tables).expect("engine dropped").into_inner();
    Ok(result)
}

/// [`run_model_with_rewrites`] under a cut-shortcut pass's table. Kept for
/// the benchmark crate's reference-model anchor, which names it.
///
/// # Errors
///
/// As [`run_model_with_rewrites`].
pub fn run_model_with_cuts(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
    cuts: Option<&CutSummary>,
) -> Result<ModelResult, RuleError> {
    let rewrites = cuts.map(|c| &**c.rewrites());
    run_model_with_rewrites(program, hierarchy, default, refined, refinement, rewrites)
}

/// [`run_model_with_rewrites`] under a summary pass's table. Kept for the
/// benchmark crate's reference-model anchor, which names it.
///
/// # Errors
///
/// As [`run_model_with_rewrites`].
pub fn run_model_with_summaries(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
    summaries: Option<&SummaryTable>,
) -> Result<ModelResult, RuleError> {
    let rewrites = summaries.map(|t| &**t.rewrites());
    run_model_with_rewrites(program, hierarchy, default, refined, refinement, rewrites)
}

/// The relation ids of the base (points-to) model that extension rule sets
/// — the taint client — join against.
pub(crate) struct BaseRels {
    pub(crate) mov: RelId,
    pub(crate) load: RelId,
    pub(crate) store: RelId,
    pub(crate) sload: RelId,
    pub(crate) sstore: RelId,
    pub(crate) vcall: RelId,
    pub(crate) specialcall: RelId,
    pub(crate) formalarg: RelId,
    pub(crate) actualarg: RelId,
    pub(crate) formalreturn: RelId,
    pub(crate) actualreturn: RelId,
    pub(crate) thisvar: RelId,
    pub(crate) entry: RelId,
    pub(crate) varpointsto: RelId,
    pub(crate) callgraph: RelId,
    pub(crate) fldpointsto: RelId,
    pub(crate) reachable: RelId,
}

/// Reads the computed relations out of a finished engine.
pub(crate) fn extract_result(engine: &Engine<'_>, rels: &BaseRels, rounds: u64) -> ModelResult {
    let mut result = ModelResult {
        rounds,
        ..ModelResult::default()
    };
    for t in engine.tuples(rels.varpointsto) {
        result
            .var_points_to
            .push((VarId(t[0]), CtxId(t[1]), AllocId(t[2]), HCtxId(t[3])));
    }
    for t in engine.tuples(rels.fldpointsto) {
        result.field_points_to.push((
            AllocId(t[0]),
            HCtxId(t[1]),
            FieldId(t[2]),
            AllocId(t[3]),
            HCtxId(t[4]),
        ));
    }
    for t in engine.tuples(rels.callgraph) {
        result
            .call_graph
            .push((InvokeId(t[0]), CtxId(t[1]), MethodId(t[2]), CtxId(t[3])));
    }
    for t in engine.tuples(rels.reachable) {
        result.reachable.push((MethodId(t[0]), CtxId(t[1])));
    }
    result
}

/// Declares the Figure 2–3 relations, context-constructor functions, rules
/// and program facts on `engine`, returning the relation handles extension
/// rule sets need.
#[allow(clippy::too_many_arguments)]
pub(crate) fn install_base_model<'a>(
    engine: &mut Engine<'a>,
    tables: &Rc<RefCell<CtxTables>>,
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &'a dyn ContextPolicy,
    refined: &'a dyn ContextPolicy,
    refinement: &RefinementSet,
    rewrites: Option<&RewriteTable>,
) -> Result<BaseRels, RuleError> {
    // ---- EDB relations (Figure 2's input relations) ----
    let alloc = engine.relation("ALLOC", 3); // var, heap, inMeth
    let mov = engine.relation("MOVE", 2); // to, from
    let load = engine.relation("LOAD", 3); // to, base, fld
    let store = engine.relation("STORE", 3); // base, fld, from
    let vcall = engine.relation("VCALL", 4); // base, sig, invo, inMeth
    let specialcall = engine.relation("SPECIALCALL", 4); // base, meth, invo, inMeth
    let staticcall = engine.relation("STATICCALL", 3); // meth, invo, inMeth
    let formalarg = engine.relation("FORMALARG", 3); // meth, i, arg
    let actualarg = engine.relation("ACTUALARG", 3); // invo, i, arg
    let formalreturn = engine.relation("FORMALRETURN", 2); // meth, ret
    let actualreturn = engine.relation("ACTUALRETURN", 2); // invo, var
    let thisvar = engine.relation("THISVAR", 2); // meth, this
    let heaptype = engine.relation("HEAPTYPE", 2); // heap, type
    let lookup = engine.relation("LOOKUP", 3); // type, sig, meth
    let sload = engine.relation("SLOAD", 3); // to, glob, inMeth
    let sstore = engine.relation("SSTORE", 2); // glob, from
    let sitetorefine = engine.relation("SITETOREFINE", 2); // invo, meth
    let objecttorefine = engine.relation("OBJECTTOREFINE", 1); // heap
    let entry = engine.relation("ENTRY", 1); // meth

    // ---- Call-edge rewrite EDB (empty unless a `RewriteTable` is
    // supplied, in which case the pre-analysis pass dictates every tuple;
    // CALLBASE is a program fact only the rewrite rules join) ----
    let callbase = engine.relation("CALLBASE", 2); // invo, base (receiver calls only)
    let argrewritten = engine.relation("ARGREWRITTEN", 2); // meth, i — arg edge cut
    let argtoresult = engine.relation("ARGTORESULT", 2); // meth, i — arg -> result
    let argtofield = engine.relation("ARGTOFIELD", 3); // meth, i, fld — arg -> receiver.fld
    let retrewritten = engine.relation("RETREWRITTEN", 1); // meth — ret edge cut
    let retformal = engine.relation("RETFORMAL", 3); // meth, srcMeth, i — formal i of srcMeth
    let retfield = engine.relation("RETFIELD", 2); // meth, fld — receiver.fld
    let retalloc = engine.relation("RETALLOC", 2); // meth, heap — new heap
    let retglobal = engine.relation("RETGLOBAL", 2); // meth, glob — global

    // ---- IDB relations (Figure 2's computed relations) ----
    let varpointsto = engine.relation("VARPOINTSTO", 4); // var, ctx, heap, hctx
    let callgraph = engine.relation("CALLGRAPH", 4); // invo, callerCtx, meth, calleeCtx
    let fldpointsto = engine.relation("FLDPOINTSTO", 5); // baseH, baseHCtx, fld, heap, hctx
    let interprocassign = engine.relation("INTERPROCASSIGN", 4); // to, toCtx, from, fromCtx
    let reachable = engine.relation("REACHABLE", 2); // meth, ctx
    let globalpointsto = engine.relation("GLOBALPOINTSTO", 3); // glob, heap, hctx

    // ---- Context constructors (Figure 2's RECORD/MERGE and the refined
    // duplicates), closing over the shared context tables ----
    let t = tables.clone();
    let record = engine.function("RECORD", move |a: &[Value]| {
        default
            .record(&mut t.borrow_mut(), AllocId(a[0]), CtxId(a[1]))
            .0
    });
    let t = tables.clone();
    let record_refined = engine.function("RECORDREFINED", move |a: &[Value]| {
        refined
            .record(&mut t.borrow_mut(), AllocId(a[0]), CtxId(a[1]))
            .0
    });
    let t = tables.clone();
    let merge = engine.function("MERGE", move |a: &[Value]| {
        default
            .merge(
                &mut t.borrow_mut(),
                AllocId(a[0]),
                HCtxId(a[1]),
                InvokeId(a[2]),
                MethodId(a[3]),
                CtxId(a[4]),
            )
            .0
    });
    let t = tables.clone();
    let merge_refined = engine.function("MERGEREFINED", move |a: &[Value]| {
        refined
            .merge(
                &mut t.borrow_mut(),
                AllocId(a[0]),
                HCtxId(a[1]),
                InvokeId(a[2]),
                MethodId(a[3]),
                CtxId(a[4]),
            )
            .0
    });
    let t = tables.clone();
    let merge_static = engine.function("MERGESTATIC", move |a: &[Value]| {
        default
            .merge_static(
                &mut t.borrow_mut(),
                InvokeId(a[0]),
                MethodId(a[1]),
                CtxId(a[2]),
            )
            .0
    });
    let t = tables.clone();
    let merge_static_refined = engine.function("MERGESTATICREFINED", move |a: &[Value]| {
        refined
            .merge_static(
                &mut t.borrow_mut(),
                InvokeId(a[0]),
                MethodId(a[1]),
                CtxId(a[2]),
            )
            .0
    });

    // ---- Rules (Figure 3, in order) ----
    let add = |engine: &mut Engine<'_>,
               rule: Result<crate::rule::Rule, RuleError>|
     -> Result<(), RuleError> { engine.add_rule(rule?) };

    // INTERPROCASSIGN from arguments — except rewritten parameters,
    // whose flow the argument rewrite rules below reroute.
    add(
        engine,
        RuleBuilder::new("interproc-args")
            .head(interprocassign, &["to", "calleeCtx", "from", "callerCtx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(formalarg, &["meth", "i", "to"])
            .pos(actualarg, &["invo", "i", "from"])
            .neg(argrewritten, &["meth", "i"])
            .build(),
    )?;
    // INTERPROCASSIGN from returns — except rewritten returns, whose
    // atoms the return rewrite rules below instantiate at every site.
    add(
        engine,
        RuleBuilder::new("interproc-ret")
            .head(interprocassign, &["to", "callerCtx", "from", "calleeCtx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(formalreturn, &["meth", "from"])
            .pos(actualreturn, &["invo", "to"])
            .neg(retrewritten, &["meth"])
            .build(),
    )?;
    // Call-edge rewrite rules: each rewritten flow is replaced by a
    // caller-side one (context sensitivity without contexts). An argument
    // rewritten to the result jumps the actual straight to the call's
    // result; one rewritten to a receiver field stores it into that field
    // of this site's receiver objects. Both stay in `callerCtx`.
    add(
        engine,
        RuleBuilder::new("arg-to-result")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(argtoresult, &["meth", "i"])
            .pos(actualarg, &["invo", "i", "from"])
            .pos(actualreturn, &["invo", "to"])
            .pos(varpointsto, &["from", "callerCtx", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("arg-to-field")
            .head(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(argtofield, &["meth", "i", "fld"])
            .pos(actualarg, &["invo", "i", "from"])
            .pos(callbase, &["invo", "base"])
            .pos(varpointsto, &["base", "callerCtx", "baseH", "baseHCtx"])
            .pos(varpointsto, &["from", "callerCtx", "heap", "hctx"])
            .build(),
    )?;
    // A rewritten return is replaced by one rule per atom kind, each
    // feeding the call's result directly. `ret = formal i of srcMeth`
    // reads the *formal* (the union over all call sites, never this
    // site's actual alone — so summaries stay no more precise than 2objH
    // where that flavor conflates sites, outer or inner); `ret =
    // receiver.fld` loads the field through *this site's* receiver
    // objects only (CALLBASE is empty for static sites, and no static
    // method has a receiver-field atom); `ret = new h` materializes the
    // allocation under the empty heap context, matching what the
    // insensitive policy records; `ret = global g` reads the global slot.
    add(
        engine,
        RuleBuilder::new("ret-formal")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(retformal, &["meth", "srcMeth", "i"])
            .pos(formalarg, &["srcMeth", "i", "from"])
            .pos(actualreturn, &["invo", "to"])
            // `calleeCtx` is sound for the source formal even when
            // `srcMeth != meth`: rewrites run under the context-free
            // policy, so every method runs under the single empty context.
            .pos(varpointsto, &["from", "calleeCtx", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("ret-field")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(retfield, &["meth", "fld"])
            .pos(actualreturn, &["invo", "to"])
            .pos(callbase, &["invo", "base"])
            .pos(varpointsto, &["base", "callerCtx", "baseH", "baseHCtx"])
            .pos(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("ret-alloc")
            .head(varpointsto, &["to", "callerCtx", "heap", "#0"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(retalloc, &["meth", "heap"])
            .pos(actualreturn, &["invo", "to"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("ret-global")
            .head(varpointsto, &["to", "callerCtx", "heap", "hctx"])
            .pos(callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(retglobal, &["meth", "glob"])
            .pos(actualreturn, &["invo", "to"])
            .pos(globalpointsto, &["glob", "heap", "hctx"])
            .build(),
    )?;
    // ALLOC, default context.
    add(
        engine,
        RuleBuilder::new("alloc")
            .head(varpointsto, &["var", "ctx", "heap", "hctx"])
            .pos(reachable, &["meth", "ctx"])
            .pos(alloc, &["var", "heap", "meth"])
            .neg(objecttorefine, &["heap"])
            .func(record, &["heap", "ctx"], "hctx")
            .build(),
    )?;
    // ALLOC, refined duplicate.
    add(
        engine,
        RuleBuilder::new("alloc-refined")
            .head(varpointsto, &["var", "ctx", "heap", "hctx"])
            .pos(reachable, &["meth", "ctx"])
            .pos(alloc, &["var", "heap", "meth"])
            .pos(objecttorefine, &["heap"])
            .func(record_refined, &["heap", "ctx"], "hctx")
            .build(),
    )?;
    // MOVE.
    add(
        engine,
        RuleBuilder::new("move")
            .head(varpointsto, &["to", "ctx", "heap", "hctx"])
            .pos(mov, &["to", "from"])
            .pos(varpointsto, &["from", "ctx", "heap", "hctx"])
            .build(),
    )?;
    // INTERPROCASSIGN propagation.
    add(
        engine,
        RuleBuilder::new("interproc-flow")
            .head(varpointsto, &["to", "toCtx", "heap", "hctx"])
            .pos(interprocassign, &["to", "toCtx", "from", "fromCtx"])
            .pos(varpointsto, &["from", "fromCtx", "heap", "hctx"])
            .build(),
    )?;
    // LOAD.
    add(
        engine,
        RuleBuilder::new("load")
            .head(varpointsto, &["to", "ctx", "heap", "hctx"])
            .pos(load, &["to", "base", "fld"])
            .pos(varpointsto, &["base", "ctx", "baseH", "baseHCtx"])
            .pos(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .build(),
    )?;
    // STORE.
    add(
        engine,
        RuleBuilder::new("store")
            .head(fldpointsto, &["baseH", "baseHCtx", "fld", "heap", "hctx"])
            .pos(store, &["base", "fld", "from"])
            .pos(varpointsto, &["from", "ctx", "heap", "hctx"])
            .pos(varpointsto, &["base", "ctx", "baseH", "baseHCtx"])
            .build(),
    )?;
    // VCALL, default and refined.
    add(
        engine,
        RuleBuilder::new("vcall")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(varpointsto, &["this", "calleeCtx", "heap", "hctx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(vcall, &["base", "sig", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(varpointsto, &["base", "callerCtx", "heap", "hctx"])
            .pos(heaptype, &["heap", "heapT"])
            .pos(lookup, &["heapT", "sig", "toMeth"])
            .pos(thisvar, &["toMeth", "this"])
            .neg(sitetorefine, &["invo", "toMeth"])
            .func(
                merge,
                &["heap", "hctx", "invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("vcall-refined")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(varpointsto, &["this", "calleeCtx", "heap", "hctx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(vcall, &["base", "sig", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(varpointsto, &["base", "callerCtx", "heap", "hctx"])
            .pos(heaptype, &["heap", "heapT"])
            .pos(lookup, &["heapT", "sig", "toMeth"])
            .pos(thisvar, &["toMeth", "this"])
            .pos(sitetorefine, &["invo", "toMeth"])
            .func(
                merge_refined,
                &["heap", "hctx", "invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    // SPECIALCALL (statically bound receiver call), default and refined.
    add(
        engine,
        RuleBuilder::new("specialcall")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(varpointsto, &["this", "calleeCtx", "heap", "hctx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(specialcall, &["base", "toMeth", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(varpointsto, &["base", "callerCtx", "heap", "hctx"])
            .pos(thisvar, &["toMeth", "this"])
            .neg(sitetorefine, &["invo", "toMeth"])
            .func(
                merge,
                &["heap", "hctx", "invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("specialcall-refined")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(varpointsto, &["this", "calleeCtx", "heap", "hctx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(specialcall, &["base", "toMeth", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(varpointsto, &["base", "callerCtx", "heap", "hctx"])
            .pos(thisvar, &["toMeth", "this"])
            .pos(sitetorefine, &["invo", "toMeth"])
            .func(
                merge_refined,
                &["heap", "hctx", "invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    // STATICCALL, default and refined.
    add(
        engine,
        RuleBuilder::new("staticcall")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(staticcall, &["toMeth", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .neg(sitetorefine, &["invo", "toMeth"])
            .func(merge_static, &["invo", "toMeth", "callerCtx"], "calleeCtx")
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("staticcall-refined")
            .head(reachable, &["toMeth", "calleeCtx"])
            .head(callgraph, &["invo", "callerCtx", "toMeth", "calleeCtx"])
            .pos(staticcall, &["toMeth", "invo", "inMeth"])
            .pos(reachable, &["inMeth", "callerCtx"])
            .pos(sitetorefine, &["invo", "toMeth"])
            .func(
                merge_static_refined,
                &["invo", "toMeth", "callerCtx"],
                "calleeCtx",
            )
            .build(),
    )?;
    // Static-field rules (part of Doop's "full implementation" rule set):
    // globals are single context-insensitive slots; a load materializes the
    // slot's contents in every reachable context of the loading method.
    add(
        engine,
        RuleBuilder::new("global-store")
            .head(globalpointsto, &["glob", "heap", "hctx"])
            .pos(sstore, &["glob", "from"])
            .pos(varpointsto, &["from", "_", "heap", "hctx"])
            .build(),
    )?;
    add(
        engine,
        RuleBuilder::new("global-load")
            .head(varpointsto, &["to", "ctx", "heap", "hctx"])
            .pos(sload, &["to", "glob", "inMeth"])
            .pos(reachable, &["inMeth", "ctx"])
            .pos(globalpointsto, &["glob", "heap", "hctx"])
            .build(),
    )?;
    // Entry points: reachable under the empty context (the paper's
    // REACHABLE seeding technicality).
    add(
        engine,
        RuleBuilder::new("entry")
            .head(reachable, &["meth", "#0"])
            .pos(entry, &["meth"])
            .build(),
    )?;

    // ---- Facts from the program ----
    load_facts(
        engine,
        program,
        hierarchy,
        refinement,
        Facts {
            alloc,
            sload,
            sstore,
            mov,
            load,
            store,
            vcall,
            specialcall,
            staticcall,
            formalarg,
            actualarg,
            formalreturn,
            actualreturn,
            thisvar,
            heaptype,
            lookup,
            sitetorefine,
            objecttorefine,
            entry,
        },
    );

    // ---- Call-edge rewrite facts from the pre-analysis pass ----
    if let Some(table) = rewrites {
        for (iid, inv) in program.invokes.iter() {
            if let InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } = inv.kind {
                engine.fact(callbase, &[iid.0, base.0]);
            }
        }
        for (mid, mr) in table.iter() {
            for (i, rewrite) in mr.params.iter().enumerate() {
                let Some(rewrite) = rewrite else { continue };
                engine.fact(argrewritten, &[mid.0, i as Value]);
                match *rewrite {
                    ParamRewrite::ToResult => engine.fact(argtoresult, &[mid.0, i as Value]),
                    ParamRewrite::ToReceiverField(f) => {
                        engine.fact(argtofield, &[mid.0, i as Value, f.0]);
                    }
                }
            }
            let Some(atoms) = &mr.ret else { continue };
            engine.fact(retrewritten, &[mid.0]);
            for atom in atoms {
                match *atom {
                    RetAtom::Formal(src, i) => engine.fact(retformal, &[mid.0, src.0, i as Value]),
                    RetAtom::ReceiverField(f) => engine.fact(retfield, &[mid.0, f.0]),
                    RetAtom::Alloc(h) => engine.fact(retalloc, &[mid.0, h.0]),
                    RetAtom::Global(g) => engine.fact(retglobal, &[mid.0, g.0]),
                }
            }
        }
    }

    Ok(BaseRels {
        mov,
        load,
        store,
        sload,
        sstore,
        vcall,
        specialcall,
        formalarg,
        actualarg,
        formalreturn,
        actualreturn,
        thisvar,
        entry,
        varpointsto,
        callgraph,
        fldpointsto,
        reachable,
    })
}

struct Facts {
    alloc: RelId,
    sload: RelId,
    sstore: RelId,
    mov: RelId,
    load: RelId,
    store: RelId,
    vcall: RelId,
    specialcall: RelId,
    staticcall: RelId,
    formalarg: RelId,
    actualarg: RelId,
    formalreturn: RelId,
    actualreturn: RelId,
    thisvar: RelId,
    heaptype: RelId,
    lookup: RelId,
    sitetorefine: RelId,
    objecttorefine: RelId,
    entry: RelId,
}

fn load_facts(
    engine: &mut Engine<'_>,
    program: &Program,
    hierarchy: &ClassHierarchy,
    refinement: &RefinementSet,
    f: Facts,
) {
    for (mid, method) in program.methods.iter() {
        if let Some(this) = method.this {
            engine.fact(f.thisvar, &[mid.0, this.0]);
        }
        for (i, &param) in method.params.iter().enumerate() {
            engine.fact(f.formalarg, &[mid.0, i as Value, param.0]);
        }
        if let Some(ret) = method.ret {
            engine.fact(f.formalreturn, &[mid.0, ret.0]);
        }
        for instr in &method.body {
            match *instr {
                Instruction::Alloc { var, alloc } => {
                    engine.fact(f.alloc, &[var.0, alloc.0, mid.0]);
                }
                Instruction::Move { to, from } | Instruction::Cast { to, from, .. } => {
                    engine.fact(f.mov, &[to.0, from.0]);
                }
                Instruction::Load { to, base, field } => {
                    engine.fact(f.load, &[to.0, base.0, field.0]);
                }
                Instruction::Store { base, field, from } => {
                    engine.fact(f.store, &[base.0, field.0, from.0]);
                }
                Instruction::LoadGlobal { to, global } => {
                    engine.fact(f.sload, &[to.0, global.0, mid.0]);
                }
                Instruction::StoreGlobal { global, from } => {
                    engine.fact(f.sstore, &[global.0, from.0]);
                }
                Instruction::Return { var } => {
                    if let Some(ret) = method.ret {
                        engine.fact(f.mov, &[ret.0, var.0]);
                    }
                }
                // Spawn emits the same call facts as Call: its call-graph
                // edges double as the thread-creation graph.
                Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
                    let inv = &program.invokes[invoke];
                    for (i, &arg) in inv.args.iter().enumerate() {
                        engine.fact(f.actualarg, &[invoke.0, i as Value, arg.0]);
                    }
                    if let Some(result) = inv.result {
                        engine.fact(f.actualreturn, &[invoke.0, result.0]);
                    }
                    match inv.kind {
                        InvokeKind::Virtual { base, sig } => {
                            engine.fact(f.vcall, &[base.0, sig.0, invoke.0, mid.0]);
                        }
                        InvokeKind::Special { base, target } => {
                            engine.fact(f.specialcall, &[base.0, target.0, invoke.0, mid.0]);
                        }
                        InvokeKind::Static { target } => {
                            engine.fact(f.staticcall, &[target.0, invoke.0, mid.0]);
                        }
                    }
                }
                // Concurrency ordering/locking instructions carry no
                // points-to facts.
                Instruction::Join { .. }
                | Instruction::MonitorEnter { .. }
                | Instruction::MonitorExit { .. } => {}
            }
        }
    }
    for (aid, site) in program.allocs.iter() {
        engine.fact(f.heaptype, &[aid.0, site.class.0]);
    }
    for (cid, _) in program.classes.iter() {
        for (&sig, &meth) in hierarchy.dispatch_table(cid) {
            engine.fact(f.lookup, &[cid.0, sig.0, meth.0]);
        }
    }
    for &m in &program.entry_points {
        engine.fact(f.entry, &[m.0]);
    }
    // Refinement sets, converted from complement form to the model's
    // positive SITETOREFINE/OBJECTTOREFINE relations.
    for aid in program.allocs.ids() {
        if refinement.object_refined(aid) {
            engine.fact(f.objecttorefine, &[aid.0]);
        }
    }
    for iid in program.invokes.ids() {
        for mid in program.methods.ids() {
            // SITETOREFINE is conceptually over (invo, meth) pairs; only
            // pairs that can meet in a rule matter, but enumerating all is
            // simplest and correct for model-sized programs... except it is
            // quadratic. Restrict to plausible targets: any method is a
            // plausible target of a special/static call it names, and any
            // method in the dispatch range for virtual calls. Cheaper and
            // still sound: emit pairs only for methods that share a
            // signature with the call or are the static target.
            let plausible = match program.invokes[iid].kind {
                InvokeKind::Virtual { sig, .. } => program.methods[mid].sig == sig,
                InvokeKind::Special { target, .. } | InvokeKind::Static { target } => target == mid,
            };
            if plausible && refinement.site_refined(iid, mid) {
                engine.fact(f.sitetorefine, &[iid.0, mid.0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_core::policy::{CallSiteSensitive, Insensitive, ObjectSensitive};
    use rudoop_ir::ProgramBuilder;

    fn identity_program() -> (Program, VarId, VarId, AllocId, AllocId) {
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
        (b.finish(), r1, r2, h1, h2)
    }

    fn pts_of(result: &ModelResult, var: VarId) -> Vec<AllocId> {
        let mut v: Vec<AllocId> = result
            .var_points_to
            .iter()
            .filter(|&&(w, _, _, _)| w == var)
            .map(|&(_, _, h, _)| h)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn insensitive_model_conflates_identity() {
        let (p, r1, r2, h1, h2) = identity_program();
        let hier = ClassHierarchy::new(&p);
        let refine = RefinementSet::refine_all(&p);
        let m = run_model(&p, &hier, &Insensitive, &Insensitive, &refine).unwrap();
        assert_eq!(pts_of(&m, r1), vec![h1, h2]);
        assert_eq!(pts_of(&m, r2), vec![h1, h2]);
    }

    #[test]
    fn call_site_model_separates_identity() {
        let (p, r1, r2, h1, h2) = identity_program();
        let hier = ClassHierarchy::new(&p);
        let refine = RefinementSet::refine_all(&p);
        let m = run_model(
            &p,
            &hier,
            &Insensitive,
            &CallSiteSensitive::new(1, 0),
            &refine,
        )
        .unwrap();
        assert_eq!(pts_of(&m, r1), vec![h1]);
        assert_eq!(pts_of(&m, r2), vec![h2]);
    }

    #[test]
    fn virtual_dispatch_in_model() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let a = b.class("A", Some(obj));
        let c = b.class("C", Some(obj));
        let m_a = b.method(a, "f", &[], false);
        let m_c = b.method(c, "f", &[], false);
        let main = b.method(obj, "main", &[], true);
        let x = b.var(main, "x");
        b.alloc(main, x, a);
        b.vcall(main, None, x, "f", &[]);
        b.entry(main);
        let p = b.finish();
        let hier = ClassHierarchy::new(&p);
        let refine = RefinementSet::refine_all(&p);
        let m = run_model(&p, &hier, &Insensitive, &Insensitive, &refine).unwrap();
        let reach = m.reachable_projected();
        assert!(reach.contains(&m_a));
        assert!(!reach.contains(&m_c));
    }

    #[test]
    fn refinement_guard_switches_constructors() {
        // With everything excluded from refinement, an "introspective"
        // model run with a precise refined policy behaves insensitively.
        let (p, r1, _r2, h1, h2) = identity_program();
        let hier = ClassHierarchy::new(&p);
        let mut refine = RefinementSet::refine_all(&p);
        for m in p.methods.ids() {
            refine.no_refine_methods.insert(m);
        }
        for a in p.allocs.ids() {
            refine.no_refine_objects.insert(a);
        }
        let m = run_model(
            &p,
            &hier,
            &Insensitive,
            &ObjectSensitive::new(2, 1),
            &refine,
        )
        .unwrap();
        assert_eq!(
            pts_of(&m, r1),
            vec![h1, h2],
            "default (insensitive) constructors used"
        );
    }
}
