//! The taint client as Datalog rules over the Figure 2–3 model — the
//! reference semantics the optimized taint analysis in `rudoop-core` is
//! differential-tested against.
//!
//! Taint is labeled propagation: `TAINTEDVAR(var, ctx, src)` says the value
//! of `var` under calling context `ctx` may originate from the *source call
//! site* `src`. The rules piggyback on the model's computed relations
//! (`CALLGRAPH`, `VARPOINTSTO`, `REACHABLE`) so taint flows with exactly
//! the context policy of the underlying points-to run:
//!
//! ```text
//! t-source  TAINTEDVAR(to, ctx, invo)  :- CALLGRAPH(invo, ctx, m, _), SOURCEMETH(m),
//!                                         ACTUALRETURN(invo, to).
//! t-move    TAINTEDVAR(to, ctx, s)     :- MOVE(to, from), TAINTEDVAR(from, ctx, s).
//! t-arg     TAINTEDVAR(to, cc, s)      :- CALLGRAPH(invo, c, m, cc), FORMALARG(m, i, to),
//!                                         ACTUALARG(invo, i, from), TAINTEDVAR(from, c, s).
//! t-ret     TAINTEDVAR(to, c, s)       :- CALLGRAPH(invo, c, m, cc), FORMALRETURN(m, from),
//!                                         ACTUALRETURN(invo, to), TAINTEDVAR(from, cc, s),
//!                                         !SANITIZERMETH(m).
//! t-this-v  TAINTEDVAR(this, cc, s)    :- VCALL(base, _, invo, _), CALLGRAPH(invo, c, m, cc),
//!                                         THISVAR(m, this), TAINTEDVAR(base, c, s).
//! t-this-s  TAINTEDVAR(this, cc, s)    :- SPECIALCALL(base, _, invo, _),
//!                                         CALLGRAPH(invo, c, m, cc), THISVAR(m, this),
//!                                         TAINTEDVAR(base, c, s).
//! t-store   TAINTEDFLD(h, hc, f, s)    :- STORE(base, f, from), TAINTEDVAR(from, c, s),
//!                                         VARPOINTSTO(base, c, h, hc).
//! t-load    TAINTEDVAR(to, c, s)       :- LOAD(to, base, f), VARPOINTSTO(base, c, h, hc),
//!                                         TAINTEDFLD(h, hc, f, s).
//! t-gstore  TAINTEDGLOBAL(g, s)        :- SSTORE(g, from), TAINTEDVAR(from, _, s).
//! t-gload   TAINTEDVAR(to, c, s)       :- SLOAD(to, g, m), REACHABLE(m, c),
//!                                         TAINTEDGLOBAL(g, s).
//! t-leak    LEAK(s, invo, i)           :- CALLGRAPH(invo, c, m, _), SINKMETHARG(m, i),
//!                                         ACTUALARG(invo, i, from), TAINTEDVAR(from, c, s).
//! ```
//!
//! Sanitizers strip taint only at returns (`t-ret`): values still flow
//! *into* a sanitizer's body, which is what lets the lint tier observe
//! "dead sanitizer" call sites.

use std::cell::RefCell;
use std::rc::Rc;

use rudoop_core::context::CtxTables;
use rudoop_core::policy::{ContextPolicy, RefinementSet};
use rudoop_ir::{ClassHierarchy, InvokeId, Program, TaintSpec};

use crate::engine::Engine;
use crate::model::install_base_model;
use crate::rule::{RuleBuilder, RuleError};

/// The taint relations computed by [`run_taint_model`].
#[derive(Debug, Clone, Default)]
pub struct TaintModelResult {
    /// Projected LEAK tuples `(source call site, sink call site, argument)`,
    /// sorted and deduplicated — the canonical leak set.
    pub leaks: Vec<(InvokeId, InvokeId, u32)>,
    /// Number of TAINTEDVAR tuples (context-sensitive), for curiosity.
    pub tainted_var_tuples: usize,
    /// Engine rounds.
    pub rounds: u64,
}

/// Runs the points-to model *plus* the taint rules of `spec` and returns
/// the computed leak set. Context-constructor arguments are as in
/// [`crate::model::run_model`].
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
pub fn run_taint_model(
    program: &Program,
    hierarchy: &ClassHierarchy,
    spec: &TaintSpec,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
) -> Result<TaintModelResult, RuleError> {
    run_taint_model_with_rewrites(program, hierarchy, spec, default, refined, refinement, None)
}

/// [`run_taint_model`] over the base model with a call-edge rewrite table
/// (see [`crate::model::run_model_with_rewrites`]). The taint rules
/// themselves are untouched — they propagate through
/// `CALLGRAPH`/`FORMALARG` directly, so rewrites only affect them via the
/// base model's `VARPOINTSTO`, exactly like the optimized taint client.
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
#[allow(clippy::too_many_arguments)]
pub fn run_taint_model_with_rewrites(
    program: &Program,
    hierarchy: &ClassHierarchy,
    spec: &TaintSpec,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
    rewrites: Option<&rudoop_core::rewrite::RewriteTable>,
) -> Result<TaintModelResult, RuleError> {
    let tables = Rc::new(RefCell::new(CtxTables::new()));
    let mut engine = Engine::new();
    let base = install_base_model(
        &mut engine,
        &tables,
        program,
        hierarchy,
        default,
        refined,
        refinement,
        rewrites,
    )?;

    // ---- Taint EDB ----
    let sourcemeth = engine.relation("SOURCEMETH", 1); // meth
    let sanitizermeth = engine.relation("SANITIZERMETH", 1); // meth
    let sinkmetharg = engine.relation("SINKMETHARG", 2); // meth, i

    // ---- Taint IDB ----
    let taintedvar = engine.relation("TAINTEDVAR", 3); // var, ctx, src
    let taintedfld = engine.relation("TAINTEDFLD", 4); // heap, hctx, fld, src
    let taintedglobal = engine.relation("TAINTEDGLOBAL", 2); // glob, src
    let leak = engine.relation("LEAK", 3); // src, invo, i

    let add = |engine: &mut Engine<'_>,
               rule: Result<crate::rule::Rule, RuleError>|
     -> Result<(), RuleError> { engine.add_rule(rule?) };

    add(
        &mut engine,
        RuleBuilder::new("t-source")
            .head(taintedvar, &["to", "callerCtx", "invo"])
            .pos(base.callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(sourcemeth, &["meth"])
            .pos(base.actualreturn, &["invo", "to"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-move")
            .head(taintedvar, &["to", "ctx", "src"])
            .pos(base.mov, &["to", "from"])
            .pos(taintedvar, &["from", "ctx", "src"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-arg")
            .head(taintedvar, &["to", "calleeCtx", "src"])
            .pos(base.callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(base.formalarg, &["meth", "i", "to"])
            .pos(base.actualarg, &["invo", "i", "from"])
            .pos(taintedvar, &["from", "callerCtx", "src"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-ret")
            .head(taintedvar, &["to", "callerCtx", "src"])
            .pos(base.callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(base.formalreturn, &["meth", "from"])
            .pos(base.actualreturn, &["invo", "to"])
            .pos(taintedvar, &["from", "calleeCtx", "src"])
            .neg(sanitizermeth, &["meth"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-this-v")
            .head(taintedvar, &["this", "calleeCtx", "src"])
            .pos(base.vcall, &["base", "_", "invo", "_"])
            .pos(base.callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(base.thisvar, &["meth", "this"])
            .pos(taintedvar, &["base", "callerCtx", "src"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-this-s")
            .head(taintedvar, &["this", "calleeCtx", "src"])
            .pos(base.specialcall, &["base", "_", "invo", "_"])
            .pos(base.callgraph, &["invo", "callerCtx", "meth", "calleeCtx"])
            .pos(base.thisvar, &["meth", "this"])
            .pos(taintedvar, &["base", "callerCtx", "src"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-store")
            .head(taintedfld, &["baseH", "baseHCtx", "fld", "src"])
            .pos(base.store, &["base", "fld", "from"])
            .pos(taintedvar, &["from", "ctx", "src"])
            .pos(base.varpointsto, &["base", "ctx", "baseH", "baseHCtx"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-load")
            .head(taintedvar, &["to", "ctx", "src"])
            .pos(base.load, &["to", "base", "fld"])
            .pos(base.varpointsto, &["base", "ctx", "baseH", "baseHCtx"])
            .pos(taintedfld, &["baseH", "baseHCtx", "fld", "src"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-gstore")
            .head(taintedglobal, &["glob", "src"])
            .pos(base.sstore, &["glob", "from"])
            .pos(taintedvar, &["from", "_", "src"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-gload")
            .head(taintedvar, &["to", "ctx", "src"])
            .pos(base.sload, &["to", "glob", "inMeth"])
            .pos(base.reachable, &["inMeth", "ctx"])
            .pos(taintedglobal, &["glob", "src"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("t-leak")
            .head(leak, &["src", "invo", "i"])
            .pos(base.callgraph, &["invo", "callerCtx", "meth", "_"])
            .pos(sinkmetharg, &["meth", "i"])
            .pos(base.actualarg, &["invo", "i", "from"])
            .pos(taintedvar, &["from", "callerCtx", "src"])
            .build(),
    )?;

    // ---- Taint facts from the spec ----
    for &m in spec.sources() {
        engine.fact(sourcemeth, &[m.0]);
    }
    for &m in spec.sanitizers() {
        engine.fact(sanitizermeth, &[m.0]);
    }
    for (mid, method) in program.methods.iter() {
        for i in spec.sink_args(mid, method.params.len()) {
            engine.fact(sinkmetharg, &[mid.0, i]);
        }
    }

    let stats = engine.run()?;
    let mut leaks: Vec<(InvokeId, InvokeId, u32)> = engine
        .tuples(leak)
        .map(|t| (InvokeId(t[0]), InvokeId(t[1]), t[2]))
        .collect();
    leaks.sort_unstable();
    leaks.dedup();
    let tainted_var_tuples = engine.tuples(taintedvar).count();
    Ok(TaintModelResult {
        leaks,
        tainted_var_tuples,
        rounds: stats.rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_core::policy::Insensitive;
    use rudoop_ir::ProgramBuilder;

    #[test]
    fn sanitizer_blocks_and_direct_flow_leaks() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let kit = b.class("Kit", Some(obj));
        let src = b.method(kit, "input", &[], true);
        let sv = b.var(src, "v");
        b.alloc(src, sv, obj);
        b.ret(src, sv);
        let san = b.method(kit, "clean", &["x"], true);
        let sp = b.param(san, 0);
        b.ret(san, sp);
        let snk = b.method(kit, "exec", &["a"], true);
        let main = b.method(obj, "main", &[], true);
        let t = b.var(main, "t");
        let c = b.var(main, "c");
        b.scall(main, Some(t), src, &[]);
        b.scall(main, Some(c), san, &[t]);
        b.scall(main, None, snk, &[t]);
        b.scall(main, None, snk, &[c]);
        b.entry(main);
        let p = b.finish();
        let mut spec = TaintSpec::new();
        spec.add_source(src);
        spec.add_sanitizer(san);
        spec.add_sink(snk, Some(0));
        let hier = ClassHierarchy::new(&p);
        let refine = RefinementSet::refine_all(&p);
        let m = run_taint_model(&p, &hier, &spec, &Insensitive, &Insensitive, &refine).unwrap();
        assert_eq!(m.leaks.len(), 1, "only the unsanitized call leaks");
        assert!(m.tainted_var_tuples > 0);
    }
}
