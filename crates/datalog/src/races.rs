//! The race client as a Datalog-backed reference model — the executable
//! specification the optimized race detector in `rudoop-core` is
//! differential-tested against.
//!
//! The monotone half of the client — which `(method, context)` instances
//! each abstract thread may execute — is genuine Datalog over the
//! Figure 2–3 base model, with spawn sites switching threads:
//!
//! ```text
//! exec-entry  EXEC(#main, meth, #0)  :- ENTRY(meth).
//! exec-call   EXEC(t, m2, c2)        :- CALLGRAPH(invo, c1, m2, c2), INVOKEIN(invo, m1),
//!                                       EXEC(t, m1, c1), !SPAWNSITE(invo).
//! exec-spawn  EXEC(t2, m2, c2)       :- CALLGRAPH(invo, c1, m2, c2), INVOKEIN(invo, m1),
//!                                       EXEC(_, m1, c1), THREADOF(invo, t2).
//! ```
//!
//! where `SPAWNSITE`, `THREADOF` (one fresh thread constant per spawn
//! site), and `INVOKEIN` (call site → enclosing method) are extra EDB
//! facts read straight off the IR.
//!
//! The rest of the client is deliberately *not* expressed as rules: the
//! once/multi classification counts call sites, may-happen-in-parallel is
//! a negation over that count, must-lock sets are a *greatest* fixpoint
//! (set intersection over paths), and lock resolution demands "points to
//! exactly one allocation site" — cardinality tests and GFPs that plain
//! stratified Datalog cannot state. Those parts run here as a naive,
//! quadratic, obviously-correct Rust spec over the engine's fixpoint
//! tuples (transitive closure instead of Tarjan SCCs, full pairwise
//! intersection instead of merge scans), mirroring the definitions in
//! `rudoop_core::races` clause by clause. The differential suite pins the
//! projected race sets of the two implementations byte-identical.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use rudoop_core::context::CtxTables;
use rudoop_core::policy::{ContextPolicy, RefinementSet};
use rudoop_core::races::{RaceKey, Site};
use rudoop_ir::{
    AllocId, ClassHierarchy, Instruction, InvokeId, InvokeKind, MethodId, Program, VarId,
};

use crate::engine::Engine;
use crate::model::install_base_model;
use crate::rule::{RuleBuilder, RuleError};

/// The race relations computed by [`run_race_model`].
#[derive(Debug, Clone, Default)]
pub struct RaceModelResult {
    /// Projected race triples `(key, site A, site B)` with A ≤ B, sorted
    /// and deduplicated — the canonical form compared against
    /// [`rudoop_core::races::RaceResult::race_set`].
    pub races: Vec<(RaceKey, Site, Site)>,
    /// Number of EXEC tuples the engine derived (context-sensitive).
    pub exec_tuples: usize,
    /// Engine rounds.
    pub rounds: u64,
}

/// Runs the points-to model *plus* the EXEC thread rules and the naive
/// race aggregation, returning the projected race set.
/// Context-constructor arguments are as in [`crate::model::run_model`].
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
pub fn run_race_model(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
) -> Result<RaceModelResult, RuleError> {
    run_race_model_with_rewrites(program, hierarchy, default, refined, refinement, None)
}

/// [`run_race_model`] over the base model with a call-edge rewrite table
/// (see [`crate::model::run_model_with_rewrites`]). The EXEC and race
/// rules are untouched; rewrites reach the race set only through the base
/// model's `VARPOINTSTO`/`CALLGRAPH` relations.
///
/// # Errors
///
/// Propagates [`RuleError`] from rule construction (a bug, not an input
/// condition — the rules are fixed).
pub fn run_race_model_with_rewrites(
    program: &Program,
    hierarchy: &ClassHierarchy,
    default: &dyn ContextPolicy,
    refined: &dyn ContextPolicy,
    refinement: &RefinementSet,
    rewrites: Option<&rudoop_core::rewrite::RewriteTable>,
) -> Result<RaceModelResult, RuleError> {
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

    // ---- Concurrency EDB ----
    let spawnsite = engine.relation("SPAWNSITE", 1); // invo
    let threadof = engine.relation("THREADOF", 2); // invo, thread
    let invokein = engine.relation("INVOKEIN", 2); // invo, meth

    // ---- Concurrency IDB ----
    let exec = engine.relation("EXEC", 3); // thread, meth, ctx

    let add = |engine: &mut Engine<'_>,
               rule: Result<crate::rule::Rule, RuleError>|
     -> Result<(), RuleError> { engine.add_rule(rule?) };

    // Thread 0 is main; spawn site `invo` runs thread `invo + 1` (the +1
    // keeps the constants collision-free; the aggregation renumbers).
    add(
        &mut engine,
        RuleBuilder::new("exec-entry")
            .head(exec, &["#0", "meth", "#0"])
            .pos(base.entry, &["meth"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("exec-call")
            .head(exec, &["t", "m2", "c2"])
            .pos(base.callgraph, &["invo", "c1", "m2", "c2"])
            .pos(invokein, &["invo", "m1"])
            .pos(exec, &["t", "m1", "c1"])
            .neg(spawnsite, &["invo"])
            .build(),
    )?;
    add(
        &mut engine,
        RuleBuilder::new("exec-spawn")
            .head(exec, &["t2", "m2", "c2"])
            .pos(base.callgraph, &["invo", "c1", "m2", "c2"])
            .pos(invokein, &["invo", "m1"])
            .pos(exec, &["_", "m1", "c1"])
            .pos(threadof, &["invo", "t2"])
            .build(),
    )?;

    for (iid, inv) in program.invokes.iter() {
        engine.fact(invokein, &[iid.0, inv.method.0]);
    }
    for (_, _, inv) in program.spawn_sites() {
        engine.fact(spawnsite, &[inv.0]);
        engine.fact(threadof, &[inv.0, inv.0 + 1]);
    }

    let stats = engine.run()?;

    let exec_tuples: Vec<(u32, MethodId, u32)> = engine
        .tuples(exec)
        .map(|t| (t[0], MethodId(t[1]), t[2]))
        .collect();
    let call_graph: BTreeSet<(InvokeId, u32, MethodId, u32)> = engine
        .tuples(base.callgraph)
        .map(|t| (InvokeId(t[0]), t[1], MethodId(t[2]), t[3]))
        .collect();
    let reachable: BTreeSet<(MethodId, u32)> = engine
        .tuples(base.reachable)
        .map(|t| (MethodId(t[0]), t[1]))
        .collect();
    let mut vpt: BTreeMap<(VarId, u32), BTreeSet<(AllocId, u32)>> = BTreeMap::new();
    for t in engine.tuples(base.varpointsto) {
        vpt.entry((VarId(t[0]), t[1]))
            .or_default()
            .insert((AllocId(t[2]), t[3]));
    }

    let races = aggregate(program, &exec_tuples, &call_graph, &reachable, &vpt);
    Ok(RaceModelResult {
        races,
        exec_tuples: exec_tuples.len(),
        rounds: stats.rounds,
    })
}

/// Structural concurrency shape of one method body — the naive twin of
/// the core client's `BodyShape`.
#[derive(Debug, Default)]
struct Shape {
    /// `(enter index, exit index, lock var)` per well-bracketed region.
    regions: Vec<(usize, usize, VarId)>,
    /// `(index, receiver var)` per spawn site.
    spawns: Vec<(usize, VarId)>,
    /// `(index, var)` per join.
    joins: Vec<(usize, VarId)>,
    /// Number of body instructions defining each var.
    defs: BTreeMap<VarId, usize>,
}

/// One context-qualified access instance.
#[derive(Debug)]
struct Inst {
    site: (MethodId, usize),
    ctx: u32,
    key: RaceKey,
    base: Option<VarId>,
    write: bool,
    locks: BTreeSet<AllocId>,
    threads: Vec<usize>,
}

/// The non-monotone half of the race client as a naive executable spec:
/// once/multi counting, structural ordering, must-lock greatest fixpoint,
/// singleton must-alias lock resolution, MHP negation, and the final
/// race aggregation — each a direct transcription of the corresponding
/// definition in `rudoop_core::races`, with no attention paid to
/// asymptotics.
fn aggregate(
    program: &Program,
    exec_tuples: &[(u32, MethodId, u32)],
    call_graph: &BTreeSet<(InvokeId, u32, MethodId, u32)>,
    reachable: &BTreeSet<(MethodId, u32)>,
    vpt: &BTreeMap<(VarId, u32), BTreeSet<(AllocId, u32)>>,
) -> Vec<(RaceKey, Site, Site)> {
    // Body index of every invoke site, and per-method structural shape.
    let mut invoke_at: BTreeMap<InvokeId, (MethodId, usize)> = BTreeMap::new();
    let mut shapes: BTreeMap<MethodId, Shape> = BTreeMap::new();
    for (mid, m) in program.methods.iter() {
        let mut shape = Shape::default();
        let mut stack: Vec<(usize, VarId)> = Vec::new();
        for (i, instr) in m.body.iter().enumerate() {
            match *instr {
                Instruction::Call { invoke } => {
                    invoke_at.insert(invoke, (mid, i));
                }
                Instruction::Spawn { invoke } => {
                    invoke_at.insert(invoke, (mid, i));
                    let base = match program.invokes[invoke].kind {
                        InvokeKind::Virtual { base, .. } | InvokeKind::Special { base, .. } => base,
                        InvokeKind::Static { .. } => continue,
                    };
                    shape.spawns.push((i, base));
                }
                Instruction::Join { var } => shape.joins.push((i, var)),
                Instruction::MonitorEnter { var } => stack.push((i, var)),
                Instruction::MonitorExit { var } => {
                    if let Some((enter, v)) = stack.pop() {
                        if v == var {
                            shape.regions.push((enter, i, v));
                        }
                    }
                }
                _ => {}
            }
            if let Some(d) = defined_var(program, instr) {
                *shape.defs.entry(d).or_insert(0) += 1;
            }
        }
        shape.regions.sort_unstable();
        shapes.insert(mid, shape);
    }

    // Threads: 0 is main, then one per spawn site appearing in the call
    // graph, in invoke-id order. Engine thread constants (`invo + 1`)
    // renumber onto this dense range.
    let spawn_site_set: BTreeSet<InvokeId> = program.spawn_sites().map(|(_, _, inv)| inv).collect();
    let spawn_threads: Vec<InvokeId> = call_graph
        .iter()
        .map(|&(inv, _, _, _)| inv)
        .filter(|inv| spawn_site_set.contains(inv))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let thread_roots: Vec<Option<InvokeId>> = std::iter::once(None)
        .chain(spawn_threads.iter().copied().map(Some))
        .collect();
    let thread_of: BTreeMap<InvokeId, usize> = spawn_threads
        .iter()
        .enumerate()
        .map(|(i, &inv)| (inv, i + 1))
        .collect();

    let mut exec: BTreeMap<(MethodId, u32), BTreeSet<usize>> = BTreeMap::new();
    for &(t, m, c) in exec_tuples {
        let local = if t == 0 {
            0
        } else {
            match thread_of.get(&InvokeId(t - 1)) {
                Some(&i) => i,
                None => continue, // spawn site absent from the call graph
            }
        };
        exec.entry((m, c)).or_default().insert(local);
    }

    type CallEdges = BTreeMap<(MethodId, u32), BTreeSet<(InvokeId, MethodId, u32)>>;
    let mut edges_from: CallEdges = BTreeMap::new();
    for &(inv, cctx, m, ectx) in call_graph {
        edges_from
            .entry((program.invokes[inv].method, cctx))
            .or_default()
            .insert((inv, m, ectx));
    }

    let entry_set: BTreeSet<MethodId> = program.entry_points.iter().copied().collect();
    // The base model seeds every entry method as reachable under the empty
    // context (interned as id 0), so the entry seeds are exactly these.
    let entry_seeds: BTreeSet<(MethodId, u32)> = reachable
        .iter()
        .copied()
        .filter(|&(m, c)| c == 0 && entry_set.contains(&m))
        .collect();

    // Once/multi over the projected call graph: two distinct incoming
    // sites (entry counts as one), a cycle, or a multi caller.
    let mut incoming: BTreeMap<MethodId, BTreeSet<InvokeId>> = BTreeMap::new();
    let mut proj_succ: BTreeSet<(MethodId, MethodId)> = BTreeSet::new();
    for &(inv, _, callee, _) in call_graph {
        incoming.entry(callee).or_default().insert(inv);
        proj_succ.insert((program.invokes[inv].method, callee));
    }
    let methods: BTreeSet<MethodId> = reachable.iter().map(|&(m, _)| m).collect();

    // Naive transitive closure: a method is cyclic iff it reaches itself
    // through at least one edge.
    let mut closure = proj_succ.clone();
    loop {
        let mut grew = false;
        let snapshot: Vec<(MethodId, MethodId)> = closure.iter().copied().collect();
        for &(a, b) in &snapshot {
            for &(b2, c) in &snapshot {
                if b == b2 && closure.insert((a, c)) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    let mut multi: BTreeSet<MethodId> = BTreeSet::new();
    for &m in &methods {
        let sites = incoming.get(&m).map_or(0, BTreeSet::len);
        if sites + usize::from(entry_set.contains(&m)) >= 2 || closure.contains(&(m, m)) {
            multi.insert(m);
        }
    }
    loop {
        let mut grew = false;
        for &m in &methods {
            if multi.contains(&m) {
                continue;
            }
            let from_multi = incoming.get(&m).is_some_and(|sites| {
                sites
                    .iter()
                    .any(|&inv| multi.contains(&program.invokes[inv].method))
            });
            if from_multi {
                multi.insert(m);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let self_parallel: Vec<bool> = thread_roots
        .iter()
        .map(|root| match root {
            None => false,
            Some(s) => multi.contains(&program.invokes[*s].method),
        })
        .collect();

    // Lock resolution: a region guards only when its lock var points to
    // exactly one allocation site; pointing to nothing makes the region
    // (and everything inside it) dead.
    let singleton = |v: VarId, c: u32| -> Option<Option<AllocId>> {
        let allocs: BTreeSet<AllocId> = vpt
            .get(&(v, c))
            .map(|objs| objs.iter().map(|&(a, _)| a).collect())
            .unwrap_or_default();
        match allocs.len() {
            0 => None, // dead
            1 => Some(Some(allocs.into_iter().next().unwrap())),
            _ => Some(None), // many: no must-alias, no guard
        }
    };
    let enclosing_locks = |m: MethodId, idx: usize, c: u32| -> Option<BTreeSet<AllocId>> {
        let mut locks = BTreeSet::new();
        for &(enter, exit, v) in &shapes[&m].regions {
            if enter < idx && idx < exit {
                if let Some(h) = singleton(v, c)? {
                    locks.insert(h);
                }
            }
        }
        Some(locks)
    };

    // Interprocedural must-lock sets: greatest fixpoint of
    // MLS(callee) ⊆ MLS(caller) ∪ locks-at-call-site over non-spawn
    // edges, seeded at ∅ for entries and spawn targets. Naively: re-meet
    // every node until nothing shrinks.
    let mut mls: BTreeMap<(MethodId, u32), BTreeSet<AllocId>> = BTreeMap::new();
    for &seed in &entry_seeds {
        mls.insert(seed, BTreeSet::new());
    }
    for &(inv, _, m, c) in call_graph {
        if spawn_site_set.contains(&inv) {
            mls.insert((m, c), BTreeSet::new());
        }
    }
    loop {
        let mut shrunk = false;
        let nodes: Vec<(MethodId, u32)> = mls.keys().copied().collect();
        for node in nodes {
            let held = mls[&node].clone();
            let Some(out) = edges_from.get(&node) else {
                continue;
            };
            for &(inv, m2, c2) in out {
                if spawn_site_set.contains(&inv) {
                    continue;
                }
                let (_, idx) = invoke_at[&inv];
                let Some(site_locks) = enclosing_locks(node.0, idx, node.1) else {
                    continue; // dead call site: no constraint
                };
                let mut contrib = held.clone();
                contrib.extend(site_locks);
                match mls.get_mut(&(m2, c2)) {
                    None => {
                        mls.insert((m2, c2), contrib);
                        shrunk = true;
                    }
                    Some(cur) => {
                        let met: BTreeSet<AllocId> = cur.intersection(&contrib).copied().collect();
                        if met.len() != cur.len() {
                            *cur = met;
                            shrunk = true;
                        }
                    }
                }
            }
        }
        if !shrunk {
            break;
        }
    }

    // Access instances per EXEC node.
    let mut insts: Vec<Inst> = Vec::new();
    for (&(m, c), threads) in &exec {
        for (i, instr) in program.methods[m].body.iter().enumerate() {
            let (key, base, write) = match *instr {
                Instruction::Load { base, field, .. } => (RaceKey::Field(field), Some(base), false),
                Instruction::Store { base, field, .. } => (RaceKey::Field(field), Some(base), true),
                Instruction::LoadGlobal { global, .. } => (RaceKey::Global(global), None, false),
                Instruction::StoreGlobal { global, .. } => (RaceKey::Global(global), None, true),
                _ => continue,
            };
            let Some(mut locks) = enclosing_locks(m, i, c) else {
                continue; // dead: an enclosing lock points to nothing
            };
            if let Some(held) = mls.get(&(m, c)) {
                locks.extend(held.iter().copied());
            }
            insts.push(Inst {
                site: (m, i),
                ctx: c,
                key,
                base,
                write,
                locks,
                threads: threads.iter().copied().collect(),
            });
        }
    }

    let aliases = |a: &Inst, b: &Inst| -> bool {
        match (a.base, b.base) {
            (Some(ba), Some(bb)) => match (vpt.get(&(ba, a.ctx)), vpt.get(&(bb, b.ctx))) {
                (Some(pa), Some(pb)) => pa.intersection(pb).next().is_some(),
                _ => false,
            },
            (None, None) => true, // same global slot (keys already match)
            _ => false,
        }
    };
    // Structural ordering against a thread: the access sits in the
    // once-executed body containing the thread's spawn site, before the
    // spawn or after a matching single-assignment join.
    let ordered_against = |site: (MethodId, usize), t: usize| -> bool {
        let Some(s) = thread_roots[t] else {
            return false;
        };
        let (sm, sidx) = invoke_at[&s];
        if site.0 != sm || multi.contains(&sm) {
            return false;
        }
        if site.1 < sidx {
            return true;
        }
        let shape = &shapes[&sm];
        let Some(&(_, sbase)) = shape.spawns.iter().find(|&&(i, _)| i == sidx) else {
            return false;
        };
        if shape.defs.get(&sbase).copied().unwrap_or(0) > 1 {
            return false;
        }
        shape
            .joins
            .iter()
            .any(|&(jidx, jv)| jv == sbase && jidx > sidx && site.1 > jidx)
    };
    let mhp = |a: &Inst, t1: usize, b: &Inst, t2: usize| -> bool {
        if t1 == t2 {
            return self_parallel[t1];
        }
        !(ordered_against(a.site, t2) || ordered_against(b.site, t1))
    };

    // Race aggregation: same key, ≥ 1 write, disjoint locks, may-alias
    // bases, may-happen-in-parallel threads; project to site pairs.
    let mut races: BTreeSet<(RaceKey, Site, Site)> = BTreeSet::new();
    for a in &insts {
        for b in &insts {
            if a.key != b.key || !(a.write || b.write) {
                continue;
            }
            if !a.locks.is_disjoint(&b.locks) || !aliases(a, b) {
                continue;
            }
            for &t1 in &a.threads {
                for &t2 in &b.threads {
                    if mhp(a, t1, b, t2) {
                        let (sa, sb) = (a.site.min(b.site), a.site.max(b.site));
                        races.insert((a.key, sa, sb));
                    }
                }
            }
        }
    }
    races.into_iter().collect()
}

/// The variable a single instruction defines (at most one) — the naive
/// twin of the core client's helper, for the single-assignment guard on
/// join matching.
fn defined_var(program: &Program, instr: &Instruction) -> Option<VarId> {
    match *instr {
        Instruction::Alloc { var, .. } => Some(var),
        Instruction::Move { to, .. }
        | Instruction::Cast { to, .. }
        | Instruction::Load { to, .. }
        | Instruction::LoadGlobal { to, .. } => Some(to),
        Instruction::Call { invoke } | Instruction::Spawn { invoke } => {
            program.invokes[invoke].result
        }
        Instruction::Store { .. }
        | Instruction::StoreGlobal { .. }
        | Instruction::Return { .. }
        | Instruction::Join { .. }
        | Instruction::MonitorEnter { .. }
        | Instruction::MonitorExit { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_core::policy::{Insensitive, ObjectSensitive};
    use rudoop_core::races::analyze_races;
    use rudoop_core::solver::{analyze, SolverConfig};
    use rudoop_ir::ProgramBuilder;

    fn core_races(p: &Program, policy: &dyn ContextPolicy) -> Vec<(RaceKey, Site, Site)> {
        let h = ClassHierarchy::new(p);
        let config = SolverConfig {
            record_contexts: true,
            ..SolverConfig::default()
        };
        let r = analyze(p, &h, policy, &config);
        analyze_races(p, &r).unwrap().race_set()
    }

    fn model_races(p: &Program, policy: &dyn ContextPolicy) -> Vec<(RaceKey, Site, Site)> {
        let h = ClassHierarchy::new(p);
        let refine = RefinementSet::refine_all(p);
        run_race_model(p, &h, &Insensitive, policy, &refine)
            .unwrap()
            .races
    }

    fn shared_counter() -> Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.store(runm, rc, hits, rv);
        let main = b.method(obj, "main", &[], true);
        let c = b.var(main, "c");
        let w = b.var(main, "w");
        let v = b.var(main, "v");
        b.alloc(main, c, counter);
        b.alloc(main, w, worker);
        b.store(main, w, cfld, c);
        b.spawn(main, w);
        b.alloc(main, v, obj);
        b.store(main, c, hits, v);
        b.entry(main);
        b.finish()
    }

    fn private_counters() -> Program {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.store(runm, rc, hits, rv);
        let main = b.method(obj, "main", &[], true);
        let w1 = b.var(main, "w1");
        let w2 = b.var(main, "w2");
        let c1 = b.var(main, "c1");
        let c2 = b.var(main, "c2");
        b.alloc(main, w1, worker);
        b.alloc(main, c1, counter);
        b.store(main, w1, cfld, c1);
        b.alloc(main, w2, worker);
        b.alloc(main, c2, counter);
        b.store(main, w2, cfld, c2);
        b.spawn(main, w1);
        b.spawn(main, w2);
        b.entry(main);
        b.finish()
    }

    #[test]
    fn model_matches_core_on_shared_counter() {
        let p = shared_counter();
        let model = model_races(&p, &Insensitive);
        let core = core_races(&p, &Insensitive);
        assert!(!core.is_empty(), "fixture must race");
        assert_eq!(model, core);
    }

    #[test]
    fn model_matches_core_on_false_race_elimination() {
        let p = private_counters();
        let insens_model = model_races(&p, &Insensitive);
        let insens_core = core_races(&p, &Insensitive);
        assert_eq!(insens_model, insens_core);
        assert!(!insens_core.is_empty(), "insens must report the false race");

        let obj = ObjectSensitive::new(2, 1);
        let fine_model = model_races(&p, &obj);
        let fine_core = core_races(&p, &obj);
        assert_eq!(fine_model, fine_core);
        assert!(fine_core.is_empty(), "2objH must see distinct counters");
    }

    #[test]
    fn model_respects_join_ordering() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.store(runm, rc, hits, rv);
        let main = b.method(obj, "main", &[], true);
        let c = b.var(main, "c");
        let w = b.var(main, "w");
        let v = b.var(main, "v");
        b.alloc(main, c, counter);
        b.alloc(main, w, worker);
        b.store(main, w, cfld, c);
        b.alloc(main, v, obj);
        b.spawn(main, w);
        b.join(main, w);
        b.store(main, c, hits, v);
        b.entry(main);
        let p = b.finish();
        assert!(model_races(&p, &Insensitive).is_empty());
        assert_eq!(model_races(&p, &Insensitive), core_races(&p, &Insensitive));
    }

    #[test]
    fn model_respects_common_locks() {
        let mut b = ProgramBuilder::new();
        let obj = b.class("Object", None);
        let counter = b.class("Counter", Some(obj));
        let worker = b.class("Worker", Some(obj));
        let hits = b.field(counter, "hits");
        let cfld = b.field(worker, "c");
        let runm = b.method(worker, "run", &[], false);
        let this = b.this(runm);
        let rc = b.var(runm, "rc");
        let rv = b.var(runm, "rv");
        b.load(runm, rc, this, cfld);
        b.alloc(runm, rv, obj);
        b.monitor_enter(runm, rc);
        b.store(runm, rc, hits, rv);
        b.monitor_exit(runm, rc);
        let main = b.method(obj, "main", &[], true);
        let c = b.var(main, "c");
        let w = b.var(main, "w");
        let v = b.var(main, "v");
        b.alloc(main, c, counter);
        b.alloc(main, w, worker);
        b.store(main, w, cfld, c);
        b.alloc(main, v, obj);
        b.spawn(main, w);
        b.monitor_enter(main, c);
        b.store(main, c, hits, v);
        b.monitor_exit(main, c);
        b.entry(main);
        let p = b.finish();
        assert!(model_races(&p, &Insensitive).is_empty());
        assert_eq!(model_races(&p, &Insensitive), core_races(&p, &Insensitive));
    }
}
