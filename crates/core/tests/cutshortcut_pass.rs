//! Pass-in-isolation tests for the cut-shortcut pre-analysis: the pass is
//! a pure function of the IL, so its rendered summary is pinned to golden
//! text on two seeded programs, and determinism is asserted directly —
//! two independent runs (traced or not) must render byte-identically.

use std::sync::Arc;

use rudoop_core::cutshortcut::CutSummary;
use rudoop_core::driver::Flavor;
use rudoop_core::solver::SolverConfig;
use rudoop_core::{Telemetry, TelemetryHandle};
use rudoop_ir::arbitrary::{generate, ProgramShape};
use rudoop_ir::{Program, ProgramBuilder};

/// Seed 1: a box class whose accessors all match a cut pattern — static
/// identity, virtual setter, virtual getter — plus a `main` that wires
/// them together.
fn accessors_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let box_c = b.class("Box", Some(obj));
    let f = b.field(box_c, "val");
    let id_m = b.method(obj, "id", &["x"], true);
    let xp = b.param(id_m, 0);
    b.ret(id_m, xp);
    let set_m = b.method(box_c, "set", &["v"], false);
    let st = b.this(set_m);
    let sv = b.param(set_m, 0);
    b.store(set_m, st, f, sv);
    let get_m = b.method(box_c, "get", &[], false);
    let gt = b.this(get_m);
    let gr = b.var(get_m, "r");
    b.load(get_m, gr, gt, f);
    b.ret(get_m, gr);
    let main = b.method(obj, "main", &[], true);
    let bx = b.var(main, "bx");
    let item = b.var(main, "item");
    let same = b.var(main, "same");
    let out = b.var(main, "out");
    b.alloc(main, bx, box_c);
    b.alloc(main, item, obj);
    b.scall(main, Some(same), id_m, &[item]);
    b.vcall(main, None, bx, "set", &[same]);
    b.vcall(main, Some(out), bx, "get", &[]);
    b.entry(main);
    b.finish()
}

/// Seed 2: one cuttable identity next to two near-misses — a parameter
/// that escapes into a foreign field, and an identity whose result is
/// never reachable from the parameter (dead-end, must be rejected).
fn near_miss_program() -> Program {
    let mut b = ProgramBuilder::new();
    let obj = b.class("Object", None);
    let holder = b.class("Holder", Some(obj));
    let f = b.field(holder, "held");
    let id_m = b.method(obj, "pass", &["x"], true);
    let xp = b.param(id_m, 0);
    b.ret(id_m, xp);
    let keep_m = b.method(obj, "keep", &["x"], true);
    let kx = b.param(keep_m, 0);
    let kh = b.var(keep_m, "h");
    b.alloc(keep_m, kh, holder);
    b.store(keep_m, kh, f, kx);
    b.ret(keep_m, kh);
    let fresh_m = b.method(obj, "fresh", &["x"], true);
    let _fx = b.param(fresh_m, 0);
    let fr = b.var(fresh_m, "r");
    b.alloc(fresh_m, fr, obj);
    b.ret(fresh_m, fr);
    let main = b.method(obj, "main", &[], true);
    let a = b.var(main, "a");
    let r1 = b.var(main, "r1");
    let r2 = b.var(main, "r2");
    let r3 = b.var(main, "r3");
    b.alloc(main, a, obj);
    b.scall(main, Some(r1), id_m, &[a]);
    b.scall(main, Some(r2), keep_m, &[a]);
    b.scall(main, Some(r3), fresh_m, &[a]);
    b.entry(main);
    b.finish()
}

#[test]
fn golden_summary_for_the_accessors_program() {
    let program = accessors_program();
    let summary = CutSummary::compute(&program);
    assert_eq!(
        summary.render(&program),
        "cut Object.id/1#arg0 (Object.id/1::x): identity; shortcut arg -> result\n\
         cut Box.set/1#arg0 (Box.set/1::v): setter of .val; shortcut arg -> receiver.val\n\
         cut Box.get/0#ret: getter of .val; shortcut receiver.val -> result\n\
         stats: methods=4 with_cuts=3 identity=1 setter=1 getter=1 \
         flow_copy_edges=2 flow_uses=7\n"
    );
}

#[test]
fn golden_summary_for_the_near_miss_program() {
    let program = near_miss_program();
    let summary = CutSummary::compute(&program);
    // `keep` (escaping parameter) and `fresh` (dead-end parameter) must
    // both be rejected; only `pass` survives.
    assert_eq!(
        summary.render(&program),
        "cut Object.pass/1#arg0 (Object.pass/1::x): identity; shortcut arg -> result\n\
         stats: methods=4 with_cuts=1 identity=1 setter=0 getter=0 \
         flow_copy_edges=3 flow_uses=5\n"
    );
}

#[test]
fn pass_is_deterministic_on_seeded_programs() {
    let shape = ProgramShape::default();
    let mut with_cuts = 0usize;
    for seed in 0..12u64 {
        let program = generate(&shape, seed);
        let first = CutSummary::compute(&program).render(&program);
        let second = CutSummary::compute(&program).render(&program);
        assert_eq!(first, second, "seed {seed}: two runs disagree");
        // The flavor driver runs the same pure function under a traced
        // span, then records the pass's counters.
        let tele: TelemetryHandle = Some(Arc::new(Telemetry::new()));
        let cfg = SolverConfig {
            telemetry: tele.clone(),
            ..SolverConfig::default()
        };
        let cuts = CutSummary::compute(&program);
        let prepared = Flavor::CutShortcut.prepare_config(&program, &cfg);
        let rewrites = prepared
            .rewrites
            .expect("cutshortcut injects its rewrite table");
        assert_eq!(rewrites.name(), "cutshortcut");
        assert_eq!(
            *rewrites,
            **cuts.rewrites(),
            "seed {seed}: traced run disagrees"
        );
        let t = tele.as_deref().unwrap();
        assert!(t.spans().iter().any(|s| s.name == "cutshortcut-pass"));
        assert!(t.counter_stream_text().contains(&format!(
            "cutshortcut.identity_params={}\n",
            cuts.stats.identity_params
        )));
        if !cuts.is_empty() {
            with_cuts += 1;
        }
    }
    // The battery must not be vacuous: the generator's accessor shapes
    // give most seeds at least one cut.
    assert!(with_cuts >= 1, "no seeded program had any cuts");
}
