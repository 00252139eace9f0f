//! The invariant the single call-edge rewrite rule relies on: a
//! receiver-field rewrite (setter parameter, getter return, summary field
//! atom) is only ever attached to an instance method, and no valid
//! program calls an instance method from a static call site. Together
//! they mean every site that meets a receiver-field rewrite has a
//! receiver, so the solver and the reference model can apply return
//! rewrites at every call site without a static-site special case.

use rudoop_core::cutshortcut::CutSummary;
use rudoop_core::rewrite::{ParamRewrite, RetAtom, RewriteTable};
use rudoop_core::summaries::SummaryTable;
use rudoop_ir::arbitrary::{generate_with_taint, ProgramShape};
use rudoop_ir::{validate, ClassHierarchy, Program};
use rudoop_workloads::dacapo;

/// Every receiver-field rewrite in `table`, as `method: kind` lines, for
/// methods that have no receiver.
fn receiver_rewrites_on_static_methods(program: &Program, table: &RewriteTable) -> Vec<String> {
    let mut found = Vec::new();
    for (mid, mr) in table.iter() {
        if !program.methods[mid].is_static {
            continue;
        }
        let method = program.method_display(mid);
        for (i, p) in mr.params.iter().enumerate() {
            if let Some(ParamRewrite::ToReceiverField(_)) = p {
                found.push(format!("{method}: setter arg{i}"));
            }
        }
        for atom in mr.ret.iter().flatten() {
            if let RetAtom::ReceiverField(_) = atom {
                found.push(format!("{method}: receiver-field return"));
            }
        }
    }
    found
}

/// Checks `program` and returns how many receiver-field rewrites its two
/// tables hold, so the battery can show it is not vacuous.
fn check(name: &str, program: &Program) -> usize {
    if let Err(errors) = validate(program) {
        panic!("{name}: generated program fails validate: {errors:?}");
    }
    let hierarchy = ClassHierarchy::new(program);
    let cuts = CutSummary::compute(program);
    let summaries = SummaryTable::compute(program, &hierarchy);
    for table in [cuts.rewrites(), summaries.rewrites()] {
        let bad = receiver_rewrites_on_static_methods(program, table);
        assert!(bad.is_empty(), "{name} ({}): {bad:?}", table.name());
    }
    let s = &cuts.stats;
    s.setter_params + s.getter_returns + summaries.stats.field_atoms
}

#[test]
fn seeded_programs_keep_receiver_rewrites_on_instance_methods() {
    let shape = ProgramShape::default();
    // The random generator's bodies rarely form an accessor, so these
    // programs mostly check the `validate` half of the invariant.
    for seed in 0..16u64 {
        let (program, _) = generate_with_taint(&shape, seed, 2);
        check(&format!("seed {seed}"), &program);
    }
}

#[test]
fn dacapo_workloads_keep_receiver_rewrites_on_instance_methods() {
    let mut receiver_rewrites = 0;
    for spec in dacapo::all_nine() {
        receiver_rewrites += check(&spec.name, &spec.build());
    }
    assert!(receiver_rewrites > 0, "no workload has a receiver rewrite");
}
