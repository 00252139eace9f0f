//! End-to-end tests for the `rudoop` binary's degradation ladder: the
//! exit-code contract (0 complete / 3 degraded / 4 all rungs exhausted)
//! and the rendered attempt history.

use std::process::{Command, Output};

fn rudoop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to run rudoop")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

// The ladder table and verdict are progress reporting, so they land on
// stderr; stdout is reserved for machine-readable payloads.

#[test]
fn completed_ladder_exits_zero() {
    let out = rudoop(&["@hsqldb", "--ladder", "insens"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = stderr(&out);
    assert!(text.contains("verdict: complete"), "{text}");
    assert!(text.contains("* [0] insens"), "{text}");
    assert!(
        out.stdout.is_empty(),
        "ladder without reports keeps stdout empty"
    );
}

#[test]
fn degraded_ladder_exits_three() {
    // 2objH blows a 2M-derivation budget on hsqldb; introspective-A
    // completes (the paper's rescue story).
    let out = rudoop(&["@hsqldb", "--ladder", "default", "--budget", "2000000"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let text = stderr(&out);
    assert!(text.contains("verdict: degraded"), "{text}");
    assert!(
        text.contains("[0] 2objH              stopped: derivation budget exhausted"),
        "{text}"
    );
    assert!(
        text.contains("(computed shared insensitive first pass)"),
        "{text}"
    );
    // Degraded output still reports precision metrics of the fallback.
    assert!(text.contains("precision ("), "{text}");
}

/// The README's two budgeted ladder runs, pinned byte for byte: each
/// rung's exhaustion point (`derivations=`), modeled memory (`bytes~`) and
/// salvaged facts are deterministic and independent of how the solver
/// stores its sets.
fn assert_ladder_golden(args: &[&str], fixture: &str) {
    let out = rudoop(args);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).expect("ladder golden present");
    assert_eq!(stderr(&out), want, "ladder table drifted from {fixture}");
    assert!(
        out.stdout.is_empty(),
        "ladder without reports keeps stdout empty"
    );
}

#[test]
fn readme_ladder_hsqldb_intro_b_is_byte_identical() {
    assert_ladder_golden(
        &[
            "@hsqldb",
            "--ladder",
            "introspectiveB:2objH",
            "--budget",
            "2000000",
        ],
        "ladder_hsqldb_introB_2objH.txt",
    );
}

#[test]
fn readme_ladder_jython_default_is_byte_identical() {
    assert_ladder_golden(
        &["@jython", "--ladder", "default", "--budget", "2000000"],
        "ladder_jython_default.txt",
    );
}

#[test]
fn exhausted_ladder_exits_four_and_salvages() {
    // Too small even for the insensitive rung.
    let out = rudoop(&["@hsqldb", "--ladder", "2objH,insens", "--budget", "100000"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let text = stderr(&out);
    assert!(text.contains("verdict: exhausted"), "{text}");
    assert!(text.contains("best partial result kept"), "{text}");
}

#[test]
fn lone_introspective_rung_expands_to_canonical_ladder() {
    let out = rudoop(&[
        "@hsqldb",
        "--ladder",
        "introspectiveB:2objH",
        "--budget",
        "100000",
    ]);
    let text = stderr(&out);
    assert!(text.contains("[0] 2objH"), "{text}");
    assert!(text.contains("[1] introB:2objH"), "{text}");
    assert!(text.contains("[2] insens"), "{text}");
}

#[test]
fn bad_ladder_spec_is_a_usage_error() {
    let out = rudoop(&["@hsqldb", "--ladder", "introC:2objH"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(err.contains("bad ladder"), "{err}");
}

#[test]
fn lint_timeout_skips_tier2_and_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_rudoop-lint"))
        .args(["@hsqldb", "--analysis", "2objH", "--timeout", "0.02"])
        .output()
        .expect("failed to run rudoop-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(
        err.contains("analysis degraded (2objH), tier-2 lints skipped"),
        "{err}"
    );
}
