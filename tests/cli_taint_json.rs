//! End-to-end tests for `rudoop taint --format json`: the machine-readable
//! leak report against a committed golden fixture, and its byte-stability
//! across repeated runs.

use std::process::{Command, Output};

fn rudoop(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rudoop"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to run rudoop")
}

const FIXTURE: &str = "tests/fixtures/taint_pipeline.rdp";
const SPEC: &str = "tests/fixtures/taint_pipeline.taint";

#[test]
fn json_report_matches_golden_fixture() {
    let out = rudoop(&["taint", FIXTURE, "--spec", SPEC, "--format", "json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/taint_pipeline.json"
    ))
    .expect("golden fixture present");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        golden,
        "taint --format json drifted from the committed golden fixture; \
         if the change is intentional, regenerate tests/fixtures/taint_pipeline.json"
    );
}

#[test]
fn json_report_is_identical_across_runs() {
    let args = ["taint", FIXTURE, "--spec", SPEC, "--format", "json"];
    let first = rudoop(&args);
    assert_eq!(first.status.code(), Some(0), "{first:?}");
    let again = rudoop(&args);
    assert_eq!(again.status.code(), Some(0), "{again:?}");
    assert_eq!(
        first.stdout, again.stdout,
        "taint JSON differs between runs"
    );
}

#[test]
fn json_mode_keeps_stdout_a_single_document() {
    let out = rudoop(&["taint", FIXTURE, "--spec", SPEC, "--format", "json"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\n"), "{stdout}");
    assert!(stdout.ends_with("}\n"), "{stdout}");
    // The human ladder table goes to stderr instead.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("degradation ladder:"), "{stderr}");
    assert!(!stdout.contains("degradation ladder:"), "{stdout}");
}

#[test]
fn exhausted_ladder_reports_skipped_taint_in_json() {
    let out = rudoop(&[
        "taint", FIXTURE, "--spec", SPEC, "--format", "json", "--ladder", "insens", "--budget", "1",
    ]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"analysis\": null"), "{stdout}");
    assert!(stdout.contains("\"skipped\": \""), "{stdout}");
    assert!(stdout.contains("\"leaks\": []"), "{stdout}");
}

#[test]
fn format_json_outside_taint_is_a_usage_error() {
    let out = rudoop(&[FIXTURE, "--format", "json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
