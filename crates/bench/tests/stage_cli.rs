//! CLI contract of `bench_runner`: unknown stages or arguments and flags
//! missing their value fail fast with a diagnostic, the usage line and exit
//! code 2, and filtered runs emit syntactically valid JSON whose
//! `stages_run` records exactly the selected subset — including the
//! `incremental` stage, whose quick run must round-trip end-to-end here.
//!
//! The binary (and so this test target) requires the `naive-reference`
//! feature; plain `cargo test` skips it.

mod json_syntax;

use std::path::PathBuf;
use std::process::Command;

fn runner() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench_runner"))
}

fn tmp_out(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `bench_runner` with `args`, asserts it exits 2 with the usage line
/// before running anything, and returns its stderr.
fn usage_error(args: &[&str]) -> String {
    let output = runner().args(args).output().expect("spawn bench_runner");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains("usage: bench_runner"), "{args:?} must print the usage: {stderr}");
    assert!(output.stdout.is_empty() && !stderr.contains("=="), "nothing may run: {stderr}");
    stderr
}

#[test]
fn unknown_stage_fails_fast_with_exit_2() {
    let stderr = usage_error(&["--stage", "turbo"]);
    assert!(stderr.contains("unknown stage \"turbo\""), "diagnostic names the bad stage: {stderr}");
    assert!(stderr.contains("incremental"), "diagnostic lists the valid stages: {stderr}");
}

#[test]
fn dangling_stage_flag_fails_fast_with_exit_2() {
    assert!(usage_error(&["--stage"]).contains("--stage needs a name"));
}

#[test]
fn unknown_argument_fails_fast_with_exit_2() {
    // A `--quick` typo must not fall through to the full-sample sweep.
    assert!(usage_error(&["--quik"]).contains("unknown argument \"--quik\""));
}

#[test]
fn dangling_out_flag_fails_fast_with_exit_2() {
    assert!(usage_error(&["--quick", "--stage", "store", "--out"]).contains("--out needs a path"));
}

#[test]
fn quick_incremental_stage_round_trips_to_valid_json() {
    let out = tmp_out("stage_cli_incremental.json");
    let _ = std::fs::remove_file(&out);
    let output = runner()
        .args(["--quick", "--stage", "incremental", "--out"])
        .arg(&out)
        .output()
        .expect("spawn bench_runner");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "quick incremental run failed:\n{stderr}");
    assert!(
        stderr.contains("== incremental stage per workload =="),
        "the grep-able summary block must be printed: {stderr}"
    );

    let json = std::fs::read(&out).expect("the run must write its report");
    json_syntax::parse_json(&json).expect("emitted report must be valid JSON");
    let text = String::from_utf8(json).unwrap();
    assert!(
        text.contains("\"stages_run\": [\"incremental\"]"),
        "stages_run must record exactly the selected stage"
    );
    assert!(text.contains("\"incremental\": {"), "the selected stage's section must be present");
    for absent in ["\"construction\": {", "\"demand\": {", "\"recovery\": {"] {
        assert!(!text.contains(absent), "unselected stage section {absent} leaked into the report");
    }
    for field in ["\"speedup\":", "\"samples_used\":", "\"host_threads\":", "\"maintain_stats\":"] {
        assert!(text.contains(field), "incremental section must report {field}");
    }
    let _ = std::fs::remove_file(&out);
}
