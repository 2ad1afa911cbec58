//! CLI contract of `bench_runner`: unknown stages or arguments and flags
//! missing their value fail fast with a diagnostic, the usage line and exit
//! code 2, and filtered runs emit syntactically valid JSON whose
//! `stages_run` records exactly the selected subset. The `parallel` stage's
//! quick run round-trips end-to-end here.
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
    // `store`, `recovery` and `incremental` were stages once; perfbench
    // times those service paths now.
    for stage in ["turbo", "store", "recovery", "incremental"] {
        let stderr = usage_error(&["--stage", stage]);
        assert!(
            stderr.contains(&format!("unknown stage {stage:?}")),
            "diagnostic names the bad stage: {stderr}"
        );
        assert!(
            stderr.contains("stages: construction, datalog, demand, parallel\n"),
            "diagnostic lists the valid stages: {stderr}"
        );
    }
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
    assert!(usage_error(&["--quick", "--stage", "demand", "--out"]).contains("--out needs a path"));
}

#[test]
fn quick_parallel_stage_round_trips_to_valid_json() {
    let out = tmp_out("stage_cli_parallel.json");
    let _ = std::fs::remove_file(&out);
    let output = runner()
        .args(["--quick", "--stage", "parallel", "--out"])
        .arg(&out)
        .output()
        .expect("spawn bench_runner");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "quick parallel run failed:\n{stderr}");
    assert!(
        stderr.contains("== parallel stage =="),
        "the grep-able summary block must be printed: {stderr}"
    );

    let json = std::fs::read(&out).expect("the run must write its report");
    json_syntax::parse_json(&json).expect("emitted report must be valid JSON");
    let text = String::from_utf8(json).unwrap();
    // BENCH_2…10 are committed records; a new run must not pose as one.
    assert!(text.contains("\"id\": \"BENCH_16\""), "the record is stamped BENCH_16");
    assert!(
        text.contains("\"stages_run\": [\"parallel\"]"),
        "stages_run must record exactly the selected stage"
    );
    assert!(text.contains("\"parallel\": {"), "the selected stage's section must be present");
    for absent in ["\"workloads\": [", "\"datalog\": {", "\"demand\": {"] {
        assert!(!text.contains(absent), "unselected stage section {absent} leaked into the report");
    }
    for field in ["\"host_threads\":", "\"sweep\":", "\"speedup_vs_1\":"] {
        assert!(text.contains(field), "parallel section must report {field}");
    }
    let _ = std::fs::remove_file(&out);
}
