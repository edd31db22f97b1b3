//! `fleetbench` fails with a message, not a panic: misuse prints the
//! usage line and exits with status 2, and a reader that closes the
//! output pipe early does not crash the run.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn fleetbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fleetbench"))
        .args(args)
        .output()
        .expect("fleetbench starts")
}

fn report_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn misuse_prints_usage_and_exits_2() {
    let cases: &[&[&str]] = &[
        &["--help"],
        &["--bogus"],
        &["--machines"],
        &["--machines", "many"],
        &["--threads", "-3"],
        &["--seed", "0x12"],
        &["--chaos-rate", ""],
        &["--mix", "nope"],
        &["--quick", "--out"],
    ];
    for args in cases {
        let out = fleetbench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: fleetbench"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn a_small_fleet_runs_and_reports() {
    let report = report_path("fleetbench_cli_small.json");
    let out = fleetbench(&[
        "--machines",
        "4",
        "--threads",
        "1",
        "--mix",
        "gatestorm",
        "--out",
        report.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("merged snapshot hash: fnv1a64:"),
        "{stdout}"
    );
    assert!(std::fs::read_to_string(&report)
        .expect("report written")
        .contains("merged_snapshot_hash"));
}

#[test]
fn closed_stdout_does_not_panic() {
    let report = report_path("fleetbench_cli_pipe.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
        .args(["--machines", "4", "--threads", "1", "--out"])
        .arg(&report)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fleetbench starts");
    // Close the read end before the summary is printed, as `| head -0`
    // would.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("fleetbench finishes");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(report.exists(), "the report is written before printing");
}
