//! Command-line contract of the harness binaries: `--jobs` never changes
//! results, `--json` writes schema-versioned reports, and bad flags fail
//! with a usage message and exit status 2.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fig7() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig7"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fugu-bench-cli-{}-{name}", std::process::id()));
    p
}

/// Reads a file the test wrote, then deletes it.
fn take(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let _ = std::fs::remove_file(path);
    bytes
}

#[test]
fn jobs_flag_does_not_change_json_output() {
    let runs: [(&str, &str, &[&str]); 2] = [
        (
            "fig7",
            env!("CARGO_BIN_EXE_fig7"),
            &["--quick", "--nodes", "2"],
        ),
        ("profile", env!("CARGO_BIN_EXE_profile"), &["--quick"]),
    ];
    for (bin, exe, args) in runs {
        let a = tmp(&format!("{bin}-jobs1.json"));
        let b = tmp(&format!("{bin}-jobs4.json"));
        for (jobs, path) in [("1", &a), ("4", &b)] {
            let status = Command::new(exe)
                .args(args)
                .args(["--jobs", jobs, "--json"])
                .arg(path)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
            assert!(status.success(), "{bin} --jobs {jobs} failed");
        }
        // `profile` also writes a Perfetto trace next to its report.
        if bin == "profile" {
            let ta = take(&a.with_extension("trace.json"));
            let tb = take(&b.with_extension("trace.json"));
            assert!(
                ta == tb,
                "{bin}: --jobs 1 and --jobs 4 traces must be byte-identical"
            );
        }
        let ja = take(&a);
        let jb = take(&b);
        assert!(
            ja == jb,
            "{bin}: --jobs 1 and --jobs 4 reports must be byte-identical"
        );
        let text = String::from_utf8(ja).expect("reports are UTF-8");
        assert!(text.contains("\"schema\": \"fugu-bench/v1\""));
        assert!(text.contains(&format!("\"binary\": \"{bin}\"")));
        assert!(
            !text.contains("jobs"),
            "{bin}: --jobs must not leak into the report"
        );
    }
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = fig7().arg("--bogus").output().expect("fig7 runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --bogus"));
    assert!(stderr.contains("--jobs"), "usage must list the flags");
}

#[test]
fn missing_value_exits_2() {
    let out = fig7().arg("--nodes").output().expect("fig7 runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--nodes needs a value"));
}

#[test]
fn zero_trials_exits_2_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig9"))
        .args(["--quick", "--trials", "0"])
        .output()
        .expect("fig9 runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--trials must be at least 1"));
    assert!(stderr.contains("--jobs"), "usage must list the flags");
    assert!(out.stdout.is_empty(), "no table of NaN rows");
}

#[test]
fn zero_nodes_exits_2_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_table6"))
        .args(["--quick", "--nodes", "0"])
        .output()
        .expect("table6 runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--nodes must be at least 1"));
    assert!(!stderr.contains("panicked"));
}

#[test]
fn replay_of_an_unrunnable_spec_exits_2() {
    for spec in ["skew=150", "timeslice=0", "faults=frame-burst=4294967296"] {
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(["--replay", spec])
            .output()
            .expect("explore runs");
        assert_eq!(out.status.code(), Some(2), "spec {spec}");
    }
}

#[test]
fn help_exits_0() {
    let out = fig7().arg("--help").output().expect("fig7 runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--json"));
}
