//! Command-line contract of the harness binaries: `--jobs` never changes
//! results, `--json` writes schema-versioned reports, and bad flags fail
//! with a usage message and exit status 2.

use std::path::{Path, PathBuf};
use std::process::Command;

use fugu_bench::scenario::chaos_spec;
use fugu_bench::{Json, Opts, Workload};

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

fn explore() -> Command {
    Command::new(env!("CARGO_BIN_EXE_explore"))
}

#[test]
fn explore_unknown_flag_exits_2_with_usage() {
    let out = explore().arg("--bogus").output().expect("explore runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: unknown option --bogus"), "{stderr}");
    assert!(stderr.contains("usage: explore"), "{stderr}");
    assert!(
        stderr.contains("--replay SPEC"),
        "usage must list the flags"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn explore_missing_value_exits_2_with_usage() {
    for (flag, message) in [
        ("--budget", "--budget needs a value"),
        ("--json", "--json needs a path"),
        ("--replay", "--replay needs a scenario spec"),
    ] {
        let out = explore().arg(flag).output().expect("explore runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{flag}: {stderr}");
        assert!(stderr.contains("usage: explore"), "{flag}: {stderr}");
    }
    let out = explore()
        .args(["--seed", "x"])
        .output()
        .expect("explore runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed wants an integer"));
}

#[test]
fn explore_help_exits_0() {
    let out = explore().arg("--help").output().expect("explore runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("usage: explore"), "{stdout}");
    assert!(stdout.contains("--replay SPEC"), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn replay_of_an_unrunnable_spec_exits_2() {
    for spec in [
        "skew=150",
        "timeslice=0",
        "faults=frame-burst=4294967296",
        "workload=bogus",
        "scale=3",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(["--replay", spec])
            .output()
            .expect("explore runs");
        assert_eq!(out.status.code(), Some(2), "spec {spec}");
    }
}

#[test]
fn replay_runs_barnes_and_water() {
    for workload in ["barnes", "water"] {
        let spec = format!("workload={workload}:scale=0:nodes=2");
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(["--replay", &spec])
            .output()
            .expect("explore runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{spec}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// The `explore --replay` line chaos prints for a failing cell reproduces
/// that cell: replaying each top-rate cell's spec ends at the cell's
/// `end_time`.
#[test]
fn chaos_cells_replay_through_explore() {
    let args = ["--quick", "--nodes", "2"];
    let path = tmp("chaos.json");
    let status = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .arg("--json")
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("chaos runs");
    assert!(status.success(), "chaos --quick --nodes 2 failed");
    let doc = Json::parse(&String::from_utf8(take(&path)).expect("UTF-8")).expect("JSON");
    let Some(Json::Arr(points)) = doc.get("points") else {
        panic!("chaos report has no points");
    };
    let opts = Opts::try_parse(8, args.map(String::from)).expect("valid flags");
    let top_rate = 0.02;
    let mut replayed = 0;
    for point in points {
        let Some(&Json::Float(rate)) = point.get("rate") else {
            continue; // rate 0 renders as an integer
        };
        if rate != top_rate {
            continue;
        }
        let Some(Json::Str(app)) = point.get("app") else {
            panic!("chaos point has no app");
        };
        let workload = Workload::parse(app).expect("chaos reports known workloads");
        let spec = chaos_spec(workload, rate, 0, &opts).render();
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args(["--replay", &spec])
            .output()
            .expect("explore runs");
        assert_eq!(out.status.code(), Some(0), "replay of {spec}");
        let stdout = String::from_utf8(out.stdout).expect("UTF-8");
        let body = stdout
            .split_once('\n')
            .and_then(|(_, rest)| rest.rsplit_once("scenario passed"))
            .map(|(json, _)| json)
            .expect("replay prints the outcome between two status lines");
        let outcome = Json::parse(body).expect("outcome JSON");
        assert_eq!(
            outcome.get("cycles"),
            point.get("end_time"),
            "{app} @ rate {rate}: replay of {spec}"
        );
        replayed += 1;
    }
    assert_eq!(replayed, 5, "one top-rate cell per app");
}

/// Three nodes break the power-of-two barrier's precondition: the sweep
/// still finishes, reports those cells by status with a repro line, and
/// that line replays the same failure.
#[test]
fn chaos_reports_a_panicking_cell_with_its_repro() {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--quick", "--nodes", "3"])
        .output()
        .expect("chaos runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a guarantee failure, not a crash"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PANICKED"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let failure = "barrier @ rate 0: panicked: barrier requires power-of-two nodes\n";
    let repro = stderr
        .split_once(failure)
        .and_then(|(_, rest)| rest.split_once("repro: explore --replay '"))
        .and_then(|(_, rest)| rest.split_once('\''))
        .map(|(spec, _)| spec)
        .unwrap_or_else(|| panic!("no repro after the barrier failure:\n{stderr}"));
    let replay = Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["--replay", repro])
        .output()
        .expect("explore runs");
    assert_eq!(replay.status.code(), Some(1), "replay of {repro}");
    assert!(String::from_utf8_lossy(&replay.stderr).contains("scenario FAILED (panicked)"));
}

#[test]
fn help_exits_0() {
    let out = fig7().arg("--help").output().expect("fig7 runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--json"));
}

#[test]
fn fugu_trace_prints_events_without_changing_results() {
    // `FUGU_TRACE` installs a stderr subscriber in every machine, including
    // those `parallel_map` builds on its worker threads; an unknown name
    // draws one warning per process, not one per machine.
    let run = |trace: Option<&str>| {
        let json = tmp(&format!("trace-{}.json", trace.is_some()));
        let mut cmd = fig7();
        cmd.args(["--quick", "--nodes", "2", "--jobs", "2", "--json"])
            .arg(&json)
            .env_remove("FUGU_TRACE");
        if let Some(names) = trace {
            cmd.env("FUGU_TRACE", names);
        }
        let out = cmd.output().expect("fig7 runs");
        assert!(
            out.status.success(),
            "fig7 with FUGU_TRACE={trace:?} failed"
        );
        (
            take(&json),
            out.stdout,
            String::from_utf8(out.stderr).unwrap(),
        )
    };
    let (plain_json, plain_stdout, plain_stderr) = run(None);
    let (traced_json, traced_stdout, traced_stderr) = run(Some("mode,bogus"));
    assert!(
        traced_json == plain_json,
        "tracing must not move the report"
    );
    assert!(
        traced_stdout == plain_stdout,
        "tracing must not move the table"
    );
    assert!(!plain_stderr.contains("[trace "));
    assert!(traced_stderr.lines().any(|l| l.starts_with("[trace ")));
    let warnings: Vec<&str> = traced_stderr
        .lines()
        .filter(|l| l.starts_with("warning: FUGU_TRACE: unknown category bogus"))
        .collect();
    assert_eq!(warnings.len(), 1, "{warnings:?}");
}
