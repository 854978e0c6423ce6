//! Coverage-guided deterministic scenario explorer (`fugu-explore`).
//!
//! Searches the two-case-delivery scenario space in the FoundationDB
//! simulation-testing mold: scenarios (machine shape × workload × fault
//! plan × scheduling perturbations) are generated from one seed via
//! [`fugu_bench::explore::generate`], each is run by the library's scenario
//! runner ([`fugu_bench::scenario`], shared with `chaos`) under the full
//! oracle stack — invariant checker, span profiler and report/trace
//! cross-check, plus byte-identical replay: every 16th scenario (and every
//! failure) is run twice and the two outcomes must serialize to the same
//! bytes — and its outcome is reduced to a behavioral coverage signature
//! so the corpus keeps one scenario per *behavior*, not per draw. Failures
//! are automatically shrunk to a structurally minimal repro and printed as
//! a one-line `--replay <spec>` invocation.
//!
//! The whole run is a pure function of `--seed` and `--budget`: two
//! invocations produce byte-identical corpus-summary JSON regardless of
//! `--jobs`. See `docs/TESTING.md`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use fugu_bench::explore::{
    generate, shrink, Corpus, Outcome, RunStatus, ScenarioSpec, ShrinkResult,
};
use fugu_bench::scenario::{run_checked, run_scenario};
use fugu_bench::{flag_value, parallel_map, parsed_or_exit, Json, Table, Workload};
use fugu_sim::rng::DetRng;

/// Schema of the corpus-summary report.
const EXPLORE_SCHEMA: &str = "fugu-explore/v1";

/// Scenarios re-run for the byte-identical replay check (1 in this many).
const REPLAY_CHECK_STRIDE: usize = 16;

/// Replay budget for shrinking one failure.
const SHRINK_BUDGET: u32 = 60;

const USAGE: &str = "\
usage: explore [options]
  --seed S        corpus seed (default 0xF00D = 61453)
  --budget N      scenarios to explore (default 96; 32 with --quick)
  --jobs J        host threads (wall-clock only, never results; default 1)
  --json PATH     write the corpus summary as JSON (schema fugu-explore/v1)
  --quick         smaller default budget and workload intensities
  --replay SPEC   run one scenario spec verbosely and exit (1 if it fails)
  --help          print this help";

struct ExploreOpts {
    seed: u64,
    budget: u32,
    jobs: usize,
    json: Option<PathBuf>,
    quick: bool,
    replay: Option<String>,
}

fn parse_opts(args: impl IntoIterator<Item = String>) -> Result<ExploreOpts, String> {
    let mut opts = ExploreOpts {
        seed: 0xF00D,
        budget: 0, // resolved after --quick is known
        jobs: 1,
        json: None,
        quick: false,
        replay: None,
    };
    let mut budget: Option<u32> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => opts.seed = flag_value("--seed", &mut args)?,
            "--budget" => budget = Some(flag_value("--budget", &mut args)?),
            "--jobs" => opts.jobs = flag_value("--jobs", &mut args)?,
            "--json" => {
                opts.json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
            }
            "--quick" => opts.quick = true,
            "--replay" => {
                opts.replay = Some(args.next().ok_or("--replay needs a scenario spec")?);
            }
            "--help" => return Err("help".to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    opts.budget = budget.unwrap_or(if opts.quick { 32 } else { 96 });
    Ok(opts)
}

/// The equivalence class used to decide a shrunk variant reproduces "the
/// same" failure: how the run ended plus the set of violation kinds.
fn failure_key(o: &Outcome) -> (RunStatus, BTreeSet<&str>) {
    (o.status, o.violation_kinds())
}

fn replay_main(spec_text: &str) -> i32 {
    let spec = match ScenarioSpec::parse(spec_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!("replaying {spec}");
    let outcome = run_checked(&spec, true);
    print!("{}", outcome.to_json().render_pretty());
    if outcome.failed() {
        eprintln!("scenario FAILED ({})", outcome.status.as_str());
        1
    } else {
        println!("scenario passed");
        0
    }
}

fn main() {
    let opts = parsed_or_exit(parse_opts(std::env::args().skip(1)), USAGE);
    if let Some(spec_text) = &opts.replay {
        std::process::exit(replay_main(spec_text));
    }

    println!(
        "exploring {} scenarios from seed {} ({} workloads, {} host thread(s))",
        opts.budget,
        opts.seed,
        Workload::DRAWN.len(),
        opts.jobs
    );
    let mut rng = DetRng::new(opts.seed);
    let mut specs: Vec<(usize, ScenarioSpec)> = (0..opts.budget as usize)
        .map(|i| (i, generate(&mut rng)))
        .collect();
    if opts.quick {
        for (_, s) in &mut specs {
            s.scale = s.scale.min(1);
        }
    }

    // Expected panics (deadlocks, max-cycles trips) are caught and
    // classified; silence the default hook so a sweep over thousands of
    // scenarios does not spray backtraces. Restored before reporting.
    let debug = std::env::var("FUGU_EXPLORE_DEBUG").is_ok();
    if debug {
        for (i, s) in &specs {
            eprintln!("spec {i}: {s}");
        }
    }
    let hook = std::panic::take_hook();
    if !debug {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let outcomes = parallel_map(opts.jobs, &specs, |(idx, spec)| {
        run_checked(spec, idx % REPLAY_CHECK_STRIDE == 0)
    });

    let mut corpus = Corpus::new();
    let mut failures: Vec<Outcome> = Vec::new();
    for outcome in outcomes {
        if outcome.failed() {
            failures.push(outcome.clone());
        }
        corpus.record(outcome);
    }

    // Shrink one representative per distinct failure class.
    let mut shrunk: Vec<(Outcome, ShrinkResult)> = Vec::new();
    let mut seen_keys = Vec::new();
    for failure in &failures {
        let key = failure_key(failure);
        if seen_keys.contains(&key) {
            continue;
        }
        seen_keys.push(key.clone());
        let result = shrink(&failure.spec, SHRINK_BUDGET, |candidate| {
            failure_key(&run_scenario(candidate).outcome) == key
        });
        shrunk.push((failure.clone(), result));
    }
    std::panic::set_hook(hook);

    let mut t = Table::new(&[
        "signature",
        "status",
        "size",
        "cycles",
        "fast",
        "buffered",
        "revs",
        "pages",
    ]);
    for o in corpus.entries() {
        t.row(vec![
            o.signature(),
            o.status.as_str().to_string(),
            o.spec.size().to_string(),
            o.cycles.to_string(),
            o.fast.to_string(),
            o.buffered.to_string(),
            o.revocations.to_string(),
            o.peak_pages.to_string(),
        ]);
    }
    t.print();
    println!(
        "\n{} runs, {} unique behaviors, {} duplicates, {} failure(s) in {} class(es)",
        corpus.runs(),
        corpus.entries().len(),
        corpus.duplicates(),
        failures.len(),
        shrunk.len()
    );

    let mut failure_points = Vec::new();
    for (original, result) in &shrunk {
        println!(
            "\nFAILURE [{}] {}",
            original.status.as_str(),
            original.signature()
        );
        for (kind, detail) in &original.violations {
            println!("  {kind}: {detail}");
        }
        if let Some(detail) = &original.detail {
            println!("  panic: {detail}");
        }
        println!(
            "  original (size {:>3}): {}",
            original.spec.size(),
            original.spec
        );
        println!(
            "  shrunk   (size {:>3}): {} ({} replays, {} steps)",
            result.spec.size(),
            result.spec,
            result.runs,
            result.steps
        );
        println!("  repro: fugu explore --replay '{}'", result.spec);
        failure_points.push(Json::object([
            ("status", Json::from(original.status.as_str())),
            ("signature", Json::from(original.signature())),
            ("detail", Json::from(original.detail.clone())),
            ("violations", original.violations_json()),
            ("spec", Json::from(original.spec.render())),
            ("spec_size", Json::from(original.spec.size())),
            ("shrunk_spec", Json::from(result.spec.render())),
            ("shrunk_size", Json::from(result.spec.size())),
            ("shrink_replays", Json::from(result.runs)),
            ("shrink_steps", Json::from(result.steps)),
        ]));
    }

    if let Some(path) = &opts.json {
        // Deliberately excludes --jobs and the output path, so reports are
        // byte-identical across host parallelism (same discipline as
        // fugu_bench::write_report).
        let doc = Json::object([
            ("schema", Json::from(EXPLORE_SCHEMA)),
            ("seed", Json::from(opts.seed)),
            ("budget", Json::from(opts.budget)),
            ("quick", Json::from(opts.quick)),
            ("corpus", corpus.to_json()),
            ("failures", Json::array(failure_points)),
        ]);
        std::fs::write(path, doc.render_pretty())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }

    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("all scenarios upheld the delivery guarantees");
}
