//! Coverage-guided deterministic scenario exploration.
//!
//! The paper's central claim is that two-case delivery is *transparent*:
//! any interleaving of GID mismatches, atomicity revocations, quantum
//! expiries and page faults must deliver every message exactly once, in
//! order, on one of the two paths. The figure harnesses sweep a handful of
//! hand-picked configurations; this module instead *searches* the scenario
//! space in the FoundationDB simulation-testing mold:
//!
//! * a [`ScenarioSpec`] is a fully seeded tuple — machine shape, workload,
//!   fault plan, scheduling perturbations — with a one-line textual form
//!   ([`ScenarioSpec::render`] / [`ScenarioSpec::parse`]) so any run can be
//!   replayed from a shell;
//! * [`generate`] draws scenarios from a [`DetRng`], so a corpus is a pure
//!   function of one seed;
//! * each run's [`Outcome`] is reduced to a behavioral
//!   [signature](Outcome::signature) (delivery-path mix, revocation count,
//!   overflow depth, violation categories) and the [`Corpus`] keeps only
//!   the first scenario per signature, spending the budget on *new*
//!   behaviors;
//! * failures are [`shrink`]-ed by replaying structurally smaller variants
//!   until a local minimum is reached, yielding a minimal repro.
//!
//! [`crate::scenario`] turns a spec into a machine, lists the workloads
//! the generator draws from and runs a spec under the oracle stack; the
//! `explore` binary drives the search (docs/TESTING.md).

use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

use fugu_sim::fault::FaultPlan;
use fugu_sim::rng::DetRng;

use crate::scenario::WORKLOADS;
use crate::{Json, MAX_NODES};

/// One workload the generator may pick, with the property that decides
/// whether lossy-network faults are safe to combine with it.
///
/// Workloads whose protocols tolerate message loss (acknowledgement/retry,
/// loss-tolerant barrier tokens) can be run under `drop` faults; a workload
/// that blocks forever on a lost reply would turn every drop into a
/// deadlock, which tests nothing.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name the runner resolves to a program (e.g. `"synth"`, `"barrier"`).
    pub name: &'static str,
    /// Whether the workload's protocol survives dropped messages.
    pub loss_tolerant: bool,
    /// Whether the workload requires a power-of-two node count (the
    /// barrier's combining tree does).
    pub pow2_nodes: bool,
}

/// A fully deterministic scenario: everything needed to reproduce one run.
///
/// The textual form is colon-separated `key=value` pairs (so the nested
/// fault plan can keep its comma syntax) and is shell-safe, which is what
/// makes the printed `--replay <spec>` one-liners possible.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Seed for all randomness in the run (machine + workload + faults).
    pub seed: u64,
    /// Number of nodes.
    pub nodes: usize,
    /// Gang-scheduler timeslice in cycles.
    pub timeslice: u64,
    /// Gang-schedule skew as an integer percentage of the timeslice.
    pub skew_pct: u64,
    /// Buffer-frame budget per node.
    pub frames: u64,
    /// Atomicity-timer expiry in cycles.
    pub atom_timeout: u64,
    /// `true` selects the polling-watchdog expiry policy instead of
    /// revocation (the paper's §2 citation of Maquelin et al.).
    pub watchdog: bool,
    /// Workload name, resolved by [`crate::scenario`].
    pub workload: String,
    /// Workload data-set tier (0 is the smallest).
    pub scale: u32,
    /// Whether a background null job shares the machine.
    pub bg_null: bool,
    /// Deterministic fault-injection plan.
    pub faults: FaultPlan,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            seed: 0,
            nodes: 4,
            timeslice: 500_000,
            skew_pct: 0,
            frames: 256,
            atom_timeout: 8_192,
            watchdog: false,
            workload: "synth".to_string(),
            scale: 0,
            bg_null: false,
            faults: FaultPlan::default(),
        }
    }
}

impl ScenarioSpec {
    /// Renders the canonical one-line form; [`parse`](Self::parse) is the
    /// exact inverse, and `render(parse(s)) == render(spec)` for any spec
    /// the generator can produce.
    pub fn render(&self) -> String {
        let mut out = format!(
            "seed={}:nodes={}:timeslice={}:skew={}:frames={}:atimeout={}:\
             watchdog={}:workload={}:scale={}:bg={}",
            self.seed,
            self.nodes,
            self.timeslice,
            self.skew_pct,
            self.frames,
            self.atom_timeout,
            u8::from(self.watchdog),
            self.workload,
            self.scale,
            u8::from(self.bg_null),
        );
        let faults = self.faults.render();
        if !faults.is_empty() {
            out.push_str(":faults=");
            out.push_str(&faults);
        }
        out
    }

    /// Parses the textual form produced by [`render`](Self::render).
    ///
    /// Keys may appear in any order; missing keys take the defaults, so a
    /// hand-written replay spec can name only the knobs that matter.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry on unknown keys or
    /// malformed values.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec::default();
        for part in text.split(':') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("scenario entry `{part}` is not key=value"))?;
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("scenario `{key}` wants an integer, got `{v}`"))
            };
            let flag = |v: &str| -> Result<bool, String> {
                match v {
                    "0" | "false" => Ok(false),
                    "1" | "true" => Ok(true),
                    _ => Err(format!("scenario `{key}` wants 0/1, got `{v}`")),
                }
            };
            match key {
                "seed" => spec.seed = int(value)?,
                "nodes" => {
                    let n = int(value)?;
                    if n == 0 || n > MAX_NODES as u64 {
                        return Err(format!(
                            "scenario `nodes` must be in 1..={MAX_NODES}, got `{value}`"
                        ));
                    }
                    spec.nodes = n as usize;
                }
                "timeslice" => {
                    spec.timeslice = int(value)?;
                    if spec.timeslice == 0 {
                        return Err("scenario `timeslice` must be positive".into());
                    }
                }
                "skew" => {
                    spec.skew_pct = int(value)?;
                    if spec.skew_pct >= 100 {
                        return Err(format!(
                            "scenario `skew` is a percentage of the timeslice below 100, got `{value}`"
                        ));
                    }
                }
                "frames" => spec.frames = int(value)?,
                "atimeout" => spec.atom_timeout = int(value)?,
                "watchdog" => spec.watchdog = flag(value)?,
                "workload" => spec.workload = value.to_string(),
                "scale" => {
                    spec.scale = u32::try_from(int(value)?).map_err(|_| {
                        format!("scenario `scale` must fit in 32 bits, got `{value}`")
                    })?;
                }
                "bg" => spec.bg_null = flag(value)?,
                "faults" => spec.faults = FaultPlan::parse(value)?,
                _ => return Err(format!("unknown scenario key `{key}`")),
            }
        }
        Ok(spec)
    }

    /// Structural size of the scenario, the metric [`shrink`] minimizes.
    ///
    /// Weights reflect how much each knob enlarges the state space a human
    /// must reason about when debugging a repro: workload intensity and
    /// node count dominate, each active fault class adds a dimension, a
    /// background job and schedule perturbations add a little.
    pub fn size(&self) -> u64 {
        (self.nodes as u64) * 2
            + (u64::from(self.scale) + 1) * 8
            + self.faults.active_classes() * 3
            + if self.bg_null { 6 } else { 0 }
            + u64::from(self.watchdog)
            + if self.skew_pct > 0 { 2 } else { 0 }
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Fault probabilities the generator draws from. A discrete set keeps the
/// rendered specs short and exactly round-trippable.
const PROBS: &[f64] = &[0.005, 0.01, 0.02, 0.05, 0.1, 0.25];

/// Draws one scenario from `rng`, over the workloads in [`WORKLOADS`].
///
/// Every knob is sampled independently; knobs spanning orders of magnitude
/// (timeslice, frame budget, delay lengths) use
/// [`DetRng::log_range_u64`] so small machines are as likely as large
/// ones. The lossy `drop` class is only enabled for workloads marked
/// [`WorkloadInfo::loss_tolerant`] — dropping a message a protocol cannot
/// recover turns the run into a guaranteed deadlock, which tests nothing.
pub fn generate(rng: &mut DetRng) -> ScenarioSpec {
    let w = *rng.pick(WORKLOADS);
    let mut faults = FaultPlan::default();
    if w.loss_tolerant && rng.chance(0.25) {
        faults.drop = *rng.pick(&PROBS[..4]);
    }
    if rng.chance(0.25) {
        faults.duplicate = *rng.pick(PROBS);
    }
    if rng.chance(0.25) {
        faults.delay = *rng.pick(PROBS);
        faults.delay_cycles = rng.log_range_u64(500, 50_000);
    }
    if rng.chance(0.15) {
        faults.second_net_delay = *rng.pick(PROBS);
        faults.second_net_delay_cycles = rng.log_range_u64(1_000, 100_000);
    }
    if rng.chance(0.2) {
        faults.nic_stall = *rng.pick(&PROBS[..5]);
        faults.nic_stall_cycles = rng.log_range_u64(500, 20_000);
    }
    if rng.chance(0.2) {
        faults.frame_fail = *rng.pick(PROBS);
        faults.frame_fail_burst = rng.range_u64(1, 9) as u32;
    }
    if rng.chance(0.3) {
        faults.handler_fault = *rng.pick(&[0.05, 0.1, 0.25, 0.5, 1.0]);
    }
    if rng.chance(0.3) {
        faults.quantum_jitter = rng.log_range_u64(100, 20_000);
    }
    ScenarioSpec {
        seed: rng.next_u64(),
        nodes: if w.pow2_nodes {
            *rng.pick(&[2usize, 4, 8])
        } else {
            *rng.pick(&[2usize, 3, 4, 6, 8])
        },
        timeslice: rng.log_range_u64(50_000, 2_000_000),
        skew_pct: if rng.chance(0.5) {
            rng.range_u64(1, 41)
        } else {
            0
        },
        frames: rng.log_range_u64(8, 512),
        atom_timeout: rng.log_range_u64(200, 50_000),
        watchdog: rng.chance(0.15),
        workload: w.name.to_string(),
        scale: rng.range_u64(0, 3) as u32,
        bg_null: rng.chance(0.3),
        faults,
    }
}

/// How a scenario run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RunStatus {
    /// All foreground jobs completed.
    Completed,
    /// The machine panicked with its deterministic deadlock report.
    Deadlock,
    /// The machine exceeded its `max_cycles` safety limit.
    MaxCycles,
    /// Any other panic (engine bug, oracle assertion, workload assertion).
    Panicked,
}

impl RunStatus {
    /// Classifies a caught panic message into a status.
    pub fn classify(panic_message: &str) -> RunStatus {
        if panic_message.contains("simulation deadlock") {
            RunStatus::Deadlock
        } else if panic_message.contains("exceeded max_cycles") {
            RunStatus::MaxCycles
        } else {
            RunStatus::Panicked
        }
    }

    /// Stable kebab-case name, used in signatures and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Completed => "completed",
            RunStatus::Deadlock => "deadlock",
            RunStatus::MaxCycles => "max-cycles",
            RunStatus::Panicked => "panicked",
        }
    }
}

/// Everything the oracle stack observed about one scenario run.
///
/// [`crate::scenario::run_scenario`] fills this in from the machine's run
/// report and the trace oracle.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The scenario that was run.
    pub spec: ScenarioSpec,
    /// How the run ended.
    pub status: RunStatus,
    /// Panic message for non-[`Completed`](RunStatus::Completed) runs.
    pub detail: Option<String>,
    /// Simulated end time in cycles.
    pub cycles: u64,
    /// Messages launched (oracle count).
    pub launched: u64,
    /// Deliveries observed (oracle count).
    pub delivered: u64,
    /// Fast-path (upcall/poll) deliveries.
    pub fast: u64,
    /// Buffered-path deliveries.
    pub buffered: u64,
    /// Atomicity revocations (timer expiries).
    pub revocations: u64,
    /// Peak per-node buffer-frame depth.
    pub peak_pages: u64,
    /// Overflow-control global suspensions.
    pub suspensions: u64,
    /// Invariant violations as `(kind, detail)` pairs.
    pub violations: Vec<(String, String)>,
}

impl Outcome {
    /// True if the run must be reported (and shrunk): any invariant
    /// violation, or any ending other than clean completion.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || self.status != RunStatus::Completed
    }

    /// The distinct invariant-violation kinds, sorted.
    pub fn violation_kinds(&self) -> BTreeSet<&str> {
        self.violations.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// The behavioral coverage signature used for corpus deduplication:
    /// two scenarios with the same signature exercised the same
    /// qualitative behavior, so the corpus keeps only one. It names the
    /// workload, how the run ended, the buffered share of deliveries in
    /// eighths (`buf`), the orders of magnitude of the revocation count
    /// (`rev`) and of the peak buffer depth (`pg`), `:susp` if overflow
    /// control ever globally suspended a job, and the violation kinds.
    pub fn signature(&self) -> String {
        let mut out = format!(
            "{}/{}/buf{}:rev{}:pg{}{}",
            self.spec.workload,
            self.status.as_str(),
            octile(self.buffered, self.fast + self.buffered),
            magnitude(self.revocations),
            magnitude(self.peak_pages),
            if self.suspensions > 0 { ":susp" } else { "" },
        );
        for kind in self.violation_kinds() {
            write!(out, ":{kind}").expect("writing to a String cannot fail");
        }
        out
    }

    /// The violations as a JSON array of `{kind, detail}` objects.
    pub fn violations_json(&self) -> Json {
        Json::array(self.violations.iter().map(|(kind, detail)| {
            Json::object([
                ("kind", Json::from(kind.as_str())),
                ("detail", Json::from(detail.as_str())),
            ])
        }))
    }

    /// Serializes the outcome for the corpus-summary report.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("spec", Json::from(self.spec.render())),
            ("size", Json::from(self.spec.size())),
            ("status", Json::from(self.status.as_str())),
            ("detail", Json::from(self.detail.clone())),
            ("signature", Json::from(self.signature())),
            ("cycles", Json::from(self.cycles)),
            ("launched", Json::from(self.launched)),
            ("delivered", Json::from(self.delivered)),
            ("fast", Json::from(self.fast)),
            ("buffered", Json::from(self.buffered)),
            ("revocations", Json::from(self.revocations)),
            ("peak_pages", Json::from(self.peak_pages)),
            ("suspensions", Json::from(self.suspensions)),
            ("violations", self.violations_json()),
        ])
    }
}

/// Bucket of `part / total` into eighths (0–8); 0 when `total` is 0.
fn octile(part: u64, total: u64) -> u8 {
    (part * 8).checked_div(total).unwrap_or(0).min(8) as u8
}

/// Order-of-magnitude bucket: the bit length of `n` (0 for 0).
fn magnitude(n: u64) -> u32 {
    64 - n.leading_zeros()
}

/// The deduplicated set of behaviorally novel outcomes.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: Vec<Outcome>,
    seen: BTreeSet<String>,
    runs: u64,
    duplicates: u64,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Records one run. Returns `true` (and keeps the outcome) if its
    /// signature is new; otherwise only bumps the duplicate counter.
    pub fn record(&mut self, outcome: Outcome) -> bool {
        self.runs += 1;
        if self.seen.insert(outcome.signature()) {
            self.entries.push(outcome);
            true
        } else {
            self.duplicates += 1;
            false
        }
    }

    /// The kept outcomes, in the order their signatures were discovered.
    pub fn entries(&self) -> &[Outcome] {
        &self.entries
    }

    /// Total runs recorded (kept + duplicates).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs whose signature was already covered.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Serializes the corpus body (the `explore` binary wraps it with
    /// schema, seed and budget so the whole file is reproducible).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("runs", Json::from(self.runs)),
            ("unique", Json::from(self.entries.len())),
            ("duplicates", Json::from(self.duplicates)),
            (
                "entries",
                Json::array(self.entries.iter().map(Outcome::to_json)),
            ),
        ])
    }
}

/// Result of a [`shrink`] pass.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The smallest still-failing scenario found.
    pub spec: ScenarioSpec,
    /// Replays spent.
    pub runs: u32,
    /// Accepted shrink steps.
    pub steps: u32,
}

/// Greedily minimizes a failing scenario.
///
/// Repeatedly proposes structurally smaller variants (workload intensity to
/// zero, single fault classes removed, node count halved, background job
/// and schedule perturbations dropped, knobs canonicalized) and keeps any
/// variant for which `still_fails` returns `true`, restarting from the
/// smaller scenario until a fixpoint or until `budget` replays are spent.
///
/// `still_fails` must be deterministic (replay the variant and compare the
/// failure); the `explore` binary keeps the original failure's status and
/// violation kinds and requires the variant to reproduce the same ones.
pub fn shrink(
    original: &ScenarioSpec,
    budget: u32,
    mut still_fails: impl FnMut(&ScenarioSpec) -> bool,
) -> ShrinkResult {
    let mut current = original.clone();
    let mut runs = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        for candidate in shrink_candidates(&current) {
            if runs >= budget {
                break 'outer;
            }
            runs += 1;
            if still_fails(&candidate) {
                current = candidate;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkResult {
        spec: current,
        runs,
        steps,
    }
}

/// Structurally smaller (or canonical-form) variants of `spec`, most
/// aggressive first. Only variants that actually differ are returned.
fn shrink_candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out: Vec<ScenarioSpec> = Vec::new();
    let mut propose = |mutate: &dyn Fn(&mut ScenarioSpec)| {
        let mut c = spec.clone();
        mutate(&mut c);
        if c != *spec {
            out.push(c);
        }
    };
    propose(&|c| c.scale = 0);
    propose(&|c| c.bg_null = false);
    propose(&|c| c.nodes = (c.nodes / 2).max(2));
    // Remove one fault class at a time, most disruptive first.
    propose(&|c| c.faults.drop = 0.0);
    propose(&|c| c.faults.duplicate = 0.0);
    propose(&|c| c.faults.handler_fault = 0.0);
    propose(&|c| c.faults.frame_fail = 0.0);
    propose(&|c| c.faults.nic_stall = 0.0);
    propose(&|c| c.faults.delay = 0.0);
    propose(&|c| c.faults.second_net_delay = 0.0);
    propose(&|c| c.faults.quantum_jitter = 0);
    propose(&|c| c.watchdog = false);
    propose(&|c| c.skew_pct = 0);
    // Canonicalizations: not smaller by `size()`, but a repro with default
    // timing knobs is easier to reason about.
    propose(&|c| {
        // Strip the parameters of disabled fault classes so the rendered
        // repro does not name inert knobs (e.g. `delay-cycles` after the
        // `delay` probability was shrunk away).
        let d = FaultPlan::default();
        if c.faults.delay == 0.0 {
            c.faults.delay_cycles = d.delay_cycles;
        }
        if c.faults.second_net_delay == 0.0 {
            c.faults.second_net_delay_cycles = d.second_net_delay_cycles;
        }
        if c.faults.nic_stall == 0.0 {
            c.faults.nic_stall_cycles = d.nic_stall_cycles;
        }
        if c.faults.frame_fail == 0.0 {
            c.faults.frame_fail_burst = d.frame_fail_burst;
        }
    });
    let canon = ScenarioSpec::default();
    let (ts, at, fr) = (canon.timeslice, canon.atom_timeout, canon.frames);
    propose(&move |c| c.frames = fr);
    propose(&move |c| c.timeslice = ts);
    propose(&move |c| c.atom_timeout = at);
    // Fallback when zeroing the scale outright loses the failure.
    propose(&|c| c.scale = c.scale.saturating_sub(1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::panic_message;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use udm::{JobSpec, Machine, MachineConfig, Program, Sim, UserCtx};

    fn workload(name: &str) -> WorkloadInfo {
        *WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .expect("generated workloads are listed")
    }

    fn busy_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 77,
            nodes: 8,
            timeslice: 123_456,
            skew_pct: 25,
            frames: 32,
            atom_timeout: 999,
            watchdog: true,
            workload: "barrier".to_string(),
            scale: 2,
            bg_null: true,
            faults: FaultPlan::parse("drop=0.01,handler-fault=0.5,jitter=700").unwrap(),
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let spec = busy_spec();
        let text = spec.render();
        assert_eq!(ScenarioSpec::parse(&text).unwrap(), spec);
        // The default spec renders without a faults entry and still parses.
        let plain = ScenarioSpec::default();
        assert!(!plain.render().contains("faults="));
        assert_eq!(ScenarioSpec::parse(&plain.render()).unwrap(), plain);
    }

    #[test]
    fn parse_accepts_partial_specs() {
        let spec = ScenarioSpec::parse("seed=9:nodes=2:faults=dup=0.1").unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.nodes, 2);
        assert_eq!(spec.faults.duplicate, 0.1);
        assert_eq!(spec.timeslice, ScenarioSpec::default().timeslice);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ScenarioSpec::parse("nodes").is_err());
        assert!(ScenarioSpec::parse("nodes=0").is_err());
        assert!(ScenarioSpec::parse("bogus=1").is_err());
        assert!(ScenarioSpec::parse("watchdog=maybe").is_err());
        assert!(ScenarioSpec::parse("faults=bogus=1").is_err());
    }

    #[test]
    fn parse_rejects_values_the_machine_cannot_run() {
        // The gang scheduler needs a skew below one timeslice and a
        // nonzero timeslice; these used to panic inside the replay.
        assert!(ScenarioSpec::parse("skew=150").is_err());
        assert!(ScenarioSpec::parse("skew=100").is_err());
        assert_eq!(ScenarioSpec::parse("skew=99").unwrap().skew_pct, 99);
        assert!(ScenarioSpec::parse("timeslice=0").is_err());
        // Out-of-range integers are errors, not silent truncation.
        assert!(ScenarioSpec::parse("scale=4294967296").is_err());
        assert_eq!(
            ScenarioSpec::parse("scale=4294967295").unwrap().scale,
            u32::MAX
        );
        assert!(ScenarioSpec::parse("faults=frame-burst=4294967296").is_err());
    }

    #[test]
    fn parse_bounds_the_node_count() {
        // A node count is outside input: past the cap it is a usage error.
        assert_eq!(ScenarioSpec::parse("nodes=64").unwrap().nodes, MAX_NODES);
        for text in ["nodes=65", "nodes=100000", "nodes=18446744073709551615"] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(err.contains("1..=64"), "{text}: {err}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_round_trips() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..200 {
            let sa = generate(&mut a);
            let sb = generate(&mut b);
            assert_eq!(sa, sb);
            // Every generated spec survives the textual round trip exactly.
            assert_eq!(ScenarioSpec::parse(&sa.render()).unwrap(), sa);
        }
    }

    #[test]
    fn drop_faults_only_target_loss_tolerant_workloads() {
        let mut rng = DetRng::new(7);
        let mut tolerant_drops = 0u32;
        for _ in 0..500 {
            let spec = generate(&mut rng);
            if spec.faults.drop > 0.0 {
                assert!(
                    workload(&spec.workload).loss_tolerant,
                    "drop on lossy-intolerant {}",
                    spec.workload
                );
                tolerant_drops += 1;
            }
        }
        assert!(tolerant_drops > 10, "generator never exercises drops");
    }

    #[test]
    fn pow2_workloads_get_pow2_nodes() {
        let mut rng = DetRng::new(3);
        let mut pow2_runs = 0u32;
        for _ in 0..300 {
            let spec = generate(&mut rng);
            if workload(&spec.workload).pow2_nodes {
                assert!(spec.nodes.is_power_of_two(), "{spec}");
                pow2_runs += 1;
            }
        }
        assert!(pow2_runs > 50, "generator starves the pow2 workloads");
    }

    #[test]
    fn status_classification() {
        assert_eq!(
            RunStatus::classify("simulation deadlock at 12 cycles"),
            RunStatus::Deadlock
        );
        assert_eq!(
            RunStatus::classify("run exceeded max_cycles (1000)"),
            RunStatus::MaxCycles
        );
        assert_eq!(
            RunStatus::classify("index out of range"),
            RunStatus::Panicked
        );
    }

    /// A one-node main that blocks forever, or spins in 1000-cycle
    /// computes.
    struct Stuck {
        spin: bool,
    }

    impl Program for Stuck {
        fn main<'a>(&'a self, ctx: &'a mut UserCtx) -> Sim<'a> {
            Box::pin(async move {
                if self.spin {
                    loop {
                        ctx.compute(1_000).await;
                    }
                }
                ctx.block(0x5EE9).await;
            })
        }
    }

    /// Classification reads the machine's own panic texts, so rewording
    /// either panic in the machine fails here.
    #[test]
    fn classification_matches_the_machines_panics() {
        for (spin, expected) in [(false, RunStatus::Deadlock), (true, RunStatus::MaxCycles)] {
            let mut m = Machine::new(MachineConfig {
                nodes: 1,
                max_cycles: 10_000,
                ..MachineConfig::default()
            });
            m.add_job(JobSpec::new("stuck", Arc::new(Stuck { spin })));
            let payload =
                catch_unwind(AssertUnwindSafe(move || m.run())).expect_err("the run should panic");
            let message = panic_message(payload);
            assert_eq!(RunStatus::classify(&message), expected, "{message}");
        }
    }

    fn outcome(spec: ScenarioSpec, buffered: u64, violations: Vec<(String, String)>) -> Outcome {
        Outcome {
            spec,
            status: RunStatus::Completed,
            detail: None,
            cycles: 1_000,
            launched: 100,
            delivered: 100,
            fast: 100 - buffered,
            buffered,
            revocations: 0,
            peak_pages: 1,
            suspensions: 0,
            violations,
        }
    }

    #[test]
    fn corpus_keeps_first_of_each_signature() {
        let mut corpus = Corpus::new();
        let a = outcome(ScenarioSpec::default(), 0, vec![]);
        let b = outcome(
            ScenarioSpec {
                seed: 1,
                ..ScenarioSpec::default()
            },
            0,
            vec![],
        );
        let c = outcome(ScenarioSpec::default(), 100, vec![]);
        assert!(corpus.record(a));
        assert!(!corpus.record(b), "same behavior must dedup");
        assert!(corpus.record(c), "different path mix is new coverage");
        assert_eq!(corpus.entries().len(), 2);
        assert_eq!(corpus.runs(), 3);
        assert_eq!(corpus.duplicates(), 1);
    }

    #[test]
    fn violation_kinds_split_signatures() {
        let clean = outcome(ScenarioSpec::default(), 0, vec![]);
        let dirty = outcome(
            ScenarioSpec::default(),
            0,
            vec![("fifo-order".to_string(), "uid 5 after 7".to_string())],
        );
        assert_eq!(clean.signature(), "synth/completed/buf0:rev0:pg1");
        assert_eq!(
            dirty.signature(),
            "synth/completed/buf0:rev0:pg1:fifo-order"
        );
        assert!(dirty.failed());
        assert!(!clean.failed());
    }

    #[test]
    fn shrink_reaches_a_small_fixpoint() {
        // Synthetic failure: reproduces whenever handler faults are on.
        let original = busy_spec();
        let result = shrink(&original, 200, |s| s.faults.handler_fault > 0.0);
        assert!(result.spec.faults.handler_fault > 0.0);
        assert_eq!(result.spec.scale, 0);
        assert_eq!(result.spec.nodes, 2);
        assert!(!result.spec.bg_null);
        assert_eq!(result.spec.faults.drop, 0.0);
        assert_eq!(result.spec.faults.quantum_jitter, 0);
        assert!(
            result.spec.size() * 2 <= original.size(),
            "shrunk size {} vs original {}",
            result.spec.size(),
            original.size()
        );
        assert!(result.runs <= 200);
        assert!(result.steps > 0);
    }

    #[test]
    fn shrink_respects_its_budget() {
        let original = busy_spec();
        let result = shrink(&original, 3, |_| true);
        assert_eq!(result.runs, 3);
    }

    #[test]
    fn shrink_of_minimal_spec_is_identity() {
        let minimal = ScenarioSpec {
            nodes: 2,
            faults: FaultPlan::parse("handler-fault=1").unwrap(),
            ..ScenarioSpec::default()
        };
        let result = shrink(&minimal, 100, |s| s.faults.handler_fault > 0.0);
        assert_eq!(result.spec, minimal);
        assert_eq!(result.steps, 0);
    }
}
