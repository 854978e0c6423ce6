//! Run reports: the measurements the paper's tables and figures are built
//! from.

use fugu_sim::fault::FaultCounts;
use fugu_sim::json::Json;
use fugu_sim::stats::{Histogram, MetricsRegistry};
use fugu_sim::Cycles;

/// Schema identifier stamped into every [`RunReport::to_json`] document.
pub const RUN_REPORT_SCHEMA: &str = "fugu-run-report/v1";

/// Everything measured during one [`Machine::run`](crate::Machine::run).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulated time when the run ended (all foreground mains returned).
    pub end_time: Cycles,
    /// Per-job measurements, in job-submission order.
    pub jobs: Vec<JobReport>,
    /// Per-node measurements.
    pub nodes: Vec<NodeReport>,
    /// Every measurement above under a dotted key (`faults.*`,
    /// `job.<name>.*`, `machine.end_time`, `node<idx>.*`), built from the
    /// typed fields when the machine collects the report. The fault totals
    /// are only here, and only under an active fault plan.
    pub metrics: MetricsRegistry,
    /// Discrete events the engine processed to produce this run — the
    /// denominator of `perfbench`'s events/sec figure. Wall-clock
    /// instrumentation, not a simulated measurement, so it is deliberately
    /// *excluded* from [`RunReport::to_json`]: result documents must stay
    /// byte-identical across engine-performance work.
    pub events_processed: u64,
}

impl RunReport {
    /// Assembles a report and flattens its measurements into `metrics`;
    /// `faults` is `None` under an inert fault plan.
    pub(crate) fn new(
        end_time: Cycles,
        jobs: Vec<JobReport>,
        nodes: Vec<NodeReport>,
        faults: Option<FaultCounts>,
        events_processed: u64,
    ) -> Self {
        let mut metrics = MetricsRegistry::new();
        metrics.insert("machine.end_time".to_string(), Json::from(end_time));
        // Fault totals appear only under an active plan so that fault-free
        // reports are byte-identical to builds predating fault injection.
        for (name, value) in faults.iter().flat_map(FaultCounts::counters) {
            metrics.insert(format!("faults.{name}"), Json::from(value));
        }
        for j in &jobs {
            let pre = format!("job.{}", j.name);
            for (name, value) in j.message_counters().into_iter().chain(j.event_counters()) {
                metrics.insert(format!("{pre}.{name}"), Json::from(value));
            }
            // The moments render as floats, the shape every committed
            // report and golden digest pins.
            let h = &j.handler_cycles;
            let float = |x: Option<u64>| Json::from(x.map(|x| x as f64));
            let moments = Json::object([
                ("count", Json::from(h.total())),
                ("sum", Json::from(h.sum() as f64)),
                ("mean", Json::from(h.mean())),
                ("min", float(h.min())),
                ("max", float(h.max())),
            ]);
            metrics.insert(format!("{pre}.handler_cycles"), moments);
            metrics.insert(format!("{pre}.handler_cycles_hist"), h.to_json());
        }
        for (n, node) in nodes.iter().enumerate() {
            for (name, value) in node.counters() {
                metrics.insert(format!("node{n}.{name}"), Json::from(value));
            }
        }
        RunReport {
            end_time,
            jobs,
            nodes,
            metrics,
            events_processed,
        }
    }

    /// Finds a job report by name.
    ///
    /// # Panics
    ///
    /// Panics if no job has that name.
    pub fn job(&self, name: &str) -> &JobReport {
        self.jobs
            .iter()
            .find(|j| j.name == name)
            .unwrap_or_else(|| panic!("no job named {name:?} in report"))
    }

    /// Highest number of physical page frames simultaneously devoted to
    /// virtual buffering on any node (the paper's "<7 pages/node" claim).
    pub fn peak_buffer_pages(&self) -> u64 {
        self.nodes.iter().map(|n| n.peak_frames).max().unwrap_or(0)
    }

    /// Serializes the whole report (schema [`RUN_REPORT_SCHEMA`]): header
    /// fields, a `jobs` array, a `nodes` array and the flat `metrics`
    /// object in sorted key order.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::from(RUN_REPORT_SCHEMA)),
            ("end_time", Json::from(self.end_time)),
            (
                "jobs",
                Json::array(self.jobs.iter().map(JobReport::to_json)),
            ),
            (
                "nodes",
                Json::array(self.nodes.iter().map(NodeReport::to_json)),
            ),
            (
                "metrics",
                Json::object(self.metrics.iter().map(|(k, v)| (k.as_str(), v.clone()))),
            ),
        ])
    }
}

/// Measurements for one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's display name.
    pub name: String,
    /// When the last of the job's per-node mains returned; `None` for
    /// background jobs (or if the run ended first).
    pub completion: Option<Cycles>,
    /// Messages sent by the job.
    pub sent: u64,
    /// Messages delivered on the fast path (directly from the network
    /// interface, via interrupt or poll).
    pub delivered_fast: u64,
    /// Messages that traversed the buffered path (inserted into the
    /// software buffer by the OS) — the numerator of Figures 7, 9 and 10.
    pub delivered_buffered: u64,
    /// Of the buffered messages, how many had to be paged to backing
    /// store over the second network.
    pub swapped: u64,
    /// Handler execution cycles (dispatch to completion, including
    /// delivery overhead), for the paper's `T_hand`: exact moments plus
    /// power-of-two buckets ([`Histogram::exponential`]`(24)`).
    pub handler_cycles: Histogram,
    /// Atomicity-timeout revocations suffered by the job.
    pub atomicity_timeouts: u64,
    /// Interrupts forced through by the polling watchdog (only nonzero
    /// when the machine runs with `polling_watchdog: true`).
    pub watchdog_fires: u64,
    /// Demand-zero page faults taken by the job.
    pub page_faults: u64,
    /// Times overflow control globally suspended the job.
    pub overflow_suspensions: u64,
}

impl JobReport {
    /// An all-zero report for the job named `name`.
    pub(crate) fn new(name: &str) -> Self {
        JobReport {
            name: name.to_string(),
            completion: None,
            sent: 0,
            delivered_fast: 0,
            delivered_buffered: 0,
            swapped: 0,
            handler_cycles: Histogram::exponential(24),
            atomicity_timeouts: 0,
            watchdog_fires: 0,
            page_faults: 0,
            overflow_suspensions: 0,
        }
    }

    /// The job's message counts as `(name, value)` pairs.
    fn message_counters(&self) -> [(&'static str, u64); 4] {
        [
            ("sent", self.sent),
            ("delivered_fast", self.delivered_fast),
            ("delivered_buffered", self.delivered_buffered),
            ("swapped", self.swapped),
        ]
    }

    /// The job's event counts as `(name, value)` pairs.
    fn event_counters(&self) -> [(&'static str, u64); 4] {
        [
            ("atomicity_timeouts", self.atomicity_timeouts),
            ("watchdog_fires", self.watchdog_fires),
            ("page_faults", self.page_faults),
            ("overflow_suspensions", self.overflow_suspensions),
        ]
    }

    /// Total messages that reached a handler path.
    pub fn delivered(&self) -> u64 {
        self.delivered_fast + self.delivered_buffered
    }

    /// Fraction of messages that traversed the buffered path — the y-axis
    /// of Figures 7, 9 and 10.
    pub fn buffered_fraction(&self) -> f64 {
        let total = self.delivered();
        if total == 0 {
            0.0
        } else {
            self.delivered_buffered as f64 / total as f64
        }
    }

    /// Serializes this job's measurements as one JSON object.
    pub fn to_json(&self) -> Json {
        let counter = |(name, value): (&'static str, u64)| (name, Json::from(value));
        let header = [
            ("name", Json::from(self.name.as_str())),
            ("completion", Json::from(self.completion)),
        ];
        let derived = [
            ("buffered_fraction", Json::from(self.buffered_fraction())),
            (
                "handler_cycles_mean",
                Json::from(self.handler_cycles.mean()),
            ),
        ];
        Json::object(
            header
                .into_iter()
                .chain(self.message_counters().map(counter))
                .chain(derived)
                .chain(self.event_counters().map(counter)),
        )
    }
}

/// Measurements for one node.
#[derive(Debug, Clone, Default)]
pub struct NodeReport {
    /// Peak physical page frames simultaneously backing virtual buffers.
    pub peak_frames: u64,
    /// Buffer-insert handlers run (mismatch-available interrupts serviced).
    pub vbuf_inserts: u64,
    /// How many of those inserts demand-allocated a fresh page.
    pub vmallocs: u64,
    /// Gang-scheduler quantum switches performed.
    pub quantum_switches: u64,
    /// Overflow-control gang-scheduling advisories raised.
    pub overflow_advises: u64,
    /// Overflow-control global suspensions ordered.
    pub overflow_suspends: u64,
}

impl NodeReport {
    /// The node's counters as `(name, value)` pairs.
    fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("peak_frames", self.peak_frames),
            ("vbuf_inserts", self.vbuf_inserts),
            ("vmallocs", self.vmallocs),
            ("quantum_switches", self.quantum_switches),
            ("overflow_advises", self.overflow_advises),
            ("overflow_suspends", self.overflow_suspends),
        ]
    }

    /// Serializes this node's measurements as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(
            self.counters()
                .map(|(name, value)| (name, Json::from(value))),
        )
    }
}
