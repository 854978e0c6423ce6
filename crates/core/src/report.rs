//! Run reports: the measurements the paper's tables and figures are built
//! from.

use fugu_sim::json::Json;
use fugu_sim::stats::{Accum, MetricsRegistry};
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
    /// The same measurements as a flat named-metric registry
    /// (`job.<name>.*` and `node<idx>.*` keys), for merging across runs
    /// and JSON export.
    pub metrics: MetricsRegistry,
    /// Discrete events the engine processed to produce this run — the
    /// denominator of `perfbench`'s events/sec figure. Wall-clock
    /// instrumentation, not a simulated measurement, so it is deliberately
    /// *excluded* from [`RunReport::to_json`]: result documents must stay
    /// byte-identical across engine-performance work.
    pub events_processed: u64,
}

impl RunReport {
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
    /// object.
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
            ("metrics", self.metrics.to_json()),
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
    /// delivery overhead), for the paper's `T_hand`.
    pub handler_cycles: Accum,
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
        Json::object([
            ("name", Json::from(self.name.as_str())),
            ("completion", Json::from(self.completion)),
            ("sent", Json::from(self.sent)),
            ("delivered_fast", Json::from(self.delivered_fast)),
            ("delivered_buffered", Json::from(self.delivered_buffered)),
            ("swapped", Json::from(self.swapped)),
            ("buffered_fraction", Json::from(self.buffered_fraction())),
            (
                "handler_cycles_mean",
                Json::from(self.handler_cycles.mean()),
            ),
            ("atomicity_timeouts", Json::from(self.atomicity_timeouts)),
            ("watchdog_fires", Json::from(self.watchdog_fires)),
            ("page_faults", Json::from(self.page_faults)),
            (
                "overflow_suspensions",
                Json::from(self.overflow_suspensions),
            ),
        ])
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
    /// Serializes this node's measurements as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("peak_frames", Json::from(self.peak_frames)),
            ("vbuf_inserts", Json::from(self.vbuf_inserts)),
            ("vmallocs", Json::from(self.vmallocs)),
            ("quantum_switches", Json::from(self.quantum_switches)),
            ("overflow_advises", Json::from(self.overflow_advises)),
            ("overflow_suspends", Json::from(self.overflow_suspends)),
        ])
    }
}
