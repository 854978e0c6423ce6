//! Machine and job configuration.

use std::sync::Arc;

use fugu_glaze::CostModel;
use fugu_net::NetworkConfig;
use fugu_nic::NicConfig;
use fugu_sim::fault::FaultPlan;
use fugu_sim::Cycles;

use crate::user::Program;

/// Configuration of a simulated FUGU machine.
///
/// Defaults mirror the paper's experimental environment (§5): eight nodes,
/// the hard-atomicity cost model, a 500,000-cycle scheduler timeslice, and
/// zero skew.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of nodes (processors).
    pub nodes: usize,
    /// The cycle-cost model (Tables 4/5 constants live here, including the
    /// timeslice and atomicity timeout).
    pub costs: CostModel,
    /// Network-interface hardware parameters.
    pub nic: NicConfig,
    /// Gang-schedule skew as a fraction of the timeslice (0 = perfectly
    /// aligned; the Figure 7/8 x-axis).
    pub skew: f64,
    /// Seed for all deterministic randomness in the run.
    pub seed: u64,
    /// Safety limit: the run panics if simulated time exceeds this.
    pub max_cycles: Cycles,
    /// Overflow control advises gang scheduling when free frames drop
    /// below this watermark.
    pub overflow_advise: u64,
    /// Overflow control globally suspends the offending job below this
    /// watermark.
    pub overflow_suspend: u64,
    /// `injectc` (conditional-send) window: a `try_send` is refused when
    /// this many messages are already in flight toward the destination
    /// (fabric congestion backpressure). Blocking `send` is unaffected.
    pub inject_window: u64,
    /// Atomicity-timer expiry policy. `false` (the paper's design):
    /// revoke interrupt disable and switch to buffered mode. `true`: the
    /// *polling watchdog* variant the paper cites (Maquelin et al., §2) —
    /// force the deferred interrupt through instead, trading the
    /// atomicity guarantee for latency. FUGU's hardware has the same
    /// timer; this flag selects what the OS does with it.
    pub polling_watchdog: bool,
    /// Deterministic fault-injection plan (chaos testing). The default plan
    /// is inert and the machine's behaviour — down to the byte in every
    /// report — is identical to a build without fault injection; each
    /// injection site costs one `bool` read when the plan is inert.
    pub faults: FaultPlan,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            nodes: 8,
            costs: CostModel::hard_atomicity(),
            nic: NicConfig::default(),
            skew: 0.0,
            seed: 0xF00D,
            max_cycles: 1 << 42,
            overflow_advise: 16,
            overflow_suspend: 4,
            inject_window: 64,
            polling_watchdog: false,
            faults: FaultPlan::default(),
        }
    }
}

impl MachineConfig {
    /// Cost of moving one page over the second network to backing store
    /// (round trip: request out, acknowledgement back), derived from the
    /// second network's timing and the page size.
    pub fn page_swap_cost(&self) -> Cycles {
        let net = NetworkConfig::second_network();
        let words = (self.costs.page_size_bytes / 4) as Cycles;
        2 * (net.base_latency + net.cycles_per_word * words)
    }
}

/// One gang-scheduled job: a program instantiated on every node.
#[derive(Clone)]
pub struct JobSpec {
    /// Display name, used in reports.
    pub name: String,
    /// The program body.
    pub program: Arc<dyn Program>,
    /// Background jobs (like the experiments' "null" application) never
    /// terminate and do not gate run completion.
    pub background: bool,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("background", &self.background)
            .finish()
    }
}

impl JobSpec {
    /// Creates a foreground job.
    pub fn new(name: impl Into<String>, program: Arc<dyn Program>) -> Self {
        JobSpec {
            name: name.into(),
            program,
            background: false,
        }
    }

    /// Marks the job as background (never completes; excluded from the
    /// run-completion condition).
    pub fn background(mut self) -> Self {
        self.background = true;
        self
    }
}
