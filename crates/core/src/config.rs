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
    /// Builds a configuration from an explorer
    /// [`ScenarioSpec`](fugu_sim::explore::ScenarioSpec).
    ///
    /// The spec's knobs override the paper's defaults: machine shape
    /// (`nodes`, `frames`), scheduler timing (`timeslice`, `skew`,
    /// `watchdog`), the atomicity timeout, the fault plan and the seed.
    /// The overflow-control watermarks scale with the frame budget (the
    /// defaults assume 256 frames; a generated 8-frame machine would
    /// otherwise start life below its own advise watermark), keeping
    /// `overflow_suspend <= overflow_advise` for every budget.
    ///
    /// Workload interpretation (`workload`, `scale`, `bg_null`) is the
    /// driver's job — this constructor covers everything machine-shaped.
    pub fn from_scenario(spec: &fugu_sim::explore::ScenarioSpec) -> MachineConfig {
        let mut costs = CostModel::hard_atomicity();
        costs.timeslice = spec.timeslice;
        costs.atomicity_timeout = spec.atom_timeout;
        costs.frames_per_node = spec.frames;
        MachineConfig {
            nodes: spec.nodes,
            costs,
            skew: spec.skew_pct as f64 / 100.0,
            seed: spec.seed,
            overflow_advise: (spec.frames / 16).clamp(2, 16),
            overflow_suspend: (spec.frames / 64).clamp(1, 4),
            polling_watchdog: spec.watchdog,
            faults: spec.faults.clone(),
            ..MachineConfig::default()
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use fugu_sim::explore::ScenarioSpec;

    #[test]
    fn from_scenario_applies_every_knob() {
        let spec = ScenarioSpec::parse(
            "seed=99:nodes=3:timeslice=120000:skew=25:frames=64:atimeout=777:\
             watchdog=1:faults=dup=0.25,jitter=400",
        )
        .unwrap();
        let cfg = MachineConfig::from_scenario(&spec);
        assert_eq!(cfg.nodes, 3);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.costs.timeslice, 120_000);
        assert_eq!(cfg.costs.atomicity_timeout, 777);
        assert_eq!(cfg.costs.frames_per_node, 64);
        assert_eq!(cfg.skew, 0.25);
        assert!(cfg.polling_watchdog);
        assert_eq!(cfg.faults.duplicate, 0.25);
        assert_eq!(cfg.faults.quantum_jitter, 400);
    }

    #[test]
    fn scaled_watermarks_stay_ordered() {
        for frames in [1u64, 8, 16, 64, 256, 512, 4096] {
            let spec = ScenarioSpec {
                frames,
                ..ScenarioSpec::default()
            };
            let cfg = MachineConfig::from_scenario(&spec);
            assert!(
                cfg.overflow_suspend <= cfg.overflow_advise,
                "frames {frames}: suspend {} > advise {}",
                cfg.overflow_suspend,
                cfg.overflow_advise
            );
            assert!(cfg.overflow_suspend >= 1);
        }
        // The paper's default budget reproduces the default watermarks.
        let cfg = MachineConfig::from_scenario(&ScenarioSpec::default());
        let def = MachineConfig::default();
        assert_eq!(cfg.overflow_advise, def.overflow_advise);
        assert_eq!(cfg.overflow_suspend, def.overflow_suspend);
    }
}
