//! Deterministic fault injection for the simulated machine.
//!
//! The paper's claim is that two-case delivery keeps protected messaging
//! correct under the *hard* cases — GID mismatch, atomicity revocation,
//! quantum expiry, handler page faults, frame exhaustion (§4.3, §5.1).
//! The figure harnesses only drive those transitions incidentally; this
//! module provokes them on purpose, and deterministically, so that the
//! delivery-guarantee invariants (see [`crate::invariant`]) can be checked
//! under adversarial schedules and the same seed always reproduces the
//! same run byte for byte.
//!
//! A [`FaultPlan`] is a set of knobs, all off by default. A
//! [`FaultInjector`] is built from a plan plus a seed and handed to every
//! instrumented layer; each injection point consults it through one method
//! call that reduces to **a single `bool` read when the plan is inert** —
//! the same zero-cost-when-off discipline as [`crate::trace`].
//! Randomness comes from per-site [`DetRng`] streams
//! split from the seed, so enabling one fault class does not perturb the
//! decisions of another.
//!
//! Injection points (consulted by the crates named in parentheses):
//!
//! * message drop / duplicate / extra delay on the main network, and extra
//!   delay on the second (redelivery) network (`fugu-net` via the machine);
//! * NIC input-queue stall windows — arrivals during a window are deferred
//!   to its end (the machine, in front of `fugu-nic`'s input queue);
//! * frame-allocation failure bursts (`fugu-glaze`'s `FrameAllocator`);
//! * forced handler page faults, pushing a delivery onto the buffered path
//!   (`fugu-glaze` paging, applied by the machine's dispatch);
//! * per-node quantum jitter (`glaze::sched` timing, applied by the
//!   machine's quantum events).
//!
//! # Example
//!
//! ```
//! use fugu_sim::fault::{FaultInjector, FaultPlan, NetFault};
//!
//! let plan = FaultPlan::parse("drop=1.0").unwrap();
//! let inj = FaultInjector::new(plan, 42, 4);
//! assert!(inj.is_active());
//! assert_eq!(inj.on_send(), NetFault::Drop);
//! assert_eq!(inj.counts().dropped, 1);
//!
//! let off = FaultInjector::disabled();
//! assert!(!off.is_active());
//! assert_eq!(off.on_send(), NetFault::Deliver);
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use crate::rng::DetRng;
use crate::Cycles;

/// A declarative description of which faults to inject and how hard.
///
/// All probabilities are per-opportunity (per message launch, per NIC
/// arrival, per frame allocation, per upcall dispatch); the default plan is
/// completely inert. Parse one from the compact `key=value` syntax with
/// [`FaultPlan::parse`] (documented in `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability a launched message is dropped by the network.
    pub drop: f64,
    /// Probability a launched message is delivered twice.
    pub duplicate: f64,
    /// Probability a launched message suffers extra transit delay.
    pub delay: f64,
    /// Extra transit cycles added to a delayed message.
    pub delay_cycles: Cycles,
    /// Probability a second-network (redelivery) transfer is slowed.
    pub second_net_delay: f64,
    /// Extra cycles added to a slowed second-network transfer.
    pub second_net_delay_cycles: Cycles,
    /// Probability an arrival opens a NIC input stall window.
    pub nic_stall: f64,
    /// Length of a NIC stall window in cycles.
    pub nic_stall_cycles: Cycles,
    /// Probability a frame allocation starts a forced-failure burst.
    pub frame_fail: f64,
    /// Number of consecutive allocations failed per burst.
    pub frame_fail_burst: u32,
    /// Probability an interrupt-driven delivery is forced to take a
    /// handler page fault (and hence the buffered path).
    pub handler_fault: f64,
    /// Maximum extra cycles of per-node jitter added to each gang-scheduler
    /// quantum switch (uniform in `[0, quantum_jitter]`; `0` disables).
    pub quantum_jitter: Cycles,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_cycles: 5_000,
            second_net_delay: 0.0,
            second_net_delay_cycles: 5_000,
            nic_stall: 0.0,
            nic_stall_cycles: 2_000,
            frame_fail: 0.0,
            frame_fail_burst: 4,
            handler_fault: 0.0,
            quantum_jitter: 0,
        }
    }
}

impl FaultPlan {
    /// True if any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.active_classes() > 0
    }

    /// Number of enabled fault classes (the knobs, not injected counts).
    pub fn active_classes(&self) -> u64 {
        [
            self.drop > 0.0,
            self.duplicate > 0.0,
            self.delay > 0.0,
            self.second_net_delay > 0.0,
            self.nic_stall > 0.0,
            self.frame_fail > 0.0,
            self.handler_fault > 0.0,
            self.quantum_jitter > 0,
        ]
        .into_iter()
        .filter(|&on| on)
        .count() as u64
    }

    /// Parses the compact comma-separated `key=value` plan syntax:
    ///
    /// | key            | meaning                                | value |
    /// |----------------|----------------------------------------|-------|
    /// | `drop`         | message drop probability               | float |
    /// | `dup`          | message duplication probability        | float |
    /// | `delay`        | message extra-delay probability        | float |
    /// | `delay-cycles` | extra delay amount                     | int   |
    /// | `net2`         | second-network slow-transfer prob.     | float |
    /// | `net2-cycles`  | second-network extra delay amount      | int   |
    /// | `stall`        | NIC stall-window probability           | float |
    /// | `stall-cycles` | NIC stall-window length                | int   |
    /// | `frame-fail`   | frame-allocation failure-burst prob.   | float |
    /// | `frame-burst`  | failures per burst                     | int   |
    /// | `handler-fault`| forced handler page-fault probability  | float |
    /// | `jitter`       | max quantum jitter in cycles           | int   |
    ///
    /// Empty input yields the inert default plan. Unknown keys and
    /// malformed values are errors (unlike trace-category parsing, a typo
    /// here would silently weaken a chaos run).
    ///
    /// # Example
    ///
    /// ```
    /// use fugu_sim::fault::FaultPlan;
    ///
    /// let p = FaultPlan::parse("drop=0.01,dup=0.005,jitter=500").unwrap();
    /// assert_eq!(p.drop, 0.01);
    /// assert_eq!(p.quantum_jitter, 500);
    /// assert!(p.is_active());
    /// assert!(FaultPlan::parse("bogus=1").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault plan entry `{part}` is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault plan `{key}` wants a probability, got `{v}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault plan `{key}={v}` is outside [0, 1]"));
                }
                Ok(p)
            };
            let int = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("fault plan `{key}` wants an integer, got `{v}`"))
            };
            match key {
                "drop" => plan.drop = prob(value)?,
                "dup" => plan.duplicate = prob(value)?,
                "delay" => plan.delay = prob(value)?,
                "delay-cycles" => plan.delay_cycles = int(value)?,
                "net2" => plan.second_net_delay = prob(value)?,
                "net2-cycles" => plan.second_net_delay_cycles = int(value)?,
                "stall" => plan.nic_stall = prob(value)?,
                "stall-cycles" => plan.nic_stall_cycles = int(value)?,
                "frame-fail" => plan.frame_fail = prob(value)?,
                "frame-burst" => {
                    plan.frame_fail_burst = u32::try_from(int(value)?).map_err(|_| {
                        format!("fault plan `frame-burst` must fit in 32 bits, got `{value}`")
                    })?;
                }
                "handler-fault" => plan.handler_fault = prob(value)?,
                "jitter" => plan.quantum_jitter = int(value)?,
                _ => return Err(format!("unknown fault plan key `{key}`")),
            }
        }
        Ok(plan)
    }

    /// Renders the entries whose text differs from the default plan's in
    /// [`parse`](Self::parse) syntax, so `parse(render(p)) == p`; the
    /// default plan renders as the empty string.
    ///
    /// # Example
    ///
    /// ```
    /// use fugu_sim::fault::FaultPlan;
    ///
    /// let p = FaultPlan::parse("jitter=500, dup=0.005").unwrap();
    /// assert_eq!(p.render(), "dup=0.005,jitter=500");
    /// assert_eq!(FaultPlan::default().render(), "");
    /// ```
    pub fn render(&self) -> String {
        let defaults = FaultPlan::default().entries();
        let parts: Vec<String> = self
            .entries()
            .into_iter()
            .zip(defaults)
            .filter(|(entry, default)| entry.1 != default.1)
            .map(|((key, value), _)| format!("{key}={value}"))
            .collect();
        parts.join(",")
    }

    /// Every knob as a `(key, value)` entry of the text format, in the
    /// order of the [`parse`](Self::parse) table.
    fn entries(&self) -> [(&'static str, String); 12] {
        [
            ("drop", self.drop.to_string()),
            ("dup", self.duplicate.to_string()),
            ("delay", self.delay.to_string()),
            ("delay-cycles", self.delay_cycles.to_string()),
            ("net2", self.second_net_delay.to_string()),
            ("net2-cycles", self.second_net_delay_cycles.to_string()),
            ("stall", self.nic_stall.to_string()),
            ("stall-cycles", self.nic_stall_cycles.to_string()),
            ("frame-fail", self.frame_fail.to_string()),
            ("frame-burst", self.frame_fail_burst.to_string()),
            ("handler-fault", self.handler_fault.to_string()),
            ("jitter", self.quantum_jitter.to_string()),
        ]
    }
}

/// The injector's verdict on one message launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message.
    Drop,
    /// Deliver two copies of the message.
    Duplicate,
    /// Deliver after this many extra transit cycles.
    Delay(Cycles),
}

/// Running totals of injected faults, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages dropped.
    pub dropped: u64,
    /// Messages duplicated.
    pub duplicated: u64,
    /// Messages given extra transit delay.
    pub delayed: u64,
    /// Second-network transfers slowed.
    pub second_net_delays: u64,
    /// NIC stall windows opened.
    pub nic_stalls: u64,
    /// Frame allocations force-failed.
    pub frame_fails: u64,
    /// Handler page faults forced.
    pub handler_faults: u64,
}

impl FaultCounts {
    /// The totals as `(name, value)` pairs; the names are the run
    /// report's `faults.*` keys.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("dropped", self.dropped),
            ("duplicated", self.duplicated),
            ("delayed", self.delayed),
            ("second_net_delays", self.second_net_delays),
            ("nic_stalls", self.nic_stalls),
            ("frame_fails", self.frame_fails),
            ("handler_faults", self.handler_faults),
        ]
    }
}

struct State {
    plan: FaultPlan,
    /// Independent decision streams so fault classes do not perturb each
    /// other: enabling quantum jitter must not reshuffle drop decisions.
    net: DetRng,
    net2: DetRng,
    nic: DetRng,
    vm: DetRng,
    handler: DetRng,
    sched: DetRng,
    /// Per-node end of the currently open NIC stall window.
    stall_until: Vec<Cycles>,
    /// Per-node remaining forced frame-allocation failures.
    frame_burst_left: Vec<u32>,
    counts: FaultCounts,
}

struct Inner {
    /// The only thing an injection site touches when the plan is inert.
    active: bool,
    state: RefCell<State>,
}

/// A shared handle to the fault-injection decision state.
///
/// Cloning is cheap (a non-atomic `Rc` clone); all clones share the plan,
/// the decision streams and the counters. Identical `(plan, seed)` pairs
/// produce identical decision sequences, so a simulation run with faults
/// is exactly as reproducible as one without.
///
/// An injector belongs to the thread that built it; it cannot be sent to
/// another:
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<fugu_sim::fault::FaultInjector>();
/// ```
#[derive(Clone)]
pub struct FaultInjector {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("active", &self.is_active())
            .finish_non_exhaustive()
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disabled()
    }
}

impl FaultInjector {
    /// Builds an injector for a machine of `nodes` nodes. Inactive (every
    /// query short-circuits) when the plan is inert.
    pub fn new(plan: FaultPlan, seed: u64, nodes: usize) -> FaultInjector {
        let active = plan.is_active();
        let mut master = DetRng::new(seed);
        let state = State {
            plan,
            net: master.split(),
            net2: master.split(),
            nic: master.split(),
            vm: master.split(),
            handler: master.split(),
            sched: master.split(),
            stall_until: vec![0; nodes],
            frame_burst_left: vec![0; nodes],
            counts: FaultCounts::default(),
        };
        FaultInjector {
            inner: Rc::new(Inner {
                active,
                state: RefCell::new(state),
            }),
        }
    }

    /// An injector that never injects anything.
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultPlan::default(), 0, 0)
    }

    /// True if any fault class is enabled — one `bool` read.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.active
    }

    /// Verdict for the next message launched onto the main network.
    ///
    /// Drop wins over duplicate wins over delay; each decision consumes
    /// the network stream in a fixed order so the sequence is a pure
    /// function of the seed and the launch order.
    pub fn on_send(&self) -> NetFault {
        if !self.is_active() {
            return NetFault::Deliver;
        }
        let st = &mut *self.inner.state.borrow_mut();
        let roll = st.net.f64();
        let plan = &st.plan;
        if roll < plan.drop {
            st.counts.dropped += 1;
            NetFault::Drop
        } else if roll < plan.drop + plan.duplicate {
            st.counts.duplicated += 1;
            NetFault::Duplicate
        } else if roll < plan.drop + plan.duplicate + plan.delay {
            st.counts.delayed += 1;
            NetFault::Delay(plan.delay_cycles)
        } else {
            NetFault::Deliver
        }
    }

    /// Extra cycles to add to a second-network (redelivery) transfer, or 0.
    pub fn second_net_delay(&self) -> Cycles {
        if !self.is_active() {
            return 0;
        }
        let mut st = self.inner.state.borrow_mut();
        let p = st.plan.second_net_delay;
        if p > 0.0 && st.net2.chance(p) {
            st.counts.second_net_delays += 1;
            st.plan.second_net_delay_cycles
        } else {
            0
        }
    }

    /// Consulted on each NIC arrival at `node` at time `now`: returns
    /// `Some(until)` if the arrival must be deferred to the end of a stall
    /// window (possibly a freshly opened one).
    pub fn nic_stall(&self, node: usize, now: Cycles) -> Option<Cycles> {
        if !self.is_active() {
            return None;
        }
        let mut st = self.inner.state.borrow_mut();
        if st.plan.nic_stall <= 0.0 {
            return None;
        }
        if now < st.stall_until[node] {
            return Some(st.stall_until[node]);
        }
        let p = st.plan.nic_stall;
        if st.nic.chance(p) {
            let until = now + st.plan.nic_stall_cycles;
            st.stall_until[node] = until;
            st.counts.nic_stalls += 1;
            Some(until)
        } else {
            None
        }
    }

    /// Consulted by the frame allocator on each allocation at `node`:
    /// `true` forces the allocation to fail as if frames were exhausted.
    pub fn frame_fail(&self, node: usize) -> bool {
        if !self.is_active() {
            return false;
        }
        let mut st = self.inner.state.borrow_mut();
        if st.frame_burst_left.get(node).copied().unwrap_or(0) > 0 {
            st.frame_burst_left[node] -= 1;
            st.counts.frame_fails += 1;
            return true;
        }
        let p = st.plan.frame_fail;
        if p > 0.0 && st.vm.chance(p) {
            st.frame_burst_left[node] = st.plan.frame_fail_burst.saturating_sub(1);
            st.counts.frame_fails += 1;
            true
        } else {
            false
        }
    }

    /// Consulted before an interrupt-driven delivery: `true` forces the
    /// handler to take a page fault, pushing the delivery onto the
    /// buffered path.
    pub fn handler_fault(&self) -> bool {
        if !self.is_active() {
            return false;
        }
        let mut st = self.inner.state.borrow_mut();
        let p = st.plan.handler_fault;
        if p > 0.0 && st.handler.chance(p) {
            st.counts.handler_faults += 1;
            true
        } else {
            false
        }
    }

    /// Extra cycles of jitter for a node's next quantum switch, uniform in
    /// `[0, plan.quantum_jitter]`.
    pub fn quantum_jitter(&self) -> Cycles {
        if !self.is_active() {
            return 0;
        }
        let mut st = self.inner.state.borrow_mut();
        let j = st.plan.quantum_jitter;
        if j == 0 {
            0
        } else {
            st.sched.range_u64(0, j + 1)
        }
    }

    /// Snapshot of the fault totals injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.inner.state.borrow().counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        assert!(!FaultPlan::default().is_active());
        let inj = FaultInjector::disabled();
        assert!(!inj.is_active());
        assert_eq!(inj.on_send(), NetFault::Deliver);
        assert_eq!(inj.second_net_delay(), 0);
        assert_eq!(inj.nic_stall(0, 100), None);
        assert!(!inj.frame_fail(0));
        assert!(!inj.handler_fault());
        assert_eq!(inj.quantum_jitter(), 0);
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn parse_round_trips_every_key() {
        let p = FaultPlan::parse(
            "drop=0.1, dup=0.2, delay=0.3, delay-cycles=111, net2=0.4, net2-cycles=222, \
             stall=0.5, stall-cycles=333, frame-fail=0.6, frame-burst=7, \
             handler-fault=0.8, jitter=444",
        )
        .unwrap();
        assert_eq!(p.drop, 0.1);
        assert_eq!(p.duplicate, 0.2);
        assert_eq!(p.delay, 0.3);
        assert_eq!(p.delay_cycles, 111);
        assert_eq!(p.second_net_delay, 0.4);
        assert_eq!(p.second_net_delay_cycles, 222);
        assert_eq!(p.nic_stall, 0.5);
        assert_eq!(p.nic_stall_cycles, 333);
        assert_eq!(p.frame_fail, 0.6);
        assert_eq!(p.frame_fail_burst, 7);
        assert_eq!(p.handler_fault, 0.8);
        assert_eq!(p.quantum_jitter, 444);
        // `render` is the inverse: every non-default entry, in table order.
        assert_eq!(
            p.render(),
            "drop=0.1,dup=0.2,delay=0.3,delay-cycles=111,net2=0.4,net2-cycles=222,\
             stall=0.5,stall-cycles=333,frame-fail=0.6,frame-burst=7,\
             handler-fault=0.8,jitter=444"
        );
        assert_eq!(FaultPlan::parse(&p.render()).unwrap(), p);
        let sparse = FaultPlan::parse("jitter=700,handler-fault=0.5,drop=0.01").unwrap();
        assert_eq!(sparse.render(), "drop=0.01,handler-fault=0.5,jitter=700");
        assert_eq!(FaultPlan::default().render(), "");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop=2.0").is_err());
        assert!(FaultPlan::parse("drop=x").is_err());
        assert!(FaultPlan::parse("jitter=-3").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn frame_burst_past_32_bits_is_an_error_not_a_truncation() {
        let err = FaultPlan::parse("frame-fail=0.1,frame-burst=4294967296").unwrap_err();
        assert!(err.contains("frame-burst"), "{err}");
        let max = FaultPlan::parse("frame-burst=4294967295").unwrap();
        assert_eq!(max.frame_fail_burst, u32::MAX);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::parse("drop=0.2,dup=0.2,delay=0.2").unwrap();
        let a = FaultInjector::new(plan.clone(), 7, 2);
        let b = FaultInjector::new(plan, 7, 2);
        for _ in 0..200 {
            assert_eq!(a.on_send(), b.on_send());
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn verdict_rates_follow_the_plan() {
        let plan = FaultPlan::parse("drop=0.25,dup=0.25").unwrap();
        let inj = FaultInjector::new(plan, 3, 2);
        for _ in 0..4_000 {
            inj.on_send();
        }
        let c = inj.counts();
        assert!((800..1200).contains(&c.dropped), "dropped {}", c.dropped);
        assert!(
            (800..1200).contains(&c.duplicated),
            "duplicated {}",
            c.duplicated
        );
    }

    #[test]
    fn stall_windows_defer_arrivals_until_their_end() {
        let plan = FaultPlan::parse("stall=1.0,stall-cycles=100").unwrap();
        let inj = FaultInjector::new(plan, 1, 2);
        let until = inj.nic_stall(0, 1_000).expect("p=1 must open a window");
        assert_eq!(until, 1_100);
        // A later arrival inside the window is deferred to the same end.
        assert_eq!(inj.nic_stall(0, 1_050), Some(1_100));
        // The other node's window state is independent.
        assert_eq!(inj.nic_stall(1, 1_050), Some(1_150));
        assert_eq!(inj.counts().nic_stalls, 2);
    }

    #[test]
    fn frame_fail_bursts_run_their_course() {
        let plan = FaultPlan::parse("frame-fail=1.0,frame-burst=3").unwrap();
        let inj = FaultInjector::new(plan, 5, 1);
        // p=1: every allocation fails; the burst counter replenishes.
        for _ in 0..6 {
            assert!(inj.frame_fail(0));
        }
        assert_eq!(inj.counts().frame_fails, 6);
    }

    #[test]
    fn jitter_is_bounded() {
        let plan = FaultPlan::parse("jitter=50").unwrap();
        let inj = FaultInjector::new(plan, 9, 4);
        for _ in 0..500 {
            assert!(inj.quantum_jitter() <= 50);
        }
    }

    #[test]
    fn fault_classes_use_independent_streams() {
        // Drawing from one class must not change another's decisions.
        let plan = FaultPlan::parse("drop=0.5,handler-fault=0.5").unwrap();
        let a = FaultInjector::new(plan.clone(), 11, 2);
        let b = FaultInjector::new(plan, 11, 2);
        // `a` interleaves handler queries; `b` does not.
        let seq_a: Vec<NetFault> = (0..50)
            .map(|_| {
                a.handler_fault();
                a.on_send()
            })
            .collect();
        let seq_b: Vec<NetFault> = (0..50).map(|_| b.on_send()).collect();
        assert_eq!(seq_a, seq_b);
    }
}
