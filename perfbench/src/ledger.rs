//! The per-layer ledger: `run_s` split into per-layer estimates plus what
//! no estimate covers.
//!
//! Each estimate is a layer's operation count times its unit cost, both
//! measured from outside the program. The ledger keeps whole nanoseconds,
//! so the estimates and the unattributed remainder add back to `run_s`
//! exactly.

/// `run_s` and the per-layer estimates charged against it.
#[derive(Debug, Clone)]
pub struct Ledger {
    run_ns: u64,
    entries: Vec<(&'static str, u64)>,
}

impl Ledger {
    /// A ledger for a run of `run_ns` host nanoseconds.
    pub fn new(run_ns: u64) -> Ledger {
        Ledger {
            run_ns,
            entries: Vec::new(),
        }
    }

    /// Charges `count` operations at `unit_ns` each to `layer`, rounded to
    /// whole nanoseconds. Charging a layer again adds to it.
    pub fn charge(&mut self, layer: &'static str, count: u64, unit_ns: f64) {
        let ns = (count as f64 * unit_ns).round().max(0.0) as u64;
        match self.entries.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, total)) => *total += ns,
            None => self.entries.push((layer, ns)),
        }
    }

    /// Host nanoseconds of the run.
    pub fn run_ns(&self) -> u64 {
        self.run_ns
    }

    /// The estimate charged to `layer` (zero if never charged).
    pub fn estimate_ns(&self, layer: &str) -> u64 {
        self.entries
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(0, |&(_, ns)| ns)
    }

    /// Every charged layer with its estimate, in charge order.
    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.entries
    }

    /// `run_ns` minus every estimate. Negative when the estimates
    /// overshoot the run.
    pub fn unattributed_ns(&self) -> i64 {
        let charged: u64 = self.entries.iter().map(|&(_, ns)| ns).sum();
        self.run_ns as i64 - charged as i64
    }
}
