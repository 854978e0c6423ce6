//! Overflow control: the anti-thrashing policy of §4.2.
//!
//! "Excessive demand for virtual buffering in our system is analogous to
//! thrashing of virtual memory. Accordingly, we employ a technique
//! reminiscent of the anti-thrashing strategy in Unix: we identify the
//! offending application and take gross control of its scheduling. First,
//! an application on the verge of exhausting physical memory is globally
//! suspended while paging clears out space on the node. Second, a
//! well-behaved application will recover from buffering if gang scheduled,
//! so the buffering system advises the scheduler to gang schedule the
//! application."
//!
//! [`OverflowControl`] watches the free-frame count at every buffer-insert
//! and returns the corresponding action. The simulated machine applies it,
//! emits the `OverflowAdvise`/`OverflowSuspend` trace event and counts how
//! often each fires (in the paper's workloads: essentially never, because
//! buffer demand stays low).

/// Policy decision returned by [`OverflowControl::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowAction {
    /// Buffer demand is creeping up: advise the system scheduler to gang
    /// schedule the offending job so its own synchronization drains the
    /// buffer.
    AdviseGangSchedule,
    /// The node is on the verge of exhausting physical memory: globally
    /// suspend the job while paging (over the second network) clears
    /// space.
    SuspendGlobally,
}

/// Free-frame watermark policy.
///
/// # Example
///
/// ```
/// use fugu_glaze::{OverflowAction, OverflowControl};
///
/// let mut oc = OverflowControl::new(8, 2);
/// assert_eq!(oc.check(32), None);
/// assert_eq!(oc.check(7), Some(OverflowAction::AdviseGangSchedule));
/// assert_eq!(oc.check(1), Some(OverflowAction::SuspendGlobally));
/// ```
#[derive(Debug, Clone)]
pub struct OverflowControl {
    advise_below: u64,
    suspend_below: u64,
}

impl OverflowControl {
    /// Creates a policy that advises gang scheduling when free frames drop
    /// below `advise_below` and suspends the job below `suspend_below`.
    ///
    /// # Panics
    ///
    /// Panics if `suspend_below > advise_below` (the suspension watermark
    /// must be the more desperate one).
    pub fn new(advise_below: u64, suspend_below: u64) -> Self {
        assert!(
            suspend_below <= advise_below,
            "suspend watermark must not exceed advise watermark"
        );
        OverflowControl {
            advise_below,
            suspend_below,
        }
    }

    /// Evaluates the policy against the current free-frame count.
    pub fn check(&mut self, free_frames: u64) -> Option<OverflowAction> {
        if free_frames < self.suspend_below {
            Some(OverflowAction::SuspendGlobally)
        } else if free_frames < self.advise_below {
            Some(OverflowAction::AdviseGangSchedule)
        } else {
            None
        }
    }
}

impl Default for OverflowControl {
    /// Watermarks scaled to the default 256-frame node pool.
    fn default() -> Self {
        OverflowControl::new(16, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_pool_triggers_nothing() {
        let mut oc = OverflowControl::new(8, 2);
        for free in [100, 9, 8] {
            assert_eq!(oc.check(free), None);
        }
    }

    #[test]
    fn watermarks_are_exclusive_bounds() {
        let mut oc = OverflowControl::new(8, 2);
        assert_eq!(oc.check(8), None);
        assert_eq!(oc.check(7), Some(OverflowAction::AdviseGangSchedule));
        assert_eq!(oc.check(2), Some(OverflowAction::AdviseGangSchedule));
        assert_eq!(oc.check(1), Some(OverflowAction::SuspendGlobally));
        assert_eq!(oc.check(0), Some(OverflowAction::SuspendGlobally));
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn inverted_watermarks_rejected() {
        OverflowControl::new(2, 8);
    }

    #[test]
    fn equal_watermarks_skip_straight_to_suspension() {
        // A degenerate policy where both watermarks coincide is legal; the
        // suspension check wins, so gang scheduling is never merely advised.
        let mut oc = OverflowControl::new(4, 4);
        assert_eq!(oc.check(4), None);
        assert_eq!(oc.check(3), Some(OverflowAction::SuspendGlobally));
        assert_eq!(oc.check(0), Some(OverflowAction::SuspendGlobally));
    }

    #[test]
    fn default_watermarks_partition_a_draining_pool() {
        // The default policy assumes the 256-frame node pool: frames
        // 255..=16 are healthy, 15..=4 advise gang scheduling, 3..=0
        // suspend. Drain the whole pool and check every band.
        let mut oc = OverflowControl::default();
        for free in (0..256u64).rev() {
            let want = if free < 4 {
                Some(OverflowAction::SuspendGlobally)
            } else if free < 16 {
                Some(OverflowAction::AdviseGangSchedule)
            } else {
                None
            };
            assert_eq!(oc.check(free), want, "free = {free}");
        }
    }
}
