//! Physical page-frame accounting.
//!
//! Virtual buffering's whole point (§4.2) is that buffer pages are ordinary
//! demand-allocated virtual memory: "the pool of physical page frames
//! available on a node are effectively shared with other dynamic consumers
//! of memory". [`FrameAllocator`] models that per-node pool; the virtual
//! buffer draws frames from it on demand and returns them as it drains, and
//! the overflow-control policy watches its free count.

use fugu_sim::fault::FaultInjector;
use fugu_sim::stats::HighWater;
use fugu_sim::trace::{CategoryMask, TraceEvent, Tracer};

/// Error returned when a node has no free page frames; without the second
/// network this is the deadlock case of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfFrames;

impl std::fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("no physical page frames available on this node")
    }
}

impl std::error::Error for OutOfFrames {}

/// Per-node physical page-frame pool.
///
/// Unlike the NIC and overflow control, the pool keeps its own trace sink
/// and fault hook. Its `PageAlloc`, `PageRelease` and `FaultFrameFail`
/// events fire inside [`VirtualBuffer::insert`](crate::VirtualBuffer::insert)'s
/// all-or-nothing allocate-and-roll-back (a roll-back may release zero
/// pages), in calls the machine never sees.
///
/// # Example
///
/// ```
/// use fugu_glaze::FrameAllocator;
///
/// let mut fa = FrameAllocator::new(4);
/// fa.allocate().unwrap();
/// fa.allocate().unwrap();
/// assert_eq!(fa.free(), 2);
/// fa.release(1);
/// assert_eq!(fa.free(), 3);
/// assert_eq!(fa.peak_used(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    total: u64,
    used: HighWater,
    tracer: Tracer,
    faults: FaultInjector,
    node: usize,
}

impl FrameAllocator {
    /// Creates a pool of `total` frames, all free.
    pub fn new(total: u64) -> Self {
        FrameAllocator {
            total,
            used: HighWater::new(),
            tracer: Tracer::disabled(),
            faults: FaultInjector::disabled(),
            node: 0,
        }
    }

    /// Attaches a trace sink; [`fugu_sim::trace::TraceEvent::PageAlloc`] and
    /// [`fugu_sim::trace::TraceEvent::PageRelease`] events are tagged with
    /// `node`.
    pub fn attach_tracer(&mut self, tracer: Tracer, node: usize) {
        self.tracer = tracer;
        self.node = node;
    }

    /// Attaches a fault injector; [`FrameAllocator::allocate`] then consults
    /// it and force-fails allocations during injected failure bursts,
    /// modeling other memory consumers transiently draining the pool.
    pub fn attach_faults(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Total frames in the pool.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Frames currently free.
    pub fn free(&self) -> u64 {
        self.total - self.used.current()
    }

    /// Frames currently allocated.
    pub fn used(&self) -> u64 {
        self.used.current()
    }

    /// Highest simultaneous allocation ever reached — the paper's
    /// "maximum number of physical pages required during any run".
    pub fn peak_used(&self) -> u64 {
        self.used.peak()
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when the pool is exhausted; the caller (the
    /// buffer-insert path) must stall and let the OS page via the second
    /// network, per §4.2.
    pub fn allocate(&mut self) -> Result<(), OutOfFrames> {
        if self.faults.frame_fail(self.node) {
            self.tracer
                .emit_with(CategoryMask::FAULT, || TraceEvent::FaultFrameFail {
                    node: self.node,
                });
            return Err(OutOfFrames);
        }
        if self.free() == 0 {
            return Err(OutOfFrames);
        }
        self.used.adjust(1);
        self.tracer
            .emit_with(CategoryMask::VM, || TraceEvent::PageAlloc {
                node: self.node,
                in_use: self.used.current() as usize,
            });
        Ok(())
    }

    /// Returns `n` frames to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more frames are released than are allocated.
    pub fn release(&mut self, n: u64) {
        assert!(
            n <= self.used.current(),
            "released {} frames with only {} allocated",
            n,
            self.used.current()
        );
        self.used.adjust(-(n as i64));
        self.tracer
            .emit_with(CategoryMask::VM, || TraceEvent::PageRelease {
                node: self.node,
                in_use: self.used.current() as usize,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_round_trip() {
        let mut fa = FrameAllocator::new(3);
        assert_eq!(fa.free(), 3);
        fa.allocate().unwrap();
        fa.allocate().unwrap();
        fa.allocate().unwrap();
        assert_eq!(fa.free(), 0);
        assert_eq!(fa.allocate(), Err(OutOfFrames));
        fa.release(3);
        assert_eq!(fa.free(), 3);
        assert_eq!(fa.used(), 0);
    }

    #[test]
    fn peak_tracks_high_water_not_current() {
        let mut fa = FrameAllocator::new(10);
        for _ in 0..7 {
            fa.allocate().unwrap();
        }
        fa.release(5);
        assert_eq!(fa.used(), 2);
        assert_eq!(fa.peak_used(), 7);
    }

    #[test]
    #[should_panic(expected = "released")]
    fn over_release_panics() {
        let mut fa = FrameAllocator::new(2);
        fa.allocate().unwrap();
        fa.release(2);
    }

    #[test]
    fn zero_capacity_pool_always_fails() {
        let mut fa = FrameAllocator::new(0);
        assert_eq!(fa.allocate(), Err(OutOfFrames));
    }

    #[test]
    fn injected_burst_fails_allocations_with_frames_free() {
        use fugu_sim::fault::{FaultInjector, FaultPlan};

        let mut fa = FrameAllocator::new(8);
        let plan = FaultPlan::parse("frame-fail=1.0,frame-burst=2").unwrap();
        fa.attach_faults(FaultInjector::new(plan, 1, 1));
        assert_eq!(fa.allocate(), Err(OutOfFrames));
        assert_eq!(fa.free(), 8, "forced failure must not consume a frame");
        // An inert injector never interferes.
        fa.attach_faults(FaultInjector::disabled());
        fa.allocate().unwrap();
        assert_eq!(fa.used(), 1);
    }
}
