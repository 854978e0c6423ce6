//! Sim-thread (coroutine) runtime on operating-system threads.
//!
//! Unused by the workspace: the machine runs its sim-threads as `async`
//! futures on its own thread (see `udm::machine`). This module stays only
//! because `perfbench/src/micro.rs` still times it, until ROADMAP item 3
//! cuts that tie and deletes it.
//!
//! Each sim-thread is a closure on its own OS thread that *blocks* on
//! [`CoCtx::call`]; the runtime rendezvouses with it through a pair of
//! channels and resumes at most one thread at a time.
//!
//! # Example
//!
//! ```
//! use fugu_sim::coro::{CoEvent, CoRuntime};
//!
//! // Requests are u32s, responses are u32s: a trivial "double it" service.
//! let mut rt: CoRuntime<u32, u32> = CoRuntime::new();
//! let id = rt.spawn(|ctx| {
//!     let x = ctx.call(21);
//!     assert_eq!(x, 42);
//! });
//! // First resume starts the thread; the value passed is discarded.
//! let ev = rt.resume(id, 0);
//! assert_eq!(ev, CoEvent::Request(21));
//! let ev = rt.resume(id, 42);
//! assert_eq!(ev, CoEvent::Finished);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Marker payload used to unwind a sim-thread silently when its runtime has
/// been dropped. `resume_unwind` with this payload skips the panic hook, so
/// tearing down a runtime with live threads produces no console noise.
struct RuntimeGone;

/// Identifier of a sim-thread within its [`CoRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoId(usize);

/// What a sim-thread did when it was last resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoEvent<Req> {
    /// The thread issued a simulator call and is now blocked awaiting the
    /// response that will be supplied by the next [`CoRuntime::resume`].
    Request(Req),
    /// The thread's closure returned; it may not be resumed again.
    Finished,
    /// The thread's closure panicked with the given message; it may not be
    /// resumed again. The engine is expected to propagate this.
    Panicked(String),
}

/// Handle given to sim-thread closures for issuing simulator calls.
#[derive(Debug)]
pub struct CoCtx<Req, Resp> {
    tx: SyncSender<CoEvent<Req>>,
    rx: Receiver<Resp>,
}

impl<Req, Resp> CoCtx<Req, Resp> {
    /// Issues a simulator call and blocks until the engine responds.
    ///
    /// # Panics
    ///
    /// Unwinds (silently) if the owning [`CoRuntime`] has been dropped.
    pub fn call(&mut self, req: Req) -> Resp {
        if self.tx.send(CoEvent::Request(req)).is_err() {
            resume_unwind(Box::new(RuntimeGone));
        }
        match self.rx.recv() {
            Ok(resp) => resp,
            Err(_) => resume_unwind(Box::new(RuntimeGone)),
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum SlotState {
    /// Spawned or mid-call: the engine may resume it.
    Resumable,
    /// Returned or panicked: resuming is a logic error.
    Done,
}

struct Slot<Req, Resp> {
    resp_tx: SyncSender<Resp>,
    req_rx: Receiver<CoEvent<Req>>,
    join: Option<JoinHandle<()>>,
    state: SlotState,
}

/// A collection of sim-threads coordinated with the engine in lock-step.
///
/// `Req` is the simulator-call request type, `Resp` the response type. See
/// the [module documentation](self) for the execution model.
pub struct CoRuntime<Req, Resp> {
    slots: Vec<Slot<Req, Resp>>,
}

impl<Req, Resp> std::fmt::Debug for CoRuntime<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoRuntime")
            .field("threads", &self.slots.len())
            .finish()
    }
}

impl<Req, Resp> Default for CoRuntime<Req, Resp>
where
    Req: Send + 'static,
    Resp: Send + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<Req, Resp> CoRuntime<Req, Resp>
where
    Req: Send + 'static,
    Resp: Send + 'static,
{
    /// Creates a runtime with no threads.
    pub fn new() -> Self {
        CoRuntime { slots: Vec::new() }
    }

    /// Spawns a sim-thread running `f`.
    ///
    /// The thread does **not** begin executing until the first
    /// [`CoRuntime::resume`]; the response value passed to that first resume
    /// is consumed by the start gate and discarded.
    pub fn spawn<F>(&mut self, f: F) -> CoId
    where
        F: FnOnce(&mut CoCtx<Req, Resp>) + Send + 'static,
    {
        let (req_tx, req_rx) = sync_channel::<CoEvent<Req>>(1);
        let (resp_tx, resp_rx) = sync_channel::<Resp>(1);
        let join = std::thread::Builder::new()
            .name(format!("sim-thread-{}", self.slots.len()))
            .spawn(move || {
                let mut ctx = CoCtx {
                    tx: req_tx.clone(),
                    rx: resp_rx,
                };
                // Start gate: wait for the first resume before running any
                // user code, so spawn() itself never races with the engine.
                if ctx.rx.recv().is_err() {
                    return;
                }
                let result = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                let event = match result {
                    Ok(()) => CoEvent::Finished,
                    Err(payload) => {
                        if payload.downcast_ref::<RuntimeGone>().is_some() {
                            return; // runtime torn down; exit silently
                        }
                        CoEvent::Panicked(panic_message(payload.as_ref()))
                    }
                };
                let _ = req_tx.send(event);
            })
            .expect("failed to spawn sim-thread");
        self.slots.push(Slot {
            resp_tx,
            req_rx,
            join: Some(join),
            state: SlotState::Resumable,
        });
        CoId(self.slots.len() - 1)
    }

    /// Resumes the thread with `resp` and blocks until it issues its next
    /// request, finishes, or panics.
    ///
    /// # Panics
    ///
    /// Panics if the thread already finished or panicked (engine logic
    /// error), or if the sim-thread died without reporting (should not
    /// happen).
    pub fn resume(&mut self, id: CoId, resp: Resp) -> CoEvent<Req> {
        let slot = &mut self.slots[id.0];
        assert!(
            slot.state == SlotState::Resumable,
            "resumed finished sim-thread {:?}",
            id
        );
        slot.resp_tx
            .send(resp)
            .expect("sim-thread hung up unexpectedly");
        let event = slot
            .req_rx
            .recv()
            .expect("sim-thread died without reporting");
        if !matches!(event, CoEvent::Request(_)) {
            slot.state = SlotState::Done;
            // The thread is exiting; reap it so finished threads do not
            // accumulate as zombies over a long simulation.
            if let Some(join) = slot.join.take() {
                let _ = join.join();
            }
        }
        event
    }
}

impl<Req, Resp> Drop for CoRuntime<Req, Resp> {
    fn drop(&mut self) {
        // Drop all channel endpoints first so threads parked in `call` or at
        // the start gate wake with a channel error and unwind silently, then
        // join them.
        let joins: Vec<JoinHandle<()>> = self
            .slots
            .iter_mut()
            .filter_map(|s| s.join.take())
            .collect();
        self.slots.clear();
        for j in joins {
            let _ = j.join();
        }
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "sim-thread panicked with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_request_response_cycle() {
        let mut rt: CoRuntime<u32, u32> = CoRuntime::new();
        let id = rt.spawn(|ctx| {
            let mut acc = 0;
            for i in 0..5 {
                acc += ctx.call(i);
            }
            assert_eq!(acc, 10);
        });
        let mut ev = rt.resume(id, 0);
        for i in 0..5 {
            assert_eq!(ev, CoEvent::Request(i));
            ev = rt.resume(id, 2); // 5 responses of 2 sum to 10
        }
        assert_eq!(ev, CoEvent::Finished);
    }

    #[test]
    fn finished_event_after_return() {
        let mut rt: CoRuntime<(), ()> = CoRuntime::new();
        let id = rt.spawn(|_| {});
        assert_eq!(rt.resume(id, ()), CoEvent::Finished);
    }

    #[test]
    fn interleaves_many_threads_deterministically() {
        let mut rt: CoRuntime<usize, usize> = CoRuntime::new();
        let ids: Vec<CoId> = (0..8)
            .map(|n| {
                rt.spawn(move |ctx| {
                    for k in 0..3 {
                        let got = ctx.call(n * 10 + k);
                        assert_eq!(got, n * 10 + k + 1);
                    }
                })
            })
            .collect();
        // Start all threads.
        let mut pending: Vec<(CoId, usize)> = Vec::new();
        for (n, &id) in ids.iter().enumerate() {
            match rt.resume(id, 0) {
                CoEvent::Request(r) => {
                    assert_eq!(r, n * 10);
                    pending.push((id, r));
                }
                other => panic!("unexpected {:?}", other),
            }
        }
        // Round-robin them to completion.
        let mut finished = 0;
        while finished < ids.len() {
            let mut next = Vec::new();
            for (id, r) in pending.drain(..) {
                match rt.resume(id, r + 1) {
                    CoEvent::Request(r2) => next.push((id, r2)),
                    CoEvent::Finished => finished += 1,
                    CoEvent::Panicked(m) => panic!("thread panicked: {m}"),
                }
            }
            pending = next;
        }
    }

    #[test]
    fn panic_is_reported_not_propagated() {
        let mut rt: CoRuntime<(), ()> = CoRuntime::new();
        let id = rt.spawn(|_| panic!("boom {}", 7));
        match rt.resume(id, ()) {
            CoEvent::Panicked(msg) => assert!(msg.contains("boom 7")),
            other => panic!("unexpected {:?}", other),
        }
    }

    #[test]
    fn dropping_runtime_with_blocked_threads_is_clean() {
        let mut rt: CoRuntime<u8, u8> = CoRuntime::new();
        let id = rt.spawn(|ctx| {
            let _ = ctx.call(1);
            let _ = ctx.call(2); // never answered
        });
        assert_eq!(rt.resume(id, 0), CoEvent::Request(1));
        drop(rt); // must not hang or print panics
    }

    #[test]
    fn dropping_runtime_with_unstarted_threads_is_clean() {
        let mut rt: CoRuntime<u8, u8> = CoRuntime::new();
        let _ = rt.spawn(|ctx| {
            let _ = ctx.call(1);
        });
        drop(rt);
    }

    #[test]
    #[should_panic(expected = "resumed finished sim-thread")]
    fn resuming_finished_thread_panics() {
        let mut rt: CoRuntime<(), ()> = CoRuntime::new();
        let id = rt.spawn(|_| {});
        assert_eq!(rt.resume(id, ()), CoEvent::Finished);
        let _ = rt.resume(id, ());
    }
}
