//! The persistent shard worker runtime: long-lived threads, per-shard
//! work queues, completion barriers.
//!
//! PR 4's [`ShardedGateway`](crate::ShardedGateway) fanned every batched
//! verb out with *scoped* threads — one `thread::spawn` per non-idle
//! shard per call. On the CI kernel a scoped spawn costs ~30 µs, which
//! swamps the per-shard work at realistic batch sizes
//! (a 256-SA recover storm isolated it: 55 µs of actual recovery buried
//! under ~90 µs of spawn/join at 4 shards). This module
//! replaces that model: each shard's [`Gateway`] moves into a worker
//! thread **once**, at build time, and lives there until the
//! `ShardedGateway` is dropped.
//!
//! # Moving parts
//!
//! * [`ShardWorker`] — one long-lived thread owning one shard's
//!   `Gateway` outright. Jobs arrive over an spsc [`mpsc::channel`] (a
//!   single producer — the `ShardedGateway` — and the worker as the
//!   single consumer) and execute strictly in submission order, so the
//!   per-shard serialization the determinism argument needs is a
//!   property of the queue, not of locking.
//! * [`Completion`] — one job's pending result. Submitting returns
//!   immediately; [`Completion::wait`] blocks until the worker has run
//!   the job and reports either the job's value or the fact that the
//!   job panicked. Waiting on completions **in shard index order** is
//!   the pool's completion barrier: it reproduces exactly the stable
//!   shard-then-arrival event merge the scoped implementation produced.
//! * [`ShardPanic`] — a job panic, carried back to the submitting
//!   thread. Fallible verbs surface it as
//!   [`IpsecError::WorkerPanicked`](crate::IpsecError::WorkerPanicked);
//!   infallible verbs re-raise it on the caller. Either way the caller
//!   learns immediately — a panicking shard job can never hang the
//!   submitter, because the worker wraps every job in `catch_unwind`
//!   and always answers.
//!
//! # The degenerate single-shard pool
//!
//! A one-shard `ShardedGateway` spawns **no thread at all**:
//! [`ShardWorker::inline`] keeps the `Gateway` on the caller's side and
//! executes each job at submission. That keeps the `shards(1)`
//! configuration bit-identical to a plain `Gateway` in *cost* as well
//! as in output (no queue round-trip, no context switch), which is the
//! baseline every sharding measurement is judged against. The API is
//! indistinguishable — jobs still answer through a [`Completion`] and
//! panics still surface identically — only the execution site differs.
//!
//! # Shutdown
//!
//! Dropping a threaded [`ShardWorker`] closes its job queue and then
//! joins the thread. The worker drains every job already queued (each
//! still gets its answer if someone is waiting) and exits when the
//! queue is empty and disconnected — so dropping a `ShardedGateway`
//! with work in flight is a clean, bounded shutdown, not an abort.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{self, JoinHandle};

use crate::gateway::Gateway;
use crate::IpsecError;

/// One unit of work executed on a shard's worker thread against the
/// shard's [`Gateway`].
type ShardJob<S> = Box<dyn FnOnce(&mut Gateway<S>) + Send>;

/// What a job left behind: its value, or the payload it panicked with.
type JobResult<R> = Result<R, Box<dyn std::any::Any + Send>>;

/// A shard job panicked (or its worker was already gone). Carried back
/// to the submitting thread by [`Completion::wait`].
#[derive(Debug)]
pub(crate) struct ShardPanic {
    /// Which shard's worker failed.
    pub shard: usize,
    /// The panic message, best-effort stringified.
    pub message: String,
}

impl ShardPanic {
    /// Converts into the public error the fallible verbs return.
    pub fn into_error(self) -> IpsecError {
        IpsecError::WorkerPanicked {
            shard: self.shard,
            message: self.message,
        }
    }

    /// Re-raises on the calling thread (for verbs with no error
    /// channel): the shard's panic becomes the caller's panic.
    pub fn resume(self) -> ! {
        panic!("shard {} worker job panicked: {}", self.shard, self.message)
    }
}

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// A submitted job's result: already computed (inline shard) or
/// pending on the worker (threaded shard). Dropping it without waiting
/// is allowed (the answer is discarded).
pub(crate) enum Completion<R> {
    /// The job already ran (inline single-shard execution).
    Ready {
        /// The job's outcome.
        result: JobResult<R>,
        /// Shard index, for error attribution.
        shard: usize,
    },
    /// The job is queued on (or running on) a worker thread.
    Pending {
        /// Receives the job's outcome from the worker.
        rx: Receiver<JobResult<R>>,
        /// Shard index, for error attribution.
        shard: usize,
    },
}

impl<R> Completion<R> {
    /// Blocks until the job has run. `Err` means the job panicked or
    /// its worker was already down — never a hang: the worker answers
    /// every job it receives, and a dead worker's dropped channel makes
    /// `recv` return immediately.
    pub fn wait(self) -> Result<R, ShardPanic> {
        let (outcome, shard) = match self {
            Completion::Ready { result, shard } => (Ok(result), shard),
            Completion::Pending { rx, shard } => (rx.recv(), shard),
        };
        match outcome {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(payload)) => Err(ShardPanic {
                shard,
                message: panic_message(payload.as_ref()),
            }),
            Err(_) => Err(ShardPanic {
                shard,
                message: "worker exited before answering the job".to_string(),
            }),
        }
    }
}

/// One shard's execution backend. (The inline `Gateway` is boxed only
/// to keep the two variants' sizes comparable; a pool holds one
/// backend per shard, so the indirection is never on a per-packet
/// path.)
enum Backend<S> {
    /// The degenerate single-shard pool: the `Gateway` stays on the
    /// caller's side and jobs execute at submission — zero threads,
    /// zero queue overhead, cost-identical to a plain [`Gateway`].
    Inline(Box<RefCell<Gateway<S>>>),
    /// A persistent worker thread owning the `Gateway`, fed over an
    /// spsc work queue.
    Thread {
        /// Single-producer side of the shard's work queue. `None` only
        /// mid-drop.
        jobs: Option<Sender<ShardJob<S>>>,
        handle: Option<JoinHandle<()>>,
    },
}

/// One persistent worker owning one shard's [`Gateway`] — threaded for
/// real pools, inline for the single-shard degenerate case.
pub(crate) struct ShardWorker<S> {
    backend: Backend<S>,
    index: usize,
}

impl<S: Send + 'static> ShardWorker<S> {
    /// Moves `gateway` into a freshly spawned worker thread that serves
    /// jobs until the queue closes.
    pub fn spawn(index: usize, mut gateway: Gateway<S>) -> Self {
        let (tx, rx) = channel::<ShardJob<S>>();
        let handle = thread::Builder::new()
            .name(format!("ipsec-shard-{index}"))
            .spawn(move || {
                // Jobs run in strict queue order; each job answers its
                // own completion channel (inside the closure), so this
                // loop never panics and never blocks on the submitter.
                while let Ok(job) = rx.recv() {
                    job(&mut gateway);
                }
            })
            .expect("spawn ipsec shard worker thread");
        ShardWorker {
            backend: Backend::Thread {
                jobs: Some(tx),
                handle: Some(handle),
            },
            index,
        }
    }

    /// Keeps `gateway` on the caller's side; jobs execute inline at
    /// submission. Used when the pool has exactly one shard.
    pub fn inline(index: usize, gateway: Gateway<S>) -> Self {
        ShardWorker {
            backend: Backend::Inline(Box::new(RefCell::new(gateway))),
            index,
        }
    }

    /// Enqueues `f` on this shard's worker (or runs it right here for
    /// an inline shard) and returns its [`Completion`]. The job is
    /// wrapped in `catch_unwind`, so a panic inside `f` is reported to
    /// the waiter instead of killing the worker; the shard keeps
    /// serving subsequent jobs (its state is whatever the interrupted
    /// operation left, exactly as a panic mid-call would leave a plain
    /// [`Gateway`]).
    pub fn submit<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Gateway<S>) -> R + Send + 'static,
    ) -> Completion<R> {
        match &self.backend {
            Backend::Inline(gateway) => {
                let mut g = gateway.borrow_mut();
                let result = catch_unwind(AssertUnwindSafe(|| f(&mut g)));
                Completion::Ready {
                    result,
                    shard: self.index,
                }
            }
            Backend::Thread { jobs, .. } => {
                let (tx, rx) = channel::<JobResult<R>>();
                let job: ShardJob<S> = Box::new(move |gateway| {
                    let result = catch_unwind(AssertUnwindSafe(|| f(gateway)));
                    // A dropped Completion just discards the answer.
                    let _ = tx.send(result);
                });
                if let Some(jobs) = jobs {
                    // On a closed queue the job (and with it `tx`) is
                    // dropped, so the waiter sees "worker exited" — no
                    // special case.
                    let _ = jobs.send(job);
                }
                Completion::Pending {
                    rx,
                    shard: self.index,
                }
            }
        }
    }

    /// Runs `f` and blocks for its value, re-raising a job panic on
    /// the caller. The synchronous verbs without an error channel go
    /// through this.
    pub fn run<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Gateway<S>) -> R + Send + 'static,
    ) -> R {
        self.submit(f).wait().unwrap_or_else(|p| p.resume())
    }

    /// Runs `f` directly against an **inline** shard's `Gateway`,
    /// borrowing whatever the closure captures — no `'static` bound,
    /// no clone of the inputs, no queue. Returns `None` for a threaded
    /// worker (the caller falls back to [`ShardWorker::submit`]).
    /// Panics propagate directly, exactly as a plain [`Gateway`] call
    /// would — which is the single-shard contract.
    pub fn run_borrowed<R>(&self, f: impl FnOnce(&mut Gateway<S>) -> R) -> Option<R> {
        match &self.backend {
            Backend::Inline(gateway) => Some(f(&mut gateway.borrow_mut())),
            Backend::Thread { .. } => None,
        }
    }
}

impl<S> Drop for ShardWorker<S> {
    fn drop(&mut self) {
        if let Backend::Thread { jobs, handle } = &mut self.backend {
            // Close the queue first, then join: the worker drains
            // whatever is still queued and exits — graceful shutdown,
            // bounded by the queued work.
            drop(jobs.take());
            if let Some(handle) = handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::GatewayBuilder;
    use reset_stable::MemStable;

    fn worker() -> ShardWorker<MemStable> {
        ShardWorker::spawn(3, GatewayBuilder::in_memory().build())
    }

    #[test]
    fn jobs_run_in_submission_order_on_the_owned_gateway() {
        let w = worker();
        w.run(|g| g.add_peer(7, b"pool-test"));
        let c1 = w.submit(|g| g.protect(7, b"a").unwrap().unwrap().seq.value());
        let c2 = w.submit(|g| g.protect(7, b"b").unwrap().unwrap().seq.value());
        assert_eq!(c1.wait().unwrap(), 1);
        assert_eq!(c2.wait().unwrap(), 2);
    }

    #[test]
    fn panicking_job_reports_and_worker_survives() {
        let w = worker();
        let err = w
            .submit(|_g| -> () { panic!("injected job failure") })
            .wait()
            .unwrap_err();
        assert_eq!(err.shard, 3);
        assert!(err.message.contains("injected job failure"), "{err:?}");
        // The worker is still serving.
        w.run(|g| g.add_peer(9, b"pool-test"));
        assert_eq!(
            w.run(|g| g.protect(9, b"x").unwrap().unwrap().seq.value()),
            1
        );
    }

    #[test]
    fn drop_with_jobs_queued_is_a_clean_drain() {
        let w = worker();
        w.run(|g| g.add_peer(1, b"pool-test"));
        // Queue work and drop without waiting: the worker must drain
        // and join without hanging or panicking.
        for _ in 0..64 {
            let _ = w.submit(|g| g.protect(1, b"queued").unwrap());
        }
        drop(w);
    }

    #[test]
    fn dropped_completion_discards_the_answer() {
        let w = worker();
        w.run(|g| g.add_peer(2, b"pool-test"));
        drop(w.submit(|g| g.protect(2, b"fire-and-forget").unwrap()));
        // A later synchronous job still answers (the discarded send
        // didn't wedge the worker).
        assert_eq!(
            w.run(|g| g.protect(2, b"sync").unwrap().unwrap().seq.value()),
            2
        );
    }

    #[test]
    fn inline_worker_matches_threaded_semantics() {
        let w: ShardWorker<MemStable> = ShardWorker::inline(0, GatewayBuilder::in_memory().build());
        w.run(|g| g.add_peer(5, b"pool-test"));
        let c1 = w.submit(|g| g.protect(5, b"a").unwrap().unwrap().seq.value());
        let c2 = w.submit(|g| g.protect(5, b"b").unwrap().unwrap().seq.value());
        assert_eq!(c1.wait().unwrap(), 1);
        assert_eq!(c2.wait().unwrap(), 2);
        let err = w
            .submit(|_g| -> () { panic!("inline failure") })
            .wait()
            .unwrap_err();
        assert_eq!(err.shard, 0);
        assert!(err.message.contains("inline failure"));
        // Still serving after the caught panic.
        assert_eq!(
            w.run(|g| g.protect(5, b"c").unwrap().unwrap().seq.value()),
            3
        );
    }

    #[test]
    fn panic_payload_stringification() {
        let w = worker();
        let err = w
            .submit(|_g| -> () { std::panic::panic_any(1234u32) })
            .wait()
            .unwrap_err();
        assert_eq!(err.message, "opaque panic payload");
        let e = err.into_error();
        assert!(e.to_string().contains("shard 3"), "{e}");
    }
}
