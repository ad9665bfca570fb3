//! Adaptive micro-batching.
//!
//! A [`Batcher`] owns one background thread and a bounded job channel.
//! Worker threads submit single inputs and block on a per-job [`Slot`];
//! the batcher thread coalesces whatever is queued into one call of the
//! batch function and fans the results back out. The coalescing policy
//! is adaptive:
//!
//! 1. Take the first job (blocking — an idle batcher costs nothing).
//! 2. Drain everything already queued, up to `max_batch`.
//! 3. Only if the job is still alone, wait up to `window` for company —
//!    a lone request under light load pays at most `window` extra
//!    latency, while under heavy load step 2 always finds a full batch
//!    and the window never triggers.
//!
//! The server's default window is zero, which makes the batcher work
//! conserving: step 3 never runs, a lone job starts at once, and batches
//! form only from jobs that queued while the previous batch ran.
//!
//! Shutdown is channel-drop driven: dropping the last [`Batcher`] handle
//! closes the channel, the thread drains remaining jobs, runs them, and
//! exits. No flags, no sentinel jobs.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spark_util::par::{channel, RecvTimeoutError, Sender};

/// One-shot response cell a submitting thread parks on.
pub struct Slot<R> {
    value: Mutex<Option<R>>,
    ready: Condvar,
}

impl<R> Slot<R> {
    fn new() -> Arc<Self> {
        Arc::new(Self { value: Mutex::new(None), ready: Condvar::new() })
    }

    fn fill(&self, result: R) {
        let mut guard = self.value.lock().unwrap_or_else(|e| e.into_inner());
        *guard = Some(result);
        self.ready.notify_all();
    }

    /// Blocks until the batcher fills the slot or `timeout` elapses.
    /// `None` means the batcher never delivered (it died or is wedged) —
    /// callers should answer 500, never hang the connection.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<R> {
        let deadline = Instant::now() + timeout;
        let mut guard = self.value.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if guard.is_some() {
                return guard.take();
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .ready
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }
}

struct Job<T, R> {
    input: T,
    slot: Arc<Slot<R>>,
}

/// Handle to a running batcher thread. Clone freely; the thread exits
/// once every handle is dropped and the queue drains.
pub struct Batcher<T, R> {
    tx: Sender<Job<T, R>>,
    handle: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl<T, R> Clone for Batcher<T, R> {
    fn clone(&self) -> Self {
        Self { tx: self.tx.clone(), handle: Arc::clone(&self.handle) }
    }
}

impl<T: Send + 'static, R: Send + 'static> Batcher<T, R> {
    /// Spawns the batcher thread.
    ///
    /// `run` maps a batch of inputs to a same-length vector of results,
    /// in order. `window` is the extra time a lone job waits for
    /// company; `max_batch` caps coalescing; `queue` bounds the job
    /// channel (submitting past it blocks, propagating backpressure to
    /// the connection queue).
    ///
    /// # Errors
    ///
    /// Thread-spawn failure (resource exhaustion at startup).
    pub fn spawn(
        name: &str,
        window: Duration,
        max_batch: usize,
        queue: usize,
        run: impl Fn(Vec<T>) -> Vec<R> + Send + 'static,
    ) -> std::io::Result<Self> {
        let max_batch = max_batch.max(1);
        let (tx, rx) = channel::<Job<T, R>>(queue.max(1));
        let handle = std::thread::Builder::new()
            .name(format!("spark-batch-{name}"))
            .spawn(move || {
                while let Some(first) = rx.recv() {
                    let mut jobs = vec![first];
                    while jobs.len() < max_batch {
                        match rx.try_recv() {
                            Some(job) => jobs.push(job),
                            None => break,
                        }
                    }
                    if jobs.len() == 1 && !window.is_zero() {
                        let deadline = Instant::now() + window;
                        while jobs.len() < max_batch {
                            let now = Instant::now();
                            if now >= deadline {
                                break;
                            }
                            match rx.recv_timeout(deadline - now) {
                                Ok(job) => jobs.push(job),
                                Err(RecvTimeoutError::Timeout)
                                | Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                    }
                    let (inputs, slots): (Vec<T>, Vec<Arc<Slot<R>>>) =
                        jobs.into_iter().map(|j| (j.input, j.slot)).unzip();
                    let results = run(inputs);
                    debug_assert_eq!(results.len(), slots.len());
                    for (slot, result) in slots.iter().zip(results) {
                        slot.fill(result);
                    }
                }
            })?;
        Ok(Self { tx, handle: Arc::new(Mutex::new(Some(handle))) })
    }

    /// Queues one input. Blocks if the job channel is full. `None` means
    /// the batcher thread is gone (server shutting down).
    pub fn submit(&self, input: T) -> Option<Arc<Slot<R>>> {
        let slot = Slot::new();
        match self.tx.send(Job { input, slot: Arc::clone(&slot) }) {
            Ok(()) => Some(slot),
            Err(_) => None,
        }
    }

    /// Drops the sender and joins the batcher thread. Call on the last
    /// clone during shutdown; earlier calls just drop their sender.
    pub fn join(self) {
        let Self { tx, handle } = self;
        drop(tx);
        let taken = handle.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = taken {
            // Only joinable once every other clone's sender is gone;
            // the last caller through here does the actual join.
            if Arc::strong_count(&handle) == 1 {
                h.join().ok();
            } else {
                *handle.lock().unwrap_or_else(|e| e.into_inner()) = Some(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn single_job_runs_after_window() {
        let b = Batcher::spawn("t1", Duration::from_millis(5), 8, 16, |xs: Vec<u32>| {
            xs.into_iter().map(|x| x * 2).collect()
        })
        .unwrap();
        let slot = b.submit(21).unwrap();
        assert_eq!(slot.wait_timeout(WAIT), Some(42));
        b.join();
    }

    #[test]
    fn queued_jobs_coalesce_and_results_route_to_their_slots() {
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let sizes2 = Arc::clone(&sizes);
        // A long window so concurrent submissions coalesce deterministically.
        let b = Batcher::spawn("t2", Duration::from_millis(200), 64, 64, move |xs: Vec<u32>| {
            sizes2.lock().unwrap().push(xs.len());
            xs.into_iter().map(|x| x + 1000).collect()
        })
        .unwrap();
        let slots: Vec<_> = (0..16u32).map(|i| b.submit(i).unwrap()).collect();
        for (i, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.wait_timeout(WAIT), Some(i as u32 + 1000));
        }
        let sizes = sizes.lock().unwrap().clone();
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        assert!(
            sizes.iter().any(|&s| s > 1),
            "16 near-simultaneous jobs should produce at least one real batch, got {sizes:?}"
        );
        b.join();
    }

    #[test]
    fn zero_window_coalesces_exactly_the_jobs_queued_during_a_run() {
        const QUEUED: u32 = 7;
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let sizes2 = Arc::clone(&sizes);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let b = Batcher::spawn("t6", Duration::ZERO, 64, 64, move |xs: Vec<u32>| {
            sizes2.lock().unwrap().push(xs.len());
            if xs == [0] {
                // The first batch holds the batcher until the test has
                // queued the rest.
                entered_tx.send(()).unwrap();
                gate_rx.recv().unwrap();
            }
            xs
        })
        .unwrap();
        let first = b.submit(0).unwrap();
        entered_rx.recv().unwrap();
        let rest: Vec<_> = (1..=QUEUED).map(|i| b.submit(i).unwrap()).collect();
        gate_tx.send(()).unwrap();
        assert_eq!(first.wait_timeout(WAIT), Some(0));
        for (i, slot) in rest.into_iter().enumerate() {
            assert_eq!(slot.wait_timeout(WAIT), Some(i as u32 + 1));
        }
        assert_eq!(*sizes.lock().unwrap(), vec![1, QUEUED as usize]);
        b.join();
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let sizes2 = Arc::clone(&sizes);
        let b = Batcher::spawn("t3", Duration::from_millis(50), 4, 64, move |xs: Vec<u32>| {
            sizes2.lock().unwrap().push(xs.len());
            xs
        })
        .unwrap();
        let slots: Vec<_> = (0..12u32).map(|i| b.submit(i).unwrap()).collect();
        for slot in slots {
            assert!(slot.wait_timeout(WAIT).is_some());
        }
        assert!(sizes.lock().unwrap().iter().all(|&s| s <= 4));
        b.join();
    }

    #[test]
    fn join_drains_pending_jobs() {
        let b = Batcher::spawn("t4", Duration::ZERO, 8, 64, |xs: Vec<u32>| xs).unwrap();
        let slots: Vec<_> = (0..8u32).map(|i| b.submit(i).unwrap()).collect();
        b.join();
        for (i, slot) in slots.into_iter().enumerate() {
            assert_eq!(slot.wait_timeout(WAIT), Some(i as u32));
        }
    }

    #[test]
    fn submit_after_join_reports_shutdown() {
        let b = Batcher::spawn("t5", Duration::ZERO, 8, 64, |xs: Vec<u32>| xs).unwrap();
        let b2 = b.clone();
        b.join();
        b2.join();
        // Both handles joined: channel closed, submission must fail cleanly.
        let b3 = Batcher::<u32, u32> {
            tx: {
                let (tx, _rx) = channel(1);
                drop(_rx);
                tx
            },
            handle: Arc::new(Mutex::new(None)),
        };
        assert!(b3.submit(1).is_none());
    }
}
