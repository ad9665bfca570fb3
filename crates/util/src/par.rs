//! Data parallelism on one persistent, process-wide thread pool, replacing
//! `rayon::par_iter` for the parallel sweeps, GEMM row fan-outs and
//! simulator fork-joins, plus a bounded MPMC [`channel`] for the
//! long-running serving subsystem.
//!
//! [`par_map`], [`par_chunks_mut`] and [`join`] each split their work into
//! chunks and publish them to the pool as one task with an atomic claim
//! counter. The calling thread claims and runs chunks alongside whichever
//! pool workers wake, then waits only for chunks another thread has
//! already claimed. Two things follow:
//!
//! - a tiny job (a few microseconds of work) finishes on the caller before
//!   a worker has even woken, so it pays no thread hand-off;
//! - nested calls cannot deadlock: a thread only ever waits for a chunk
//!   that another thread is running, never for one nobody has claimed.
//!
//! The pool holds `thread_count() - 1` workers (the caller is the last
//! thread) and is spawned lazily on the first call that has more than one
//! chunk; with `SPARK_THREADS=1` there is no pool and everything runs
//! inline. Results come back in input order, so outputs are bit-identical
//! to a sequential run. A panicking chunk is caught, and the panic is
//! re-raised in the caller once every chunk of its call has settled; the
//! worker that ran it survives.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the guard if a thread panicked while holding it.
/// Every critical section in this module leaves its data valid at each
/// step (a counter bump, a queue push or pop, an `Option` swap), so a
/// poisoned lock holds consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of threads a parallel call uses, the caller included: the
/// machine's available parallelism, overridable (e.g. for deterministic
/// timing runs) with the `SPARK_THREADS` environment variable.
///
/// The value is read once, on first use, and fixed for the life of the
/// process: setting `SPARK_THREADS` after the first parallel call has no
/// effect.
pub fn thread_count() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("SPARK_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or_else(
                || std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
                |n| n.max(1),
            )
    })
}

/// The chunk body of one parallel call, called with each chunk index.
type ChunkFn = dyn Fn(usize) + Sync;

/// One parallel call's chunks, shared between its caller and the pool.
struct Task {
    /// The caller's chunk body with its lifetime erased; see
    /// [`run_chunks`] for why it is never used after the caller returns.
    body: *const ChunkFn,
    chunks: usize,
    /// Claim counter: `fetch_add` hands out each index below `chunks`
    /// exactly once.
    next: AtomicUsize,
    /// Chunks that have run to completion or panicked.
    settled: Mutex<usize>,
    all_settled: Condvar,
    /// The first panic a chunk raised, re-raised in the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` is the only field that is not already `Send + Sync`. It
// points to a `Sync` closure, so calling it from several threads at once
// is allowed, and it is dereferenced only by a thread that has claimed a
// chunk index below `chunks`. `run_chunks` keeps the closure alive until
// every claimed chunk has settled (its `Settle` guard), and once every
// index is claimed no thread can claim another, so no thread dereferences
// `body` after the closure is gone. The remaining fields are atomics and
// mutexes over `Send` data.
unsafe impl Send for Task {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Task {}

impl Task {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.chunks
    }

    /// Claims and runs chunks until none is left unclaimed.
    fn work(&self) {
        loop {
            // Relaxed suffices: the counter only hands out distinct
            // indices. What a chunk writes is published to the caller by
            // the `settled` mutex below.
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.chunks {
                return;
            }
            // SAFETY: `index < chunks` was claimed by this thread, so the
            // caller is still waiting in `Settle::drop` and the closure
            // behind `body` is alive (see the `Send` impl above).
            let body = unsafe { &*self.body };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(index))) {
                lock(&self.panic).get_or_insert(payload);
            }
            let mut settled = lock(&self.settled);
            *settled += 1;
            if *settled == self.chunks {
                self.all_settled.notify_all();
            }
        }
    }
}

/// The process-wide pool: tasks with chunks left to claim, and the
/// condvar idle workers sleep on.
struct Pool {
    tasks: Mutex<VecDeque<Arc<Task>>>,
    wake: Condvar,
}

static POOL: Pool = Pool { tasks: Mutex::new(VecDeque::new()), wake: Condvar::new() };

impl Pool {
    /// Number of pool workers, spawning them on first use. A worker that
    /// fails to spawn (resource exhaustion) is simply absent: the callers
    /// run its share themselves.
    fn workers(&'static self) -> usize {
        static WORKERS: OnceLock<usize> = OnceLock::new();
        *WORKERS.get_or_init(|| {
            (1..thread_count())
                .filter(|i| {
                    std::thread::Builder::new()
                        .name(format!("spark-par-{i}"))
                        .spawn(move || self.serve())
                        .is_ok()
                })
                .count()
        })
    }

    /// A worker's loop: run chunks of the oldest task that has any left,
    /// sleep when none has. Workers live for the whole process; they hold
    /// no resources between tasks, so there is nothing to join.
    fn serve(&self) {
        let mut tasks = lock(&self.tasks);
        loop {
            match tasks.iter().find(|t| t.has_unclaimed()).cloned() {
                Some(task) => {
                    drop(tasks);
                    task.work();
                    tasks = lock(&self.tasks);
                }
                None => tasks = self.wake.wait(tasks).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// Waits, on drop, until every chunk of its task has settled, then takes
/// the task off the pool queue. It runs on the normal path and while
/// unwinding alike, so the caller of [`run_chunks`] can never leave while
/// a pool worker still runs one of its chunks.
struct Settle<'a>(&'a Arc<Task>);

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        let task = self.0;
        // Run whatever is still unclaimed (only on an early exit), so the
        // wait below is for chunks other threads are already running.
        task.work();
        let mut settled = lock(&task.settled);
        while *settled < task.chunks {
            settled = task.all_settled.wait(settled).unwrap_or_else(PoisonError::into_inner);
        }
        drop(settled);
        lock(&POOL.tasks).retain(|t| !Arc::ptr_eq(t, task));
    }
}

/// Runs `body(i)` for every `i` in `0..chunks`, on the caller and the
/// pool, returning once all have run. A panic in any chunk is re-raised
/// here after every chunk has settled.
fn run_chunks(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    if chunks <= 1 || POOL.workers() == 0 {
        (0..chunks).for_each(body);
        return;
    }
    let body: *const (dyn Fn(usize) + Sync + '_) = body;
    // SAFETY: only the trait object's lifetime bound changes (same fat
    // pointer layout). The pointer is used past this frame only through
    // `Task::work` after a successful claim, and the `Settle` guard below
    // keeps this frame alive until every claimed chunk has settled.
    let body: *const ChunkFn = unsafe { std::mem::transmute(body) };
    let task = Arc::new(Task {
        body,
        chunks,
        next: AtomicUsize::new(0),
        settled: Mutex::new(0),
        all_settled: Condvar::new(),
        panic: Mutex::new(None),
    });
    lock(&POOL.tasks).push_back(Arc::clone(&task));
    let settle = Settle(&task);
    for _ in 0..(chunks - 1).min(POOL.workers()) {
        POOL.wake.notify_one();
    }
    task.work();
    drop(settle);
    let payload = lock(&task.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

/// Maps `f` over `items` on up to [`thread_count`] threads (the caller
/// and the pool), preserving input order in the output.
///
/// Items are split into contiguous chunks, one per thread; each chunk is
/// mapped independently. `f` must be `Sync` (shared by reference across
/// threads) and the item/result types must cross thread boundaries.
///
/// ```
/// use spark_util::par::par_map;
/// let squares = par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = thread_count().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let parts: Vec<&[T]> = items.chunks(items.len().div_ceil(threads)).collect();
    let outs: Vec<Mutex<Vec<R>>> = parts.iter().map(|_| Mutex::new(Vec::new())).collect();
    run_chunks(parts.len(), &|i| {
        let out: Vec<R> = parts[i].iter().map(&f).collect();
        *lock(&outs[i]) = out;
    });
    outs.into_iter()
        .flat_map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

/// Runs `f` over contiguous mutable chunks of `data` — each `chunk_len`
/// elements, the last possibly shorter — on the caller and the pool when
/// more than one chunk exists. The callback receives the chunk index
/// alongside the chunk, so it can recover the global offset
/// (`index * chunk_len`).
///
/// The caller sizes the chunks: pass `data.len().div_ceil(thread_count())`
/// to get one chunk per thread. A single chunk (or an empty slice) runs
/// inline on the calling thread.
///
/// This is the mutable-output counterpart of [`par_map`], used by the
/// tensor backend to fan a GEMM out over disjoint row blocks of the output
/// buffer.
///
/// ```
/// use spark_util::par::par_chunks_mut;
/// let mut v = vec![0u32; 10];
/// par_chunks_mut(&mut v, 4, |ci, chunk| {
///     for (off, x) in chunk.iter_mut().enumerate() {
///         *x = (ci * 4 + off) as u32;
///     }
/// });
/// assert_eq!(v, (0..10).collect::<Vec<u32>>());
/// ```
///
/// # Panics
///
/// Panics when `chunk_len` is zero.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "par_chunks_mut chunk_len must be positive");
    if data.is_empty() {
        return;
    }
    if data.len() <= chunk_len {
        f(0, data);
        return;
    }
    let chunks: Vec<Mutex<Option<&mut [T]>>> =
        data.chunks_mut(chunk_len).map(|c| Mutex::new(Some(c))).collect();
    run_chunks(chunks.len(), &|i| {
        let chunk = lock(&chunks[i]).take();
        if let Some(chunk) = chunk {
            f(i, chunk);
        }
    });
}

/// Runs two independent closures, `a` on the caller and `b` on the pool
/// (or the caller, if no worker picks it up first), and returns both
/// results — the two-way fork-join the simulator uses to overlap its
/// short/long differencing runs.
///
/// Runs sequentially when [`thread_count`] is 1 (e.g. `SPARK_THREADS=1`
/// for deterministic timing runs).
///
/// ```
/// use spark_util::par::join;
/// let (a, b) = join(|| 2 + 2, || "done");
/// assert_eq!((a, b), (4, "done"));
/// ```
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if thread_count() < 2 {
        return (a(), b());
    }
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    run_chunks(2, &|i| {
        if i == 0 {
            let a = lock(&a).take();
            *lock(&ra) = a.map(|a| a());
        } else {
            let b = lock(&b).take();
            *lock(&rb) = b.map(|b| b());
        }
    });
    // Both chunks ran: a panic in either was re-raised by `run_chunks`.
    (
        ra.into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("join: chunk 0 settled without a panic, so it ran"),
        rb.into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("join: chunk 1 settled without a panic, so it ran"),
    )
}

/// Creates a bounded multi-producer multi-consumer channel of capacity
/// `capacity` — the backpressured job queue of the serving subsystem
/// (replaces `crossbeam-channel`).
///
/// Both halves are cloneable. [`Sender::send`] blocks while the queue is
/// full; [`Sender::try_send`] returns the value back instead, which is how
/// the server turns a full queue into an immediate 503 rather than an
/// unbounded backlog. [`Receiver::recv`] blocks until a value arrives or
/// every sender is gone.
///
/// ```
/// use spark_util::par::channel;
/// let (tx, rx) = channel(2);
/// tx.send(1).unwrap();
/// tx.send(2).unwrap();
/// assert!(tx.try_send(3).is_err()); // full
/// assert_eq!(rx.recv(), Some(1));
/// drop(tx);
/// assert_eq!(rx.recv(), Some(2));
/// assert_eq!(rx.recv(), None); // disconnected and drained
/// ```
///
/// # Panics
///
/// Panics when `capacity` is zero (a zero-capacity rendezvous channel is
/// not supported).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(ChanState {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

struct ChanState<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<ChanState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, ChanState<T>> {
        // A worker panicking mid-queue-op would poison the mutex; the queue
        // itself is always left consistent, so keep going.
        lock(&self.state)
    }
}

/// Error returned by [`Sender::try_send`], giving the value back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue held `capacity` values (backpressure).
    Full(T),
    /// Every receiver is gone; the value can never be delivered.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No value arrived within the timeout.
    Timeout,
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

/// The sending half of a bounded [`channel`].
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half of a bounded [`channel`].
pub struct Receiver<T>(Arc<Shared<T>>);

impl<T> Sender<T> {
    /// Blocks until there is room, then enqueues `value`. Returns the value
    /// back when every receiver is gone.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when the channel is disconnected.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut s = self.0.lock();
        loop {
            if s.receivers == 0 {
                return Err(value);
            }
            if s.queue.len() < s.capacity {
                s.queue.push_back(value);
                drop(s);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            s = self.0.not_full.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Enqueues `value` without blocking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] when the queue is at capacity,
    /// [`TrySendError::Disconnected`] when every receiver is gone — both
    /// return the value to the caller.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut s = self.0.lock();
        if s.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if s.queue.len() >= s.capacity {
            return Err(TrySendError::Full(value));
        }
        s.queue.push_back(value);
        drop(s);
        self.0.not_empty.notify_one();
        Ok(())
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Blocks until a value arrives; `None` once every sender is gone and
    /// the queue is drained (so a plain `while let Some(v) = rx.recv()`
    /// drains gracefully on shutdown).
    pub fn recv(&self) -> Option<T> {
        let mut s = self.0.lock();
        loop {
            if let Some(v) = s.queue.pop_front() {
                drop(s);
                self.0.not_full.notify_one();
                return Some(v);
            }
            if s.senders == 0 {
                return None;
            }
            s = self.0.not_empty.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dequeues without blocking; `None` when the queue is momentarily
    /// empty (regardless of sender liveness).
    pub fn try_recv(&self) -> Option<T> {
        let mut s = self.0.lock();
        let v = s.queue.pop_front();
        if v.is_some() {
            drop(s);
            self.0.not_full.notify_one();
        }
        v
    }

    /// Blocks up to `timeout` for a value — the micro-batcher's collection
    /// window.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when the window elapses empty,
    /// [`RecvTimeoutError::Disconnected`] when every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut s = self.0.lock();
        loop {
            if let Some(v) = s.queue.pop_front() {
                drop(s);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if s.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            s = self
                .0
                .not_empty
                .wait_timeout(s, deadline - now)
                .map_or_else(|e| e.into_inner().0, |(g, _)| g);
        }
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.senders -= 1;
        let last = s.senders == 0;
        drop(s);
        if last {
            // Wake blocked receivers so they observe the disconnect.
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.0.lock();
        s.receivers -= 1;
        let last = s.receivers == 0;
        drop(s);
        if last {
            // Wake blocked senders so they observe the disconnect.
            self.0.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out = par_map(&input, |&x| x * 2);
        assert_eq!(out, input.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u8> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uses_shared_state_immutably() {
        let table: Vec<u64> = (0..64).map(|i| i * i).collect();
        let out = par_map(&(0..64).collect::<Vec<usize>>(), |&i| table[i]);
        assert_eq!(out[5], 25);
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn par_chunks_mut_covers_every_element() {
        let mut v = vec![0usize; 103];
        par_chunks_mut(&mut v, 10, |ci, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = ci * 10 + off + 1;
            }
        });
        assert_eq!(v, (1..=103).collect::<Vec<usize>>());
    }

    #[test]
    fn par_chunks_mut_single_chunk_and_empty() {
        let mut v = vec![1u8, 2, 3];
        par_chunks_mut(&mut v, 8, |ci, chunk| {
            assert_eq!(ci, 0);
            chunk.iter_mut().for_each(|x| *x += 1);
        });
        assert_eq!(v, vec![2, 3, 4]);
        let mut none: Vec<u8> = vec![];
        par_chunks_mut(&mut none, 4, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn join_returns_both_results() {
        let data: Vec<u64> = (1..=100).collect();
        let (sum, max) = join(
            || data.iter().sum::<u64>(),
            || data.iter().copied().max().unwrap_or(0),
        );
        assert_eq!(sum, 5050);
        assert_eq!(max, 100);
    }

    #[test]
    fn channel_fifo_within_capacity() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 4);
        assert!(matches!(tx.try_send(9), Err(TrySendError::Full(9))));
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn channel_disconnect_semantics() {
        let (tx, rx) = channel::<u32>(2);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7)); // drains before reporting closed
        assert_eq!(rx.recv(), None);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Disconnected)
        );

        let (tx, rx) = channel::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(1));
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
    }

    #[test]
    fn channel_recv_timeout_times_out_when_empty() {
        let (tx, rx) = channel::<u8>(1);
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(15));
        drop(tx);
    }

    #[test]
    fn channel_blocking_send_unblocks_on_recv() {
        let (tx, rx) = channel(1);
        tx.send(0u32).unwrap();
        std::thread::scope(|scope| {
            let tx2 = tx.clone();
            let h = scope.spawn(move || tx2.send(1).is_ok());
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(rx.recv(), Some(0));
            assert!(h.join().unwrap());
            assert_eq!(rx.recv(), Some(1));
        });
    }

    #[test]
    fn channel_mpmc_delivers_every_value_once() {
        let (tx, rx) = channel::<usize>(8);
        let produced: usize = 4 * 250;
        let consumed = std::sync::atomic::AtomicUsize::new(0);
        let sum = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for p in 0..4 {
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..250 {
                        tx.send(p * 250 + i).unwrap();
                    }
                });
            }
            drop(tx);
            for _ in 0..3 {
                let rx = rx.clone();
                let consumed = &consumed;
                let sum = &sum;
                scope.spawn(move || {
                    while let Some(v) = rx.recv() {
                        consumed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        sum.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            drop(rx);
        });
        assert_eq!(consumed.into_inner(), produced);
        assert_eq!(sum.into_inner(), (0..produced).sum::<usize>());
    }
}
