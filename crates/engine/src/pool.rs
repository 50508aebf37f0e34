//! A hand-rolled work-stealing thread pool on `std::thread`.
//!
//! The build environment has no crates.io access, so the executor itself
//! is part of the subsystem: per-worker [`ChunkedDeque`]s (LIFO for the
//! owner, FIFO for thieves), an external injector queue, and
//! [`Parker`]-based idle handling (no spinning — an idle worker sleeps on
//! its own condvar until a submission unparks it).
//!
//! Scheduling is intentionally *non*-deterministic — whichever worker is
//! free takes the next task. The certification pipeline
//! ([`crate::Engine`]) keeps its output deterministic by writing each job
//! and shard result into a submission-indexed slot.
//!
//! Tasks must not block on other pool tasks (a blocked worker is a lost
//! execution slot, and every-worker-blocked is a deadlock). The engine
//! obeys this by running its pipeline in continuation style: a job that
//! fans out per-vertex shards never waits for them — the last shard to
//! finish assembles the report.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Number of items per segment of a [`ChunkedDeque`].
const SEGMENT_CAPACITY: usize = 32;

/// A double-ended queue of fixed-capacity segments.
///
/// Pushing allocates at most one small segment; popping never shifts
/// items. Compared to one flat growable ring this keeps each allocation
/// small and recycles memory segment-by-segment as thieves drain the
/// front — the classic chunked layout of work-stealing deques.
#[derive(Debug)]
pub struct ChunkedDeque<T> {
    segments: VecDeque<VecDeque<T>>,
    len: usize,
}

impl<T> Default for ChunkedDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ChunkedDeque<T> {
    /// An empty deque (no segments allocated yet).
    pub fn new() -> Self {
        Self {
            segments: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues at the back (the owner's end).
    pub fn push_back(&mut self, item: T) {
        let needs_segment = self
            .segments
            .back()
            .is_none_or(|s| s.len() >= SEGMENT_CAPACITY);
        if needs_segment {
            self.segments
                .push_back(VecDeque::with_capacity(SEGMENT_CAPACITY));
        }
        self.segments
            .back_mut()
            .expect("segment exists")
            .push_back(item);
        self.len += 1;
    }

    /// Dequeues from the back — the owner's LIFO end (freshly spawned
    /// subtasks run first, while their inputs are hot).
    pub fn pop_back(&mut self) -> Option<T> {
        loop {
            let seg = self.segments.back_mut()?;
            if let Some(item) = seg.pop_back() {
                self.len -= 1;
                return Some(item);
            }
            self.segments.pop_back();
        }
    }

    /// Dequeues from the front — the thieves' FIFO end (stealing the
    /// oldest work minimizes contention with the owner).
    pub fn pop_front(&mut self) -> Option<T> {
        loop {
            let seg = self.segments.front_mut()?;
            if let Some(item) = seg.pop_front() {
                self.len -= 1;
                return Some(item);
            }
            self.segments.pop_front();
        }
    }
}

/// One worker's sleep/wake switch: a boolean token under a mutex plus a
/// condvar. `unpark` before `park` is remembered (the token), so the
/// submit/sleep race cannot lose a wakeup.
#[derive(Debug, Default)]
pub struct Parker {
    notified: Mutex<bool>,
    cvar: Condvar,
}

impl Parker {
    /// Blocks until [`Parker::unpark`] is (or has been) called, then
    /// consumes the token.
    pub fn park(&self) {
        let mut notified = self.notified.lock().expect("parker poisoned");
        while !*notified {
            notified = self.cvar.wait(notified).expect("parker poisoned");
        }
        *notified = false;
    }

    /// Sets the token and wakes the parked thread, if any.
    pub fn unpark(&self) {
        *self.notified.lock().expect("parker poisoned") = true;
        self.cvar.notify_one();
    }
}

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Always-on pool instrumentation: relaxed atomics bumped at the
/// scheduling decision points, snapshotted into a
/// [`lanecert_obs::PoolStats`] by [`WorkStealingPool::stats`]. The
/// counters ride the locks already taken at each site, so keeping them
/// unconditional costs a handful of uncontended atomic adds per task.
#[derive(Debug)]
struct PoolCounters {
    /// Tasks lifted from another worker's deque.
    steals: AtomicU64,
    /// Tasks pushed to the injector (submissions from outside the pool).
    injector_pushes: AtomicU64,
    /// Tasks a worker popped from the injector.
    injector_pops: AtomicU64,
    /// Park transitions (a worker went to sleep).
    parks: AtomicU64,
    /// Unpark transitions (a sleeping worker was woken by a submission).
    unparks: AtomicU64,
    /// Tasks executed, per worker.
    tasks: Vec<AtomicU64>,
    /// High-water mark of each worker's own deque depth.
    queue_hwm: Vec<AtomicU64>,
    /// High-water mark of the injector depth.
    injector_hwm: AtomicU64,
}

impl PoolCounters {
    fn new(workers: usize) -> Self {
        Self {
            steals: AtomicU64::new(0),
            injector_pushes: AtomicU64::new(0),
            injector_pops: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            tasks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            queue_hwm: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            injector_hwm: AtomicU64::new(0),
        }
    }
}

struct PoolShared {
    /// Per-worker deques: owner pops the back, thieves pop the front.
    queues: Vec<Mutex<ChunkedDeque<Task>>>,
    /// Tasks submitted from outside the pool.
    injector: Mutex<ChunkedDeque<Task>>,
    /// One parker per worker.
    parkers: Vec<Parker>,
    /// Stack of currently-parked worker ids.
    sleepers: Mutex<Vec<usize>>,
    shutdown: AtomicBool,
    /// Scheduling counters (see [`PoolCounters`]).
    counters: PoolCounters,
}

impl PoolShared {
    fn has_visible_task(&self) -> bool {
        if !self.injector.lock().expect("injector poisoned").is_empty() {
            return true;
        }
        self.queues
            .iter()
            .any(|q| !q.lock().expect("queue poisoned").is_empty())
    }

    fn wake_one(&self) {
        let popped = self.sleepers.lock().expect("sleepers poisoned").pop();
        if let Some(id) = popped {
            self.counters.unparks.fetch_add(1, Ordering::Relaxed);
            self.parkers[id].unpark();
        }
    }
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static CURRENT_WORKER: std::cell::Cell<Option<(u64, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// The executor: `workers` OS threads cooperating over per-worker chunked
/// deques with work stealing, parking when idle.
pub struct WorkStealingPool {
    id: u64,
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkStealingPool {
    /// Spawns `workers` worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(PoolShared {
            queues: (0..workers)
                .map(|_| Mutex::new(ChunkedDeque::new()))
                .collect(),
            injector: Mutex::new(ChunkedDeque::new()),
            parkers: (0..workers).map(|_| Parker::default()).collect(),
            sleepers: Mutex::new(Vec::with_capacity(workers)),
            shutdown: AtomicBool::new(false),
            counters: PoolCounters::new(workers),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lanecert-engine-{w}"))
                    .spawn(move || worker_loop(id, w, &shared))
                    .expect("failed to spawn engine worker")
            })
            .collect();
        Self {
            id,
            shared,
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot of the pool's lifetime scheduling counters. Counters
    /// are cumulative since construction; scope them to one run with
    /// [`lanecert_obs::PoolStats::delta_since`].
    pub fn stats(&self) -> lanecert_obs::PoolStats {
        let c = &self.shared.counters;
        let load = |v: &[AtomicU64]| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        lanecert_obs::PoolStats {
            workers: self.workers(),
            steals: c.steals.load(Ordering::Relaxed),
            injector_pushes: c.injector_pushes.load(Ordering::Relaxed),
            injector_pops: c.injector_pops.load(Ordering::Relaxed),
            parks: c.parks.load(Ordering::Relaxed),
            unparks: c.unparks.load(Ordering::Relaxed),
            tasks_per_worker: load(&c.tasks),
            queue_hwm_per_worker: load(&c.queue_hwm),
            injector_hwm: c.injector_hwm.load(Ordering::Relaxed),
        }
    }

    /// Submits a task. From a worker thread of this pool the task lands on
    /// that worker's own deque (LIFO, cache-warm); from any other thread
    /// it goes through the injector. Either way one idle worker is woken.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        spawn_task(self.id, &self.shared, Box::new(task));
    }

    /// A cheap, cloneable submission handle: pipeline continuations hold
    /// one so in-flight tasks can fan out further work without borrowing
    /// the pool itself.
    pub fn spawner(&self) -> Spawner {
        Spawner {
            id: self.id,
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Submission handle returned by [`WorkStealingPool::spawner`].
///
/// Holds the pool's shared queues alive; tasks submitted after the pool
/// itself is dropped are silently discarded with them (the engine always
/// outlives its runs, so its continuations never hit that window).
#[derive(Clone)]
pub struct Spawner {
    id: u64,
    shared: Arc<PoolShared>,
}

impl Spawner {
    /// Submits a task; same routing as [`WorkStealingPool::spawn`].
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        spawn_task(self.id, &self.shared, Box::new(task));
    }
}

fn spawn_task(pool_id: u64, shared: &PoolShared, task: Task) {
    match CURRENT_WORKER.get() {
        Some((pool, w)) if pool == pool_id => {
            let depth = {
                let mut queue = shared.queues[w].lock().expect("queue poisoned");
                queue.push_back(task);
                queue.len() as u64
            };
            shared.counters.queue_hwm[w].fetch_max(depth, Ordering::Relaxed);
        }
        _ => {
            let depth = {
                let mut injector = shared.injector.lock().expect("injector poisoned");
                injector.push_back(task);
                injector.len() as u64
            };
            shared
                .counters
                .injector_pushes
                .fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .injector_hwm
                .fetch_max(depth, Ordering::Relaxed);
        }
    }
    shared.wake_one();
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for parker in &self.shared.parkers {
            parker.unpark();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(pool_id: u64, worker: usize, shared: &PoolShared) {
    CURRENT_WORKER.set(Some((pool_id, worker)));
    let workers = shared.queues.len();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(task) = find_task(worker, workers, shared) {
            shared.counters.tasks[worker].fetch_add(1, Ordering::Relaxed);
            // A panicking task must not take the worker thread (and its
            // execution slot) down with it; the engine pipeline catches
            // and surfaces its own panics, so a payload reaching here
            // carries no result.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            continue;
        }
        // Register as a sleeper, then re-check: a task submitted between
        // the failed search and the registration would otherwise be
        // stranded until the next submission.
        shared
            .sleepers
            .lock()
            .expect("sleepers poisoned")
            .push(worker);
        if shared.shutdown.load(Ordering::SeqCst) || shared.has_visible_task() {
            shared
                .sleepers
                .lock()
                .expect("sleepers poisoned")
                .retain(|&s| s != worker);
            continue;
        }
        shared.counters.parks.fetch_add(1, Ordering::Relaxed);
        shared.parkers[worker].park();
        // Deregister on wake. Normally `wake_one` already popped this
        // entry (no-op); but when the park consumed a *stale* token — an
        // unpark that raced an earlier re-check-and-continue — the entry
        // is still listed, and leaving it would accumulate duplicates
        // whose pops burn wakeups on a busy thread while genuinely parked
        // workers sleep on.
        shared
            .sleepers
            .lock()
            .expect("sleepers poisoned")
            .retain(|&s| s != worker);
    }
}

fn find_task(worker: usize, workers: usize, shared: &PoolShared) -> Option<Task> {
    // Own deque first (LIFO end), then the injector, then steal the FIFO
    // end of the other workers' deques, round-robin from our right-hand
    // neighbour so thieves spread out.
    if let Some(task) = shared.queues[worker]
        .lock()
        .expect("queue poisoned")
        .pop_back()
    {
        return Some(task);
    }
    if let Some(task) = shared
        .injector
        .lock()
        .expect("injector poisoned")
        .pop_front()
    {
        shared
            .counters
            .injector_pops
            .fetch_add(1, Ordering::Relaxed);
        return Some(task);
    }
    for offset in 1..workers {
        let victim = (worker + offset) % workers;
        if let Some(task) = shared.queues[victim]
            .lock()
            .expect("queue poisoned")
            .pop_front()
        {
            shared.counters.steals.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn chunked_deque_spans_segments() {
        let mut d = ChunkedDeque::new();
        assert!(d.is_empty());
        assert_eq!(d.pop_back(), None);
        assert_eq!(d.pop_front(), None);
        let n = SEGMENT_CAPACITY * 3 + 7;
        for i in 0..n {
            d.push_back(i);
        }
        assert_eq!(d.len(), n);
        // FIFO from the front...
        assert_eq!(d.pop_front(), Some(0));
        assert_eq!(d.pop_front(), Some(1));
        // ...LIFO from the back...
        assert_eq!(d.pop_back(), Some(n - 1));
        // ...and both ends drain to exactly the remaining items.
        let mut remaining = Vec::new();
        while let Some(x) = d.pop_front() {
            remaining.push(x);
        }
        assert_eq!(remaining, (2..n - 1).collect::<Vec<_>>());
        assert!(d.is_empty());
    }

    #[test]
    fn parker_remembers_early_unpark() {
        let p = Parker::default();
        p.unpark();
        p.park(); // returns immediately: the token was set
    }

    #[test]
    fn worker_spawned_subtasks_run_and_are_stealable() {
        // A task fans out subtasks from inside the pool (they land on the
        // spawning worker's own deque) and the continuation-style counter
        // sees all of them — exercised across several workers so thieves
        // get a chance to lift from the owner's FIFO end.
        let pool = Arc::new(WorkStealingPool::new(3));
        let count = Arc::new(AtomicUsize::new(0));
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let fanout = 40;
        {
            let pool2 = Arc::clone(&pool);
            let count = Arc::clone(&count);
            let done = Arc::clone(&done);
            pool.spawn(move || {
                for _ in 0..fanout {
                    let count = Arc::clone(&count);
                    let done = Arc::clone(&done);
                    pool2.spawn(move || {
                        if count.fetch_add(1, Ordering::SeqCst) + 1 == fanout {
                            let (lock, cvar) = &*done;
                            *lock.lock().unwrap() = true;
                            cvar.notify_all();
                        }
                    });
                }
            });
        }
        let (lock, cvar) = &*done;
        let mut finished = lock.lock().unwrap();
        while !*finished {
            let (next, timeout) = cvar
                .wait_timeout(finished, std::time::Duration::from_secs(10))
                .unwrap();
            finished = next;
            assert!(!timeout.timed_out(), "fan-out never completed");
        }
        assert_eq!(count.load(Ordering::SeqCst), fanout);
    }

    /// Spawns one task per input from outside the pool, each sending its
    /// input back, and returns what arrived, sorted (arrival order is
    /// scheduling's).
    fn echo_batch(pool: &WorkStealingPool, inputs: std::ops::Range<u64>) -> Vec<u64> {
        let (tx, rx) = std::sync::mpsc::channel();
        for i in inputs {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut results: Vec<u64> = rx.iter().collect();
        results.sort_unstable();
        results
    }

    #[test]
    fn panicking_task_spares_the_workers() {
        let pool = WorkStealingPool::new(2);
        // `worker_loop` catches the unwind of a task nobody waits on.
        for _ in 0..4 {
            pool.spawn(|| panic!("boom"));
        }
        // Every worker survived: the pool still runs full batches.
        assert_eq!(echo_batch(&pool, 7..11), [7, 8, 9, 10]);
    }

    #[test]
    fn stats_count_scheduling_transitions() {
        let pool = WorkStealingPool::new(2);
        // Let both workers go idle so parks are observable.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let base = pool.stats();
        assert_eq!(base.workers, 2);
        assert!(base.parks >= 2, "both idle workers parked: {base:?}");
        let n = 32u64;
        assert_eq!(echo_batch(&pool, 0..n).len(), n as usize);
        let run = pool.stats().delta_since(&base);
        // Driver-side submissions all route through the injector...
        assert_eq!(run.injector_pushes, n);
        // ...and every task was executed by some worker, arriving either
        // straight off the injector or via a steal of nothing (workers
        // cannot steal the injector), so the pops account for all of it.
        assert_eq!(run.injector_pops, n);
        assert_eq!(run.total_tasks(), n);
        assert_eq!(run.steals, 0);
        assert!(run.unparks >= 1, "a parked worker must have been woken");
        assert!(run.injector_hwm >= 1);
    }

    #[test]
    fn idle_pool_parks_and_wakes() {
        let pool = WorkStealingPool::new(2);
        // Let workers go idle, then submit again: parked workers must wake.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(echo_batch(&pool, 1..3), [1, 2]);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(echo_batch(&pool, 3..4), [3]);
    }
}
