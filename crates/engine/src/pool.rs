//! A thread pool on `std::thread` with one shared task queue.
//!
//! Workers pop one `VecDeque` under one mutex. A task spawned by a worker
//! goes to the front, so a continuation runs next while its inputs are
//! hot; a task from any other thread goes to the back. A worker that
//! finds the queue empty joins the idle stack and waits on its own
//! condvar under that same lock, so no submission can be missed. Each
//! submission wakes the most recently idle worker, whose caches and
//! per-thread memos are the warmest (one condvar shared by all workers
//! would wake the longest idle one instead).
//!
//! Scheduling is non-deterministic; [`crate::Engine`] keeps its output
//! deterministic through submission-indexed result slots. Tasks must not
//! block on other pool tasks (every worker blocked is a deadlock), so the
//! engine runs in continuation style: a fan-out's last shard reports.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Everything the queue lock guards, scheduling counters included.
#[derive(Default)]
struct State {
    /// Each task with the worker that spawned it (`None` from outside).
    queue: VecDeque<(Task, Option<usize>)>,
    shutdown: bool,
    /// Waiting workers, the most recently idle last.
    idle: Vec<usize>,
    /// Tasks run by a worker other than the one that spawned them.
    steals: u64,
    /// Times a worker found the queue empty and waited.
    parks: u64,
    /// Tasks executed, per worker.
    tasks: Vec<u64>,
}

struct Shared {
    state: Mutex<State>,
    /// One per worker, each waited on with `state`'s guard.
    wake: Vec<Condvar>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pool queue poisoned")
    }
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static CURRENT_WORKER: std::cell::Cell<Option<(u64, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// The executor: `workers` OS threads sharing one task queue, each
/// sleeping on its own condvar when the queue is empty.
pub struct Pool {
    spawner: Spawner,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                tasks: vec![0; workers],
                ..State::default()
            }),
            wake: (0..workers).map(|_| Condvar::new()).collect(),
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
            spawner: Spawner { id, shared },
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The pool's scheduling counters since construction; scope them to
    /// one run with [`lanecert_obs::PoolStats::delta_since`].
    pub fn stats(&self) -> lanecert_obs::PoolStats {
        let state = self.spawner.shared.lock();
        lanecert_obs::PoolStats {
            workers: self.workers(),
            steals: state.steals,
            parks: state.parks,
            tasks_per_worker: state.tasks.clone(),
        }
    }

    /// Submits a task; see [`Spawner::spawn`].
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.spawner.spawn(task);
    }

    /// A cloneable submission handle, so in-flight tasks can fan out
    /// further work without borrowing the pool.
    pub fn spawner(&self) -> Spawner {
        self.spawner.clone()
    }
}

/// Submission handle returned by [`Pool::spawner`].
///
/// Holds the pool's queue alive; tasks submitted after the pool is
/// dropped are discarded (the engine outlives its runs, so none are).
#[derive(Clone)]
pub struct Spawner {
    id: u64,
    shared: Arc<Shared>,
}

impl Spawner {
    /// Submits a task: from a worker of this pool to the queue's front (it
    /// runs next, cache-warm), from any other thread to the back. Either
    /// way it wakes the most recently idle worker, if any.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let worker = CURRENT_WORKER
            .get()
            .and_then(|(pool, w)| (pool == self.id).then_some(w));
        let mut state = self.shared.lock();
        if state.shutdown {
            // Discarded: `task` drops after the guard, outside the lock.
            return;
        }
        let queued: (Task, _) = (Box::new(task), worker);
        match worker {
            Some(_) => state.queue.push_front(queued),
            None => state.queue.push_back(queued),
        }
        let idle = state.idle.pop();
        drop(state);
        if let Some(w) = idle {
            self.shared.wake[w].notify_one();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let shared = &self.spawner.shared;
        shared.lock().shutdown = true;
        shared.wake.iter().for_each(Condvar::notify_one);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Tasks still queued are discarded here, outside the lock: one
        // that holds a `Spawner` would otherwise keep the queue alive.
        let discarded = std::mem::take(&mut shared.lock().queue);
        drop(discarded);
    }
}

fn worker_loop(pool_id: u64, worker: usize, shared: &Shared) {
    CURRENT_WORKER.set(Some((pool_id, worker)));
    let mut state = shared.lock();
    while !state.shutdown {
        let Some((task, spawned_by)) = state.queue.pop_front() else {
            state.parks += 1;
            state.idle.push(worker);
            state = shared.wake[worker]
                .wait(state)
                .expect("pool queue poisoned");
            // A submission popped this worker; a spurious wakeup did not.
            state.idle.retain(|&w| w != worker);
            continue;
        };
        state.tasks[worker] += 1;
        if spawned_by.is_some_and(|w| w != worker) {
            state.steals += 1;
        }
        drop(state);
        // A panicking task must not take its worker down with it; the
        // engine catches and surfaces its own panics, so a payload
        // reaching here carries no result.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        state = shared.lock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// Waits (up to about [`TIMEOUT`]) until the pool has recorded at
    /// least `parks` parks.
    fn wait_for_parks(pool: &Pool, parks: u64) {
        for _ in 0..TIMEOUT.as_millis() {
            if pool.stats().parks >= parks {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("workers never parked");
    }

    /// Spawns one task per input from outside the pool, each sending its
    /// input back, and returns what arrived, sorted (arrival order is
    /// scheduling's).
    fn echo_batch(pool: &Pool, inputs: std::ops::Range<u64>) -> Vec<u64> {
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

    /// From inside `pool`, spawns a task that fans out `fanout` subtasks,
    /// and returns once all of them have run.
    fn fan_out(pool: &Arc<Pool>, fanout: usize) {
        let count = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        let inner = Arc::clone(pool);
        pool.spawn(move || {
            for _ in 0..fanout {
                let count = Arc::clone(&count);
                let tx = tx.clone();
                inner.spawn(move || {
                    if count.fetch_add(1, Ordering::SeqCst) + 1 == fanout {
                        tx.send(()).unwrap();
                    }
                });
            }
        });
        rx.recv_timeout(TIMEOUT).expect("fan-out never completed");
    }

    #[test]
    fn worker_spawned_subtasks_all_run() {
        // Subtasks spawned inside the pool go to the queue's front and
        // every one of them runs, across several workers.
        let pool = Arc::new(Pool::new(3));
        fan_out(&pool, 40);
        assert_eq!(pool.stats().total_tasks(), 41);
    }

    #[test]
    fn a_worker_runs_its_newest_spawn_first_and_outside_tasks_in_order() {
        let pool = Arc::new(Pool::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let log = |name: &'static str| {
            let order = Arc::clone(&order);
            move || order.lock().unwrap().push(name)
        };
        // Hold the one worker until every outside task is queued.
        let (open, gate) = std::sync::mpsc::channel::<()>();
        pool.spawn(move || gate.recv().unwrap());
        let inner = Arc::clone(&pool);
        let (a, b, x) = (log("a"), log("b"), log("x"));
        pool.spawn(move || {
            x();
            inner.spawn(a);
            inner.spawn(b);
        });
        pool.spawn(log("y"));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move || tx.send(()).unwrap());
        open.send(()).unwrap();
        rx.recv_timeout(TIMEOUT).expect("tasks never ran");
        assert_eq!(*order.lock().unwrap(), ["x", "b", "a", "y"]);
    }

    #[test]
    fn panicking_task_spares_the_workers() {
        let pool = Pool::new(2);
        // `worker_loop` catches the unwind of a task nobody waits on.
        for _ in 0..4 {
            pool.spawn(|| panic!("boom"));
        }
        // Every worker survived: the pool still runs full batches.
        assert_eq!(echo_batch(&pool, 7..11), [7, 8, 9, 10]);
    }

    #[test]
    fn submissions_after_parking_run_on_the_last_idle_worker() {
        // Both workers park on startup. Each round one of them wakes for
        // the submitted task, runs it and parks again, so after round `r`
        // the pool has recorded at least 2 + r parks exactly when both
        // workers are back asleep (a spurious wakeup only adds parks).
        // The worker that ran a round parked last, so it runs the next.
        let pool = Pool::new(2);
        let rounds = if cfg!(miri) { 20 } else { 200 };
        let mut ran_on = Vec::new();
        for round in 0..rounds {
            wait_for_parks(&pool, 2 + round);
            let (tx, rx) = std::sync::mpsc::channel();
            pool.spawn(move || {
                let worker = std::thread::current().name().map(str::to_owned);
                tx.send((round, worker)).unwrap();
            });
            let (got, worker) = rx
                .recv_timeout(TIMEOUT)
                .unwrap_or_else(|_| panic!("round {round} lost"));
            assert_eq!(got, round);
            ran_on.push(worker);
        }
        ran_on.dedup();
        assert_eq!(
            ran_on.len(),
            1,
            "rounds switched workers {} times",
            ran_on.len() - 1
        );
    }

    #[test]
    fn dropping_a_parked_pool_returns() {
        let pool = Pool::new(2);
        wait_for_parks(&pool, 2);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(pool);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(TIMEOUT).expect("drop never returned");
    }

    #[test]
    fn steals_count_only_tasks_run_away_from_their_spawner() {
        // Submissions from outside the pool have no spawning worker.
        let pool = Pool::new(2);
        let n = 32u64;
        assert_eq!(echo_batch(&pool, 0..n).len(), n as usize);
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.total_tasks(), n);

        // With one worker every subtask runs where it was spawned.
        let pool = Arc::new(Pool::new(1));
        let fanout = 40;
        fan_out(&pool, fanout);
        let stats = pool.stats();
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.total_tasks(), fanout as u64 + 1);
    }
}
