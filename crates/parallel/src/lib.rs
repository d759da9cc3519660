//! Deterministic task-parallel execution for the MetaDSE workspace.
//!
//! The MetaDSE pipeline is full of *task-level* independence — per-task MAML
//! inner loops, per-design-point simulations, per-tree forest fitting — but
//! the `metadse-nn` autograd graph is `Rc`/`RefCell`-based and therefore
//! thread-bound. This crate provides the execution pattern every parallel
//! hot path uses instead of making the graph `Send`:
//!
//! 1. **snapshot** — the caller captures plain `Vec<f64>` inputs on the main
//!    thread (parameter buffers, sampled tasks, design points),
//! 2. **fan-out** — [`ParallelConfig::run_indexed`] evaluates a pure
//!    function of the task index on `std::thread::scope` workers, each of
//!    which may rebuild thread-local state (e.g. a model) from the snapshot,
//! 3. **deterministic reduce** — results come back ordered by task index,
//!    so the caller reduces them in exactly the serial order and the final
//!    floats are bit-identical to a serial run.
//!
//! Thread count resolution: explicit `threads: Some(n)` wins, otherwise the
//! `METADSE_THREADS` environment variable, otherwise
//! [`std::thread::available_parallelism`].
//!
//! Two variations keep every core busy when the tasks are few and
//! uneven. [`ParallelConfig::run_two_stage`] runs a first stage per item
//! whose result releases that item's second-stage units to whichever
//! worker is idle (a WAM sweep adapts a task, then predicts its query
//! rows in chunks on any core); idle workers take unstarted items first,
//! results come back in (item, unit) order, and one worker runs the same
//! stages inline in that order. [`ParallelConfig::join`] runs two
//! different closures side by side.
//!
//! For always-on services (the serving layer's batch workers) that consume
//! from a queue rather than fanning out over a known task count, the crate
//! also provides [`WorkerPool`]: long-lived named threads with the same
//! observability worker tagging as fan-out workers.
//!
//! # Worker count and oversubscription
//!
//! Any fan-out of two or more tasks runs in parallel on
//! `min(tasks, threads, hardware threads)` workers
//! ([`ParallelConfig::workers_for`]); a single task always runs inline.
//! Worker 0 is the calling thread itself, so a fan-out spawns one thread
//! fewer than it uses. A 2-thread scoped fan-out costs tens of
//! microseconds, against tens to hundreds of milliseconds per task on the
//! pipeline's fan-outs (MAML meta-batch members, WAM task adaptations), so
//! no work-size threshold is applied here; a caller whose per-item cost is
//! tiny keeps that work on its own thread.
//!
//! The worker count is clamped to the machine's available parallelism
//! unless [`ParallelConfig::oversubscribe`] is set (measurement and
//! determinism tests set it to force real thread interleaving even on a
//! single-core host). The clamp only changes *where* work runs, never its
//! results, which stay bit-identical by construction.
//!
//! Thread-local state does not follow work onto spawned workers by
//! itself. The predictor fan-outs of the `metadse` crate carry the
//! caller's tensor modes (the backend, fused-kernel and buffer-pool guards
//! of `metadse-nn`) onto every worker; a closure that computes with
//! tensors through this crate directly must do the same, or pin
//! [`ParallelConfig::serial`].
//!
//! When the `obs` feature of the workspace is enabled, every fan-out
//! records its decision (`parallel/fanouts_serial`,
//! `parallel/fanouts_parallel` and `parallel/spawned_workers` counters),
//! workers tag their spans with a worker id, and spans opened inside
//! workers nest under the caller's span.

use std::collections::VecDeque;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

use metadse_obs as obs;

/// Thread-count knob plumbed through the pipeline's configuration structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Worker threads. `Some(1)` forces the exact serial code path;
    /// `None` defers to `METADSE_THREADS`, then to the machine.
    pub threads: Option<usize>,
    /// Allow more workers than the machine has hardware threads.
    /// Off by default (oversubscribing CPU-bound pure work only adds
    /// scheduling overhead); determinism tests and overhead measurements
    /// turn it on to force real cross-thread interleaving anywhere.
    pub oversubscribe: bool,
}

impl ParallelConfig {
    /// A configuration pinned to `n` threads.
    pub fn with_threads(n: usize) -> ParallelConfig {
        ParallelConfig {
            threads: Some(n.max(1)),
            ..ParallelConfig::default()
        }
    }

    /// A configuration pinned to one thread (exact serial execution).
    pub fn serial() -> ParallelConfig {
        ParallelConfig::with_threads(1)
    }

    /// This configuration with the hardware-parallelism clamp disabled,
    /// so the full requested worker count spawns even on a smaller
    /// machine. Used by determinism tests (real interleaving on any host)
    /// and overhead measurements.
    pub fn oversubscribed(mut self) -> ParallelConfig {
        self.oversubscribe = true;
        self
    }

    /// The resolved worker-thread count: explicit setting, else
    /// `METADSE_THREADS`, else available parallelism (at least 1).
    pub fn effective_threads(&self) -> usize {
        if let Some(n) = self.threads {
            return n.max(1);
        }
        if let Ok(v) = std::env::var("METADSE_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        available_parallelism()
    }

    /// The number of workers a fan-out of `n` tasks will actually use:
    /// 1 (the serial path) when `n ≤ 1`, otherwise the thread count
    /// clamped to `n` and — unless
    /// [`oversubscribed`](ParallelConfig::oversubscribed) — to the
    /// machine's available parallelism.
    pub fn workers_for(&self, n: usize) -> usize {
        if n <= 1 {
            return 1;
        }
        let workers = self.effective_threads().min(n);
        if self.oversubscribe {
            workers
        } else {
            workers.min(available_parallelism())
        }
    }

    /// Evaluates `f(0..n)` and returns the results **in index order**.
    ///
    /// With one effective worker (see [`ParallelConfig::workers_for`])
    /// this runs `f` inline on the caller's thread, serially, in index
    /// order — no threads are spawned. Otherwise the calling thread works
    /// as worker 0 beside `workers − 1` spawned threads, all pulling
    /// indices from a shared counter, so `f` must be a pure function of
    /// its index for results to be deterministic; index ordering of the
    /// output makes any subsequent reduction independent of scheduling.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.workers_for(n);
        if threads <= 1 {
            obs::counter("parallel/fanouts_serial", 1);
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let per_worker = on_workers(threads, |_| {
            let mut local = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, f(i)));
            }
            local
        });

        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, value) in per_worker.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(value);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.unwrap_or_else(|| panic!("index {i} never produced")))
            .collect()
    }

    /// A two-stage fan-out over `items`: returns, per item in item order,
    /// its first-stage result and its second-stage results in unit order.
    ///
    /// `first(state, i)` runs once per item and returns `(a, units)`;
    /// `second(state, i, &a, u)` then runs once for each `u in 0..units`.
    /// A worker that falls idle claims the next item whose first stage has
    /// not started, and only when none is left a second-stage unit of an
    /// item whose first stage has returned; so the units of early items
    /// fill the cores that the last first stages leave idle, instead of
    /// waiting for the slowest of them. A worker with nothing to claim
    /// waits until a running first stage releases units or the last one
    /// finishes.
    ///
    /// Each worker builds its state with `init(worker)` on its own thread
    /// just before its first claim, and hands it to every stage it runs,
    /// so per-worker set-up (a clone of compiled state) is paid once per
    /// worker that does any work. Worker 0 is the calling thread.
    ///
    /// With one effective worker (`workers_for(items)`) everything runs
    /// inline in the order one worker takes it: every first stage in item
    /// order, then every unit in (item, unit) order. The stages must be
    /// pure functions of their indices (and, for the second, of the
    /// first-stage result) — worker state may cache how a value is
    /// computed, never change it — for the output to be the same at every
    /// worker count.
    ///
    /// # Panics
    ///
    /// Propagates a panic of either stage on any worker. The other
    /// workers stop at their next claim, and a waiting worker wakes,
    /// instead of waiting for units a panicked first stage never
    /// releases.
    pub fn run_two_stage<S, A, B, I, F, G>(
        &self,
        items: usize,
        init: I,
        first: F,
        second: G,
    ) -> Vec<(A, Vec<B>)>
    where
        A: Send + Sync,
        B: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut S, usize) -> (A, usize) + Sync,
        G: Fn(&mut S, usize, &A, usize) -> B + Sync,
    {
        let threads = self.workers_for(items);
        if threads <= 1 {
            obs::counter("parallel/fanouts_serial", 1);
            let state = &mut init(0);
            let firsts: Vec<(A, usize)> = (0..items).map(|i| first(state, i)).collect();
            return firsts
                .into_iter()
                .enumerate()
                .map(|(i, (a, units))| {
                    let seconds = (0..units).map(|u| second(state, i, &a, u)).collect();
                    (a, seconds)
                })
                .collect();
        }
        let board = Board::new(items);
        let firsts: Vec<OnceLock<A>> = (0..items).map(|_| OnceLock::new()).collect();
        let per_worker = on_workers(threads, |w| {
            let _abort = AbortOnPanic(&board);
            let mut state = None;
            let mut done = Vec::new();
            while let Some(job) = board.claim() {
                let state = state.get_or_insert_with(|| init(w));
                match job {
                    Job::First(i) => {
                        let (a, units) = first(state, i);
                        if firsts[i].set(a).is_err() {
                            unreachable!("item {i} ran its first stage twice");
                        }
                        board.release(i, units);
                    }
                    Job::Second(i, u) => {
                        let a = firsts[i]
                            .get()
                            .expect("units are released after their item");
                        done.push((i, u, second(state, i, a, u)));
                    }
                }
            }
            done
        });

        let mut seconds: Vec<(usize, usize, B)> = per_worker.into_iter().flatten().collect();
        seconds.sort_unstable_by_key(|&(i, u, _)| (i, u));
        let mut seconds = seconds.into_iter().map(|(_, _, b)| b);
        firsts
            .into_iter()
            .zip(board.into_units())
            .map(|(a, units)| {
                let a = a.into_inner().expect("every item ran its first stage");
                (a, seconds.by_ref().take(units).collect())
            })
            .collect()
    }

    /// Runs `a` and `b` and returns both results: side by side, `a` on
    /// the calling thread and `b` on one spawned worker, when this
    /// configuration has two workers for two tasks; otherwise `a` then
    /// `b` inline.
    ///
    /// # Panics
    ///
    /// Propagates a panic of either closure.
    pub fn join<RA, RB>(&self, a: impl FnOnce() -> RA, b: impl FnOnce() -> RB + Send) -> (RA, RB)
    where
        RB: Send,
    {
        if self.workers_for(2) <= 1 {
            obs::counter("parallel/fanouts_serial", 1);
            return (a(), b());
        }
        obs::counter("parallel/fanouts_parallel", 1);
        obs::counter("parallel/spawned_workers", 1);
        let parent_span = obs::current_span();
        thread::scope(|scope| {
            let handle = scope.spawn(move || {
                obs::set_worker(Some(1));
                obs::adopt_span(parent_span);
                b()
            });
            let caller_tag = obs::worker_id();
            obs::set_worker(Some(0));
            let ra = a();
            obs::set_worker(caller_tag);
            let rb = handle.join().unwrap_or_else(|p| panic::resume_unwind(p));
            (ra, rb)
        })
    }

    /// Maps `f` over `items` in parallel, preserving item order.
    pub fn map_slice<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.run_indexed(items.len(), |i| f(&items[i]))
    }
}

/// The machine's available hardware parallelism (at least 1), resolved
/// once per process: the std query reads the affinity mask and cgroup
/// quota files on every call, and every fan-out consults it.
pub fn available_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `work(w)` for every worker `w` in `0..threads`, worker 0 on the
/// calling thread and the others on scoped threads, and returns the
/// results in worker order. Workers are tagged for observability and
/// their spans nest under the caller's; a worker's panic propagates
/// once every worker has returned.
fn on_workers<R, W>(threads: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    obs::counter("parallel/fanouts_parallel", 1);
    obs::counter("parallel/spawned_workers", (threads - 1) as u64);
    let parent_span = obs::current_span();
    thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|w| {
                let work = &work;
                scope.spawn(move || {
                    obs::set_worker(Some(w));
                    obs::adopt_span(parent_span);
                    work(w)
                })
            })
            .collect();
        // Worker 0 is the caller: its spans already nest under
        // `parent_span`, and its work reuses this thread's warm
        // allocator state instead of growing a fresh arena.
        let caller_tag = obs::worker_id();
        obs::set_worker(Some(0));
        let own = work(0);
        obs::set_worker(caller_tag);
        std::iter::once(own)
            .chain(
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p))),
            )
            .collect()
    })
}

/// One claim of a [`ParallelConfig::run_two_stage`] worker.
enum Job {
    /// The first stage of an item.
    First(usize),
    /// Unit `.1` of item `.0`'s second stage.
    Second(usize, usize),
}

/// The shared schedule of a two-stage fan-out.
struct Board {
    state: Mutex<BoardState>,
    wake: Condvar,
}

struct BoardState {
    items: usize,
    /// The next item whose first stage has not started.
    next: usize,
    /// First stages started but not returned.
    running: usize,
    /// Released second-stage units not yet claimed, in release order.
    ready: VecDeque<(usize, usize)>,
    /// Units per item, known once its first stage returns.
    units: Vec<usize>,
    /// A worker panicked: every claim fails from now on.
    aborted: bool,
}

impl Board {
    fn new(items: usize) -> Board {
        Board {
            state: Mutex::new(BoardState {
                items,
                next: 0,
                running: 0,
                ready: VecDeque::new(),
                units: vec![0; items],
                aborted: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// No stage ever runs under the lock, so a poisoned lock still holds
    /// a consistent schedule.
    fn lock(&self) -> MutexGuard<'_, BoardState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next job: an unstarted item before any released unit. Waits
    /// while first stages are still running and nothing is claimable;
    /// `None` once everything is claimed or a worker has panicked.
    fn claim(&self) -> Option<Job> {
        let mut s = self.lock();
        loop {
            if s.aborted {
                return None;
            }
            if s.next < s.items {
                let i = s.next;
                s.next += 1;
                s.running += 1;
                return Some(Job::First(i));
            }
            if let Some((i, u)) = s.ready.pop_front() {
                return Some(Job::Second(i, u));
            }
            if s.running == 0 {
                return None;
            }
            s = self.wake.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Item `item`'s first stage returned with `units` second-stage units.
    fn release(&self, item: usize, units: usize) {
        let mut s = self.lock();
        s.running -= 1;
        s.units[item] = units;
        s.ready.extend((0..units).map(|u| (item, u)));
        drop(s);
        self.wake.notify_all();
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.wake.notify_all();
    }

    fn into_units(self) -> Vec<usize> {
        self.state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .units
    }
}

/// Aborts the board when dropped during a panic, so no other worker
/// waits for units the panicking one would have released.
struct AbortOnPanic<'a>(&'a Board);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.abort();
        }
    }
}

/// A set of long-lived named worker threads.
///
/// [`ParallelConfig::run_indexed`] is a fork-join primitive: it spawns
/// scoped workers per call, which is right for bounded fan-outs but wrong
/// for always-on services that consume work from a queue for the life of
/// the process. `WorkerPool` covers that shape: `count` threads are
/// spawned once, each running `body(worker_index)` to completion, and
/// [`WorkerPool::join`] waits for all of them (the body is responsible
/// for observing its own shutdown signal — typically a closed queue).
///
/// Workers are tagged for observability exactly like fan-out workers
/// ([`metadse_obs::set_worker`]), so spans opened inside pool threads
/// carry worker attribution in traces.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `count` threads named `<name>-<index>`, each running
    /// `body(index)`. The body is shared: it must be `Send + Sync` and is
    /// called once per worker with that worker's index.
    ///
    /// # Panics
    ///
    /// Panics if a thread cannot be spawned.
    pub fn spawn<F>(name: &str, count: usize, body: F) -> WorkerPool
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let body = std::sync::Arc::new(body);
        let handles = (0..count.max(1))
            .map(|i| {
                let body = std::sync::Arc::clone(&body);
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        obs::set_worker(Some(i));
                        body(i);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Number of worker threads in the pool.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the pool has no workers (never true: spawn clamps to 1).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Waits for every worker to finish.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic.
    pub fn join(self) {
        for h in self.handles {
            h.join().expect("pool worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config that genuinely uses `n` workers on any host (hardware
    /// clamp off) — what the determinism tests use.
    fn forced(n: usize) -> ParallelConfig {
        ParallelConfig::with_threads(n).oversubscribed()
    }

    #[test]
    fn results_come_back_in_index_order() {
        let out = forced(4).run_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as f64).sqrt().sin();
        let serial = ParallelConfig::serial().run_indexed(257, f);
        let parallel = forced(8).run_indexed(257, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<usize> = forced(4).run_indexed(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn map_slice_preserves_order() {
        let items = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let out = forced(3).map_slice(&items, |v| v * 10);
        assert_eq!(out, vec![30, 10, 40, 10, 50, 90, 20, 60]);
    }

    #[test]
    fn explicit_threads_beat_the_env_var() {
        // `Some(n)` must win regardless of METADSE_THREADS.
        assert_eq!(ParallelConfig::with_threads(3).effective_threads(), 3);
        assert_eq!(ParallelConfig::serial().effective_threads(), 1);
    }

    #[test]
    fn more_threads_than_tasks_still_covers_everything() {
        let out = forced(16).run_indexed(3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn fanouts_of_two_or_more_tasks_use_threads() {
        let cfg = ParallelConfig::with_threads(8).oversubscribed();
        // Any fan-out of two or more tasks is parallel, clamped to the
        // task count and then to the thread count.
        assert_eq!(cfg.workers_for(2), 2);
        assert_eq!(cfg.workers_for(5), 5);
        assert_eq!(cfg.workers_for(8), 8);
        assert_eq!(cfg.workers_for(1000), 8);
        // A pinned single thread stays serial at any size.
        assert_eq!(ParallelConfig::serial().workers_for(1000), 1);
    }

    #[test]
    fn single_task_fanouts_run_inline() {
        for cfg in [
            ParallelConfig::default(),
            forced(4),
            ParallelConfig::with_threads(4),
        ] {
            assert_eq!(cfg.workers_for(0), 1);
            assert_eq!(cfg.workers_for(1), 1);
        }
    }

    #[test]
    fn hardware_clamp_applies_unless_oversubscribed() {
        let machine = available_parallelism();
        let clamped = ParallelConfig::with_threads(machine + 7);
        assert_eq!(clamped.workers_for(1000), machine);
        assert_eq!(clamped.oversubscribed().workers_for(1000), machine + 7);
        // The default config resolves to the machine (or METADSE_THREADS)
        // and never exceeds the task count.
        let default = ParallelConfig::default().workers_for(2);
        assert!((1..=2).contains(&default));
        assert!(default <= machine);
    }

    #[test]
    fn available_parallelism_matches_the_std_query() {
        let std_value = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(available_parallelism(), std_value);
        assert_eq!(available_parallelism(), available_parallelism());
    }

    #[test]
    fn the_calling_thread_works_as_worker_zero() {
        use std::time::{Duration, Instant};
        let caller = thread::current().id();
        let threads = 4;
        let started = AtomicUsize::new(0);
        // Every task waits until `threads` tasks have started, so each
        // worker holds exactly one index at a time: the caller can only
        // be absent from the results if it is not one of the workers.
        let ran_on = forced(threads).run_indexed(threads, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < threads && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            thread::current().id()
        });
        assert!(
            ran_on.contains(&caller),
            "no index ran on the calling thread"
        );
        let mut distinct = ran_on.clone();
        distinct.sort_by_key(|id| format!("{id:?}"));
        distinct.dedup();
        assert_eq!(distinct.len(), threads, "each worker held one index");
    }

    /// A two-stage fan-out whose item `i` has `i % 4` units; every value
    /// encodes where it came from.
    fn staged(cfg: ParallelConfig, items: usize) -> Vec<(usize, Vec<(usize, usize)>)> {
        cfg.run_two_stage(
            items,
            |_| (),
            |_, i| (i * 10, i % 4),
            |_, i, &a, u| {
                assert_eq!(a, i * 10, "unit of item {i} saw another item's result");
                (i, u)
            },
        )
    }

    #[test]
    fn two_stage_results_come_back_in_item_then_unit_order() {
        let out = staged(forced(3), 9);
        assert_eq!(out.len(), 9);
        for (i, (a, units)) in out.iter().enumerate() {
            assert_eq!(*a, i * 10);
            assert_eq!(units, &(0..i % 4).map(|u| (i, u)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn two_stage_serial_run_equals_forced_runs() {
        let serial = staged(ParallelConfig::serial(), 23);
        for threads in [2, 3, 8] {
            assert_eq!(staged(forced(threads), 23), serial, "threads={threads}");
        }
    }

    #[test]
    fn two_stage_handles_zero_items_and_items_without_units() {
        assert!(staged(forced(4), 0).is_empty());
        assert!(staged(ParallelConfig::serial(), 0).is_empty());
        let out = forced(3).run_two_stage(
            5,
            |_| (),
            |_, i| (i, 0),
            |_, _, _, _| -> () { unreachable!("no item has units") },
        );
        assert_eq!(
            out.into_iter().map(|(a, _)| a).collect::<Vec<_>>(),
            (0..5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn units_start_only_after_their_item_and_after_every_first_stage_started() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let items = 6;
        let started = AtomicUsize::new(0);
        let finished: Vec<AtomicBool> = (0..items).map(|_| AtomicBool::new(false)).collect();
        let out = forced(3).run_two_stage(
            items,
            |_| (),
            |_, i| {
                started.fetch_add(1, Ordering::SeqCst);
                // Later items take longer, so early items' units run
                // while later first stages are still going.
                thread::sleep(Duration::from_millis(2 * i as u64));
                finished[i].store(true, Ordering::SeqCst);
                (i, 3)
            },
            |_, i, _, u| {
                assert!(
                    finished[i].load(Ordering::SeqCst),
                    "unit ({i}, {u}) ran before its item"
                );
                assert_eq!(
                    started.load(Ordering::SeqCst),
                    items,
                    "a unit ran while an item had not started"
                );
                (i, u)
            },
        );
        assert_eq!(out.len(), items);
    }

    #[test]
    fn each_worker_initialises_its_state_once() {
        let inits = AtomicUsize::new(0);
        let out = forced(3).run_two_stage(
            12,
            |w| {
                inits.fetch_add(1, Ordering::SeqCst);
                (w, 0usize)
            },
            |(_, calls), i| {
                *calls += 1;
                (i, 2)
            },
            |(_, calls), _, _, u| {
                *calls += 1;
                u
            },
        );
        assert_eq!(out.len(), 12);
        let inits = inits.load(Ordering::SeqCst);
        assert!((1..=3).contains(&inits), "{inits} inits for 3 workers");
    }

    /// Runs `f` on a helper thread and returns whether it panicked,
    /// failing the test if it has not returned within 10 s.
    fn panics_within_deadline(f: impl FnOnce() + Send + 'static) -> bool {
        use std::sync::mpsc;
        use std::time::Duration;
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let result = panic::catch_unwind(panic::AssertUnwindSafe(f));
            let _ = tx.send(result.is_err());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the fan-out did not return within 10 s")
    }

    #[test]
    fn a_panicking_first_stage_propagates() {
        for threads in [1, 2, 3] {
            assert!(
                panics_within_deadline(move || {
                    forced(threads).run_two_stage(
                        4,
                        |_| (),
                        |_, i| {
                            if i == 1 {
                                // Let the other workers finish their items
                                // and wait for units first.
                                thread::sleep(std::time::Duration::from_millis(20));
                                panic!("first stage {i} failed");
                            }
                            (i, 2)
                        },
                        |_, i, _, u| (i, u),
                    );
                }),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_panicking_unit_propagates() {
        for threads in [1, 2, 3] {
            assert!(
                panics_within_deadline(move || {
                    forced(threads).run_two_stage(
                        4,
                        |_| (),
                        |_, i| {
                            thread::sleep(std::time::Duration::from_millis(5 * i as u64));
                            (i, 3)
                        },
                        |_, i, _, u| {
                            if (i, u) == (0, 1) {
                                panic!("unit ({i}, {u}) failed");
                            }
                            (i, u)
                        },
                    );
                }),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn join_returns_both_results_serially_and_in_parallel() {
        for cfg in [ParallelConfig::serial(), forced(2), forced(4)] {
            let (a, b) = cfg.join(|| 6 * 7, || "side");
            assert_eq!((a, b), (42, "side"));
        }
    }

    #[test]
    fn join_runs_its_second_closure_on_a_worker_when_it_has_two() {
        let caller = thread::current().id();
        let (_, on) = forced(2).join(|| (), || thread::current().id());
        assert_ne!(on, caller);
        let (_, on) = ParallelConfig::serial().join(|| (), || thread::current().id());
        assert_eq!(on, caller);
    }

    #[test]
    fn join_propagates_a_panic_from_either_side() {
        assert!(panics_within_deadline(|| {
            forced(2).join(|| panic!("left failed"), || 1);
        }));
        assert!(panics_within_deadline(|| {
            forced(2).join(|| 1, || panic!("right failed"));
        }));
    }

    #[test]
    fn worker_pool_runs_every_body_and_joins() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicUsize::new(0));
        let pool = {
            let seen = Arc::clone(&seen);
            WorkerPool::spawn("test-pool", 4, move |i| {
                // Accumulate 2^i so the final value proves each index ran
                // exactly once.
                seen.fetch_add(1 << i, Ordering::SeqCst);
            })
        };
        assert_eq!(pool.len(), 4);
        pool.join();
        assert_eq!(seen.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn worker_pool_clamps_to_at_least_one_worker() {
        let pool = WorkerPool::spawn("lonely", 0, |_| {});
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
        pool.join();
    }
}
