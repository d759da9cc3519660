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
//! Thread-local modes (the tensor backend, fused-kernel and buffer-pool
//! guards of `metadse-nn`) do not follow work onto spawned workers; a
//! caller that sets one around a fan-out must pin
//! [`ParallelConfig::serial`].
//!
//! When the `obs` feature of the workspace is enabled, every fan-out
//! records its decision (`parallel/fanouts_serial`,
//! `parallel/fanouts_parallel` and `parallel/spawned_workers` counters),
//! workers tag their spans with a worker id, and spans opened inside
//! workers nest under the caller's span.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
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
        obs::counter("parallel/fanouts_parallel", 1);
        obs::counter("parallel/spawned_workers", (threads - 1) as u64);
        let parent_span = obs::current_span();

        let next = AtomicUsize::new(0);
        let drain = || {
            let mut local = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                local.push((i, f(i)));
            }
            local
        };
        let per_worker: Vec<Vec<(usize, T)>> = thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|w| {
                    let drain = &drain;
                    scope.spawn(move || {
                        obs::set_worker(Some(w));
                        obs::adopt_span(parent_span);
                        drain()
                    })
                })
                .collect();
            // Worker 0 is the caller: its spans already nest under
            // `parent_span`, and its task reuses this thread's warm
            // allocator state instead of growing a fresh arena.
            let caller_tag = obs::worker_id();
            obs::set_worker(Some(0));
            let own = drain();
            obs::set_worker(caller_tag);
            std::iter::once(own)
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("parallel worker panicked")),
                )
                .collect()
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
