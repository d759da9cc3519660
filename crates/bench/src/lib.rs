//! Shared harness utilities for the MetaDSE benchmark binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §4) at a scale selected on the command line:
//!
//! ```text
//! cargo run --release -p metadse-bench --bin fig5            # scaled (default)
//! cargo run --release -p metadse-bench --bin fig5 -- --quick # seconds
//! cargo run --release -p metadse-bench --bin fig5 -- --paper # paper-scale
//! ```
//!
//! Results are printed as aligned text tables and mirrored as CSV under
//! `results/`.

use std::io;
use std::path::{Path, PathBuf};

use metadse::experiment::Scale;
pub use metadse_obs::report;

/// Heap-allocation counting, active only with the `alloc-count` feature.
///
/// The feature installs a counting wrapper around [`std::alloc::System`]
/// as the global allocator; [`alloc_count::allocations`] then reads a
/// monotonic process-wide allocation counter. Without the feature the
/// counter always reads zero and no allocator is installed, so default
/// builds pay nothing.
pub mod alloc_count {
    #[cfg(feature = "alloc-count")]
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub(super) static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

        /// [`System`] plus one relaxed counter increment per allocation
        /// (`realloc` counts too: it may move the block).
        struct CountingAlloc;

        // SAFETY: delegates every operation to `System` unchanged; the
        // only addition is a relaxed atomic increment.
        unsafe impl GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                System.alloc(layout)
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                System.alloc_zeroed(layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                System.realloc(ptr, layout, new_size)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
        }

        #[global_allocator]
        static GLOBAL: CountingAlloc = CountingAlloc;
    }

    /// Whether allocation counting is compiled in.
    pub fn enabled() -> bool {
        cfg!(feature = "alloc-count")
    }

    /// Total heap allocations made by this process so far (0 without the
    /// `alloc-count` feature). Monotonic; subtract two readings to count
    /// the allocations of a region.
    pub fn allocations() -> u64 {
        #[cfg(feature = "alloc-count")]
        {
            counting::ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed)
        }
        #[cfg(not(feature = "alloc-count"))]
        {
            0
        }
    }
}

/// Shared fixtures for the serving benchmarks, used by both
/// `serve_bench` (which owns the full `serve/` row family in
/// `BENCH_results.json`) and `bench_report --smoke` (which re-times the
/// raw batched forward as a regression gate). Keeping the geometry and
/// the request generator in one place guarantees the gate measures
/// exactly what the committed row measured.
pub mod serving {
    use metadse::predictor::{PredictorConfig, TransformerPredictor};

    /// Dispatch-bound serving geometry: tiny rows, deep stack. Per-call
    /// op dispatch dominates per-row math, so batching has real
    /// headroom.
    pub const DISPATCH_GEOM: PredictorConfig = PredictorConfig {
        num_params: 2,
        d_model: 2,
        heads: 1,
        depth: 16,
        d_hidden: 2,
        head_hidden: 2,
    };

    /// The batch size the headline serving rows are measured at.
    pub const BATCH: usize = 32;

    /// A deterministic feature row for request `i`.
    pub fn request_row(i: usize, arity: usize) -> Vec<f64> {
        (0..arity)
            .map(|j| ((i * 7 + j * 3) % 17) as f64 / 17.0)
            .collect()
    }

    /// The model and input batch behind the `serve/raw_predict_b32`
    /// row: a fresh dispatch-geometry predictor and [`BATCH`]
    /// deterministic rows.
    pub fn raw_predict_fixture() -> (TransformerPredictor, Vec<Vec<f64>>) {
        let model = TransformerPredictor::new(DISPATCH_GEOM, 9);
        let batch = (0..BATCH)
            .map(|i| request_row(i, DISPATCH_GEOM.num_params))
            .collect();
        (model, batch)
    }
}

/// Launching sharded serving fleets for the benchmark and soak
/// binaries: N `--shard-worker` re-executions of the *current* binary
/// supervised by [`metadse_serve::Supervisor`], fronted by an in-process
/// [`metadse_serve::Front`]. One binary carries driver and worker — the
/// driver spawns `std::env::current_exe()` with
/// [`metadse_serve::shard::WORKER_FLAG`], so fleets need no install
/// step and always run the exact code under test.
///
/// Any binary using this module **must** call
/// [`metadse_serve::shard::run_worker_if_flagged`] first in `main`.
#[cfg(unix)]
pub mod fleet {
    use std::io;
    use std::path::{Path, PathBuf};

    use metadse::shard::ShardSpec;
    use metadse_serve::front::{Front, FrontConfig};
    use metadse_serve::shard::{shard_socket, ShardOptions, WORKER_FLAG};
    use metadse_serve::supervisor::{ShardPlan, Supervisor, SupervisorConfig};

    /// How to stand up one fleet.
    #[derive(Debug, Clone)]
    pub struct FleetOptions {
        /// Scratch directory holding every socket (`shard-N.sock`,
        /// `front.sock`, and their `.intro` twins).
        pub dir: PathBuf,
        /// Registry root all shards read their partitions from.
        pub registry_root: PathBuf,
        /// Worker-process count.
        pub shards: usize,
        /// Worker threads per shard.
        pub workers: usize,
        /// Batching cap per shard.
        pub max_batch: usize,
        /// Batching wait per shard, µs.
        pub max_wait_us: u64,
        /// Session checkpoint root passed to every worker
        /// (`--session-dir`); `None` leaves sessions in memory only, so
        /// a killed worker loses them.
        pub session_dir: Option<PathBuf>,
        /// Restart policy and readiness budget.
        pub supervisor: SupervisorConfig,
    }

    impl FleetOptions {
        /// A fleet of `shards` workers over `registry_root`, sockets
        /// under `dir`, with soak-friendly defaults (1 worker thread,
        /// batch 8 / 100 µs).
        pub fn new(
            dir: impl Into<PathBuf>,
            registry_root: impl Into<PathBuf>,
            shards: usize,
        ) -> FleetOptions {
            FleetOptions {
                dir: dir.into(),
                registry_root: registry_root.into(),
                shards,
                workers: 1,
                max_batch: 8,
                max_wait_us: 100,
                session_dir: None,
                supervisor: SupervisorConfig::default(),
            }
        }

        /// The spawn plan for shard `index`: re-execute this binary
        /// with [`WORKER_FLAG`] and the flags of its [`ShardOptions`].
        ///
        /// # Errors
        ///
        /// When `index` is not below `shards`, or
        /// `std::env::current_exe` cannot name the running binary.
        pub fn worker_plan(&self, index: usize) -> io::Result<ShardPlan> {
            let socket = shard_socket(&self.dir, index);
            let mut opts = ShardOptions::single(&socket, &self.registry_root);
            opts.spec = ShardSpec::new(index, self.shards)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
            opts.config.workers = self.workers;
            opts.config.batch.max_batch = self.max_batch;
            opts.config.batch.max_wait_us = self.max_wait_us;
            opts.session_dir.clone_from(&self.session_dir);
            let mut args = vec![WORKER_FLAG.to_string()];
            args.extend(opts.to_args());
            Ok(ShardPlan {
                program: std::env::current_exe()?,
                args,
                socket,
            })
        }
    }

    /// A running fleet: supervised worker processes plus the front door.
    pub struct Fleet {
        /// Process supervisor (fault injection: [`Supervisor::kill`]).
        pub supervisor: Supervisor,
        /// The front door, running in the driver process.
        pub front: Front,
    }

    impl Fleet {
        /// The client socket to connect to.
        pub fn socket(&self) -> &Path {
            self.front.socket()
        }

        /// Orderly teardown: front first (stop accepting), then the
        /// worker processes.
        pub fn shutdown(self) {
            self.front.shutdown();
            self.supervisor.shutdown();
        }
    }

    /// Spawns the worker fleet, blocks on every shard's readiness
    /// barrier, then starts the front over their sockets.
    ///
    /// # Errors
    ///
    /// Spawn failures, readiness timeouts, or socket-bind errors.
    pub fn launch(opts: &FleetOptions) -> io::Result<Fleet> {
        std::fs::create_dir_all(&opts.dir)?;
        let plans: Vec<ShardPlan> = (0..opts.shards)
            .map(|i| opts.worker_plan(i))
            .collect::<io::Result<_>>()?;
        let sockets: Vec<PathBuf> = plans.iter().map(|p| p.socket.clone()).collect();
        let supervisor = Supervisor::launch(plans, opts.supervisor)?;
        let front = Front::start(FrontConfig::new(opts.dir.join("front.sock"), sockets))?;
        Ok(Fleet { supervisor, front })
    }
}

/// Selects the experiment scale from CLI arguments (`--quick`, `--paper`)
/// or the `METADSE_SCALE` environment variable (`quick`/`scaled`/`paper`).
/// Defaults to [`Scale::scaled`].
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    let from_env = std::env::var("METADSE_SCALE").unwrap_or_default();
    if args.iter().any(|a| a == "--paper") || from_env == "paper" {
        Scale::paper()
    } else if args.iter().any(|a| a == "--quick") || from_env == "quick" {
        Scale::quick()
    } else {
        Scale::scaled()
    }
}

/// Human-readable name of the selected scale (for banners).
pub fn scale_name(scale: &Scale) -> &'static str {
    if *scale == Scale::paper() {
        "paper"
    } else if *scale == Scale::quick() {
        "quick"
    } else {
        "scaled"
    }
}

/// Prints a banner naming the experiment and scale through the shared
/// report sink.
pub fn banner(experiment: &str, scale: &Scale) {
    report::banner(&format!(
        "MetaDSE reproduction — {experiment} ({} scale)",
        scale_name(scale)
    ));
}

/// Renders rows as an aligned text table. The first row is the header.
/// Thin wrapper over [`report::render_table`], kept so every harness
/// binary renders through one implementation.
///
/// # Panics
///
/// Panics if rows have inconsistent arity.
pub fn render_table(rows: &[Vec<String>]) -> String {
    report::render_table(rows)
}

/// Writes rows as CSV under `results/<name>.csv` (the directory is
/// created on demand), atomically: a harness binary killed mid-write
/// never leaves a truncated CSV for downstream tooling to trip over.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_csv(name: &str, rows: &[Vec<String>]) -> io::Result<PathBuf> {
    let path = Path::new("results").join(format!("{name}.csv"));
    let body: String = rows
        .iter()
        .map(|r| r.join(","))
        .collect::<Vec<_>>()
        .join("\n");
    metadse_obs::atomic_write(&metadse_obs::StdIo, &path, (body + "\n").as_bytes())?;
    Ok(path)
}

/// Formats a float with 4 decimal places (the paper's precision).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// A self-contained wall-clock micro-benchmark harness (the build is
/// hermetic, so there is no Criterion; `cargo bench` targets and the
/// `bench_report` binary both run on this).
pub mod timing {
    use std::fmt::Write as _;
    use std::io;
    use std::path::Path;
    use std::time::Instant;

    pub use std::hint::black_box;

    /// One benchmark result: mean wall time per iteration.
    #[derive(Debug, Clone)]
    pub struct Sample {
        /// Benchmark name, e.g. `"matmul/packed_16x21x32"`.
        pub name: String,
        /// Mean wall-clock nanoseconds per iteration.
        pub wall_ns: u128,
        /// Iterations timed (after one warm-up call).
        pub iters: u32,
        /// Worker threads the benchmarked code was configured with
        /// (1 for inherently serial code).
        pub threads: usize,
        /// Mean heap allocations per iteration (0 unless the harness is
        /// built with the `alloc-count` feature).
        pub allocs: u64,
    }

    /// Collects [`Sample`]s, prints them as they finish, and renders a
    /// report or machine-readable JSON at the end.
    #[derive(Debug, Default)]
    pub struct Harness {
        samples: Vec<Sample>,
        /// Target total measurement time per benchmark, in nanoseconds.
        target_ns: u128,
        /// Iteration cap, so end-to-end benches stay bounded.
        max_iters: u32,
    }

    impl Harness {
        /// A harness targeting ~200 ms of measurement per benchmark,
        /// capped at 1000 iterations.
        pub fn new() -> Harness {
            Harness {
                samples: Vec::new(),
                target_ns: 200_000_000,
                max_iters: 1000,
            }
        }

        /// Overrides the measurement-time target (per benchmark).
        pub fn with_target_ms(mut self, ms: u64) -> Harness {
            self.target_ns = u128::from(ms) * 1_000_000;
            self
        }

        /// Times `f`, attributing the result to one worker thread.
        pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) -> &Sample {
            self.bench_threads(name, 1, f)
        }

        /// Times `f`, recording that it ran with `threads` workers.
        ///
        /// Runs one untimed warm-up call, sizes the iteration count from
        /// it to hit the harness's time target, then reports the mean.
        pub fn bench_threads<T>(
            &mut self,
            name: &str,
            threads: usize,
            mut f: impl FnMut() -> T,
        ) -> &Sample {
            let warmup = Instant::now();
            black_box(f());
            let once_ns = warmup.elapsed().as_nanos().max(1);
            let iters = (self.target_ns / once_ns).clamp(1, u128::from(self.max_iters)) as u32;

            let allocs_before = crate::alloc_count::allocations();
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let wall_ns = start.elapsed().as_nanos() / u128::from(iters);
            let allocs = (crate::alloc_count::allocations() - allocs_before) / u64::from(iters);

            let sample = Sample {
                name: name.to_string(),
                wall_ns,
                iters,
                threads,
                allocs,
            };
            crate::report::line(format_sample(&sample));
            self.samples.push(sample);
            self.samples.last().expect("just pushed")
        }

        /// Records a sample measured outside [`Harness::bench_threads`]
        /// (e.g. a latency percentile or a throughput computed from a
        /// multi-threaded run), printing it like a timed benchmark.
        pub fn record(&mut self, sample: Sample) -> &Sample {
            crate::report::line(format_sample(&sample));
            self.samples.push(sample);
            self.samples.last().expect("just pushed")
        }

        /// All recorded samples, in run order.
        pub fn samples(&self) -> &[Sample] {
            &self.samples
        }

        /// The samples as a JSON array of
        /// `{"name": …, "wall_ns": …, "iters": …, "threads": …, "allocs": …}`.
        pub fn to_json(&self) -> String {
            let mut out = String::from("[\n");
            for (i, s) in self.samples.iter().enumerate() {
                let _ = write!(
                    out,
                    "  {{\"name\": \"{}\", \"wall_ns\": {}, \"iters\": {}, \"threads\": {}, \"allocs\": {}}}",
                    s.name.replace('\\', "\\\\").replace('"', "\\\""),
                    s.wall_ns,
                    s.iters,
                    s.threads,
                    s.allocs
                );
                out.push_str(if i + 1 < self.samples.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("]\n");
            out
        }

        /// Writes [`Harness::to_json`] to `path` through
        /// [`metadse_obs::atomic_write`], so a killed run never leaves
        /// partial JSON.
        ///
        /// # Errors
        ///
        /// Returns any underlying I/O error.
        pub fn write_json(&self, path: &Path) -> io::Result<()> {
            metadse_obs::atomic_write(&metadse_obs::StdIo, path, self.to_json().as_bytes())
        }

        /// Merge-writes this harness's samples into `path`: existing rows
        /// whose name starts with one of `owned_prefixes` (or collides
        /// with a new sample) are replaced, every other row is
        /// preserved. Lets independent benchmark binaries
        /// (`bench_report`, `serve_bench`) share one
        /// `BENCH_results.json` without clobbering each other's
        /// families. Rows are written sorted by name, so the merged
        /// file is deterministic regardless of which binary ran last
        /// and diffs stay reviewable.
        ///
        /// # Errors
        ///
        /// Returns any underlying I/O error (a missing file is not an
        /// error: the merge starts from empty).
        pub fn write_json_merged(&self, path: &Path, owned_prefixes: &[&str]) -> io::Result<()> {
            let existing = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
                Err(e) => return Err(e),
            };
            let mut rows: Vec<String> = Vec::new();
            for line in existing.lines() {
                let Some(name) = sample_line_name(line) else {
                    continue;
                };
                let owned = owned_prefixes.iter().any(|p| name.starts_with(p))
                    || self.samples.iter().any(|s| s.name == name);
                if !owned {
                    rows.push(line.trim().trim_end_matches(',').to_string());
                }
            }
            for line in self.to_json().lines() {
                if sample_line_name(line).is_some() {
                    rows.push(line.trim().trim_end_matches(',').to_string());
                }
            }
            rows.sort_by_cached_key(|row| sample_line_name(row).unwrap_or_default());
            let mut out = String::from("[\n");
            for (i, row) in rows.iter().enumerate() {
                out.push_str("  ");
                out.push_str(row);
                out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
            }
            out.push_str("]\n");
            metadse_obs::atomic_write(&metadse_obs::StdIo, path, out.as_bytes())
        }
    }

    /// Extracts the benchmark name from one serialized sample line of a
    /// `BENCH_results.json` (`{"name": "…", "wall_ns": …}`), handling
    /// backslash escapes. `None` for array brackets or malformed lines.
    fn sample_line_name(line: &str) -> Option<String> {
        let rest = line.trim().strip_prefix("{\"name\": \"")?;
        let mut name = String::new();
        let mut chars = rest.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => name.push(chars.next()?),
                '"' => return Some(name),
                _ => name.push(c),
            }
        }
        None
    }

    /// Renders one sample as a fixed-width report line.
    fn format_sample(s: &Sample) -> String {
        let allocs = if s.allocs > 0 {
            format!(", {} allocs/iter", s.allocs)
        } else {
            String::new()
        };
        format!(
            "{:<44} {:>14}  ({} iters, {} thread{}{allocs})",
            s.name,
            human_ns(s.wall_ns),
            s.iters,
            s.threads,
            if s.threads == 1 { "" } else { "s" }
        )
    }

    /// Formats nanoseconds with an adaptive unit.
    pub fn human_ns(ns: u128) -> String {
        if ns >= 1_000_000_000 {
            format!("{:.3} s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            format!("{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            format!("{:.3} µs", ns as f64 / 1e3)
        } else {
            format!("{ns} ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn table_rendering_is_aligned() {
        let rows = vec![
            vec!["model".to_string(), "rmse".to_string()],
            vec!["MetaDSE".to_string(), "0.22".to_string()],
        ];
        let s = render_table(&rows);
        assert!(s.contains("model"));
        assert!(s.contains("-----"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn f4_rounds() {
        assert_eq!(f4(0.123456), "0.1235");
    }

    #[test]
    fn default_scale_is_scaled() {
        if std::env::var("METADSE_SCALE").is_err() {
            assert_eq!(scale_name(&scale_from_args()), "scaled");
        }
    }

    #[test]
    fn timing_harness_records_and_serializes() {
        let mut h = timing::Harness::new().with_target_ms(1);
        h.bench("trivial", || 1 + 1);
        h.bench_threads("parallel\"ish", 4, || std::hint::black_box(2) * 3);
        assert_eq!(h.samples().len(), 2);
        assert_eq!(h.samples()[1].threads, 4);
        let json = h.to_json();
        assert!(json.contains("\"name\": \"trivial\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"allocs\": "));
        assert!(json.contains("parallel\\\"ish"));
    }

    #[test]
    fn merged_write_preserves_foreign_rows_and_replaces_owned() {
        let dir = std::env::temp_dir().join("metadse_bench_merge_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("merged.json");
        let _ = fs::remove_file(&path);

        let mut first = timing::Harness::new().with_target_ms(1);
        first.bench("maml/thing", || 1);
        first.record(timing::Sample {
            name: "serve/old".to_string(),
            wall_ns: 42,
            iters: 1,
            threads: 1,
            allocs: 0,
        });
        first
            .write_json_merged(&path, &["maml/", "serve/"])
            .unwrap();

        let mut second = timing::Harness::new().with_target_ms(1);
        second.record(timing::Sample {
            name: "serve/new".to_string(),
            wall_ns: 7,
            iters: 1,
            threads: 1,
            allocs: 0,
        });
        // `aaa/first` sorts before the preserved foreign row: the merge
        // must reorder, not append.
        second.record(timing::Sample {
            name: "aaa/first".to_string(),
            wall_ns: 9,
            iters: 1,
            threads: 1,
            allocs: 0,
        });
        second
            .write_json_merged(&path, &["serve/", "aaa/"])
            .unwrap();

        let merged = fs::read_to_string(&path).unwrap();
        assert!(merged.contains("\"name\": \"maml/thing\""), "{merged}");
        assert!(merged.contains("\"name\": \"serve/new\""), "{merged}");
        assert!(!merged.contains("\"name\": \"serve/old\""), "{merged}");
        assert!(merged.trim_start().starts_with('['));
        assert!(merged.trim_end().ends_with(']'));
        // Still one object per line, parseable by the smoke-gate reader.
        assert_eq!(
            merged.lines().filter(|l| l.contains("\"wall_ns\"")).count(),
            3
        );
        // Rows come out sorted by name whatever the write order was.
        let names: Vec<&str> = merged
            .lines()
            .filter_map(|l| {
                l.trim()
                    .strip_prefix("{\"name\": \"")
                    .and_then(|r| r.split('"').next())
            })
            .collect();
        assert_eq!(names, ["aaa/first", "maml/thing", "serve/new"], "{merged}");
    }

    #[cfg(unix)]
    #[test]
    fn worker_plan_flags_parse_back_to_the_fleet_options() {
        use metadse_serve::shard::{parse_worker_args, WORKER_FLAG};

        let mut opts = fleet::FleetOptions::new("/tmp/fleet", "/tmp/fleet/models", 3);
        opts.max_batch = 16;
        opts.session_dir = Some("/tmp/fleet/sessions".into());
        let plan = opts.worker_plan(2).unwrap();
        assert_eq!(plan.args[0], WORKER_FLAG);
        let parsed = parse_worker_args(&plan.args[1..]).unwrap();
        assert_eq!(parsed.socket, plan.socket);
        assert_eq!(parsed.registry_root, opts.registry_root);
        assert_eq!((parsed.spec.index, parsed.spec.count), (2, 3));
        assert_eq!(parsed.config.workers, opts.workers);
        assert_eq!(parsed.config.batch.max_batch, 16);
        assert_eq!(parsed.config.batch.max_wait_us, opts.max_wait_us);
        assert_eq!(parsed.session_dir, opts.session_dir);
        assert!(opts.worker_plan(3).is_err());
    }

    #[test]
    fn human_ns_picks_units() {
        assert_eq!(timing::human_ns(12), "12 ns");
        assert_eq!(timing::human_ns(1_500), "1.500 µs");
        assert_eq!(timing::human_ns(2_000_000), "2.000 ms");
        assert_eq!(timing::human_ns(3_000_000_000), "3.000 s");
    }
}
