//! End-to-end and per-layer benchmark of the MetaDSE workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload meta-train --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `meta-train` (the paper's time-to-claim pipeline) and
//! `explore-sessions` (exploration sessions through a served fleet, whose
//! traced run also splits a single prediction by hop).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer ledger
//! with the tracing overhead. The last stdout line is the JSON result.
//! See `perfbench/README.md`.

mod explore_sessions;
mod gen;
mod hops;
mod meta_train;
mod procfs;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::{Ledger, Metrics, END_TO_END, PER_LAYER};

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long each measured phase lasts.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory of this run (relative to the working
    /// directory, so socket paths stay short); removed at exit.
    pub run_dir: PathBuf,
    /// Directory kept across runs: the traced runs' span files.
    pub state_dir: PathBuf,
    /// Workload name, for file names.
    pub workload: &'static str,
}

/// Records the tracing overhead, traced minus untraced, of the timed
/// end-to-end metrics: `(untraced, traced)` pairs.
pub fn set_overhead(
    metrics: &mut Metrics,
    run_s: (f64, f64),
    throughput: (f64, f64),
    latency_us: (f64, f64),
) {
    let note = "traced − untraced phase of this run";
    metrics.set("trace.overhead_run_s", run_s.1 - run_s.0, 2, note);
    metrics.set(
        "trace.overhead_throughput_per_s",
        throughput.1 - throughput.0,
        2,
        note,
    );
    metrics.set(
        "trace.overhead_latency_p50_us",
        latency_us.1 - latency_us.0,
        2,
        note,
    );
}

const WORKLOADS: [&str; 2] = ["meta-train", "explore-sessions"];

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".to_string());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let state_dir = PathBuf::from(".perfbench");
    Ok(Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        run_dir: state_dir.join(format!("run-{}", std::process::id())),
        state_dir,
        workload,
    })
}

fn main() {
    // explore-sessions re-executes this binary as its shard worker; a
    // worker never reaches the code below.
    if let Some(code) = metadse_serve::shard::run_worker_if_flagged() {
        std::process::exit(code);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(usage) => {
            eprintln!("perfbench: {usage}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    if let Err(e) = std::fs::create_dir_all(&ctx.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.run_dir.display());
        std::process::exit(1);
    }
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} hardware threads",
        ctx.workload,
        ctx.seed,
        ctx.seconds.as_secs(),
        u8::from(ctx.trace),
        metadse_parallel::available_parallelism()
    );

    let mut metrics = Metrics::default();
    let mut ledger = Ledger::default();
    let tracer = trace::Tracer::new(ctx.trace);
    let steal_before = procfs::host_jiffies();
    match ctx.workload {
        "meta-train" => meta_train::run(&ctx, &tracer, &mut metrics, &mut ledger),
        _ => explore_sessions::run(&ctx, &tracer, &mut metrics, &mut ledger),
    }
    let steal = procfs::steal_pct(steal_before, procfs::host_jiffies());
    metrics.set(
        "host.steal_pct",
        steal,
        1,
        "steal share of host CPU time over the whole run, /proc/stat",
    );

    if ctx.trace {
        let path = ctx
            .state_dir
            .join("traces")
            .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    print!("{}", report::table(&END_TO_END, &metrics));
    let reported: &[(&str, &str)] = if ctx.trace {
        print!("\n{}", report::table(&PER_LAYER, &metrics));
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let json = report::json_line(reported, &metrics, &mut ledger);
    println!(
        "\noperations: {} attempted, {} succeeded, {} failed",
        ledger.attempted(),
        ledger.attempted() - ledger.failed(),
        ledger.failed()
    );
    println!("{json}");
}
