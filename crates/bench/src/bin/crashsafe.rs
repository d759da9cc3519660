//! Kill-at-iteration crash-safety driver for the training checkpoint
//! subsystem: runs the fault-injection scenario suite end-to-end and
//! prints one PASS/FAIL line per scenario.
//!
//! Scenarios:
//!
//! * **kill+resume** — meta-training halted dead at iteration *k* (no
//!   final checkpoint, like a SIGKILL), resumed in a fresh
//!   model/optimizer/RNG, must reproduce the uninterrupted run's digest
//!   bit-for-bit, across several *k* and thread counts;
//! * **crash mid-write** — the process dies while a checkpoint file is
//!   in flight; the orphaned temp file must be ignored on resume;
//! * **torn write** — a write persists half its bytes but reports
//!   success; the checksum must catch the damaged generation and fall
//!   back to the previous one;
//! * **corrupt latest** — bytes of the newest generation are flipped on
//!   disk; resume must fall back and still match;
//! * **write errors** — a disk-full-style failure skips one checkpoint
//!   with a warning and must leave the training numerics untouched;
//! * **missing directory** — a nonexistent checkpoint directory is a
//!   fresh start, created on first save.
//!
//! Checkpoint directories live under `target/crashsafe/`; directories of
//! failed scenarios are left in place so CI can upload them as
//! artifacts. With `METADSE_DIGEST_FILE` set, the baseline digest is
//! recorded or compared, tying this driver into the workspace's
//! cross-build determinism protocol. `--quick` runs a reduced kill
//! matrix for smoke use.

use std::path::{Path, PathBuf};
use std::time::Instant;

use metadse::checkpoint::{CheckpointConfig, Checkpointer, FaultMode, FaultSpec};
use metadse::maml::{pretrain, MamlConfig, PretrainReport};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse_bench::report;
use metadse_nn::layers::Module;
use metadse_parallel::ParallelConfig;
use metadse_workloads::{Dataset, Metric, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthetic_dataset(seed: u64, dim: usize, n: usize, shift: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..n)
        .map(|_| {
            let features: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
            let y: f64 = features
                .iter()
                .enumerate()
                .map(|(j, v)| v * ((j as f64 * 0.7 + shift).sin() + 1.0))
                .sum::<f64>()
                / dim as f64;
            Sample {
                features,
                ipc: y,
                power_w: y * 10.0,
            }
        })
        .collect();
    Dataset::from_samples(format!("synthetic-{seed}"), samples)
}

type RunResult = (PretrainReport, Vec<Vec<f64>>);

/// The determinism suite's reference problem — same datasets, same
/// `MamlConfig::tiny()` — so digests line up with the recorded ones.
fn run_reference(threads: usize, checkpoint: Option<CheckpointConfig>) -> RunResult {
    let dim = 6;
    let train: Vec<Dataset> = (0..2)
        .map(|i| synthetic_dataset(60 + i, dim, 80, i as f64 * 0.4))
        .collect();
    let val = vec![synthetic_dataset(70, dim, 80, 0.2)];
    let model = TransformerPredictor::new(
        PredictorConfig {
            num_params: dim,
            d_model: 8,
            heads: 2,
            depth: 1,
            d_hidden: 16,
            head_hidden: 8,
        },
        5,
    );
    let config = MamlConfig {
        parallel: ParallelConfig::with_threads(threads).oversubscribed(),
        checkpoint,
        ..MamlConfig::tiny()
    };
    let report = pretrain(&model, &train, &val, Metric::Ipc, &config);
    let params: Vec<Vec<f64>> = model.params().iter().map(|p| p.get().to_vec()).collect();
    (report, params)
}

fn run_digest(run: &RunResult) -> String {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    eat(format!("{:?}", run.0).as_bytes());
    for p in &run.1 {
        for v in p {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    format!("{hash:016x}")
}

fn scenario_dir(name: &str) -> PathBuf {
    let dir = Path::new("target").join("crashsafe").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ckpt(dir: &Path) -> CheckpointConfig {
    CheckpointConfig {
        interval: 2,
        keep: 4,
        ..CheckpointConfig::new(dir)
    }
}

fn kill_and_resume(baseline: &RunResult, threads: usize, k: u64) -> Result<(), String> {
    let dir = scenario_dir(&format!("kill-t{threads}-k{k}"));
    let base = ckpt(&dir);
    let _partial = run_reference(
        threads,
        Some(CheckpointConfig {
            halt_after: Some(k),
            ..base.clone()
        }),
    );
    let resumed = run_reference(threads, Some(base));
    if &resumed != baseline {
        return Err(format!(
            "digest {} != baseline {}",
            run_digest(&resumed),
            run_digest(baseline)
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn crash_mid_write(baseline: &RunResult) -> Result<(), String> {
    let dir = scenario_dir("crash-mid-write");
    let base = ckpt(&dir);
    // The process "dies" during a checkpoint write partway through the
    // run: every IO operation from the 30th on fails (the first
    // checkpoint, ~20 ops, lands; a later one is cut down mid-file),
    // and the halt kills the run shortly after.
    let _partial = run_reference(
        1,
        Some(CheckpointConfig {
            halt_after: Some(7),
            fault: Some(FaultSpec {
                fail_at: 30,
                mode: FaultMode::CrashMidWrite,
            }),
            ..base.clone()
        }),
    );
    let resumed = run_reference(1, Some(base));
    if &resumed != baseline {
        return Err("resume after mid-write crash diverged from baseline".into());
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn torn_write(baseline: &RunResult) -> Result<(), String> {
    let dir = scenario_dir("torn-write");
    let base = ckpt(&dir);
    let _partial = run_reference(
        1,
        Some(CheckpointConfig {
            halt_after: Some(3),
            ..base.clone()
        }),
    );
    // Re-write the intact latest state through a tearing IO shim so the
    // newest generation on disk is silently damaged.
    let mut intact = Checkpointer::new(base.clone());
    let (state, generation) = intact
        .load_latest()
        .map_err(|e| e.to_string())?
        .ok_or("halted run left no checkpoint")?;
    let mut torn = Checkpointer::with_io(
        base.clone(),
        std::sync::Arc::new(metadse::checkpoint::FaultIo::new(FaultSpec {
            fail_at: 3,
            mode: FaultMode::TornWrite,
        })),
    );
    torn.save(&state).map_err(|e| e.to_string())?;
    let (_, loaded) = intact
        .load_latest()
        .map_err(|e| e.to_string())?
        .ok_or("all generations unreadable")?;
    if loaded != generation {
        return Err(format!(
            "expected fallback to generation {generation}, got {loaded}"
        ));
    }
    let resumed = run_reference(1, Some(base));
    if &resumed != baseline {
        return Err("resume after torn-write fallback diverged from baseline".into());
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn corrupt_latest(baseline: &RunResult) -> Result<(), String> {
    let dir = scenario_dir("corrupt-latest");
    let base = ckpt(&dir);
    let _partial = run_reference(
        1,
        Some(CheckpointConfig {
            halt_after: Some(7),
            ..base.clone()
        }),
    );
    let mut generations: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    generations.sort();
    if generations.len() < 2 {
        return Err("need at least two generations for a fallback".into());
    }
    let latest = generations.last().unwrap();
    let mut bytes = std::fs::read(latest).map_err(|e| e.to_string())?;
    let mid = bytes.len() / 2;
    let end = (mid + 16).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b ^= 0xff;
    }
    std::fs::write(latest, &bytes).map_err(|e| e.to_string())?;

    let resumed = run_reference(1, Some(base));
    if &resumed != baseline {
        return Err("resume after corrupt-latest fallback diverged from baseline".into());
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn write_errors(baseline: &RunResult) -> Result<(), String> {
    let dir = scenario_dir("write-errors");
    let faulty = run_reference(
        1,
        Some(CheckpointConfig {
            fault: Some(FaultSpec {
                fail_at: 0,
                mode: FaultMode::WriteError,
            }),
            ..ckpt(&dir)
        }),
    );
    if &faulty != baseline {
        return Err("a failed checkpoint write perturbed the numerics".into());
    }
    let mut cp = Checkpointer::new(CheckpointConfig::new(&dir));
    if cp.load_latest().map_err(|e| e.to_string())?.is_none() {
        return Err("no checkpoint landed after the write error".into());
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn missing_directory(baseline: &RunResult) -> Result<(), String> {
    let dir = Path::new("target")
        .join("crashsafe")
        .join("missing")
        .join("nested");
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    let run = run_reference(1, Some(CheckpointConfig::new(&dir)));
    if &run != baseline {
        return Err("fresh start from a missing directory diverged".into());
    }
    if !dir.is_dir() {
        return Err("first save did not create the directory".into());
    }
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    Ok(())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    report::banner("crash-safety scenario suite");

    let t0 = Instant::now();
    let baseline = run_reference(1, None);
    let digest = run_digest(&baseline);
    report::line(format!("baseline digest {digest} [{:?}]", t0.elapsed()));
    if let Ok(path) = std::env::var("METADSE_DIGEST_FILE") {
        // Per-backend digest pin, mirroring the core test suites: scalar
        // keeps the unsuffixed file, other backends use `<path>.<backend>`.
        let path = match metadse_nn::backend::kind() {
            metadse_nn::BackendKind::Scalar => path,
            kind => format!("{path}.{}", kind.name()),
        };
        match std::fs::read_to_string(&path) {
            Ok(previous) if !previous.trim().is_empty() => {
                if previous.trim() != digest {
                    report::warn(format!(
                        "baseline digest diverged from the one recorded in {path}"
                    ));
                    std::process::exit(1);
                }
            }
            // Atomic record (temp + rename): the file may be shared with
            // concurrently running test binaries.
            _ => metadse_nn::format::atomic_write(&path, digest.as_bytes())
                .unwrap_or_else(|e| panic!("could not record digest in {path}: {e}")),
        }
    }

    // MamlConfig::tiny() runs 12 meta-iterations; with interval 2 these
    // kill points exercise a mid-epoch resume with a partial-epoch
    // accumulator (k=3), an epoch-boundary resume (k=7), and a replay
    // that crosses the meta-validation step — per thread count.
    let kill_matrix: Vec<(usize, u64)> = if quick {
        vec![(1, 3)]
    } else {
        vec![(1, 3), (1, 7), (4, 3), (4, 7)]
    };

    type Scenario = Box<dyn Fn(&RunResult) -> Result<(), String>>;
    let mut scenarios: Vec<(String, Scenario)> = Vec::new();
    for (threads, k) in kill_matrix {
        scenarios.push((
            format!("kill+resume (threads={threads}, k={k})"),
            Box::new(move |b: &RunResult| kill_and_resume(b, threads, k)),
        ));
    }
    scenarios.push(("crash mid-write".into(), Box::new(crash_mid_write)));
    scenarios.push(("torn write fallback".into(), Box::new(torn_write)));
    scenarios.push(("corrupt latest generation".into(), Box::new(corrupt_latest)));
    scenarios.push(("write-error degradation".into(), Box::new(write_errors)));
    scenarios.push(("missing directory".into(), Box::new(missing_directory)));

    let mut failures = 0usize;
    for (name, scenario) in &scenarios {
        let t = Instant::now();
        match scenario(&baseline) {
            Ok(()) => report::line(format!("PASS {name} [{:?}]", t.elapsed())),
            Err(why) => {
                failures += 1;
                report::warn(format!("FAIL {name}: {why} [{:?}]", t.elapsed()));
            }
        }
    }

    if failures > 0 {
        report::warn(format!(
            "{failures}/{} crash-safety scenarios failed; checkpoint dirs kept under target/crashsafe/",
            scenarios.len()
        ));
        std::process::exit(1);
    }
    report::line(format!(
        "all {} crash-safety scenarios passed [{:?}]",
        scenarios.len(),
        t0.elapsed()
    ));
}
