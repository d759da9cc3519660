//! Crash-safety tests for the training checkpoint subsystem: a run
//! killed at meta-iteration *k* and resumed from its latest checkpoint
//! must reproduce the uninterrupted run bit-for-bit — at any thread
//! count, and in the face of torn writes, corrupt generations, write
//! errors, and missing directories.

use std::path::PathBuf;
use std::sync::Arc;

use metadse::checkpoint::{CheckpointConfig, Checkpointer, FaultIo, FaultMode, FaultSpec};
use metadse::maml::{pretrain, MamlConfig};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
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

fn tiny_model(dim: usize) -> TransformerPredictor {
    TransformerPredictor::new(
        PredictorConfig {
            num_params: dim,
            d_model: 8,
            heads: 2,
            depth: 1,
            d_hidden: 16,
            head_hidden: 8,
        },
        5,
    )
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metadse-ckpt-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type RunResult = (metadse::maml::PretrainReport, Vec<Vec<f64>>);

/// Runs pretrain on the determinism suite's reference problem (same
/// datasets, same `MamlConfig::tiny()`), so the resumed digest can be
/// checked against the digest recorded by `tests/determinism.rs`.
fn run_reference(threads: usize, checkpoint: Option<CheckpointConfig>) -> RunResult {
    let dim = 6;
    let train: Vec<Dataset> = (0..2)
        .map(|i| synthetic_dataset(60 + i, dim, 80, i as f64 * 0.4))
        .collect();
    let val = vec![synthetic_dataset(70, dim, 80, 0.2)];
    let model = tiny_model(dim);
    let config = MamlConfig {
        // Oversubscribe: force real workers even on a single-core CI
        // host, exactly as the determinism tests do.
        parallel: ParallelConfig::with_threads(threads).oversubscribed(),
        checkpoint,
        ..MamlConfig::tiny()
    };
    let report = pretrain(&model, &train, &val, Metric::Ipc, &config);
    let params: Vec<Vec<f64>> = model.params().iter().map(|p| p.get().to_vec()).collect();
    (report, params)
}

/// Kill at meta-iteration `k` (via the halt switch — the run stops dead,
/// with no extra checkpoint), then resume in a fresh process-equivalent
/// (new model, new optimizer, new RNG) and run to completion.
fn kill_and_resume(threads: usize, k: u64, dir: &PathBuf) -> RunResult {
    let ckpt = CheckpointConfig {
        interval: 2,
        keep: 3,
        ..CheckpointConfig::new(dir)
    };
    let _partial = run_reference(
        threads,
        Some(CheckpointConfig {
            halt_after: Some(k),
            ..ckpt.clone()
        }),
    );
    run_reference(threads, Some(ckpt))
}

/// `MamlConfig::tiny()` is 2 epochs × 6 iterations. With `interval = 2`,
/// k = 3 resumes from a mid-epoch interval checkpoint with a partial
/// epoch-loss accumulator to replay, and k = 7 resumes from the epoch-0
/// boundary checkpoint (validation results and best-epoch selection
/// restored from disk). Both must reproduce the uninterrupted run
/// bit-for-bit at every thread count.
#[test]
fn kill_and_resume_is_bit_identical() {
    let baseline = run_reference(1, None);
    for threads in [1usize, 4] {
        for k in [3u64, 7] {
            let dir = temp_dir(&format!("resume-t{threads}-k{k}"));
            let resumed = kill_and_resume(threads, k, &dir);
            assert_eq!(
                resumed, baseline,
                "kill at iteration {k} + resume with {threads} thread(s) \
                 must be bit-identical to the uninterrupted run"
            );
            check_cross_build_digest(&resumed.0, &resumed.1);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Corrupting the newest generation on disk must make resume fall back
/// to the previous one — and still reproduce the uninterrupted run,
/// because replaying from an older checkpoint walks the same trajectory.
#[test]
fn corrupt_latest_generation_falls_back_and_still_matches() {
    let baseline = run_reference(1, None);
    let dir = temp_dir("corrupt-latest");
    let ckpt = CheckpointConfig {
        interval: 2,
        keep: 4,
        ..CheckpointConfig::new(&dir)
    };
    let _partial = run_reference(
        1,
        Some(CheckpointConfig {
            halt_after: Some(7),
            ..ckpt.clone()
        }),
    );

    // Flip bytes in the middle of the newest generation file.
    let generations = Checkpointer::new(ckpt.clone()).generations();
    assert!(generations.len() >= 2, "need a fallback target");
    let (_, latest) = generations.last().unwrap();
    let mut bytes = std::fs::read(latest).unwrap();
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 16] {
        *b ^= 0xff;
    }
    std::fs::write(latest, &bytes).unwrap();

    // The checksum rejects the corrupt file and the loader falls back.
    let loaded = Checkpointer::new(ckpt.clone()).load_latest();
    let (_, generation) = loaded.expect("an intact generation must remain");
    assert_eq!(
        generation as usize,
        generations.len() - 1,
        "latest generation is corrupt; the previous one must load"
    );

    let resumed = run_reference(1, Some(ckpt));
    assert_eq!(
        resumed, baseline,
        "resume after corrupt-latest fallback must still match the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn write — half a chunk hits the disk but success is reported, so
/// the damaged file is completed, renamed, and sits there as the newest
/// generation — must be caught by the checksum on load and fall back.
#[test]
fn torn_write_is_caught_on_resume() {
    let baseline = run_reference(1, None);
    let dir = temp_dir("torn-resume");
    let ckpt = CheckpointConfig {
        interval: 2,
        keep: 4,
        ..CheckpointConfig::new(&dir)
    };
    // Intact generation first, then a deliberately torn one on top,
    // written through the fault shim over the real chunked write path.
    let _partial = run_reference(
        1,
        Some(CheckpointConfig {
            halt_after: Some(3),
            ..ckpt.clone()
        }),
    );
    let mut intact = Checkpointer::new(ckpt.clone());
    let (state, generation) = intact.load_latest().expect("halt at 3 checkpointed");
    let mut torn = Checkpointer::with_io(
        ckpt.clone(),
        Arc::new(FaultIo::new(FaultSpec {
            fail_at: 3,
            mode: FaultMode::TornWrite,
        })),
    );
    let torn_generation = torn.save(&state).expect("torn writes report success");
    assert!(torn_generation > generation);

    // Load skips the torn newcomer and serves the intact state …
    let (reloaded, loaded_generation) = intact.load_latest().unwrap();
    assert_eq!(loaded_generation, generation);
    assert_eq!(reloaded, state);

    // … and a full resume still reproduces the uninterrupted run.
    let resumed = run_reference(1, Some(ckpt));
    assert_eq!(resumed, baseline);
    std::fs::remove_dir_all(&dir).ok();
}

/// Disk-full-style write errors must not perturb training: the failed
/// checkpoint is warned about and skipped, the run completes on the
/// exact same trajectory, and later checkpoints still land.
#[test]
fn write_errors_degrade_gracefully() {
    let baseline = run_reference(1, None);
    let dir = temp_dir("write-error");
    let faulty = run_reference(
        1,
        Some(CheckpointConfig {
            interval: 2,
            // Operation 0 is the first save's file creation: the very
            // first checkpoint fails outright, later ones succeed.
            fault: Some(FaultSpec {
                fail_at: 0,
                mode: FaultMode::WriteError,
            }),
            ..CheckpointConfig::new(&dir)
        }),
    );
    assert_eq!(
        faulty, baseline,
        "a failed checkpoint write must leave the numerics untouched"
    );
    let mut cp = Checkpointer::new(CheckpointConfig::new(&dir));
    assert!(
        cp.load_latest().is_some(),
        "checkpoints after the failed one must still be written"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint directory that does not exist yet is a fresh start, not
/// an error — and gets created by the first save.
#[test]
fn missing_directory_is_a_fresh_start() {
    let baseline = run_reference(1, None);
    let dir = temp_dir("missing").join("nested").join("deeper");
    let run = run_reference(1, Some(CheckpointConfig::new(&dir)));
    assert_eq!(run, baseline);
    assert!(dir.is_dir(), "first save creates the directory");
    std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap()).ok();
}

/// Checkpoints written under a different training configuration must be
/// ignored (fingerprint mismatch), not half-applied.
#[test]
fn configuration_change_invalidates_checkpoints() {
    let dir = temp_dir("fingerprint");
    let ckpt = CheckpointConfig::new(&dir);
    let _under_tiny = run_reference(1, Some(ckpt.clone()));

    // Different inner_steps ⇒ different trajectory ⇒ different
    // fingerprint. The run must ignore the tiny()-config checkpoints in
    // the directory and match a fresh run of the changed config.
    let changed = |checkpoint: Option<CheckpointConfig>| {
        let dim = 6;
        let train: Vec<Dataset> = (0..2)
            .map(|i| synthetic_dataset(60 + i, dim, 80, i as f64 * 0.4))
            .collect();
        let val = vec![synthetic_dataset(70, dim, 80, 0.2)];
        let model = tiny_model(dim);
        let config = MamlConfig {
            inner_steps: 2,
            checkpoint,
            ..MamlConfig::tiny()
        };
        let report = pretrain(&model, &train, &val, Metric::Ipc, &config);
        let params: Vec<Vec<f64>> = model.params().iter().map(|p| p.get().to_vec()).collect();
        (report, params)
    };
    let fresh = changed(None);
    let with_stale_dir = changed(Some(ckpt));
    assert_eq!(
        with_stale_dir, fresh,
        "a config change must invalidate existing checkpoints"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A different *training task* — other source workloads, or another
/// target metric — must also invalidate checkpoints, even under an
/// identical config: one binary can run several pretrains into the same
/// `METADSE_CKPT` directory (fig5's leave-one-out splits, table2's
/// IPC-then-power pass), and a later pretrain must never adopt an
/// earlier one's final checkpoint.
#[test]
fn different_task_invalidates_checkpoints() {
    let dir = temp_dir("task-fingerprint");
    let ckpt = CheckpointConfig::new(&dir);
    // Fill the directory with checkpoints of the reference task,
    // including its final epoch-boundary generation.
    let _reference = run_reference(1, Some(ckpt.clone()));

    // Same config, same model geometry — but different datasets and the
    // other metric, like the next leave-one-out split of a sweep.
    let other_task = |checkpoint: Option<CheckpointConfig>| {
        let dim = 6;
        let train: Vec<Dataset> = (0..2)
            .map(|i| synthetic_dataset(80 + i, dim, 80, i as f64 * 0.3))
            .collect();
        let val = vec![synthetic_dataset(90, dim, 80, 0.5)];
        let model = tiny_model(dim);
        let config = MamlConfig {
            checkpoint,
            ..MamlConfig::tiny()
        };
        let report = pretrain(&model, &train, &val, Metric::Power, &config);
        let params: Vec<Vec<f64>> = model.params().iter().map(|p| p.get().to_vec()).collect();
        (report, params)
    };
    let fresh = other_task(None);
    let with_foreign_dir = other_task(Some(ckpt));
    assert_eq!(
        with_foreign_dir, fresh,
        "checkpoints of a different training task must be ignored"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over the exact bit patterns of the run's outputs — identical
/// to the digest in `tests/determinism.rs`, and computed over the same
/// reference problem, so a resumed run must reproduce the digest an
/// uninterrupted (possibly differently-featured) build recorded.
fn run_digest(report: &impl std::fmt::Debug, params: &[Vec<f64>]) -> String {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    eat(format!("{report:?}").as_bytes());
    for p in params {
        for v in p {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    format!("{hash:016x}")
}

/// Record-or-compare against the shared digest file, mirroring
/// `determinism.rs`: atomic record (temp + rename) because several test
/// binaries share the file within one `cargo test` run.
fn check_cross_build_digest(report: &impl std::fmt::Debug, params: &[Vec<f64>]) {
    let Ok(path) = std::env::var("METADSE_DIGEST_FILE") else {
        return;
    };
    // Each backend pins its own digest: the scalar backend keeps the
    // historical unsuffixed file, other backends get `<path>.<backend>`.
    let path = match metadse_nn::backend::kind() {
        metadse_nn::BackendKind::Scalar => path,
        kind => format!("{path}.{}", kind.name()),
    };
    let digest = run_digest(report, params);
    match std::fs::read_to_string(&path) {
        Ok(previous) if !previous.trim().is_empty() => assert_eq!(
            previous.trim(),
            digest,
            "kill-and-resume digest diverged from the recorded uninterrupted digest in {path}"
        ),
        _ => metadse_obs::atomic_write(&metadse_obs::StdIo, &path, digest.as_bytes())
            .unwrap_or_else(|e| panic!("could not record digest in {path}: {e}")),
    }
}
