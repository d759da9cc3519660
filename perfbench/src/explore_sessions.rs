//! `explore-sessions`: two closed-loop clients drive a fixed roster of
//! exploration sessions through the same fleet, with session
//! checkpoints fsync'd on the checkout's filesystem. Each round submits
//! some fifty points at once, so batches fill and the hop cost is
//! amortized, while the explorer, the point cache and the checkpoint
//! writes sit on the critical path. A minority of specs are twins (same
//! tenant and seed, wider beam) that run right after their original on
//! the same client, so which rounds are served from the point cache
//! does not depend on timing. Passes run in epochs, each on a fresh
//! fleet, because a round's checkpoint grows with the shard's cache.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use metadse::checkpoint::{CheckpointConfig, Checkpointer};
use metadse::explorer::{
    apply_front_delta, canonical_front, front_delta, Explorer, ExplorerConfig, FrontDelta,
    ParetoEntry,
};
use metadse::predictor::TransformerPredictor;
use metadse_mlkit::metrics::rmse;
use metadse_nn::format::fnv1a;
use metadse_serve::session::{encode_session, power_proxy};
use metadse_serve::{
    BatchConfig, FrontClient, ModelRegistry, RoundReport, ServeConfig, Server, SessionEngine,
    SessionEngineConfig, SessionSpec,
};

use crate::gen::{self, SessionShape};
use crate::procfs;
use crate::report::{Ledger, Metrics};
use crate::serving::{self, Serving};
use crate::stats::{geomean, median, quiet_half, supported_percentile};
use crate::trace::Tracer;
use crate::Ctx;

/// Client threads (and connections) driving the roster.
const CLIENTS: usize = 2;
/// Seeded specs per pass, two per tenant.
const BASE_SESSIONS: usize = 10;
/// Of those, how many get a twin.
const TWINS: usize = 2;
/// Every session's exploration budget.
const SHAPE: SessionShape = SessionShape {
    initial_samples: 48,
    refinement_rounds: 4,
    beam: 2,
};
/// Passes per fleet. Every session checkpoint carries its tenant's
/// cached points, so a round costs more the more points the shard has
/// cached; each epoch of passes starts on a fresh fleet, so a run's
/// passes meet the same cache sizes however many of them run.
const EPOCH_PASSES: usize = 4;
/// Leading passes of the untraced phase whose fronts are scored, so the
/// quality figures rest on a fixed set of sessions.
const QUALITY_PASSES: usize = 3 * EPOCH_PASSES;
/// Sessions of the in-process probes.
const PROBE_SESSIONS: usize = 4;
/// Checkpoint saves the probe times.
const PROBE_SAVES: usize = 20;
/// Pass numbers of the traced phase start here, so its sessions never
/// collide with the untraced phase's (sessions are idempotent by spec).
const TRACED_PASSES: u64 = 1 << 32;
/// Idle window for the fleet's idle CPU.
const IDLE: Duration = Duration::from_secs(1);

/// One session as a client saw it.
struct SessionRun {
    spec: SessionSpec,
    reports: Vec<RoundReport>,
    /// Wall-clock µs of each round's `step_session`.
    round_us: Vec<f64>,
    front: Vec<ParetoEntry>,
    failures: Vec<String>,
}

/// One pass over a roster.
struct Pass {
    /// Wall-clock time of the pass, s.
    wall_s: f64,
    /// Share of host CPU time stolen while the pass ran, %.
    steal_pct: f64,
    /// CPU time of the benchmark process + shard worker over the pass, s.
    cpu_s: f64,
    sessions: Vec<SessionRun>,
}

impl Pass {
    fn proposed(&self) -> u64 {
        self.sessions
            .iter()
            .flat_map(|s| &s.reports)
            .map(|r| u64::from(r.proposed))
            .sum()
    }

    fn rounds(&self) -> usize {
        self.sessions.iter().map(|s| s.reports.len()).sum()
    }
}

pub fn run(ctx: &Ctx, tracer: &Tracer, metrics: &mut Metrics, ledger: &mut Ledger) {
    let mut serving = serving::setup(ctx, tracer, ledger);
    serving::setup_metrics(&serving, tracer, metrics);

    let quiet = Tracer::new(false);
    let untraced = phase(ctx, &quiet, &mut serving, 0, QUALITY_PASSES, ledger);
    let scored = &untraced[..QUALITY_PASSES];
    let (ipc_rmse, hypervolume) = score(&serving, scored);
    eprintln!("perfbench: hypervolume {hypervolume:.6}, ipc_rmse {ipc_rmse:.6} over the first {QUALITY_PASSES} passes");

    let e2e = end_to_end(&untraced);
    eprintln!(
        "perfbench: timings from the {} of {} passes with host steal at or under the median",
        e2e.passes,
        untraced.len()
    );
    metrics.set(
        "run_s",
        e2e.run_s,
        e2e.passes,
        "wall s per pass over the 12-session roster; median of the quieter half of passes",
    );
    metrics.set(
        "throughput_per_s",
        e2e.throughput,
        e2e.passes,
        "designs resolved (proposed points) per wall second; median of the quieter half of passes",
    );
    metrics.set(
        "latency_p50_us",
        e2e.latency_p50_us,
        e2e.rounds,
        "wall µs of a round's FrontClient::step_session; median over the quieter half of passes",
    );
    let sessions = scored.len() * BASE_SESSIONS;
    metrics.set(
        "ipc_rmse",
        ipc_rmse,
        sessions,
        format!("first {QUALITY_PASSES} passes: geomean over base sessions of final-front served vs simulated IPC RMSE"),
    );
    metrics.set(
        "hypervolume",
        hypervolume,
        sessions,
        format!("first {QUALITY_PASSES} passes: Σ over base sessions of the final hypervolume"),
    );
    metrics.set(
        "peak_rss_mb",
        serving.peak_rss_mb(),
        2,
        "VmHWM of the benchmark process + the shard worker",
    );

    if ctx.trace {
        let cpu_us: Vec<f64> = untraced
            .iter()
            .map(|p| p.cpu_s * 1e6 / p.rounds().max(1) as f64)
            .collect();
        metrics.set(
            "session.cpu_us_per_round",
            median(&cpu_us),
            cpu_us.len(),
            "CPU µs (benchmark process + shard worker) per round, untraced phase; median pass",
        );
        let traced = phase(ctx, tracer, &mut serving, TRACED_PASSES, 1, ledger);
        let t = end_to_end(&traced);
        crate::set_overhead(
            metrics,
            (e2e.run_s, t.run_s),
            (e2e.throughput, t.throughput),
            (e2e.latency_p50_us, t.latency_p50_us),
        );
        let steps = tracer.durations_us("front.step_session");
        metrics.set(
            "session.round_p90_us",
            supported_percentile(&steps, 90.0),
            steps.len(),
            "p90 of the FrontClient::step_session spans, traced phase (0 under 100 samples)",
        );
        let reports: Vec<&RoundReport> = traced
            .iter()
            .flat_map(|p| &p.sessions)
            .flat_map(|s| &s.reports)
            .collect();
        let proposed: f64 = reports.iter().map(|r| f64::from(r.proposed)).sum();
        let hits: f64 = reports.iter().map(|r| f64::from(r.cache_hits)).sum();
        let predicted: f64 = reports.iter().map(|r| f64::from(r.predicted)).sum();
        metrics.set(
            "session.points_per_round",
            proposed / reports.len().max(1) as f64,
            reports.len(),
            "Σ proposed ÷ rounds, traced phase",
        );
        metrics.set(
            "session.cache_hit_ratio",
            hits / (predicted + hits).max(1.0),
            reports.len(),
            "Σ cache_hits ÷ Σ (predicted + cache_hits), traced phase",
        );
        let body = serving.shard_metrics().unwrap_or_default();
        let batch = window_mean(&body, "serve/batch_size");
        metrics.set(
            "server.batch_size_mean",
            batch.0,
            batch.1,
            "mean of the shard's serve/batch_size window (last 60 s)",
        );
        let idle0 = serving.cpu_ns();
        std::thread::sleep(IDLE);
        let idle = 100.0 * serving.cpu_ns().saturating_sub(idle0) as f64 / IDLE.as_nanos() as f64;
        metrics.set(
            "front.idle_cpu_pct",
            idle,
            1,
            "CPU of benchmark process + shard worker over 1 s idle, % of one core",
        );
        probes(ctx, tracer, &serving, metrics, ledger);
        crate::hops::ledger(ctx, tracer, &serving, metrics, ledger);
    }

    check_repeat(ctx, &mut serving, &untraced[0], ledger);
    serving.check_exactly_once(ledger);
    serving.shutdown();
}

/// Runs the first pass again on a fresh fleet and checks that its
/// sessions end on the same fronts, served from the cache in the same
/// rounds.
fn check_repeat(ctx: &Ctx, serving: &mut Serving, first: &Pass, ledger: &mut Ledger) {
    serving.relaunch(ctx, ledger);
    let again = run_pass(serving, &roster(ctx, serving, 0), &Tracer::new(false));
    record(ledger, &again);
    let (want, got) = (front_digest(first), front_digest(&again));
    ledger.check(want == got, || {
        format!("pass 0 repeated on a fresh fleet: front digest {got:016x}, first run {want:016x}")
    });
    eprintln!("perfbench: front digest {want:016x}, repeated on a fresh fleet: {got:016x}");
}

struct EndToEnd {
    run_s: f64,
    throughput: f64,
    latency_p50_us: f64,
    passes: usize,
    rounds: usize,
}

/// Wall-clock figures of a phase's quieter half of passes (see
/// [`quiet_half`]): the median pass time, the median designs per second
/// of a pass, and the median latency of their rounds.
fn end_to_end(passes: &[Pass]) -> EndToEnd {
    let steal: Vec<f64> = passes.iter().map(|p| p.steal_pct).collect();
    let quiet: Vec<&Pass> = quiet_half(&steal).into_iter().map(|i| &passes[i]).collect();
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&quiet.iter().map(|p| f(p)).collect::<Vec<_>>());
    let rounds: Vec<f64> = quiet
        .iter()
        .flat_map(|p| &p.sessions)
        .flat_map(|s| &s.round_us)
        .copied()
        .collect();
    EndToEnd {
        run_s: per_pass(&|p| p.wall_s),
        throughput: per_pass(&|p| p.proposed() as f64 / p.wall_s),
        latency_p50_us: median(&rounds),
        passes: quiet.len(),
        rounds: rounds.len(),
    }
}

/// The roster of pass `pass`.
fn roster(ctx: &Ctx, serving: &Serving, pass: u64) -> Vec<Vec<SessionSpec>> {
    gen::roster(
        ctx.seed,
        pass,
        &serving.names(),
        BASE_SESSIONS,
        TWINS,
        SHAPE,
        CLIENTS,
    )
}

/// Drives a roster through the running fleet, one client thread per
/// roster entry.
fn run_pass(serving: &Serving, roster: &[Vec<SessionSpec>], tracer: &Tracer) -> Pass {
    let socket = serving.fleet.socket();
    let cpu = serving.cpu_ns();
    let host = procfs::host_jiffies();
    let started = Instant::now();
    let sessions: Vec<SessionRun> = std::thread::scope(|s| {
        let handles: Vec<_> = roster
            .iter()
            .map(|specs| s.spawn(move || drive(socket, specs, tracer)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    Pass {
        wall_s: started.elapsed().as_secs_f64(),
        steal_pct: procfs::steal_pct(host, procfs::host_jiffies()),
        cpu_s: serving.cpu_ns().saturating_sub(cpu) as f64 / 1e9,
        sessions,
    }
}

/// Counts a pass's operations: each session is an open, its rounds and
/// a close, and a failed check fails one of those.
fn record(ledger: &mut Ledger, pass: &Pass) {
    for s in &pass.sessions {
        ledger.succeeded((s.reports.len() + 2).saturating_sub(s.failures.len()) as u64);
        for f in &s.failures {
            ledger.check(false, || f.clone());
        }
    }
}

/// Runs epochs of [`EPOCH_PASSES`] roster passes, each on a fresh fleet,
/// until `ctx.seconds` pass and at least `min_passes` have run, passes
/// numbered from `first_pass`.
fn phase(
    ctx: &Ctx,
    tracer: &Tracer,
    serving: &mut Serving,
    first_pass: u64,
    min_passes: usize,
    ledger: &mut Ledger,
) -> Vec<Pass> {
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes
        || started.elapsed() < ctx.seconds
        || passes.len() % EPOCH_PASSES != 0
    {
        if passes.len() % EPOCH_PASSES == 0 {
            serving.relaunch(ctx, ledger);
        }
        let roster = roster(ctx, serving, first_pass + passes.len() as u64);
        let pass = run_pass(serving, &roster, tracer);
        record(ledger, &pass);
        passes.push(pass);
    }
    passes
}

/// Drives each spec open → every round → close on one connection,
/// checking every round's accounting and hypervolume.
fn drive(socket: &Path, specs: &[SessionSpec], tracer: &Tracer) -> Vec<SessionRun> {
    let mut client = FrontClient::connect(socket).expect("connect to the front");
    specs
        .iter()
        .map(|spec| {
            let mut run = SessionRun {
                spec: spec.clone(),
                reports: Vec::new(),
                round_us: Vec::new(),
                front: Vec::new(),
                failures: Vec::new(),
            };
            let id = spec.session_id();
            let root = tracer.span("front.session", 0, id);
            let info = match tracer.time("front.open_session", root.id(), id, || client.open_session(spec)) {
                Ok(info) if info.rounds_done == 0 => info,
                other => {
                    run.failures.push(format!("open {}: {other:?}", spec.workload));
                    return run;
                }
            };
            let mut prev_hv = 0.0;
            for round in 1..=info.rounds_total {
                let started = Instant::now();
                let step = tracer.time("front.step_session", root.id(), id, || client.step_session(&spec.workload, id, round));
                run.round_us.push(started.elapsed().as_secs_f64() * 1e6);
                match step {
                    Ok(report) => {
                        if report.proposed != report.predicted + report.cache_hits + report.shed || report.shed != 0 {
                            run.failures.push(format!(
                                "{} round {round}: proposed {} != predicted {} + cache_hits {} + shed {} (shed must be 0)",
                                spec.workload, report.proposed, report.predicted, report.cache_hits, report.shed
                            ));
                        }
                        if report.hypervolume < prev_hv {
                            run.failures.push(format!("{} round {round}: hypervolume fell from {prev_hv} to {}", spec.workload, report.hypervolume));
                        }
                        prev_hv = report.hypervolume;
                        apply_front_delta(
                            &mut run.front,
                            &FrontDelta {
                                added: report.added.clone(),
                                removed: report.removed.clone(),
                            },
                        );
                        run.reports.push(report);
                    }
                    Err(e) => {
                        run.failures.push(format!("{} round {round}: {e}", spec.workload));
                        break;
                    }
                }
            }
            let closed = tracer.time("front.close_session", root.id(), id, || client.close_session(&spec.workload, id));
            if !matches!(closed, Ok(true)) {
                run.failures.push(format!("close {}: {closed:?}", spec.workload));
            }
            run.front = canonical_front(std::mem::take(&mut run.front));
            run
        })
        .collect()
}

/// The passes' quality: `(ipc_rmse, Σ final hypervolume)`. Quality is
/// scored over the base sessions only, which cover every tenant equally
/// (a twin repeats its original's tenant and seed). `ipc_rmse` is the
/// geometric mean over those sessions of the RMSE between each
/// final-front design's served IPC and the simulator's: fronts hold the
/// few designs predicted best, whose errors are heavy-tailed, and the
/// geometric mean keeps one session's front from swinging the figure.
fn score(serving: &Serving, passes: &[Pass]) -> (f64, f64) {
    let mut rmses = Vec::new();
    let mut hypervolume = 0.0;
    for s in passes.iter().flat_map(|p| &p.sessions) {
        if s.spec.beam == SHAPE.beam {
            hypervolume += s.reports.last().map_or(0.0, |r| r.hypervolume);
            let t = serving
                .tenants
                .iter()
                .position(|t| t.name == s.spec.workload)
                .expect("roster names a tenant");
            let points: Vec<_> = s.front.iter().map(|e| e.point.clone()).collect();
            if !points.is_empty() {
                let served: Vec<f64> = s.front.iter().map(|e| e.ipc).collect();
                rmses.push(rmse(&serving.true_ipc(t, &points), &served));
            }
        }
    }
    (geomean(&rmses), hypervolume)
}

/// FNV-1a over a pass's final fronts and per-round cache hits, every
/// session, twins included.
fn front_digest(pass: &Pass) -> u64 {
    let mut bytes = Vec::new();
    for s in &pass.sessions {
        for e in &s.front {
            for &i in e.point.indices() {
                bytes.extend_from_slice(&(i as u64).to_le_bytes());
            }
            bytes.extend_from_slice(&e.ipc.to_bits().to_le_bytes());
            bytes.extend_from_slice(&e.power.to_bits().to_le_bytes());
        }
        for r in &s.reports {
            bytes.extend_from_slice(&r.cache_hits.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// `(mean, count)` of a `window <name> count … mean …` exposition line.
fn window_mean(body: &str, name: &str) -> (f64, usize) {
    let prefix = format!("window {name} ");
    body.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map(|rest| {
            let words: Vec<&str> = rest.split_whitespace().collect();
            let field = |key: &str| {
                words
                    .windows(2)
                    .find(|w| w[0] == key)
                    .and_then(|w| w[1].parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            (field("mean"), field("count") as usize)
        })
        .unwrap_or((0.0, 0))
}

/// In-process probes of the layers a round crosses: the session engine
/// with and without checkpoints, one checkpoint save, and the explorer
/// alone.
fn probes(
    ctx: &Ctx,
    tracer: &Tracer,
    serving: &Serving,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) {
    let names = serving.names();
    let specs: Vec<SessionSpec> = gen::roster(
        ctx.seed,
        TRACED_PASSES * 2,
        &names,
        PROBE_SESSIONS,
        0,
        SHAPE,
        1,
    )
    .remove(0);
    let registry = Arc::new(ModelRegistry::open(&serving.registry_root, 2));
    let config = ServeConfig {
        batch: BatchConfig {
            max_batch: serving::MAX_BATCH,
            max_wait_us: serving::MAX_WAIT_US,
            ..BatchConfig::default()
        },
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, config);
    let ckpt_dir = ctx.run_dir.join("probe-sessions");
    for (span, dir) in [
        ("session.step_inproc", Some(ckpt_dir.clone())),
        ("session.step_nockpt", None),
    ] {
        let engine = SessionEngine::new(SessionEngineConfig {
            dir,
            ..SessionEngineConfig::default()
        });
        for spec in &specs {
            let info = engine.open(&server, spec);
            let Ok(info) = info else {
                ledger.check(false, || format!("in-process open: {info:?}"));
                continue;
            };
            for round in 1..=info.rounds_total {
                let step = tracer.time(span, 0, info.session_id, || {
                    engine.step(&server, &spec.workload, info.session_id, round)
                });
                ledger.check(step.is_ok(), || format!("in-process step: {step:?}"));
            }
        }
        if span == "session.step_nockpt" {
            let state = engine
                .state_of(specs[0].session_id())
                .expect("probe session state");
            let mut ckpt = Checkpointer::new(CheckpointConfig {
                interval: 0,
                ..CheckpointConfig::new(ctx.run_dir.join("probe-checkpoints"))
            });
            for i in 0..PROBE_SAVES {
                let saved = tracer.time("checkpoint.save_bytes", 0, i as u64 + 1, || {
                    ckpt.save_bytes(&encode_session(&state))
                });
                ledger.check(saved.is_ok(), || format!("checkpoint save: {saved:?}"));
            }
        }
    }
    server.shutdown();
    for (metric, span, what) in [
        (
            "session.step_inproc_us",
            "session.step_inproc",
            "SessionEngine::step on an in-process Server, checkpoints on this filesystem; median",
        ),
        (
            "session.step_nockpt_us",
            "session.step_nockpt",
            "SessionEngine::step on an in-process Server, no checkpoints; median",
        ),
        (
            "checkpoint.save_us",
            "checkpoint.save_bytes",
            "Checkpointer::save_bytes(encode_session(..)), fsync'd; median",
        ),
    ] {
        let d = tracer.durations_us(span);
        metrics.set(metric, median(&d), d.len(), what);
    }

    // The explorer alone, predicting with the tenant's own artifact.
    for (i, spec) in specs.iter().enumerate() {
        let t = serving
            .tenants
            .iter()
            .position(|t| t.name == spec.workload)
            .expect("roster names a tenant");
        let model: TransformerPredictor = serving.tenants[t]
            .servable
            .instantiate()
            .expect("instantiate a published artifact");
        let mut explorer = Explorer::new(&ExplorerConfig {
            initial_samples: spec.initial_samples as usize,
            refinement_rounds: spec.refinement_rounds as usize,
            beam: spec.beam as usize,
            seed: spec.seed,
        });
        let mut front = Vec::new();
        let trace = i as u64 + 1;
        while let Some(points) = tracer.time("explorer.propose", 0, trace, || {
            explorer.propose(&serving.space)
        }) {
            let xs: Vec<Vec<f64>> = points.iter().map(|p| serving.space.encode(p)).collect();
            let ipc = if xs.is_empty() {
                Vec::new()
            } else {
                model.predict(&xs)
            };
            let entries = points
                .into_iter()
                .zip(&xs)
                .zip(ipc)
                .map(|((point, x), ipc)| ParetoEntry {
                    point,
                    ipc,
                    power: power_proxy(x),
                })
                .collect();
            explorer.record(entries);
            let next = tracer.time("explorer.front_update", 0, trace, || {
                let next = explorer.front();
                std::hint::black_box(front_delta(&front, &next));
                next
            });
            front = next;
        }
    }
    for (metric, span, what) in [
        (
            "explorer.propose_us",
            "explorer.propose",
            "Explorer::propose; median round",
        ),
        (
            "explorer.front_update_us",
            "explorer.front_update",
            "pareto_front + front_delta after a round; median",
        ),
    ] {
        let d = tracer.durations_us(span);
        metrics.set(metric, median(&d), d.len(), what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_lines_are_parsed() {
        let body = "window serve/e2e_latency_us count 10 mean 5.000 p50 4.000 p99 9.000 min 1.000 max 9.000\n\
                    window serve/batch_size count 42 mean 7.500 p50 8.000 p99 8.000 min 1.000 max 8.000\n";
        assert_eq!(window_mean(body, "serve/batch_size"), (7.5, 42));
        assert_eq!(window_mean(body, "serve/missing"), (0.0, 0));
    }
}
