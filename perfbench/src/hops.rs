//! The single-prediction hop ledger, run by explore-sessions' traced
//! run: one closed-loop client sends seeded single-configuration
//! predictions through front → shard → batcher → plan, then the same kind
//! of inputs go to the shard socket directly, to an in-process `Server`
//! with the fleet's batch settings, to the plans alone, and through the
//! wire codec. Each lone request pays both socket hops and a batcher wait,
//! so the differences between these rows split its latency by hop.
//!
//! Single predictions are not an end-to-end workload of their own: their
//! wall-clock median moved by up to a quarter between runs of identical
//! code on a shared 2-vCPU VM (see `perfbench/README.md`).

use std::sync::Arc;
use std::time::Instant;

use metadse::predictor::TransformerPredictor;
use metadse_serve::shard::shard_socket;
use metadse_serve::{BatchConfig, FrontClient, ModelRegistry, ServeConfig, Server};

use crate::gen::{Requests, Stream};
use crate::report::{Ledger, Metrics};
use crate::serving::{self, Serving};
use crate::stats::{highest_supported, median, supported_percentile};
use crate::trace::Tracer;
use crate::Ctx;

/// Single predictions sent through the front (enough for a p99).
const REQUESTS: usize = 3000;
/// Leading replies checked bit-for-bit against the artifact's own
/// prediction.
const CHECKED: usize = 500;
/// Requests per single-layer probe.
const PROBE: usize = 2000;

/// Runs the front phase and the per-hop probes, recording their rows.
pub fn ledger(
    ctx: &Ctx,
    tracer: &Tracer,
    serving: &Serving,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) {
    let refs: Vec<TransformerPredictor> = serving
        .tenants
        .iter()
        .map(|t| {
            t.servable
                .instantiate()
                .expect("instantiate a published artifact")
        })
        .collect();
    let totals = || {
        serving
            .shard_metrics()
            .map(|body| tenant_totals(&body))
            .unwrap_or_default()
    };
    let before = totals();
    let mut client = FrontClient::connect(serving.fleet.socket()).expect("connect to the front");
    let mut requests = Requests::new(ctx.seed, Stream::Requests, serving.tenants.len());
    // The leading replies are checked after the loop, so the reference
    // predictions stay out of its CPU time.
    let mut checked = Vec::with_capacity(CHECKED);
    let cpu = serving.cpu_ns();
    let start = Instant::now();
    for i in 0..REQUESTS {
        let r = requests.next(&serving.space);
        let x = serving.space.encode(&r.point);
        let name = &serving.tenants[r.tenant].name;
        let reply = tracer.time("front.predict", 0, i as u64 + 1, || {
            client.predict(name, &x, None)
        });
        match reply {
            Ok(p) if i < CHECKED => checked.push((r.tenant, x, p.value)),
            Ok(_) => ledger.succeeded(1),
            Err(e) => ledger.check(false, || format!("front predict {i} on {name}: {e}")),
        }
    }
    let rate = REQUESTS as f64 / start.elapsed().as_secs_f64();
    let cpu_us = serving.cpu_ns().saturating_sub(cpu) as f64 / 1e3 / REQUESTS as f64;
    drop(client);
    let after = totals();
    for (i, (t, x, value)) in checked.iter().enumerate() {
        let want = refs[*t].predict(std::slice::from_ref(x))[0];
        ledger.check(value.to_bits() == want.to_bits(), || {
            format!(
                "front predict {i} on {}: {value}, in-process {want}",
                serving.tenants[*t].name
            )
        });
    }
    metrics.set(
        "front.cpu_us_per_req",
        cpu_us,
        REQUESTS,
        "CPU µs (benchmark process + shard worker) per single prediction via the front",
    );

    let front = tracer.durations_us("front.predict");
    let front = &front[front.len().saturating_sub(REQUESTS)..];
    let (tail_p, tail) = highest_supported(front).unwrap_or((50.0, median(front)));
    metrics.set(
        "front.predict_p50_us",
        median(front),
        front.len(),
        format!("FrontClient::predict via the front; median, p{tail_p} {tail:.1} µs"),
    );
    metrics.set(
        "front.predict_p99_us",
        supported_percentile(front, 99.0),
        front.len(),
        "p99 of the same spans (0 under 1000 samples)",
    );
    metrics.set(
        "front.throughput_per_s",
        rate,
        front.len(),
        "raw closed-loop predictions/s of one client (completed ÷ elapsed)",
    );
    let n = after.0.saturating_sub(before.0).max(1) as f64;
    metrics.set(
        "server.forward_us",
        (after.2 - before.2) as f64 / n,
        n as usize,
        "Δ tenant forward_us ÷ Δ requests, shard metrics",
    );
    probes(ctx, tracer, serving, &refs, metrics, ledger);
    // Cross-check: the benchmark's batcher wait + wake (in-process server
    // minus plan) against the shard's own queue wait.
    let batcher = metrics.get("server.predict_p50_us").unwrap_or(0.0)
        - metrics.get("plan.forward_b1_us").unwrap_or(0.0);
    metrics.set(
        "server.queue_wait_us",
        (after.1 - before.1) as f64 / n,
        n as usize,
        format!("Δ tenant queue_wait_us ÷ Δ requests, shard metrics; cross-check: server − plan p50 = {batcher:.1} µs"),
    );
}

/// Per-hop probes: the shard socket directly, an in-process server with
/// the fleet's batch settings, the plan alone, and the wire codec.
fn probes(
    ctx: &Ctx,
    tracer: &Tracer,
    serving: &Serving,
    refs: &[TransformerPredictor],
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) {
    let mut requests = Requests::new(ctx.seed, Stream::Probe, serving.tenants.len());
    let inputs: Vec<(usize, Vec<f64>)> = (0..PROBE)
        .map(|_| {
            let r = requests.next(&serving.space);
            (r.tenant, serving.space.encode(&r.point))
        })
        .collect();

    let mut shard =
        FrontClient::connect(&shard_socket(&serving.dir, 0)).expect("connect to the shard");
    for (i, (t, x)) in inputs.iter().enumerate() {
        let reply = tracer.time("shard.predict", 0, i as u64 + 1, || {
            shard.predict(&serving.tenants[*t].name, x, None)
        });
        ledger.check(reply.is_ok(), || format!("shard probe {i}: {reply:?}"));
    }
    drop(shard);
    let d = tracer.durations_us("shard.predict");
    metrics.set(
        "shard.predict_p50_us",
        median(&d),
        d.len(),
        "FrontClient::predict on the shard socket directly (no front hop)",
    );

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
    for (i, (t, x)) in inputs.iter().enumerate() {
        let reply = tracer.time("server.submit_wait", 0, i as u64 + 1, || {
            server.submit(&serving.tenants[*t].name, x, None).wait()
        });
        ledger.check(
            matches!(&reply, Ok(p) if i >= 16 || p.value.to_bits() == refs[*t].predict(std::slice::from_ref(x))[0].to_bits()),
            || format!("in-process server probe {i}: {reply:?}"),
        );
    }
    server.shutdown();
    let d = tracer.durations_us("server.submit_wait");
    metrics.set(
        "server.predict_p50_us",
        median(&d),
        d.len(),
        "in-process Server::submit(..).wait(), batch 8 / 100 µs, 1 worker",
    );

    serving::plan_probes(serving, tracer, &inputs, metrics);

    let reply = metadse_serve::ShardReply::Value(metadse_serve::WirePrediction {
        value_bits: 0.5f64.to_bits(),
        generation: 1,
        batch_size: 1,
        trace_id: 7,
        shard: 0,
    });
    for (i, (t, x)) in inputs.iter().enumerate() {
        let ok = tracer.time("shard.codec", 0, i as u64 + 1, || {
            let request = metadse_serve::ShardRequest::Predict {
                workload: serving.tenants[*t].name.clone(),
                config: x.clone(),
                timeout_us: 0,
            };
            let r = metadse_serve::ShardRequest::decode(&request.encode().expect("encode request"))
                .expect("decode request");
            let p = metadse_serve::ShardReply::decode(&reply.encode().expect("encode reply"))
                .expect("decode reply");
            r == request && p == reply
        });
        ledger.check(ok, || format!("codec probe {i} did not round-trip"));
    }
    let d = tracer.durations_us("shard.codec");
    metrics.set(
        "shard.codec_us",
        median(&d),
        d.len(),
        "ShardRequest + ShardReply encode + decode; median",
    );
}

/// `(requests, queue_wait_us, forward_us)` summed over the tenant rows
/// of a shard's `metrics` exposition.
fn tenant_totals(body: &str) -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    for line in body.lines().filter(|l| l.starts_with("tenant ")) {
        let words: Vec<&str> = line.split_whitespace().collect();
        let field = |key: &str| -> u64 {
            words
                .windows(2)
                .find(|w| w[0] == key)
                .and_then(|w| w[1].parse().ok())
                .unwrap_or(0)
        };
        totals.0 += field("requests");
        totals.1 += field("queue_wait_us");
        totals.2 += field("forward_us");
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_rows_are_summed() {
        let body = "health ok\n\
            tenant 00000000000000aa workload a generation 1 requests 10 misses 0 queue_wait_us 100 assembly_us 1 forward_us 300 reply_us 2 e2e_us 500\n\
            tenant 00000000000000bb workload b generation 1 requests 5 misses 0 queue_wait_us 50 assembly_us 1 forward_us 150 reply_us 2 e2e_us 250\n";
        assert_eq!(tenant_totals(body), (15, 150, 450));
        assert_eq!(tenant_totals("health ok\n"), (0, 0, 0));
    }
}
