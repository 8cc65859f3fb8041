//! Gateway soak: the wire boundary under concurrent load.
//!
//! Three phases over loopback TCP, writing `results/gateway.json`:
//!
//! 1. **Soak** — N client threads × M requests each (all four request
//!    kinds interleaved) against a healthy engine; counts lost requests
//!    (must be zero) and wire verdicts that diverge from in-process
//!    [`naps_serve::MonitorEngine::check`] (must be zero).
//! 2. **Saturation** — a pipelined burst against a one-worker engine
//!    with a two-slot queue; the gateway must shed with typed
//!    `Saturated` responses while still answering every accepted
//!    request (a full queue must cost a typed frame, not a blocked
//!    socket).
//! 3. **Abuse** — garbage handshakes and hostile frames; the server
//!    must count them, drop those connections, and keep serving.
//!
//! The binary exits non-zero on any lost request, verdict divergence,
//! missing shed response, or accepted/answered mismatch, so CI gates on
//! the wire boundary staying total.

use crate::config::RunConfig;
use crate::report::{rule, write_json};
use naps_core::GradedQuery;
use naps_gateway::{Gateway, GatewayClient, GatewayConfig, Rejection, RequestKind, Response};
use naps_serve::{EngineConfig, MonitorEngine};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency summary for one request kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KindLatency {
    /// The wire request kind.
    pub kind: String,
    /// Requests of this kind served in the soak phase.
    pub count: u64,
    /// Median latency bucket upper bound, µs.
    pub p50_us: Option<u64>,
    /// p99 latency bucket upper bound, µs.
    pub p99_us: Option<u64>,
}

/// The `schema_version` [`run`] stamps on [`GatewaySoak`].
pub const SCHEMA_VERSION: u32 = 1;

/// The full gateway soak record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatewaySoak {
    /// Version of this JSON result shape (bump on breaking change).
    pub schema_version: u32,
    /// Concurrent client threads in the soak phase.
    pub client_threads: usize,
    /// Requests per thread in the soak phase.
    pub requests_per_thread: usize,
    /// Soak requests sent in total.
    pub total_requests: u64,
    /// Soak requests answered with a verdict.
    pub served: u64,
    /// Soak requests that never got a response (**gate: must be 0**).
    pub lost: u64,
    /// Wire verdicts differing from in-process checking (**gate: 0**).
    pub divergent: u64,
    /// Gateway `accepted` counter after the soak phase.
    pub accepted: u64,
    /// Gateway `answered` counter after the soak phase (**gate: equals
    /// `accepted`** — the drain answered everything).
    pub answered: u64,
    /// Responses per second over the soak phase (wall clock, all
    /// threads).
    pub soak_qps: f64,
    /// Per-kind latency summaries from the gateway's histograms.
    pub kinds: Vec<KindLatency>,
    /// Burst size of the saturation phase.
    pub burst: u64,
    /// Typed `Saturated` responses in the saturation phase (**gate:
    /// ≥ 1** — the full queue shed instead of blocking).
    pub shed: u64,
    /// Verdicts served in the saturation phase.
    pub burst_served: u64,
    /// Saturation-phase accepted/answered agreement.
    pub burst_fully_answered: bool,
    /// Malformed connections counted in the abuse phase.
    pub malformed_dropped: u64,
    /// Whether the gateway still served verdicts after the abuse phase.
    pub survived_abuse: bool,
}

impl GatewaySoak {
    /// Gate failures, empty when the wire boundary held.
    pub fn failures(&self) -> Vec<String> {
        let mut fails = Vec::new();
        if self.lost > 0 {
            fails.push(format!("{} soak request(s) lost (no response)", self.lost));
        }
        if self.divergent > 0 {
            fails.push(format!(
                "{} wire verdict(s) diverged from in-process checking",
                self.divergent
            ));
        }
        if self.accepted != self.answered {
            fails.push(format!(
                "gateway accepted {} requests but answered {}",
                self.accepted, self.answered
            ));
        }
        if self.shed == 0 {
            fails.push("saturation burst produced no typed Saturated response".to_string());
        }
        if !self.burst_fully_answered {
            fails.push("saturation burst left accepted requests unanswered".to_string());
        }
        if !self.survived_abuse {
            fails.push("gateway stopped serving after malformed connections".to_string());
        }
        fails
    }
}

const CLASSES: usize = 4;

fn soak_query() -> GradedQuery {
    GradedQuery::new(3, 2)
}

/// Runs the three phases and writes `results/gateway.json`.
pub fn run(cfg: &RunConfig) -> GatewaySoak {
    println!("== Gateway soak: the wire boundary under load ==");
    let (threads, per_thread, probes_n) = if cfg.full { (8, 400, 64) } else { (4, 120, 24) };

    // ---- Phase 1: concurrent soak, verdict parity ----
    let (monitor, net, probes) = naps_bench::serving_fixture(CLASSES, probes_n, cfg.seed);
    let engine = Arc::new(
        MonitorEngine::new(
            &monitor,
            &net,
            EngineConfig {
                workers: 2,
                max_batch: 8,
                queue_capacity: 1024,
            },
        )
        .expect("serving fixture is an MLP"),
    );
    let graded = engine
        .check_layered_batch(&probes, Some(soak_query()))
        .expect("engine up");
    let reference: Vec<_> = engine
        .check_batch(&probes)
        .expect("engine up")
        .into_iter()
        .zip(
            engine
                .check_layered_batch(&probes, None)
                .expect("engine up"),
        )
        .zip(graded)
        .map(|((single, layered), graded)| (single, graded.to_single(), layered, graded))
        .collect();
    let gateway = Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", GatewayConfig::default())
        .expect("loopback bind");
    let addr = gateway.local_addr();
    println!(
        "[{threads} client threads x {per_thread} requests, {} probes]",
        probes.len()
    );

    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let probes = probes.clone();
            let reference = reference.clone();
            std::thread::spawn(move || -> (u64, u64) {
                let mut client = GatewayClient::connect(addr).expect("connect");
                let (mut served, mut divergent) = (0u64, 0u64);
                for r in 0..per_thread {
                    let i = (t * 31 + r) % probes.len();
                    let x = &probes[i];
                    let identical = match (t + r) % 4 {
                        0 => client.check(x).expect("served") == reference[i].0,
                        1 => {
                            client.check_graded(x, soak_query()).expect("served") == reference[i].1
                        }
                        2 => client.check_layered(x).expect("served") == reference[i].2,
                        _ => {
                            client
                                .check_layered_graded(x, soak_query())
                                .expect("served")
                                == reference[i].3
                        }
                    };
                    served += 1;
                    divergent += u64::from(!identical);
                }
                (served, divergent)
            })
        })
        .collect();
    let (mut served, mut divergent) = (0u64, 0u64);
    let mut lost = (threads * per_thread) as u64;
    for h in handles {
        let (s, d) = h.join().expect("client thread");
        served += s;
        divergent += d;
        lost -= s;
    }
    let soak_secs = start.elapsed().as_secs_f64().max(1e-9);
    let stats = gateway.shutdown();
    let soak_qps = served as f64 / soak_secs;
    rule(60);
    println!(
        "soak: {served} served, {lost} lost, {divergent} divergent, {soak_qps:.0} responses/s"
    );
    for k in &stats.kinds {
        println!(
            "  {:<22} {:>6}  p50 <= {:>6} us  p99 <= {:>6} us",
            k.kind,
            k.count,
            k.p50_us.map_or_else(|| "-".into(), |v| v.to_string()),
            k.p99_us.map_or_else(|| "-".into(), |v| v.to_string()),
        );
    }

    // ---- Phase 2: saturation (typed shedding, not a blocked socket) ----
    let burst = if cfg.full { 512u64 } else { 192 };
    let tiny = Arc::new(
        MonitorEngine::new(
            &monitor,
            &net,
            EngineConfig {
                workers: 1,
                max_batch: 1,
                queue_capacity: 2,
            },
        )
        .expect("serving fixture is an MLP"),
    );
    let tiny_gateway = Gateway::bind(Arc::clone(&tiny), "127.0.0.1:0", GatewayConfig::default())
        .expect("loopback bind");
    let mut client = GatewayClient::connect(tiny_gateway.local_addr()).expect("connect");
    for i in 0..burst {
        client
            .send(RequestKind::Check, None, &probes[i as usize % probes.len()])
            .expect("send");
    }
    let (mut shed, mut burst_served) = (0u64, 0u64);
    for _ in 0..burst {
        match client.recv().expect("every burst request answered").1 {
            Response::Single(_) => burst_served += 1,
            Response::Rejected(Rejection::Saturated) => shed += 1,
            other => panic!("unexpected burst response: {other:?}"),
        }
    }
    drop(client);
    let tiny_stats = tiny_gateway.shutdown();
    let burst_fully_answered =
        tiny_stats.accepted == burst && tiny_stats.answered == tiny_stats.accepted;
    println!(
        "saturation: burst {burst} -> {burst_served} served, {shed} shed \
         (queue capacity 2, 1 worker)"
    );

    // ---- Phase 3: abuse (malformed bytes must not take the server down) ----
    let abuse_gateway = Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", GatewayConfig::default())
        .expect("loopback bind");
    let abuse_addr = abuse_gateway.local_addr();
    for garbage in [
        b"GET / HTTP/1.1\r\n\r\n".to_vec(),
        // Valid hello, then a hostile length prefix.
        [b"NAPS\x01\x00".to_vec(), u32::MAX.to_le_bytes().to_vec()].concat(),
        // Valid hello, then an unknown request kind in a valid frame.
        [
            b"NAPS\x01\x00".to_vec(),
            9u32.to_le_bytes().to_vec(),
            vec![0xEE; 9],
        ]
        .concat(),
    ] {
        let mut s = TcpStream::connect(abuse_addr).expect("connect");
        let _ = s.write_all(&garbage);
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink); // server hangs up on us
    }
    // Poll the counter (connections are dropped asynchronously), then
    // prove the server still answers correctly.
    let deadline = Instant::now() + Duration::from_secs(2);
    while abuse_gateway.stats().malformed < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let survived_abuse = GatewayClient::connect(abuse_addr)
        .ok()
        .and_then(|mut c| c.check(&probes[0]).ok())
        .is_some_and(|wire| wire == reference[0].0);
    let abuse_stats = abuse_gateway.shutdown();
    println!(
        "abuse: {} malformed connection(s) dropped, server survived: {survived_abuse}",
        abuse_stats.malformed
    );
    rule(60);

    let result = GatewaySoak {
        schema_version: SCHEMA_VERSION,
        client_threads: threads,
        requests_per_thread: per_thread,
        total_requests: (threads * per_thread) as u64,
        served,
        lost,
        divergent,
        accepted: stats.accepted,
        answered: stats.answered,
        soak_qps,
        kinds: stats
            .kinds
            .iter()
            .map(|k| KindLatency {
                kind: k.kind.to_string(),
                count: k.count,
                p50_us: k.p50_us,
                p99_us: k.p99_us,
            })
            .collect(),
        burst,
        shed,
        burst_served,
        burst_fully_answered,
        malformed_dropped: abuse_stats.malformed,
        survived_abuse,
    };
    write_json(&cfg.out_dir, "gateway", &result);
    result
}
