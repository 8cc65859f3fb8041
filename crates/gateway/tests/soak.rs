//! Loopback soak suite for the gateway (ISSUE 7 acceptance): concurrent
//! clients lose zero requests and wire verdicts are bit-identical to
//! in-process checking; a full queue sheds with a typed response; a
//! malformed frame or mid-request disconnect drops one connection and
//! nothing else; graceful shutdown answers everything accepted.

use naps_core::GradedQuery;
use naps_gateway::{
    ClientError, Gateway, GatewayClient, GatewayConfig, Rejection, RequestKind, Response, WireError,
};
use naps_serve::{EngineConfig, MonitorEngine};
use naps_tensor::Tensor;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const CLASSES: usize = 4;

/// A trained engine over the shared serving fixture plus its probe
/// workload.
fn fixture_engine(workers: usize, queue_capacity: usize) -> (Arc<MonitorEngine>, Vec<Tensor>) {
    let (monitor, net, probes) = naps_bench::serving_fixture(CLASSES, 24, 11);
    let engine = MonitorEngine::new(
        &monitor,
        &net,
        EngineConfig {
            workers,
            max_batch: 8,
            queue_capacity,
        },
    )
    .expect("MLP replicates");
    (Arc::new(engine), probes)
}

fn query() -> GradedQuery {
    GradedQuery::new(3, 2)
}

/// Polls `f` for up to two seconds — gateway counters are updated by
/// other threads, so assertions on them poll instead of racing.
fn eventually<F: FnMut() -> bool>(mut f: F, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if f() {
            return;
        }
        // naps-lint: allow(test_flakiness, "5ms pacing inside a 2s deadline poll; the deadline, not the sleep, is the synchronization point")
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for: {what}");
}

#[test]
fn concurrent_soak_loses_nothing_and_matches_in_process_verdicts() {
    let (engine, probes) = fixture_engine(2, 256);
    // In-process reference verdicts, one per (probe, kind).
    let graded = engine
        .check_layered_batch(&probes, Some(query()))
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

    let gateway =
        Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", GatewayConfig::default()).expect("bind");
    let addr = gateway.local_addr();

    const THREADS: usize = 4;
    const PASSES: usize = 3;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let probes = probes.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                let mut served = 0usize;
                for pass in 0..PASSES {
                    for (i, x) in probes.iter().enumerate() {
                        // Stagger kinds across threads and passes so all
                        // four wire paths run concurrently.
                        match (t + pass + i) % 4 {
                            0 => assert_eq!(
                                client.check(x).expect("served"),
                                reference[i].0,
                                "thread {t} probe {i}: check diverged"
                            ),
                            1 => assert_eq!(
                                client.check_graded(x, query()).expect("served"),
                                reference[i].1,
                                "thread {t} probe {i}: check_graded diverged"
                            ),
                            2 => assert_eq!(
                                client.check_layered(x).expect("served"),
                                reference[i].2,
                                "thread {t} probe {i}: check_layered diverged"
                            ),
                            _ => assert_eq!(
                                client.check_layered_graded(x, query()).expect("served"),
                                reference[i].3,
                                "thread {t} probe {i}: check_layered_graded diverged"
                            ),
                        }
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();
    let served: usize = handles
        .into_iter()
        .map(|h| h.join().expect("no client panic"))
        .sum();
    assert_eq!(
        served,
        THREADS * PASSES * probes.len(),
        "every request answered"
    );

    let stats = gateway.shutdown();
    assert_eq!(stats.accepted, served as u64);
    assert_eq!(stats.answered, stats.accepted, "zero lost requests");
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.malformed, 0);
    assert_eq!(stats.write_errors, 0);
}

#[test]
fn full_queue_sheds_with_typed_saturated_response() {
    // One worker, a queue of 2: an in-process request whose completion
    // callback parks the worker pins it, so a burst of 16 pipelined wire
    // requests must shed most of itself.
    let (engine, xs) = fixture_engine(1, 2);
    let (parked_tx, parked) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    engine
        .try_submit_with(xs[0].clone(), None, move |_| {
            let _ = parked_tx.send(());
            let _ = release_rx.recv();
        })
        .expect("submit the parking request");
    parked.recv().expect("the worker parks");
    let gateway =
        Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", GatewayConfig::default()).expect("bind");

    let mut client = GatewayClient::connect(gateway.local_addr()).expect("connect");
    const BURST: usize = 16;
    let mut ids = Vec::new();
    for i in 0..BURST {
        ids.push(
            client
                .send(RequestKind::Check, None, &xs[i % xs.len()])
                .expect("send"),
        );
    }
    // The head of the burst is queued behind the parked worker; release
    // it once the full queue has shed.
    eventually(|| gateway.stats().shed >= 1, "the full queue sheds");
    drop(release);
    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut seen = Vec::new();
    for _ in 0..BURST {
        let (id, resp) = client.recv().expect("every request is answered");
        seen.push(id);
        match resp {
            Response::Single(_) => ok += 1,
            Response::Rejected(Rejection::Saturated) => shed += 1,
            other => panic!("unexpected response: {other:?}"),
        }
    }
    seen.sort_unstable();
    assert_eq!(
        seen, ids,
        "all {BURST} correlation ids answered exactly once"
    );
    assert!(ok >= 1, "the worker served at least the head of the burst");
    assert!(
        shed >= 1,
        "the full queue shed with a typed response, got {ok} ok"
    );

    let stats = gateway.shutdown();
    assert_eq!(stats.accepted, BURST as u64);
    assert_eq!(stats.answered, BURST as u64);
    assert_eq!(stats.shed, shed as u64);
}

#[test]
fn malformed_bytes_drop_one_connection_and_nothing_else() {
    let (engine, probes) = fixture_engine(1, 64);
    let gateway =
        Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", GatewayConfig::default()).expect("bind");
    let addr = gateway.local_addr();

    // (a) Garbage handshake.
    let mut bad = TcpStream::connect(addr).expect("connect");
    bad.write_all(b"GET / HTTP/1.1\r\n").expect("write");
    let mut buf = Vec::new();
    let _ = bad.read_to_end(&mut buf); // server hangs up
    drop(bad);

    // (b) Valid handshake, then a hostile length prefix.
    let mut bad = TcpStream::connect(addr).expect("connect");
    bad.write_all(b"NAPS\x01\x00").expect("hello");
    let mut hello = [0u8; 6];
    bad.read_exact(&mut hello).expect("server hello");
    bad.write_all(&u32::MAX.to_le_bytes()).expect("prefix");
    let mut buf = Vec::new();
    let _ = bad.read_to_end(&mut buf);
    drop(bad);

    // (c) Valid frame, unknown request kind.
    let mut bad = TcpStream::connect(addr).expect("connect");
    bad.write_all(b"NAPS\x01\x00").expect("hello");
    bad.read_exact(&mut hello).expect("server hello");
    let junk = [99u8, 0, 0, 0, 0, 0, 0, 0, 0];
    bad.write_all(&(junk.len() as u32).to_le_bytes())
        .expect("prefix");
    bad.write_all(&junk).expect("payload");
    let mut buf = Vec::new();
    let _ = bad.read_to_end(&mut buf);
    drop(bad);

    eventually(
        || gateway.stats().malformed >= 3,
        "all three malformed connections counted",
    );

    // The server is fine: a healthy client round-trips, bit-identically.
    let mut client = GatewayClient::connect(addr).expect("connect after abuse");
    let want = engine.check(&probes[0]).expect("engine up");
    assert_eq!(client.check(&probes[0]).expect("served"), want);

    let stats = gateway.shutdown();
    assert_eq!(stats.answered, stats.accepted);
}

#[test]
fn mid_request_disconnect_still_accounts_the_request() {
    let (engine, probes) = fixture_engine(1, 64);
    let gateway =
        Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", GatewayConfig::default()).expect("bind");
    let addr = gateway.local_addr();

    // Send a valid request, then vanish before the verdict arrives.
    {
        let mut client = GatewayClient::connect(addr).expect("connect");
        client
            .send(RequestKind::Check, None, &probes[0])
            .expect("send");
        // Dropping the client closes the socket with the verdict in flight.
    }

    // The accepted request is still answered (the write may land in a
    // dead socket, which is the client's loss, not the server's).
    eventually(
        || {
            let s = gateway.stats();
            s.accepted >= 1 && s.answered == s.accepted
        },
        "orphaned request accounted as answered",
    );

    // And the server keeps serving.
    let mut client = GatewayClient::connect(addr).expect("connect");
    let want = engine.check(&probes[1]).expect("engine up");
    assert_eq!(client.check(&probes[1]).expect("served"), want);
    gateway.shutdown();
}

#[test]
fn graceful_shutdown_answers_everything_accepted() {
    let (engine, probes) = fixture_engine(2, 256);
    let gateway =
        Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", GatewayConfig::default()).expect("bind");
    let addr = gateway.local_addr();

    let mut client = GatewayClient::connect(addr).expect("connect");
    const PIPELINED: usize = 64;
    for i in 0..PIPELINED {
        client
            .send(RequestKind::Check, None, &probes[i % probes.len()])
            .expect("send");
    }

    // Drain concurrently with the client still reading.
    let reader = std::thread::spawn(move || {
        let mut responses = 0usize;
        loop {
            match client.recv() {
                Ok((_, Response::Single(_))) => responses += 1,
                Ok((_, Response::Rejected(r))) => {
                    panic!("pipelined request rejected during drain: {r}")
                }
                Ok((_, other)) => panic!("unexpected response: {other:?}"),
                Err(ClientError::Wire(WireError::Closed)) => break,
                Err(ClientError::Wire(WireError::Io(_))) => break,
                Err(e) => panic!("client error during drain: {e}"),
            }
        }
        responses
    });

    let stats = gateway.shutdown();
    let responses = reader.join().expect("reader thread");
    assert_eq!(
        stats.answered, stats.accepted,
        "drain answered everything accepted"
    );
    assert_eq!(
        responses as u64, stats.accepted,
        "the client saw exactly the accepted verdicts"
    );
    // The engine outlives its gateway — still serving in-process.
    engine
        .check(&probes[0])
        .expect("engine untouched by gateway shutdown");
}

#[test]
fn metrics_endpoint_serves_the_plaintext_page() {
    let (engine, probes) = fixture_engine(1, 64);
    let gateway =
        Gateway::bind(Arc::clone(&engine), "127.0.0.1:0", GatewayConfig::default()).expect("bind");
    let mut client = GatewayClient::connect(gateway.local_addr()).expect("connect");
    for x in probes.iter().take(8) {
        client.check(x).expect("served");
        client.check_graded(x, query()).expect("served");
    }

    let metrics_addr = gateway.metrics_addr().expect("metrics enabled by default");
    let mut page = String::new();
    TcpStream::connect(metrics_addr)
        .expect("metrics connect")
        .read_to_string(&mut page)
        .expect("metrics read");
    for needle in [
        "naps_gateway_qps ",
        "naps_gateway_engine_queue_depth ",
        "naps_gateway_requests_total{kind=\"check\"} 8",
        "naps_gateway_requests_total{kind=\"check_graded\"} 8",
        "naps_gateway_latency_us{kind=\"check\",quantile=\"0.99\"}",
    ] {
        assert!(
            page.contains(needle),
            "metrics page missing {needle:?}:\n{page}"
        );
    }

    // The typed snapshot agrees.
    let stats = gateway.stats();
    assert_eq!(stats.accepted, 16);
    let check = stats
        .kinds
        .iter()
        .find(|k| k.kind == "check")
        .expect("kind row");
    assert_eq!(check.count, 8);
    assert!(check.p50_us.is_some() && check.p99_us.is_some());
    gateway.shutdown();
}
