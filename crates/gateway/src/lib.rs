//! # naps-gateway — the monitor's wire boundary
//!
//! The paper deploys activation-pattern monitors *alongside* a live
//! network, which makes the monitor itself a service other processes
//! depend on.  This crate puts [`naps_serve::MonitorEngine`] behind a
//! TCP listener built only on `std::net` (no async runtime): one
//! reader thread per connection decodes length-prefixed request frames
//! and feeds the engine's **non-blocking** submission path, verdicts
//! are written back from the engine's worker threads, and every error
//! — malformed bytes, a full queue, a dying worker — is a typed wire
//! response or a dropped connection, **never a server panic**.
//!
//! | Type | Role |
//! |---|---|
//! | [`Gateway`] / [`GatewayConfig`] | the server: accept loop, readers, metrics listener, graceful drain |
//! | [`GatewayClient`] | blocking reference client (sync helpers + pipelining primitives) |
//! | [`Request`] / [`RequestKind`] | one decoded question |
//! | [`Response`] / [`Rejection`] | one answer: a verdict or a typed refusal |
//! | [`WireError`] | every way bytes can fail to be a frame |
//! | [`GatewayStats`] / [`KindSnapshot`] | typed snapshot of the metrics page |
//!
//! ## Guarantees
//!
//! * **Load shedding, not blocking.**  Readers submit with
//!   [`naps_serve::MonitorEngine::try_submit_with`]; when the
//!   bounded queue is full the client gets an immediate
//!   [`Rejection::Saturated`] frame instead of an unread socket.
//! * **Every accepted request is answered.**  Once a frame decodes,
//!   a response guard guarantees a reply — a verdict, a typed
//!   rejection, or (if an engine worker dies holding the request)
//!   [`Rejection::WorkerLost`] — before the connection or gateway
//!   finishes shutting down.
//! * **Bit-identical verdicts.**  Inputs and reports cross the wire as
//!   IEEE-754 little-endian bytes and fixed-width integers; a verdict
//!   served through the gateway equals the in-process
//!   [`naps_serve::MonitorEngine::check`] result field for field
//!   (pinned by the loopback soak tests and the `gateway` eval).
//!
//! ## Wire format (version 1)
//!
//! All integers are **little-endian**; floats are IEEE-754 binary32 in
//! little-endian byte order.  `opt<u32>` is a `u8` flag (`0` absent,
//! `1` present) followed by the `u32` when present.
//!
//! ### Handshake
//!
//! The client opens the connection and sends 6 bytes: the magic
//! `b"NAPS"` then `u16` protocol version ([`WIRE_VERSION`] = 1).  The
//! server replies with the same 6-byte form.  If the versions differ
//! the server still replies (so the client can report the mismatch)
//! and closes.
//!
//! ### Framing
//!
//! Every subsequent message is one frame: `u32` payload length, then
//! the payload.  Payloads above the receiver's bound (default
//! [`DEFAULT_MAX_FRAME`] = 1 MiB) are rejected before allocation and
//! drop the connection.
//!
//! ### Request payload
//!
//! ```text
//! u8  kind        1 = check, 2 = check_graded,
//!                 3 = check_layered, 4 = check_layered_graded
//! u64 id          client-chosen correlation id, echoed in the response
//! u32 budget      ┐ graded kinds (2, 4) only
//! u32 top_k       ┘
//! u32 n           input feature count
//! f32 × n         the input, row-major
//! ```
//!
//! ### Response payload
//!
//! ```text
//! u8  status      0 = verdict (single-layer)   1 = verdict (layered)
//!                 2 = saturated                3 = shutting down
//!                 4 = width mismatch           5 = worker lost
//!                 6 = internal error
//! u64 id          the request's correlation id
//! ...body         status 0: EpochReport; status 1: LayeredEpochReport;
//!                 status 4: u32 expected, u32 actual; otherwise empty
//! ```
//!
//! Report bodies compose from these encodings:
//!
//! ```text
//! MonitorReport       = u32 predicted · u8 verdict · opt<u32> seed_distance
//! verdict             = 0 in-pattern · 1 out-of-pattern · 2 unmonitored
//! GradedReport        = MonitorReport · opt<u32> zone_distance
//!                     · u16 k · k × (u32 class · u32 distance)
//!                     · u32 budget · u32 top_k · u8 triage
//! triage              = 0 in-pattern · 1 out-of-pattern
//!                     · 2 misclassification-candidate · 3 novelty
//!                     · 4 unmonitored
//! EpochReport         = u64 epoch · MonitorReport · u8 has_graded
//!                     · [GradedReport]
//! LayeredEpochReport  = u64 epoch · u32 predicted
//!                     · u16 layers · layers × MonitorReport
//!                     · u8 combined_verdict · u8 has_graded
//!                     · [u16 g · g × GradedReport]
//! ```
//!
//! Responses to pipelined requests arrive in **completion order**, not
//! submission order — that is what the correlation id is for.  Typed
//! rejections are written by the reader thread immediately; verdicts
//! are written by whichever engine worker judged the micro-batch.
//!
//! ### Metrics endpoint
//!
//! A second listener (same IP, own port — [`Gateway::metrics_addr`])
//! speaks plaintext, not frames: connect, read to EOF.  The page is
//! Prometheus-flavoured `name{label="…"} value` lines — QPS, engine
//! queue depth, connection/accepted/answered/shed/malformed counters,
//! and per-request-kind p50/p99 latency (µs, power-of-two bucket upper
//! bounds).  [`Gateway::stats`] returns the same numbers as a typed
//! [`GatewayStats`].
//!
//! ## Example
//!
//! ```no_run
//! use naps_gateway::{Gateway, GatewayClient, GatewayConfig};
//! use naps_serve::MonitorEngine;
//! use naps_tensor::Tensor;
//! use std::sync::Arc;
//!
//! # fn demo(engine: Arc<MonitorEngine>) -> Result<(), Box<dyn std::error::Error>> {
//! let gateway = Gateway::bind(engine, "127.0.0.1:0", GatewayConfig::default())?;
//! let mut client = GatewayClient::connect(gateway.local_addr())?;
//! let report = client.check(&Tensor::from_vec(vec![2], vec![0.5, -0.5]))?;
//! println!("verdict: {:?} at epoch {}", report.report.verdict, report.epoch);
//! let stats = gateway.shutdown(); // answers everything accepted first
//! assert_eq!(stats.accepted, stats.answered);
//! # Ok(())
//! # }
//! ```

mod client;
mod metrics;
mod proto;
mod server;

pub use client::{ClientError, GatewayClient};
pub use metrics::{GatewayStats, KindSnapshot};
pub use proto::{
    decode_request, decode_response, encode_hello, encode_request, encode_response, read_frame,
    read_hello, write_frame, Rejection, Request, RequestKind, Response, WireError,
    DEFAULT_MAX_FRAME, MAGIC, WIRE_VERSION,
};
pub use server::{Gateway, GatewayConfig};
