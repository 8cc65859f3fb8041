//! A blocking client for the gateway's wire protocol — the reference
//! peer for [`crate::Gateway`] and the workhorse of the soak tests.
//!
//! The synchronous helpers ([`GatewayClient::check`] & friends) send
//! one request and wait for its response.  The pipelining primitives
//! ([`GatewayClient::send`] / [`GatewayClient::recv`]) let a caller
//! keep many requests in flight on one connection; responses carry the
//! request's correlation id, and the gateway answers engine verdicts in
//! completion order (typed rejections are answered immediately).

use crate::proto::{
    self, Rejection, Request, RequestKind, Response, WireError, DEFAULT_MAX_FRAME, WIRE_VERSION,
};
use naps_core::GradedQuery;
use naps_serve::{EpochReport, LayeredEpochReport};
use naps_tensor::Tensor;
use std::fmt;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The gateway answered with a typed rejection.
    Rejected(Rejection),
    /// The gateway answered with a verdict of the wrong shape (e.g. a
    /// layered report for a `check` request) — a protocol bug.
    UnexpectedResponse {
        /// Shape the call expected.
        want: &'static str,
    },
    /// A synchronous call got a response for a different request id —
    /// only possible when sync calls are mixed into a pipelined stream.
    IdMismatch {
        /// The id the call sent.
        want: u64,
        /// The id the response carried.
        got: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Rejected(r) => write!(f, "request rejected: {r}"),
            ClientError::UnexpectedResponse { want } => {
                write!(f, "response shape mismatch (expected {want})")
            }
            ClientError::IdMismatch { want, got } => {
                write!(f, "response id {got} does not match request id {want}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// One connection to a gateway, post-handshake.
pub struct GatewayClient {
    stream: TcpStream,
    next_id: u64,
    max_frame_len: u32,
}

impl GatewayClient {
    /// Connects and performs the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<GatewayClient, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.write_all(&proto::encode_hello(WIRE_VERSION))?;
        stream.flush()?;
        let version = proto::read_hello(&mut stream)?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                got: version,
                want: WIRE_VERSION,
            }
            .into());
        }
        Ok(GatewayClient {
            stream,
            next_id: 0,
            max_frame_len: DEFAULT_MAX_FRAME,
        })
    }

    /// Single-layer binary verdict — the wire twin of
    /// [`naps_serve::MonitorEngine::check`].
    pub fn check(&mut self, input: &Tensor) -> Result<EpochReport, ClientError> {
        let id = self.send(RequestKind::Check, None, input)?;
        self.expect_single(id)
    }

    /// Single-layer graded verdict (`check_graded`).
    pub fn check_graded(
        &mut self,
        input: &Tensor,
        query: GradedQuery,
    ) -> Result<EpochReport, ClientError> {
        let id = self.send(RequestKind::CheckGraded, Some(query), input)?;
        self.expect_single(id)
    }

    /// Full per-layer binary verdict (`check_layered`).
    pub fn check_layered(&mut self, input: &Tensor) -> Result<LayeredEpochReport, ClientError> {
        let id = self.send(RequestKind::CheckLayered, None, input)?;
        self.expect_layered(id)
    }

    /// Full per-layer graded verdict (`check_layered_graded`).
    pub fn check_layered_graded(
        &mut self,
        input: &Tensor,
        query: GradedQuery,
    ) -> Result<LayeredEpochReport, ClientError> {
        let id = self.send(RequestKind::CheckLayeredGraded, Some(query), input)?;
        self.expect_layered(id)
    }

    /// Pipelining primitive: sends one request without waiting and
    /// returns its correlation id.  Pair with [`GatewayClient::recv`].
    pub fn send(
        &mut self,
        kind: RequestKind,
        query: Option<GradedQuery>,
        input: &Tensor,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            kind,
            query,
            input: input.data().to_vec(),
        };
        let payload = proto::encode_request(&req)?;
        proto::write_frame(&mut self.stream, &payload)?;
        Ok(id)
    }

    /// Pipelining primitive: receives the next response (in the order
    /// the gateway finished them) as `(correlation id, response)`.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        let payload = proto::read_frame(&mut self.stream, self.max_frame_len)?;
        Ok(proto::decode_response(&payload)?)
    }

    fn expect_single(&mut self, id: u64) -> Result<EpochReport, ClientError> {
        match self.recv_for(id)? {
            Response::Single(report) => Ok(report),
            Response::Rejected(r) => Err(ClientError::Rejected(r)),
            Response::Layered(_) => Err(ClientError::UnexpectedResponse { want: "single" }),
        }
    }

    fn expect_layered(&mut self, id: u64) -> Result<LayeredEpochReport, ClientError> {
        match self.recv_for(id)? {
            Response::Layered(report) => Ok(report),
            Response::Rejected(r) => Err(ClientError::Rejected(r)),
            Response::Single(_) => Err(ClientError::UnexpectedResponse { want: "layered" }),
        }
    }

    fn recv_for(&mut self, id: u64) -> Result<Response, ClientError> {
        let (got, resp) = self.recv()?;
        if got != id {
            return Err(ClientError::IdMismatch { want: id, got });
        }
        Ok(resp)
    }
}
