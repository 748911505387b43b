//! Transport selection for the TCP front-end.
//!
//! Two ways to put a [`MeshService`] on a socket:
//!
//! * [`Transport::Blocking`] — the original `std::net` thread-per-connection
//!   server in [`crate::net`], kept unchanged as the pinned reference
//!   transport;
//! * [`Transport::Reactor`] — the `ocp-reactor` event loop: one poll thread
//!   multiplexing every connection plus a fixed worker pool, with pipelined
//!   framing v2 negotiated per connection (legacy v1 clients keep working —
//!   the reactor answers them in order).
//!
//! Both speak the same JSON request/response surface; a [`crate::Client`]
//! cannot tell them apart, which is exactly what lets the blocking transport
//! serve as the correctness oracle for the reactor in experiment E19.

use crate::api::{Request, Response, RouteDisjointReply, RouteLenBatchReply};
use crate::net::TcpServer;
use crate::service::{MeshService, ServiceHandle};
use ocp_mesh::Coord;
use ocp_reactor::{PipelinedClient, ReactorConfig, ReactorServer, StatsSnapshot};
use std::io;
use std::net::{SocketAddr, SocketAddrV4};

/// Which TCP front-end to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Thread-per-connection `std::net` server (the pinned reference).
    Blocking,
    /// Epoll event loop with a worker pool and pipelined framing.
    Reactor,
}

/// Decodes one framed request payload, dispatches it on `handle`, and
/// encodes the response — the byte-level bridge between the reactor's
/// framing and the typed API. Malformed JSON gets a `Response::Error`
/// instead of tearing the connection down.
pub fn dispatch_bytes(handle: &mut ServiceHandle, payload: &[u8]) -> Vec<u8> {
    let response = match serde_json::from_slice::<Request>(payload) {
        Ok(request) => handle.dispatch(request),
        Err(e) => Response::Error {
            message: format!("bad request: {e}"),
        },
    };
    serde_json::to_vec(&response).unwrap_or_else(|_| b"{}".to_vec())
}

/// A typed client over the reactor's pipelined (framing v2) connection:
/// JSON-encodes [`Request`]s under correlation ids and decodes
/// [`Response`]s — the [`Transport::Reactor`] twin of the blocking
/// [`crate::Client`]. Several requests may be in flight at once;
/// replies come back in server completion order, keyed by id.
pub struct PipelinedApiClient {
    inner: PipelinedClient,
}

impl PipelinedApiClient {
    /// Connects and negotiates pipelined framing v2.
    pub fn connect(addr: SocketAddr) -> io::Result<PipelinedApiClient> {
        Ok(PipelinedApiClient {
            inner: PipelinedClient::connect(addr)?,
        })
    }

    /// Sends one request without waiting, returning its correlation id.
    pub fn send(&mut self, request: &Request) -> io::Result<u64> {
        let payload = serde_json::to_vec(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.inner.send(&payload)
    }

    /// Receives the next reply in server completion order.
    pub fn recv(&mut self) -> io::Result<(u64, Response)> {
        let (id, payload) = self.inner.recv()?;
        let response = serde_json::from_slice(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((id, response))
    }

    /// Round-trips one k-disjoint route query. The connection must have
    /// no other replies outstanding (drain pipelined traffic first).
    pub fn route_disjoint(
        &mut self,
        src: Coord,
        dst: Coord,
        k: usize,
    ) -> io::Result<RouteDisjointReply> {
        let id = self.send(&Request::RouteDisjoint { src, dst, k })?;
        let (got_id, response) = self.recv()?;
        if got_id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply for correlation id {got_id}, expected {id}"),
            ));
        }
        match response {
            Response::RouteDisjoint(reply) => Ok(reply),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to RouteDisjoint: {other:?}"),
            )),
        }
    }

    /// Round-trips one batched hop-count query — the wide read path over
    /// the reactor transport. The connection must have no other replies
    /// outstanding (drain pipelined traffic first).
    pub fn route_len_batch(
        &mut self,
        pairs: Vec<(Coord, Coord)>,
    ) -> io::Result<RouteLenBatchReply> {
        let id = self.send(&Request::RouteLenBatch { pairs })?;
        let (got_id, response) = self.recv()?;
        if got_id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply for correlation id {got_id}, expected {id}"),
            ));
        }
        match response {
            Response::RouteLenBatch(reply) => Ok(reply),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response to RouteLenBatch: {other:?}"),
            )),
        }
    }
}

/// A running TCP front-end of either flavor.
pub enum TcpFront {
    /// The blocking reference transport.
    Blocking(TcpServer),
    /// The event-loop transport.
    Reactor(ReactorServer),
}

impl TcpFront {
    /// Starts the selected transport on `addr` (use port 0 for ephemeral).
    pub fn start(service: &MeshService, addr: &str, transport: Transport) -> io::Result<TcpFront> {
        match transport {
            Transport::Blocking => Ok(TcpFront::Blocking(TcpServer::start(service, addr)?)),
            Transport::Reactor => Self::start_reactor(service, addr, ReactorConfig::default()),
        }
    }

    /// Starts the reactor transport with explicit tuning.
    pub fn start_reactor(
        service: &MeshService,
        addr: &str,
        config: ReactorConfig,
    ) -> io::Result<TcpFront> {
        let addr: SocketAddrV4 = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad addr: {e}")))?;
        // One ServiceHandle per worker: each worker keeps the same lock-free
        // snapshot-cached hot path as an in-process reader.
        let prototype = service.handle();
        let server = ReactorServer::start(addr, config, move || {
            let mut handle = prototype.clone();
            move |payload: &[u8]| dispatch_bytes(&mut handle, payload)
        })?;
        Ok(TcpFront::Reactor(server))
    }

    /// The bound address (ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        match self {
            TcpFront::Blocking(s) => s.local_addr(),
            TcpFront::Reactor(s) => s.local_addr(),
        }
    }

    /// Requests served so far.
    pub fn served_requests(&self) -> u64 {
        match self {
            TcpFront::Blocking(s) => s.served_requests(),
            TcpFront::Reactor(s) => s.stats().responses,
        }
    }

    /// Reactor counters, when running the reactor transport.
    pub fn reactor_stats(&self) -> Option<StatsSnapshot> {
        match self {
            TcpFront::Blocking(_) => None,
            TcpFront::Reactor(s) => Some(s.stats()),
        }
    }

    /// Graceful shutdown (both transports drain in-flight requests);
    /// returns the total requests served.
    pub fn shutdown(self) -> u64 {
        match self {
            TcpFront::Blocking(s) => s.shutdown(),
            TcpFront::Reactor(mut s) => {
                s.shutdown();
                s.stats().responses
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NodeState;
    use crate::net::Client;
    use crate::service::ServeConfig;
    use ocp_mesh::{Coord, Topology};
    use ocp_reactor::PipelinedClient;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn deeply_nested_payload_is_a_clean_error() {
        // 200 KB of nested arrays: far below the frame cap, and deep enough
        // to overflow the stack of a parser without a nesting limit.
        let service = MeshService::start(Topology::mesh(4, 4), [], ServeConfig::default()).unwrap();
        let mut handle = service.handle();
        let depth = 100_000;
        let payload = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let reply: Response =
            serde_json::from_slice(&dispatch_bytes(&mut handle, payload.as_bytes())).unwrap();
        match reply {
            Response::Error { message } => assert!(message.contains("nesting"), "{message}"),
            other => panic!("unexpected response: {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn legacy_v1_client_works_against_the_reactor() {
        let service =
            MeshService::start(Topology::mesh(8, 8), [c(3, 3)], ServeConfig::default()).unwrap();
        let front = TcpFront::start(&service, "127.0.0.1:0", Transport::Reactor).unwrap();
        let mut client = Client::connect(front.local_addr()).unwrap();
        match client.request(&Request::Status { node: c(3, 3) }).unwrap() {
            Response::Status(reply) => assert_eq!(reply.state, NodeState::Faulty),
            other => panic!("unexpected response: {other:?}"),
        }
        match client.request(&Request::Epoch).unwrap() {
            Response::Epoch { .. } => {}
            other => panic!("unexpected response: {other:?}"),
        }
        drop(client);
        assert!(front.shutdown() >= 2);
        service.shutdown();
    }

    #[test]
    fn pipelined_v2_replies_match_the_in_process_oracle() {
        let service =
            MeshService::start(Topology::mesh(10, 10), [c(4, 4)], ServeConfig::default()).unwrap();
        let front = TcpFront::start(&service, "127.0.0.1:0", Transport::Reactor).unwrap();
        let mut oracle = service.handle();
        let mut client = PipelinedClient::connect(front.local_addr()).unwrap();

        let requests: Vec<Request> = (0..9)
            .map(|i| Request::RouteLen {
                src: c(i % 3, 0),
                dst: c(9 - i % 3, 9),
            })
            .chain([Request::Epoch, Request::Stats])
            .collect();
        let mut expected = std::collections::BTreeMap::new();
        for request in &requests {
            let id = client.send(&serde_json::to_vec(request).unwrap()).unwrap();
            expected.insert(id, request.clone());
        }
        for _ in 0..requests.len() {
            let (id, payload) = client.recv().unwrap();
            let got: Response = serde_json::from_slice(&payload).unwrap();
            let want = oracle.dispatch(expected.remove(&id).unwrap());
            // Stats replies embed live counters; compare only the variant.
            match (&got, &want) {
                (Response::Stats(_), Response::Stats(_)) => {}
                (Response::Epoch { .. }, Response::Epoch { .. }) => {}
                _ => assert_eq!(got, want, "reply for corr id {id} diverged from oracle"),
            }
        }
        drop(client);
        front.shutdown();
        service.shutdown();
    }

    #[test]
    fn typed_pipelined_client_serves_batched_route_len() {
        let service =
            MeshService::start(Topology::mesh(12, 12), [c(5, 5)], ServeConfig::default()).unwrap();
        let front = TcpFront::start(&service, "127.0.0.1:0", Transport::Reactor).unwrap();
        let mut oracle = service.handle();
        let mut client = PipelinedApiClient::connect(front.local_addr()).unwrap();

        // Pipelined typed traffic first: ids come back keyed, interleaved
        // at the server's discretion.
        let id_a = client.send(&Request::Epoch).unwrap();
        let id_b = client
            .send(&Request::RouteLen {
                src: c(0, 0),
                dst: c(11, 11),
            })
            .unwrap();
        for _ in 0..2 {
            let (id, response) = client.recv().unwrap();
            if id == id_a {
                assert!(matches!(response, Response::Epoch { .. }));
            } else {
                assert_eq!(id, id_b);
                let want = oracle.dispatch(Request::RouteLen {
                    src: c(0, 0),
                    dst: c(11, 11),
                });
                assert_eq!(response, want);
            }
        }

        // Then the batched read path: pairs spanning detours around the
        // fault, an error outcome, and a zero-hop self-pair, answered
        // through the service's wide engine and field-equal to the
        // in-process oracle.
        let pairs = vec![
            (c(0, 5), c(11, 5)),
            (c(5, 5), c(0, 0)), // endpoint faulty
            (c(2, 2), c(2, 2)),
            (c(11, 0), c(0, 11)),
        ];
        let reply = client.route_len_batch(pairs.clone()).unwrap();
        let want = oracle.route_len_batch(&pairs);
        assert_eq!(reply, want);
        assert_eq!(reply.outcomes.len(), pairs.len());

        drop(client);
        front.shutdown();
        service.shutdown();
    }

    #[test]
    fn blocking_selector_still_runs_the_reference_transport() {
        let service = MeshService::start(Topology::mesh(6, 6), [], ServeConfig::default()).unwrap();
        let front = TcpFront::start(&service, "127.0.0.1:0", Transport::Blocking).unwrap();
        assert!(front.reactor_stats().is_none());
        let mut client = Client::connect(front.local_addr()).unwrap();
        assert!(matches!(
            client.request(&Request::Epoch).unwrap(),
            Response::Epoch { .. }
        ));
        drop(client);
        assert_eq!(front.shutdown(), 1);
        service.shutdown();
    }
}
