//! # ocp-serve
//!
//! A long-lived, embeddable **mesh-state service**: the component that
//! finally *consumes* the paper's labels under production-shaped load.
//! Every other consumer in this workspace (the experiments, the routing
//! evaluation) rebuilds the labeled machine from scratch per call;
//! `ocp-serve` instead owns the labeled grid, absorbs a stream of
//! fault/repair events, and answers routing/status queries concurrently
//! while re-convergence happens off the read path.
//!
//! ## Design at a glance
//!
//! * [`snapshot`] — immutable per-epoch machine state: fault map, the
//!   converged two-phase labeling, and a ready-built
//!   [`FaultTolerantRouter`](ocp_routing::FaultTolerantRouter). Epoch
//!   `k+1` derives from `k` block-locally: only the dirty windows around
//!   the faulty blocks a batch touches are relabeled and re-indexed.
//! * [`service`] — the epoch pointer (atomic epoch + `Arc` slot), the
//!   single writer thread with batched, admission-controlled event
//!   ingestion, and the lock-free [`ServiceHandle`] query API.
//! * [`api`] — the typed request/response surface shared by in-process
//!   and TCP callers; every read reply is tagged with the epoch that
//!   served it.
//! * [`net`] — a dependency-free TCP front-end (`std::net`,
//!   length-prefixed JSON frames) plus a blocking [`Client`].
//! * [`metrics`] — lock-free per-endpoint counters, a log-bucketed
//!   latency histogram with p50/p95/p99, and read-staleness tracking.
//! * [`queue`] — the bounded writer queue whose full-queue behavior is an
//!   explicit `Overloaded` rejection, never unbounded buffering.
//! * [`wal`] — the dependency-free epoch write-ahead log: checksummed,
//!   torn-tail-tolerant records appended and fsynced before each publish,
//!   replayed by [`MeshService::recover`](service::MeshService::recover).
//!   Publishes are gated by [`EpochCertificate`](ocp_core::certificate::EpochCertificate)
//!   checks per [`CertMode`](service::CertMode).
//!
//! See `DESIGN.md` §6 for the architecture rationale and `repro -- serve`
//! (experiment E14) for throughput/tail-latency/staleness measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod metrics;
pub mod net;
pub mod queue;
pub mod service;
pub mod snapshot;
pub mod transport;
pub mod wal;

pub use api::{
    CertificateReply, InjectReply, NodeState, Request, Response, RouteDisjointOutcome,
    RouteDisjointReply, RouteLenOutcome, RouteLenReply, RouteOutcome, RouteReply, StatusReply,
};
pub use metrics::{
    prometheus_text, EndpointReport, LatencyHistogram, Metrics, ObsReport, StatsReport,
};
pub use net::{Client, ClientError, TcpServer};
pub use queue::{BoundedQueue, PushError};
pub use service::{
    CertChaos, CertMode, EpochRecord, Event, MeshService, RecoverError, ServeConfig, ServiceHandle,
};
pub use snapshot::{EventBatch, Snapshot};
pub use transport::{dispatch_bytes, PipelinedApiClient, TcpFront, Transport};
pub use wal::{Wal, WalRecord};
