//! The typed request/response surface of the mesh-state service.
//!
//! The same types are used in-process (method per request kind on
//! [`ServiceHandle`](crate::service::ServiceHandle)) and on the wire (the
//! TCP layer frames one serialized [`Request`] per query and one
//! [`Response`] per reply). Every read reply carries the **epoch** of the
//! snapshot that served it, so clients can reason about staleness and the
//! consistency tests can check each answer against the exact published
//! state it claims to come from.

use crate::metrics::{ObsReport, StatsReport};
use ocp_core::certificate::EpochCertificate;
use ocp_mesh::Coord;
use ocp_routing::RoutingError;
use serde::{Deserialize, Serialize};

/// A query or command accepted by the service.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Full fault-tolerant route between two enabled nodes.
    Route {
        /// Source node.
        src: Coord,
        /// Destination node.
        dst: Coord,
    },
    /// Hop count only (the allocation-free fast path).
    RouteLen {
        /// Source node.
        src: Coord,
        /// Destination node.
        dst: Coord,
    },
    /// Up to `k` pairwise vertex-disjoint routes between two enabled
    /// nodes (`FaultTolerantRouter::route_disjoint`): the CW/CCW detour
    /// split generalized to the vertex min-cut.
    RouteDisjoint {
        /// Source node.
        src: Coord,
        /// Destination node.
        dst: Coord,
        /// Requested number of routes; the reply carries
        /// `min(k, min-cut)` paths.
        k: usize,
    },
    /// Many hop-count queries answered against **one** snapshot: the
    /// batched read fast path. One frame, one snapshot refresh, one epoch
    /// tag, one shared router scratch, and amortized metrics for the whole
    /// batch.
    RouteLenBatch {
        /// `(src, dst)` pairs, answered in order.
        pairs: Vec<(Coord, Coord)>,
    },
    /// Several requests in one frame, dispatched in order. Replies come
    /// back positionally in [`Response::Batch`]. Unlike
    /// [`Request::RouteLenBatch`] the inner requests are independent
    /// (each refreshes its own snapshot); this variant only amortizes
    /// framing and round-trips.
    Batch {
        /// The requests, dispatched in order. Nested batches are allowed
        /// but pointless.
        requests: Vec<Request>,
    },
    /// Labeled state of one node.
    Status {
        /// The node to inspect.
        node: Coord,
    },
    /// Enqueue crash events for the given nodes (asynchronous: the reply
    /// acknowledges admission, not convergence).
    InjectFaults {
        /// Nodes that just failed.
        nodes: Vec<Coord>,
    },
    /// Enqueue repair events for the given nodes.
    RepairNodes {
        /// Nodes that came back to life.
        nodes: Vec<Coord>,
    },
    /// Service counters and latency percentiles.
    Stats,
    /// Prometheus text-format scrape: the service's own families plus the
    /// process-global `ocp-obs` registry.
    MetricsText,
    /// Full typed observability report — the `stats` superset carrying the
    /// global metric registry snapshot and recent spans.
    ObsReport,
    /// Current head epoch.
    Epoch,
    /// The publish-time certificate of one epoch (see
    /// [`ocp_core::certificate::EpochCertificate`]): the serializable
    /// proof that the published labeling satisfied the paper's theorems,
    /// re-checkable by the client without trusting the service.
    Certificate {
        /// The epoch whose certificate is requested.
        epoch: u64,
    },
}

impl Request {
    /// Short endpoint name, used for per-endpoint metrics and logs.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Route { .. } => "route",
            Request::RouteLen { .. } => "route_len",
            Request::RouteDisjoint { .. } => "route_disjoint",
            Request::RouteLenBatch { .. } => "route_len_batch",
            Request::Batch { .. } => "batch",
            Request::Status { .. } => "status",
            Request::InjectFaults { .. } => "inject_faults",
            Request::RepairNodes { .. } => "repair_nodes",
            Request::Stats => "stats",
            Request::MetricsText => "metrics",
            Request::ObsReport => "obs",
            Request::Epoch => "epoch",
            Request::Certificate { .. } => "certificate",
        }
    }
}

/// Reply to a [`Request`], one variant per request kind.
// The size skew from `Stats` is fine: a `Response` lives only for the one
// dispatch/serialize round-trip, never in bulk collections.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::Route`].
    Route(RouteReply),
    /// Reply to [`Request::RouteLen`].
    RouteLen(RouteLenReply),
    /// Reply to [`Request::RouteDisjoint`].
    RouteDisjoint(RouteDisjointReply),
    /// Reply to [`Request::RouteLenBatch`].
    RouteLenBatch(RouteLenBatchReply),
    /// Reply to [`Request::Batch`]: one response per inner request, in
    /// order.
    Batch {
        /// Positional replies.
        replies: Vec<Response>,
    },
    /// Reply to [`Request::Status`].
    Status(StatusReply),
    /// Reply to [`Request::InjectFaults`] / [`Request::RepairNodes`].
    Injected(InjectReply),
    /// Reply to [`Request::Stats`]. Boxed, like the other wide payloads,
    /// so every `Response` a decode layer moves stays small.
    Stats(Box<StatsReport>),
    /// Reply to [`Request::MetricsText`].
    MetricsText {
        /// The rendered Prometheus text exposition page.
        text: String,
    },
    /// Reply to [`Request::ObsReport`].
    Obs(Box<ObsReport>),
    /// Reply to [`Request::Epoch`].
    Epoch {
        /// Head epoch at the time the reply was produced.
        epoch: u64,
    },
    /// Reply to [`Request::Certificate`].
    Certificate(Box<CertificateReply>),
    /// The request could not be handled (malformed frame, internal error).
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// A full route answered against one snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteReply {
    /// Epoch of the snapshot that served the query.
    pub epoch: u64,
    /// The route, or why none was produced.
    pub outcome: RouteOutcome,
}

/// Result of a route query (a serializable `Result`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RouteOutcome {
    /// A valid route was found.
    Delivered {
        /// Visited nodes, source first, destination last.
        hops: Vec<Coord>,
    },
    /// Routing failed.
    Failed {
        /// The router's error.
        error: RoutingError,
    },
}

/// A k-disjoint route set answered against one snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteDisjointReply {
    /// Epoch of the snapshot that served the query.
    pub epoch: u64,
    /// The routes, or why none were produced.
    pub outcome: RouteDisjointOutcome,
}

/// Result of a k-disjoint route query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RouteDisjointOutcome {
    /// `min(k, min-cut)` pairwise vertex-disjoint routes were found.
    Delivered {
        /// The routes, each source first and destination last. For
        /// `k == 1` the single path is byte-identical to what
        /// [`Request::Route`] would return; for larger `k` the set is
        /// seeded from that route but flow augmentation may reroute it.
        paths: Vec<Vec<Coord>>,
        /// `max hop count / topology distance` (1.0 when src == dst).
        stretch: f64,
    },
    /// Routing failed — exactly when [`Request::Route`] would fail, with
    /// the same error.
    Failed {
        /// The router's error.
        error: RoutingError,
    },
}

/// A hop count answered against one snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteLenReply {
    /// Epoch of the snapshot that served the query.
    pub epoch: u64,
    /// The hop count, or why none was produced.
    pub outcome: RouteLenOutcome,
}

/// Result of a hop-count query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RouteLenOutcome {
    /// A valid route exists with this many links.
    Delivered {
        /// Number of links traversed.
        len: usize,
    },
    /// Routing failed.
    Failed {
        /// The router's error.
        error: RoutingError,
    },
}

/// A batch of hop counts answered against one snapshot.
///
/// Field-for-field, `outcomes[i]` equals the `outcome` of a singleton
/// [`RouteLenReply`] for `pairs[i]` served against the same snapshot — the
/// batch path changes cost, never answers (enforced by the consistency
/// suite).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteLenBatchReply {
    /// Epoch of the snapshot that served **every** query in the batch.
    pub epoch: u64,
    /// One outcome per requested pair, in order.
    pub outcomes: Vec<RouteLenOutcome>,
}

/// Labeled state of one node under one snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatusReply {
    /// Epoch of the snapshot that served the query.
    pub epoch: u64,
    /// The inspected node.
    pub node: Coord,
    /// Its label.
    pub state: NodeState,
}

/// The service-level view of a node's label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// The coordinate is outside the machine.
    OffMachine,
    /// The node is faulty.
    Faulty,
    /// Nonfaulty but disabled (inside an orthogonal convex fault region).
    Disabled,
    /// Enabled: carries traffic.
    Enabled,
}

/// Acknowledgement of an event-injection command.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InjectReply {
    /// Events admitted to the writer queue.
    pub accepted: usize,
    /// Events rejected by admission control (queue full). Nonzero means
    /// the caller should back off and retry the rejected tail.
    pub rejected: usize,
    /// Head epoch at admission time; convergence of these events will be
    /// visible at some later epoch.
    pub epoch_at_enqueue: u64,
}

impl InjectReply {
    /// True if every event was admitted.
    pub fn fully_accepted(&self) -> bool {
        self.rejected == 0
    }
}

/// The certificate of one published epoch, if the service retained one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CertificateReply {
    /// The epoch that was asked about.
    pub epoch: u64,
    /// Its certificate; `None` when the epoch is unknown or the service
    /// runs with `CertMode::Off`.
    pub certificate: Option<EpochCertificate>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn requests_round_trip_json() {
        let reqs = [
            Request::Route {
                src: c(0, 0),
                dst: c(3, 4),
            },
            Request::RouteLen {
                src: c(1, 1),
                dst: c(2, 2),
            },
            Request::RouteDisjoint {
                src: c(0, 2),
                dst: c(4, 4),
                k: 2,
            },
            Request::RouteLenBatch {
                pairs: vec![(c(0, 0), c(3, 3)), (c(1, 1), c(2, 0))],
            },
            Request::Batch {
                requests: vec![
                    Request::Epoch,
                    Request::RouteLen {
                        src: c(0, 0),
                        dst: c(1, 1),
                    },
                ],
            },
            Request::Status { node: c(5, 5) },
            Request::InjectFaults {
                nodes: vec![c(1, 2), c(3, 4)],
            },
            Request::RepairNodes { nodes: vec![] },
            Request::Stats,
            Request::MetricsText,
            Request::ObsReport,
            Request::Epoch,
            Request::Certificate { epoch: 3 },
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn responses_round_trip_json() {
        let resps = [
            Response::Route(RouteReply {
                epoch: 3,
                outcome: RouteOutcome::Delivered {
                    hops: vec![c(0, 0), c(1, 0)],
                },
            }),
            Response::Route(RouteReply {
                epoch: 4,
                outcome: RouteOutcome::Failed {
                    error: RoutingError::EndpointDisabled { node: c(9, 9) },
                },
            }),
            Response::RouteDisjoint(RouteDisjointReply {
                epoch: 5,
                outcome: RouteDisjointOutcome::Delivered {
                    paths: vec![
                        vec![c(0, 0), c(1, 0), c(1, 1)],
                        vec![c(0, 0), c(0, 1), c(1, 1)],
                    ],
                    stretch: 1.0,
                },
            }),
            Response::RouteDisjoint(RouteDisjointReply {
                epoch: 5,
                outcome: RouteDisjointOutcome::Failed {
                    error: RoutingError::EndpointDisabled { node: c(2, 2) },
                },
            }),
            Response::RouteLenBatch(RouteLenBatchReply {
                epoch: 6,
                outcomes: vec![
                    RouteLenOutcome::Delivered { len: 4 },
                    RouteLenOutcome::Failed {
                        error: RoutingError::LivelockDetected,
                    },
                ],
            }),
            Response::Batch {
                replies: vec![
                    Response::Epoch { epoch: 6 },
                    Response::RouteLen(RouteLenReply {
                        epoch: 6,
                        outcome: RouteLenOutcome::Delivered { len: 2 },
                    }),
                ],
            },
            Response::Status(StatusReply {
                epoch: 1,
                node: c(2, 2),
                state: NodeState::Disabled,
            }),
            Response::Injected(InjectReply {
                accepted: 2,
                rejected: 1,
                epoch_at_enqueue: 7,
            }),
            Response::Epoch { epoch: 12 },
            Response::Certificate(Box::new(CertificateReply {
                epoch: 9,
                certificate: None,
            })),
            Response::MetricsText {
                text: "# TYPE ocp_serve_epoch gauge\nocp_serve_epoch 3\n".into(),
            },
            Response::Error {
                message: "bad frame".into(),
            },
        ];
        for resp in resps {
            let json = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn endpoint_names_are_stable() {
        assert_eq!(Request::Stats.endpoint(), "stats");
        assert_eq!(Request::Certificate { epoch: 0 }.endpoint(), "certificate");
        assert_eq!(Request::MetricsText.endpoint(), "metrics");
        assert_eq!(Request::ObsReport.endpoint(), "obs");
        assert_eq!(
            Request::RouteLenBatch { pairs: vec![] }.endpoint(),
            "route_len_batch"
        );
        assert_eq!(
            Request::RouteDisjoint {
                src: c(0, 0),
                dst: c(1, 1),
                k: 2
            }
            .endpoint(),
            "route_disjoint"
        );
        assert_eq!(Request::Batch { requests: vec![] }.endpoint(), "batch");
        assert_eq!(
            Request::Route {
                src: c(0, 0),
                dst: c(1, 1)
            }
            .endpoint(),
            "route"
        );
    }

    #[test]
    fn responses_stay_small_with_the_wide_payloads_boxed() {
        // `Stats` and `Obs` reports are hundreds of bytes; inline they made
        // every `Response` that size, and every decode layer moves one.
        assert!(std::mem::size_of::<Response>() <= 64);
    }
}
