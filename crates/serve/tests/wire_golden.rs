//! Golden wire bytes: the JSON every wire, WAL and manifest type encodes
//! to, pinned byte for byte in `golden/wire.txt`.
//!
//! The fixture holds one case per `== name` header line, followed by the
//! encoded text (one line for compact cases, several for the pretty one).
//! Two checks run over it: encoding each value gives exactly the fixture
//! text, and decoding the fixture text and encoding the result again gives
//! the same bytes, so logs and manifests written by any earlier build stay
//! readable. Cases marked `encode-only` hold non-finite floats, which
//! render as `null` and so cannot decode back into an `f64`.

use ocp_analysis::Percentiles;
use ocp_core::{run_pipeline, EpochCertificate, FaultMap, PipelineConfig, SafetyRule};
use ocp_fleet::{FleetRequest, FleetResponse, FleetStatsReply, TenantInfo, TenantSpec};
use ocp_mesh::{Coord, Topology};
use ocp_obs::{
    FamilySnapshot, HistogramSnapshot, MetricKind, MetricValue, RegistrySnapshot, SeriesSnapshot,
    SpanRecord,
};
use ocp_routing::RoutingError;
use ocp_serve::api::RouteLenBatchReply;
use ocp_serve::{
    CertMode, CertificateReply, EndpointReport, InjectReply, NodeState, ObsReport, Request,
    Response, RouteDisjointOutcome, RouteDisjointReply, RouteLenOutcome, RouteLenReply,
    RouteOutcome, RouteReply, StatsReport, StatusReply, WalRecord,
};
use serde::{Deserialize, Serialize};

const FIXTURE: &str = include_str!("golden/wire.txt");

/// Text that exercises every escape the printer emits and raw non-ASCII.
const AWKWARD: &str =
    "quote \" backslash \\ slash / nl \n cr \r tab \t bell \u{7} nul \u{0} us \u{1f} del \u{7f} é 中文 😀";

fn c(x: i32, y: i32) -> Coord {
    Coord::new(x, y)
}

/// How a case's fixture text is checked beyond matching the encoding.
type Reencode = fn(&str) -> String;

struct Case {
    name: String,
    json: String,
    reencode: Option<Reencode>,
}

fn reencode_compact<T: Serialize + Deserialize>(json: &str) -> String {
    let value: T = serde_json::from_slice(json.as_bytes()).expect("fixture decodes");
    String::from_utf8(serde_json::to_vec(&value).unwrap()).unwrap()
}

fn reencode_pretty<T: Serialize + Deserialize>(json: &str) -> String {
    let value: T = serde_json::from_str(json).expect("fixture decodes");
    serde_json::to_string_pretty(&value).unwrap()
}

#[derive(Default)]
struct Cases(Vec<Case>);

impl Cases {
    fn compact<T: Serialize + Deserialize>(&mut self, name: impl Into<String>, value: &T) {
        self.0.push(Case {
            name: name.into(),
            json: String::from_utf8(serde_json::to_vec(value).unwrap()).unwrap(),
            reencode: Some(reencode_compact::<T>),
        });
    }

    fn encode_only<T: Serialize>(&mut self, name: &str, value: &T) {
        self.0.push(Case {
            name: format!("{name} (encode-only)"),
            json: serde_json::to_string(value).unwrap(),
            reencode: None,
        });
    }

    fn pretty<T: Serialize + Deserialize>(&mut self, name: &str, value: &T) {
        self.0.push(Case {
            name: format!("{name} (pretty)"),
            json: serde_json::to_string_pretty(value).unwrap(),
            reencode: Some(reencode_pretty::<T>),
        });
    }
}

fn routing_errors() -> Vec<(&'static str, RoutingError)> {
    vec![
        (
            "endpoint-disabled",
            RoutingError::EndpointDisabled { node: c(9, 9) },
        ),
        ("unreachable", RoutingError::Unreachable),
        ("livelock", RoutingError::LivelockDetected),
        ("boundary-chain", RoutingError::BoundaryFaultChain),
        ("disabled-hop", RoutingError::DisabledHop { node: c(2, 3) }),
        (
            "not-a-link",
            RoutingError::NotALink {
                from: c(0, 0),
                to: c(2, 2),
            },
        ),
    ]
}

fn pct(base: f64) -> Percentiles {
    Percentiles {
        n: 40,
        p50: base,
        p90: base * 2.5,
        p95: 1e21,
        p99: 1e-7,
        max: -0.0,
    }
}

fn endpoint(requests: u64) -> EndpointReport {
    EndpointReport {
        requests,
        errors: requests / 10,
        latency_ns: pct(1.0),
    }
}

fn stats(staleness: f64, reuse: f64) -> StatsReport {
    StatsReport {
        epoch: 12,
        epochs_published: 11,
        batches: 11,
        events_accepted: 30,
        events_rejected: 0,
        events_applied: 29,
        events_discarded: 1,
        queue_depth: 0,
        queue_capacity: 4096,
        route: endpoint(100),
        route_len: endpoint(2000),
        route_disjoint: endpoint(0),
        batch_width: pct(64.0),
        status: endpoint(7),
        staleness_mean_epochs: staleness,
        staleness_max_epochs: 2,
        publish_lag_ns: pct(1500.0),
        cert_failures: 0,
        publishes_cert_rejected: 0,
        publishes_overloaded: 0,
        wal_append_ns: pct(0.0),
        wal_fsync_ns: pct(3.0),
        index_build_segment_ns: pct(10.0),
        index_build_ring_ns: pct(20.0),
        index_build_wide_ns: pct(30.0),
        index_build_exit_ns: pct(40.0),
        index_build_total_ns: pct(100.0),
        index_reuse_ratio: reuse,
    }
}

fn obs_report() -> ObsReport {
    ObsReport {
        stats: stats(1.0, 0.75),
        registry: RegistrySnapshot {
            families: vec![
                FamilySnapshot {
                    name: "ocp_labeling_rounds_total".into(),
                    help: "Rounds \"run\".".into(),
                    kind: MetricKind::Counter,
                    series: vec![SeriesSnapshot {
                        labels: vec![("engine".into(), "bitboard".into())],
                        value: MetricValue::Counter(u64::MAX),
                    }],
                },
                FamilySnapshot {
                    name: "ocp_queue_depth".into(),
                    help: String::new(),
                    kind: MetricKind::Gauge,
                    series: vec![SeriesSnapshot {
                        labels: vec![],
                        value: MetricValue::Gauge(-5),
                    }],
                },
                FamilySnapshot {
                    name: "ocp_publish_ns".into(),
                    help: "Publish time.".into(),
                    kind: MetricKind::Histogram,
                    series: vec![SeriesSnapshot {
                        labels: vec![("tenant".into(), "a\\b".into())],
                        value: MetricValue::Histogram(HistogramSnapshot {
                            count: 3,
                            sum: 4_000_000_000,
                            buckets: vec![0, 1, 2],
                        }),
                    }],
                },
            ],
        },
        spans: vec![SpanRecord {
            seq: 7,
            name: "labeling/safety".into(),
            start_us: 10,
            elapsed_us: 250,
            fields: vec![
                ("rounds".into(), "3".into()),
                ("note".into(), AWKWARD.into()),
            ],
        }],
    }
}

fn certificate() -> EpochCertificate {
    let map = FaultMap::new(Topology::mesh(8, 8), [c(2, 2), c(3, 3), c(6, 1)]);
    let outcome = run_pipeline(&map, &PipelineConfig::default());
    EpochCertificate::describe(4, &map, &outcome)
}

fn requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "route",
            Request::Route {
                src: c(0, 0),
                dst: c(63, 62),
            },
        ),
        (
            "route-len",
            Request::RouteLen {
                src: c(1, 1),
                dst: c(2, 2),
            },
        ),
        (
            "route-disjoint",
            Request::RouteDisjoint {
                src: c(0, 2),
                dst: c(4, 4),
                k: 2,
            },
        ),
        (
            "route-len-batch",
            Request::RouteLenBatch {
                pairs: vec![(c(0, 0), c(3, 3)), (c(1, 1), c(2, 0))],
            },
        ),
        (
            "route-len-batch-empty",
            Request::RouteLenBatch { pairs: vec![] },
        ),
        (
            "batch",
            Request::Batch {
                requests: vec![
                    Request::Epoch,
                    Request::RouteLen {
                        src: c(0, 0),
                        dst: c(1, 1),
                    },
                    Request::Batch {
                        requests: vec![Request::Stats],
                    },
                ],
            },
        ),
        ("status", Request::Status { node: c(-1, 7) }),
        (
            "inject-faults",
            Request::InjectFaults {
                nodes: vec![c(1, 2), c(3, 4)],
            },
        ),
        ("repair-nodes", Request::RepairNodes { nodes: vec![] }),
        ("stats", Request::Stats),
        ("metrics-text", Request::MetricsText),
        ("obs-report", Request::ObsReport),
        ("epoch", Request::Epoch),
        ("certificate", Request::Certificate { epoch: u64::MAX }),
    ]
}

fn responses() -> Vec<(String, Response)> {
    let mut out: Vec<(String, Response)> = vec![
        (
            "route/delivered".into(),
            Response::Route(RouteReply {
                epoch: 3,
                outcome: RouteOutcome::Delivered {
                    hops: vec![c(0, 0), c(1, 0), c(1, 1)],
                },
            }),
        ),
        (
            "route-len/delivered".into(),
            Response::RouteLen(RouteLenReply {
                epoch: 3,
                outcome: RouteLenOutcome::Delivered { len: 178 },
            }),
        ),
        (
            "route-disjoint/delivered".into(),
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
        ),
        (
            "route-disjoint/delivered-fractional".into(),
            Response::RouteDisjoint(RouteDisjointReply {
                epoch: 5,
                outcome: RouteDisjointOutcome::Delivered {
                    paths: vec![],
                    stretch: 1.25,
                },
            }),
        ),
        (
            "route-len-batch".into(),
            Response::RouteLenBatch(RouteLenBatchReply {
                epoch: 6,
                outcomes: vec![
                    RouteLenOutcome::Delivered { len: 4 },
                    RouteLenOutcome::Failed {
                        error: RoutingError::LivelockDetected,
                    },
                    RouteLenOutcome::Delivered { len: 0 },
                ],
            }),
        ),
        (
            "batch".into(),
            Response::Batch {
                replies: vec![
                    Response::Epoch { epoch: 6 },
                    Response::RouteLen(RouteLenReply {
                        epoch: 6,
                        outcome: RouteLenOutcome::Delivered { len: 2 },
                    }),
                ],
            },
        ),
        (
            "injected".into(),
            Response::Injected(InjectReply {
                accepted: 2,
                rejected: 1,
                epoch_at_enqueue: 7,
            }),
        ),
        ("stats".into(), Response::Stats(Box::new(stats(1.0, 0.0)))),
        (
            "metrics-text".into(),
            Response::MetricsText {
                text: "# TYPE ocp_serve_epoch gauge\nocp_serve_epoch 3\n".into(),
            },
        ),
        ("obs".into(), Response::Obs(Box::new(obs_report()))),
        ("epoch".into(), Response::Epoch { epoch: 12 }),
        (
            "certificate/none".into(),
            Response::Certificate(Box::new(CertificateReply {
                epoch: 9,
                certificate: None,
            })),
        ),
        (
            "certificate/some".into(),
            Response::Certificate(Box::new(CertificateReply {
                epoch: 4,
                certificate: Some(certificate()),
            })),
        ),
        (
            "error".into(),
            Response::Error {
                message: AWKWARD.into(),
            },
        ),
    ];
    for (name, error) in routing_errors() {
        out.push((
            format!("route/failed/{name}"),
            Response::Route(RouteReply {
                epoch: 1,
                outcome: RouteOutcome::Failed {
                    error: error.clone(),
                },
            }),
        ));
        out.push((
            format!("route-len/failed/{name}"),
            Response::RouteLen(RouteLenReply {
                epoch: 1,
                outcome: RouteLenOutcome::Failed {
                    error: error.clone(),
                },
            }),
        ));
        out.push((
            format!("route-disjoint/failed/{name}"),
            Response::RouteDisjoint(RouteDisjointReply {
                epoch: 1,
                outcome: RouteDisjointOutcome::Failed { error },
            }),
        ));
    }
    for state in [
        NodeState::OffMachine,
        NodeState::Faulty,
        NodeState::Disabled,
        NodeState::Enabled,
    ] {
        out.push((
            format!("status/{state:?}"),
            Response::Status(StatusReply {
                epoch: 2,
                node: c(2, 2),
                state,
            }),
        ));
    }
    out
}

fn spec(topology: Topology, cert_mode: CertMode) -> TenantSpec {
    TenantSpec {
        topology,
        initial_faults: vec![c(1, 2)],
        rule: SafetyRule::BothDimensions,
        cert_mode,
    }
}

fn all_cases() -> Vec<Case> {
    let mut cases = Cases::default();
    for (name, request) in requests() {
        cases.compact(format!("request/{name}"), &request);
    }
    for (name, response) in responses() {
        cases.compact(format!("response/{name}"), &response);
    }
    cases.encode_only(
        "response/stats/non-finite",
        &Response::Stats(Box::new(stats(f64::NAN, f64::INFINITY))),
    );
    cases.encode_only("f64/neg-infinity", &f64::NEG_INFINITY);
    cases.compact(
        "wal/init",
        &WalRecord::Init {
            topology: Topology::mesh(64, 64),
            faults: vec![c(3, 3), c(4, 3)],
            rule: SafetyRule::TwoUnsafeNeighbors,
            digest: 0x9e37_79b9_7f4a_7c15,
        },
    );
    cases.compact(
        "wal/batch",
        &WalRecord::Batch {
            epoch: 5,
            faults: vec![c(7, 7)],
            repairs: vec![],
            cert_digest: 0,
        },
    );
    for (name, mode) in [
        ("off", CertMode::Off),
        ("warn", CertMode::Warn),
        ("enforce", CertMode::Enforce),
    ] {
        cases.compact(
            format!("tenant-spec/{name}"),
            &spec(Topology::torus(16, 8), mode),
        );
    }
    let fleet_requests = [
        (
            "create-tenant",
            FleetRequest::CreateTenant {
                name: "alpha-1".into(),
                spec: spec(Topology::mesh(8, 8), CertMode::Enforce),
            },
        ),
        (
            "drop-tenant",
            FleetRequest::DropTenant {
                name: "alpha-1".into(),
            },
        ),
        ("list-tenants", FleetRequest::ListTenants),
        (
            "tenant",
            FleetRequest::Tenant {
                tenant: "beta".into(),
                request: Request::RouteLen {
                    src: c(0, 0),
                    dst: c(3, 2),
                },
            },
        ),
        ("fleet-stats", FleetRequest::FleetStats),
        ("metrics-text", FleetRequest::MetricsText),
    ];
    for (name, request) in &fleet_requests {
        cases.compact(format!("fleet-request/{name}"), request);
    }
    let fleet_responses = [
        (
            "created",
            FleetResponse::Created {
                tenant: "alpha".into(),
                shard: 3,
            },
        ),
        (
            "dropped",
            FleetResponse::Dropped {
                tenant: "alpha".into(),
            },
        ),
        (
            "tenants",
            FleetResponse::Tenants {
                tenants: vec![TenantInfo {
                    name: "alpha".into(),
                    shard: 0,
                    epoch: 4,
                    durable: true,
                }],
            },
        ),
        (
            "tenant",
            FleetResponse::Tenant {
                tenant: "alpha".into(),
                response: Response::Epoch { epoch: 4 },
            },
        ),
        (
            "fleet-stats",
            FleetResponse::FleetStats(FleetStatsReply {
                tenants: 2,
                created_total: 3,
                dropped_total: 1,
                requests_total: 1000,
                throttled_total: 4,
                over_budget_total: 0,
                unknown_tenant_total: 2,
            }),
        ),
        (
            "metrics-text",
            FleetResponse::MetricsText {
                text: "a 1\n".into(),
            },
        ),
        (
            "throttled",
            FleetResponse::Throttled {
                tenant: "alpha".into(),
            },
        ),
        (
            "error",
            FleetResponse::Error {
                message: AWKWARD.into(),
            },
        ),
    ];
    for (name, response) in &fleet_responses {
        cases.compact(format!("fleet-response/{name}"), response);
    }
    cases.pretty("results/obs-report", &obs_report());
    cases.0
}

/// `(name, text)` pairs of the checked-in fixture, in file order.
fn fixture() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in FIXTURE.lines() {
        match line.strip_prefix("== ") {
            Some(name) => out.push((name.to_string(), String::new())),
            None => {
                let (_, text) = out.last_mut().expect("fixture starts with a header");
                if !text.is_empty() {
                    text.push('\n');
                }
                text.push_str(line);
            }
        }
    }
    out
}

#[test]
fn encoding_matches_the_fixture() {
    let cases = all_cases();
    let fixture = fixture();
    let names: Vec<&str> = cases.iter().map(|c| c.name.as_str()).collect();
    let fixture_names: Vec<&str> = fixture.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, fixture_names, "case list differs from the fixture");
    for (case, (_, expected)) in cases.iter().zip(&fixture) {
        assert_eq!(&case.json, expected, "encoding of `{}` changed", case.name);
    }
}

#[test]
fn decoding_the_fixture_re_encodes_the_same_bytes() {
    let cases = all_cases();
    let fixture = fixture();
    assert_eq!(cases.len(), fixture.len());
    let mut checked = 0;
    for (case, (name, text)) in cases.iter().zip(&fixture) {
        if let Some(reencode) = case.reencode {
            assert_eq!(&reencode(text), text, "`{name}` does not round-trip");
            checked += 1;
        }
    }
    assert!(
        checked + 2 == fixture.len(),
        "only the encode-only cases skip"
    );
}
