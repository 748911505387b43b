//! E16: observability overhead — wall-clock cost of the two labeling
//! phases with instrumentation on vs off, across mesh sizes, fault
//! densities and engines.
//!
//! The observability layer promises a near-zero disabled path (one relaxed
//! atomic load per run) and a cheap enabled path (hoisted metric handles,
//! lock-free recording). This sweep quantifies both: per-cell best-of-trials
//! on/off timings from interleaved trials, and an aggregate overhead ratio
//! held at ≤ 5% (the acceptance bar `repro -- obs` enforces).

use super::Settings;
use ocp_analysis::Table;
use ocp_core::labeling::enablement::compute_enablement_with;
use ocp_core::labeling::safety::compute_safety_with;
use ocp_core::labeling::{default_round_cap, LabelEngine};
use ocp_core::prelude::*;
use ocp_distsim::Executor;
use ocp_mesh::Topology;
use ocp_workloads::uniform_faults;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// One measured (mesh size, fault density, engine) cell.
#[derive(Clone, Debug, Serialize)]
pub struct ObsRow {
    /// Mesh side length (the machine is `side x side`).
    pub side: u32,
    /// Fraction of nodes faulty.
    pub density: f64,
    /// Engine label.
    pub engine: String,
    /// Best wall time of both phases with observability off, ms.
    pub off_ms: f64,
    /// Best wall time of both phases with observability on, ms.
    pub on_ms: f64,
    /// Per-cell overhead, percent ((on - off) / off).
    pub overhead_pct: f64,
}

/// Everything E16 produces (`results/obs.json`).
#[derive(Clone, Debug, Serialize)]
pub struct ObsReport {
    /// Per-cell on/off best-of-trials timings.
    pub rows: Vec<ObsRow>,
    /// Aggregate overhead across all cells, percent: `(Σon - Σoff) / Σoff`
    /// over the best-of-trials timings. The acceptance bar is ≤ 5.
    pub aggregate_overhead_pct: f64,
    /// Metric families the instrumented runs populated in the global
    /// registry (evidence the "on" passes actually recorded).
    pub metric_families: usize,
    /// Spans the instrumented runs appended to the global trace ring.
    pub spans_recorded: usize,
}

/// The engines; rows are named by [`LabelEngine::label`].
const ENGINES: [LabelEngine; 3] = [
    LabelEngine::Lockstep(Executor::Sequential),
    LabelEngine::Lockstep(Executor::Frontier),
    LabelEngine::Bitboard,
];

fn sides(settings: &Settings) -> Vec<u32> {
    if settings.side < 100 {
        vec![48, 96] // quick / CI shape
    } else {
        vec![128, 256, 512]
    }
}

/// Best-of-trials: the minimum approximates the noise-free cost, which is
/// what an overhead ratio should compare (scheduler hiccups only ever add
/// time, so a single preempted trial would otherwise dominate the cell).
fn best_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One timed cold two-phase run.
fn labeling_ms(map: &FaultMap, engine: LabelEngine, cap: u32) -> f64 {
    let start = Instant::now();
    let safety = compute_safety_with(map, SafetyRule::BothDimensions, engine, cap);
    let enable = compute_enablement_with(map, &safety.grid, engine, cap);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    assert!(safety.trace.converged && enable.trace.converged);
    elapsed
}

/// Runs the overhead sweep: mesh size x fault density x engine, with
/// observability toggled per trial (interleaved, so drift in machine load
/// hits both arms equally).
pub fn run(settings: &Settings) -> ObsReport {
    let was_enabled = ocp_obs::enabled();
    let densities = [0.001f64, 0.01];
    let trials = settings.trials.clamp(3, 5) as usize;
    let mut rows = Vec::new();
    let spans_before = ocp_obs::tracer().snapshot().len();

    for &side in &sides(settings) {
        let topology = Topology::mesh(side, side);
        let cap = default_round_cap(topology);
        for &density in &densities {
            let f = ((topology.len() as f64) * density).round().max(1.0) as usize;
            let maps: Vec<FaultMap> = (0..trials)
                .map(|trial| {
                    let seed = settings.seed ^ 0xE16 ^ ((side as u64) << 32) ^ trial as u64;
                    let mut rng = SmallRng::seed_from_u64(seed);
                    FaultMap::new(topology, uniform_faults(topology, f, &mut rng))
                })
                .collect();

            for engine in ENGINES {
                // Untimed warm-up: pays the one-time cost of metric-family
                // creation and first-touch caches outside the measurement.
                ocp_obs::set_enabled(true);
                labeling_ms(&maps[0], engine, cap);
                let mut off_samples = Vec::with_capacity(trials);
                let mut on_samples = Vec::with_capacity(trials);
                for map in &maps {
                    ocp_obs::set_enabled(false);
                    off_samples.push(labeling_ms(map, engine, cap));
                    ocp_obs::set_enabled(true);
                    on_samples.push(labeling_ms(map, engine, cap));
                }
                let off_ms = best_of(&off_samples);
                let on_ms = best_of(&on_samples);
                rows.push(ObsRow {
                    side,
                    density,
                    engine: engine.label().to_string(),
                    off_ms,
                    on_ms,
                    overhead_pct: (on_ms - off_ms) / off_ms * 100.0,
                });
            }
        }
    }
    ocp_obs::set_enabled(was_enabled);

    let off_total: f64 = rows.iter().map(|r| r.off_ms).sum();
    let on_total: f64 = rows.iter().map(|r| r.on_ms).sum();
    ObsReport {
        aggregate_overhead_pct: (on_total - off_total) / off_total * 100.0,
        metric_families: ocp_obs::global().snapshot().families.len(),
        spans_recorded: ocp_obs::tracer()
            .snapshot()
            .len()
            .saturating_sub(spans_before),
        rows,
    }
}

/// Renders the per-cell overhead table.
pub fn table(report: &ObsReport) -> Table {
    let mut t = Table::new(["side", "density", "engine", "off ms", "on ms", "overhead"]);
    for row in &report.rows {
        t.push_row([
            format!("{}", row.side),
            format!("{:.3}", row.density),
            row.engine.clone(),
            format!("{:.3}", row.off_ms),
            format!("{:.3}", row.on_ms),
            format!("{:+.2}%", row.overhead_pct),
        ]);
    }
    t.push_row([
        "all".into(),
        "-".into(),
        "aggregate".into(),
        "-".into(),
        "-".into(),
        format!("{:+.2}%", report.aggregate_overhead_pct),
    ]);
    t
}

/// What the `obs-smoke` CI gate observed.
#[derive(Clone, Debug, Serialize)]
pub struct ObsSmokeReport {
    /// Bytes of the Prometheus page scraped over TCP.
    pub scrape_bytes: usize,
    /// Metric families in the typed report's registry snapshot.
    pub registry_families: usize,
    /// Spans in the typed report's trace dump.
    pub spans: usize,
    /// Epochs the service had published when scraped.
    pub epochs_published: u64,
}

/// End-to-end smoke of the three exposure surfaces: start a real service,
/// drive it over TCP, then scrape `Request::MetricsText` (Prometheus text)
/// and `Request::ObsReport` (typed superset) and check both tell the truth.
pub fn obs_smoke(seed: u64) -> ObsSmokeReport {
    use ocp_mesh::Coord;
    use ocp_serve::{Client, MeshService, Request, Response, ServeConfig, TcpServer};
    use std::time::Duration;

    let was_enabled = ocp_obs::enabled();
    ocp_obs::set_enabled(true);
    let side = 16;
    let service = MeshService::start(
        Topology::mesh(side, side),
        [Coord::new(4, 4)],
        ServeConfig::default(),
    )
    .expect("service starts");
    let server = TcpServer::start(&service, "127.0.0.1:0").expect("tcp server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");

    // Generate traffic on every instrumented surface: reads, a fault
    // injection (publishes an epoch through the writer), and a repair.
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..32 {
        let src = Coord::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32));
        let dst = Coord::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32));
        match client.request(&Request::RouteLen { src, dst }) {
            Ok(Response::RouteLen(_)) => {}
            other => panic!("unexpected route_len response: {other:?}"),
        }
    }
    match client.request(&Request::InjectFaults {
        nodes: vec![Coord::new(8, 8), Coord::new(9, 9)],
    }) {
        Ok(Response::Injected(ack)) => assert_eq!(ack.rejected, 0),
        other => panic!("unexpected inject response: {other:?}"),
    }
    assert!(service.quiesce(Duration::from_secs(30)), "writer drained");

    // Surface 1: the Prometheus text page over the wire.
    let page = match client.request(&Request::MetricsText) {
        Ok(Response::MetricsText { text }) => text,
        other => panic!("unexpected metrics response: {other:?}"),
    };
    for needle in [
        "# TYPE ocp_serve_epoch gauge",
        "ocp_serve_requests_total{endpoint=\"route_len\"} 32",
        "ocp_serve_epochs_published_total 1",
        "ocp_serve_publish_lag_ns_count 1",
        "ocp_labeling_runs_total", // global registry: labeling phases
        "phase=\"safety-warm\"",   // the writer relabeled via the warm path
    ] {
        assert!(page.contains(needle), "scrape missing {needle:?}:\n{page}");
    }

    // Surface 2: the typed stats-superset report.
    let report = match client.request(&Request::ObsReport) {
        Ok(Response::Obs(report)) => *report,
        other => panic!("unexpected obs response: {other:?}"),
    };
    assert_eq!(report.stats.epochs_published, 1);
    assert_eq!(report.stats.route_len.requests, 32);
    assert!(
        report.registry.family("ocp_labeling_runs_total").is_some(),
        "typed registry snapshot misses labeling counters"
    );

    // Surface 3: the span trace, dumped as JSON like a repro experiment
    // would persist it.
    assert!(
        report
            .spans
            .iter()
            .any(|s| s.name == "labeling/safety-warm"),
        "no warm relabel span after an epoch publish: {:?}",
        report.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
    let dump = ocp_obs::tracer().dump_json();
    assert!(
        dump.contains("labeling/safety-warm"),
        "JSON dump incomplete"
    );

    drop(client);
    server.shutdown();
    let stats = service.shutdown();
    ocp_obs::set_enabled(was_enabled);
    ObsSmokeReport {
        scrape_bytes: page.len(),
        registry_families: report.registry.families.len(),
        spans: report.spans.len(),
        epochs_published: stats.epochs_published,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_complete_grid_and_real_telemetry() {
        let settings = Settings {
            trials: 3,
            ..Settings::quick()
        };
        let report = run(&settings);
        let expected = sides(&settings).len() * 2 * ENGINES.len();
        assert_eq!(report.rows.len(), expected);
        for row in &report.rows {
            assert!(row.off_ms > 0.0 && row.on_ms > 0.0, "{row:?}");
            assert!(row.overhead_pct.is_finite(), "{row:?}");
        }
        // The instrumented arm populated the global registry and tracer.
        assert!(report.metric_families > 0, "no metric families recorded");
        assert!(report.spans_recorded > 0, "no spans recorded");
    }
}
