//! Metrics-oracle suite: the observability layer must report *exactly* the
//! numbers the deterministic `RunTrace` ground truth implies — counter
//! drift would make every dashboard built on it a lie.
//!
//! For seeded runs on every labeling engine, mesh and torus, cold and
//! warm-start, the exported counters are checked against three independent
//! sources of truth:
//!
//! * **rounds** — `changes_per_round.len()` of the trace;
//! * **flips** — the trace's change total AND the grid diff against the
//!   protocol's initial states (the protocols are monotone, so every cell
//!   flips at most once);
//! * **messages** — the trace AND the closed form
//!   `rounds × Σ real_degree(participant)` (participants are the nonfaulty
//!   nodes; ghost links carry nothing).
//!
//! The serving layer gets the same treatment: the publish counters on the
//! Prometheus page are pinned to the epoch audit log, the one source of
//! truth for what was actually published.

use ocp_core::labeling::enablement::compute_enablement_with;
use ocp_core::labeling::safety::compute_safety_with;
use ocp_core::maintenance::try_relabel_after_faults;
use ocp_core::prelude::*;
use ocp_distsim::Executor;
use ocp_mesh::{Coord, Topology};
use ocp_obs::RegistrySnapshot;
use std::sync::Mutex;

/// The global registry is process-wide; serialize the oracle tests so each
/// sees only its own deltas.
static ORACLE_LOCK: Mutex<()> = Mutex::new(());

fn c(x: i32, y: i32) -> Coord {
    Coord::new(x, y)
}

fn engines() -> Vec<LabelEngine> {
    vec![
        LabelEngine::Lockstep(Executor::Sequential),
        LabelEngine::Lockstep(Executor::Frontier),
        LabelEngine::Bitboard,
    ]
}

fn topologies() -> Vec<Topology> {
    vec![Topology::mesh(16, 16), Topology::torus(16, 16)]
}

/// A fault pattern with clustered faults (so both phases do real work: an
/// unsafe halo forms and part of it re-enables) plus a loner.
fn seeded_faults() -> Vec<Coord> {
    vec![
        c(3, 3),
        c(4, 4),
        c(5, 3),
        c(3, 5),
        c(11, 11),
        c(12, 12),
        c(1, 13),
    ]
}

/// Status messages per exchange round: every nonfaulty node sends its
/// state over each real link (`Topology::real_degree`).
fn messages_per_round(map: &FaultMap) -> u64 {
    let t = map.topology();
    t.coords()
        .filter(|&n| !map.is_faulty(n))
        .map(|n| u64::from(t.real_degree(n)))
        .sum()
}

fn counter_delta(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> u64 {
    after.counter(name, labels) - before.counter(name, labels)
}

/// Asserts every `ocp_labeling_*` counter delta for one (engine, phase)
/// series against its trace and closed-form ground truth.
#[allow(clippy::too_many_arguments)]
fn assert_phase_oracle(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    engine_label: &str,
    phase: &str,
    trace: &ocp_distsim::RunTrace,
    grid_flips: u64,
    closed_form_messages: Option<u64>,
    context: &str,
) {
    let labels: &[(&str, &str)] = &[("engine", engine_label), ("phase", phase)];
    let runs = counter_delta(before, after, "ocp_labeling_runs_total", labels);
    let rounds = counter_delta(before, after, "ocp_labeling_rounds_total", labels);
    let flips = counter_delta(before, after, "ocp_labeling_flips_total", labels);
    let messages = counter_delta(before, after, "ocp_labeling_messages_total", labels);
    let unconverged = counter_delta(before, after, "ocp_labeling_unconverged_total", labels);

    assert_eq!(runs, 1, "{context}: one run recorded");
    assert_eq!(
        rounds,
        u64::from(trace.rounds_executed()),
        "{context}: rounds counter == changes_per_round.len()"
    );
    assert_eq!(
        flips,
        trace.total_changes(),
        "{context}: flips counter == trace change total"
    );
    assert_eq!(flips, grid_flips, "{context}: flips counter == grid diff");
    assert_eq!(
        messages, trace.messages_sent,
        "{context}: messages counter == trace"
    );
    if let Some(expected) = closed_form_messages {
        assert_eq!(
            messages, expected,
            "{context}: messages counter == rounds × Σ real_degree"
        );
    }
    assert_eq!(unconverged, 0, "{context}: converged run");

    let duration = after
        .histogram("ocp_labeling_phase_duration_ns", labels)
        .expect("phase duration histogram exists");
    let duration_before = before
        .histogram("ocp_labeling_phase_duration_ns", labels)
        .map(|h| h.count)
        .unwrap_or(0);
    assert_eq!(
        duration.count - duration_before,
        1,
        "{context}: one duration sample"
    );
}

#[test]
fn cold_runs_export_exact_counters_on_every_engine_and_topology() {
    let _guard = ORACLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ocp_obs::set_enabled(true);
    for topology in topologies() {
        for engine in engines() {
            let context = format!("{topology:?}/{}", engine.label());
            let map = FaultMap::new(topology, seeded_faults());
            let per_round = messages_per_round(&map);

            let before = ocp_obs::global().snapshot();
            let safety = compute_safety_with(&map, SafetyRule::BothDimensions, engine, 400);
            let enable = compute_enablement_with(&map, &safety.grid, engine, 400);
            let after = ocp_obs::global().snapshot();

            // Grid-diff ground truth. Phase 1: nonfaulty cells start Safe,
            // so each nonfaulty Unsafe cell is one flip. Phase 2: unsafe
            // nonfaulty cells start Disabled, so each of them that ended
            // Enabled is one flip.
            let safety_flips = safety
                .grid
                .iter()
                .filter(|&(n, &s)| s == SafetyState::Unsafe && !map.is_faulty(n))
                .count() as u64;
            let enable_flips = enable
                .grid
                .iter()
                .filter(|&(n, &a)| {
                    a == ActivationState::Enabled
                        && *safety.grid.get(n) == SafetyState::Unsafe
                        && !map.is_faulty(n)
                })
                .count() as u64;

            assert!(
                safety.trace.converged && enable.trace.converged,
                "{context}"
            );
            assert_phase_oracle(
                &before,
                &after,
                engine.label(),
                "safety",
                &safety.trace,
                safety_flips,
                Some(per_round * u64::from(safety.trace.rounds_executed())),
                &format!("{context}/safety"),
            );
            assert_phase_oracle(
                &before,
                &after,
                engine.label(),
                "enablement",
                &enable.trace,
                enable_flips,
                Some(per_round * u64::from(enable.trace.rounds_executed())),
                &format!("{context}/enablement"),
            );
        }
    }
}

#[test]
fn warm_start_runs_export_exact_counters_on_every_engine() {
    let _guard = ORACLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ocp_obs::set_enabled(true);
    for engine in engines() {
        let context = format!("warm/{}", engine.label());
        let config = PipelineConfig {
            engine,
            ..PipelineConfig::default()
        };
        let map = FaultMap::new(Topology::mesh(16, 16), seeded_faults());
        let cold = try_run_pipeline(&map, &config).expect("cold run converges");

        let before = ocp_obs::global().snapshot();
        // A fault landing next to the existing cluster grows its block; the
        // warm restart relabels from the previous fixpoint.
        let new_faults = [c(4, 2)];
        let (updated_map, warm) = try_relabel_after_faults(&map, &new_faults, &cold, &config)
            .expect("warm run converges");
        let after = ocp_obs::global().snapshot();

        // Warm phase-1 flips are a diff against the PREVIOUS fixpoint, not
        // the protocol initial state: newly-unsafe nonfaulty cells only.
        let warm_flips = warm
            .outcome
            .safety
            .iter()
            .filter(|&(n, &s)| {
                s == SafetyState::Unsafe
                    && *cold.safety.get(n) == SafetyState::Safe
                    && !updated_map.is_faulty(n)
            })
            .count() as u64;
        let enable_flips = warm
            .outcome
            .activation
            .iter()
            .filter(|&(n, &a)| {
                a == ActivationState::Enabled
                    && *warm.outcome.safety.get(n) == SafetyState::Unsafe
                    && !updated_map.is_faulty(n)
            })
            .count() as u64;

        assert_phase_oracle(
            &before,
            &after,
            engine.label(),
            "safety-warm",
            &warm.incremental_safety_trace,
            warm_flips,
            None, // warm runs restart from a frontier; no per-round closed form
            &format!("{context}/safety-warm"),
        );
        assert_phase_oracle(
            &before,
            &after,
            engine.label(),
            "enablement",
            &warm.outcome.enablement_trace,
            enable_flips,
            Some(
                messages_per_round(&updated_map)
                    * u64::from(warm.outcome.enablement_trace.rounds_executed()),
            ),
            &format!("{context}/enablement"),
        );
        // The warm path must not masquerade as a full pipeline run.
        let engine_label = engine.label();
        let pipeline_labels: &[(&str, &str)] = &[("engine", engine_label)];
        assert_eq!(
            counter_delta(&before, &after, "ocp_pipeline_runs_total", pipeline_labels),
            0,
            "{context}: warm relabel is not a pipeline run"
        );
    }
}

#[test]
fn pipeline_counters_and_spans_match_the_outcome() {
    let _guard = ORACLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ocp_obs::set_enabled(true);
    let engine = LabelEngine::Lockstep(Executor::Sequential);
    let config = PipelineConfig {
        engine,
        ..PipelineConfig::default()
    };
    let map = FaultMap::new(Topology::mesh(16, 16), seeded_faults());

    let before = ocp_obs::global().snapshot();
    ocp_obs::tracer().clear();
    let out = run_pipeline(&map, &config);
    let after = ocp_obs::global().snapshot();

    let engine_label = engine.label();
    let labels: &[(&str, &str)] = &[("engine", engine_label)];
    assert_eq!(
        counter_delta(&before, &after, "ocp_pipeline_runs_total", labels),
        1
    );
    // The pipeline's phase counters are the same series the direct
    // compute_*_with calls feed; one pipeline run adds exactly one run to
    // each phase.
    for phase in ["safety", "enablement"] {
        let phase_labels: &[(&str, &str)] = &[("engine", engine_label), ("phase", phase)];
        assert_eq!(
            counter_delta(&before, &after, "ocp_labeling_runs_total", phase_labels),
            1,
            "{phase}"
        );
    }

    // Span trace: both phases and the pipeline envelope, with truthful
    // field values.
    let spans = ocp_obs::tracer().snapshot();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"labeling/safety"), "{names:?}");
    assert!(names.contains(&"labeling/enablement"), "{names:?}");
    assert!(names.contains(&"pipeline"), "{names:?}");
    let safety_span = spans.iter().find(|s| s.name == "labeling/safety").unwrap();
    let field = |k: &str| {
        safety_span
            .fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    assert_eq!(
        field("rounds"),
        out.safety_trace.rounds_executed().to_string()
    );
    assert_eq!(field("flips"), out.safety_trace.total_changes().to_string());
    assert_eq!(field("converged"), "true");
}

#[test]
fn disabled_observability_records_nothing() {
    let _guard = ORACLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ocp_obs::set_enabled(false);
    let map = FaultMap::new(Topology::mesh(16, 16), seeded_faults());
    let before = ocp_obs::global().snapshot();
    let out = run_pipeline(&map, &PipelineConfig::default());
    assert!(out.safety_trace.converged);
    let after = ocp_obs::global().snapshot();
    let total = |snap: &RegistrySnapshot| -> u64 {
        snap.families
            .iter()
            .flat_map(|f| f.series.iter())
            .map(|s| match &s.value {
                ocp_obs::MetricValue::Counter(v) => *v,
                ocp_obs::MetricValue::Gauge(v) => v.unsigned_abs(),
                ocp_obs::MetricValue::Histogram(h) => h.count,
            })
            .sum()
    };
    assert_eq!(
        total(&before),
        total(&after),
        "disabled path must not touch the registry"
    );
    ocp_obs::set_enabled(true);
}

/// Reads one counter sample off a Prometheus exposition page.
fn scrape_counter(page: &str, series: &str) -> u64 {
    page.lines()
        .find_map(|line| line.strip_prefix(series))
        .unwrap_or_else(|| panic!("series {series:?} missing from scrape"))
        .trim()
        .parse()
        .expect("counter value parses")
}

#[test]
fn serve_publish_counters_match_the_epoch_audit_log() {
    use ocp_serve::{CertChaos, MeshService, ServeConfig};
    use std::time::Duration;
    // The service's writer thread records labeling counters and spans
    // into the same global registry the other oracle tests diff; the
    // guard outlives the service, whose drop joins the writer.
    let _guard = ORACLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Every third batch is chaos-rejected at the certificate gate, so the
    // scrape page has something in every `result` bucket to account for.
    let service = MeshService::start(
        Topology::mesh(12, 12),
        [c(2, 2)],
        ServeConfig {
            batch_max: 1,
            cert_chaos: CertChaos::RejectBatchEveryNth(3),
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    let handle = service.handle();
    let injected: u64 = 9;
    for i in 0..injected {
        let node = c(5 + (i % 3) as i32, 5 + (i / 3) as i32);
        assert_eq!(handle.inject_faults(&[node]).accepted, 1);
        assert!(service.quiesce(Duration::from_secs(30)));
    }

    let log = service.epoch_log();
    let stats = handle.stats();
    let page = handle.metrics_text();

    // The audit log is the ground truth for publishes; the counters must
    // agree with it exactly, and the reject bucket with its complement.
    let ok = scrape_counter(&page, "ocp_serve_epoch_publish_total{result=\"ok\"} ");
    let rejected = scrape_counter(
        &page,
        "ocp_serve_epoch_publish_total{result=\"cert_reject\"} ",
    );
    let overloaded = scrape_counter(
        &page,
        "ocp_serve_epoch_publish_total{result=\"overloaded\"} ",
    );
    assert_eq!(ok, log.len() as u64, "ok bucket == audit log length");
    assert_eq!(ok, stats.epochs_published);
    assert_eq!(ok + rejected, injected, "every batch lands in one bucket");
    assert_eq!(rejected, stats.publishes_cert_rejected);
    assert!(rejected >= 1, "chaos must have rejected something");
    assert_eq!(overloaded, 0, "no admission pressure in this run");
    // RejectBatchEveryNth fails both the warm check and the cold retry.
    let cert_failures = scrape_counter(&page, "ocp_serve_cert_failures_total ");
    assert_eq!(cert_failures, 2 * rejected);
    // And the log itself is gapless: publish number k is epoch k.
    for (i, record) in log.iter().enumerate() {
        assert_eq!(record.epoch, (i + 1) as u64);
    }
    service.shutdown();
}

#[test]
fn engines_agree_on_every_oracle_quantity() {
    // The engine-equivalence guarantee extends to telemetry: identical
    // traces mean identical exported counters for the same workload.
    let _guard = ORACLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ocp_obs::set_enabled(true);
    for topology in topologies() {
        let map = FaultMap::new(topology, seeded_faults());
        let mut exported: Vec<(u64, u64, u64)> = Vec::new();
        for engine in engines() {
            let before = ocp_obs::global().snapshot();
            let safety = compute_safety_with(&map, SafetyRule::BothDimensions, engine, 400);
            let enable = compute_enablement_with(&map, &safety.grid, engine, 400);
            assert!(safety.trace.converged && enable.trace.converged);
            let after = ocp_obs::global().snapshot();
            let engine_label = engine.label();
            let mut sums = (0u64, 0u64, 0u64);
            for phase in ["safety", "enablement"] {
                let labels: &[(&str, &str)] = &[("engine", engine_label), ("phase", phase)];
                sums.0 += counter_delta(&before, &after, "ocp_labeling_rounds_total", labels);
                sums.1 += counter_delta(&before, &after, "ocp_labeling_flips_total", labels);
                sums.2 += counter_delta(&before, &after, "ocp_labeling_messages_total", labels);
            }
            exported.push(sums);
        }
        assert!(
            exported.windows(2).all(|w| w[0] == w[1]),
            "{topology:?}: engines exported different totals: {exported:?}"
        );
    }
}
