//! Hooks from the labeling pipeline into the global `ocp-obs` registry.
//!
//! Each labeling phase records **exactly once per logical run**, at the
//! engine-dispatch boundary (`compute_*_with` / the maintenance warm
//! path) — never inside an engine, so no path double-counts. That
//! exactly-once discipline is what the metrics-oracle test suite pins: the
//! exported counter deltas must equal the `RunTrace` ground truth.
//!
//! All functions here are no-ops while [`ocp_obs::enabled`] is false; the
//! disabled cost is the one relaxed load inside [`PhaseTimer::start`].

use crate::labeling::LabelEngine;
use crate::pipeline::PipelineOutcome;
use ocp_distsim::RunTrace;
use std::time::Instant;

/// Captures a start time only when observability is on, so the disabled
/// path never calls the clock.
pub(crate) struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    /// Starts timing iff observability is enabled.
    pub fn start() -> Self {
        Self(ocp_obs::enabled().then(Instant::now))
    }
}

fn as_nanos(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Records one completed labeling phase run. `phase` is `safety`,
/// `safety-warm`, or `enablement`.
pub(crate) fn record_phase(
    phase: &'static str,
    engine: LabelEngine,
    trace: &RunTrace,
    timer: PhaseTimer,
) {
    let Some(start) = timer.0 else { return };
    let elapsed = start.elapsed();
    let engine_label = engine.label();
    let labels: &[(&str, &str)] = &[("engine", engine_label), ("phase", phase)];
    let reg = ocp_obs::global();
    reg.counter(
        "ocp_labeling_runs_total",
        "Labeling phase runs completed, by engine and phase.",
        labels,
    )
    .inc();
    reg.counter(
        "ocp_labeling_rounds_total",
        "Rounds executed (including the trailing quiet round), by engine and phase.",
        labels,
    )
    .add(u64::from(trace.rounds_executed()));
    reg.counter(
        "ocp_labeling_flips_total",
        "Node state flips summed over all rounds, by engine and phase.",
        labels,
    )
    .add(trace.total_changes());
    reg.counter(
        "ocp_labeling_messages_total",
        "Status messages charged by the paper's accounting (each participating node's real links, every round), by engine and phase.",
        labels,
    )
    .add(trace.messages_sent);
    if !trace.converged {
        reg.counter(
            "ocp_labeling_unconverged_total",
            "Phase runs that stopped at the round cap without a quiet round.",
            labels,
        )
        .inc();
    }
    reg.histogram(
        "ocp_labeling_phase_duration_ns",
        "Wall-clock duration of one labeling phase run, nanoseconds.",
        labels,
    )
    .record(as_nanos(elapsed));
    ocp_obs::tracer()
        .span_at(&format!("labeling/{phase}"), start)
        .field("engine", engine_label)
        .field("rounds", trace.rounds_executed())
        .field("flips", trace.total_changes())
        .field("converged", trace.converged)
        .finish();
}

/// Records one completed two-phase pipeline run.
pub(crate) fn record_pipeline(engine: LabelEngine, outcome: &PipelineOutcome, timer: PhaseTimer) {
    let Some(start) = timer.0 else { return };
    let engine_label = engine.label();
    let labels: &[(&str, &str)] = &[("engine", engine_label)];
    let reg = ocp_obs::global();
    reg.counter(
        "ocp_pipeline_runs_total",
        "Full two-phase pipeline runs completed, by engine.",
        labels,
    )
    .inc();
    reg.histogram(
        "ocp_pipeline_duration_ns",
        "Wall-clock duration of one full pipeline run, nanoseconds.",
        labels,
    )
    .record(as_nanos(start.elapsed()));
    ocp_obs::tracer()
        .span_at("pipeline", start)
        .field("engine", engine_label)
        .field("blocks", outcome.blocks.len())
        .field("regions", outcome.regions.len())
        .field("safety_rounds", outcome.safety_trace.rounds_executed())
        .field(
            "enablement_rounds",
            outcome.enablement_trace.rounds_executed(),
        )
        .finish();
}
