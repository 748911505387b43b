//! Service observability: lock-free per-endpoint counters and a
//! log-bucketed latency histogram with tail percentiles.
//!
//! Every recording path is a handful of relaxed atomic operations — query
//! threads never take a lock to report a latency, so the metrics layer
//! cannot serialize the reader hot path it is measuring. Percentiles are
//! approximate (bucket-resolution: powers of two in nanoseconds, read out
//! at the geometric bucket midpoint), which is the standard trade for a
//! fixed-size concurrent histogram.

use ocp_analysis::Percentiles;
use serde::{Deserialize, Serialize};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// The concurrent power-of-two-bucketed histogram this module introduced,
/// since promoted into [`ocp_obs`] so every crate can record into one; the
/// alias keeps the serve-local name (observations are nanoseconds here).
pub use ocp_obs::Histogram as LatencyHistogram;

/// Counters and latency for one query endpoint.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    /// Requests served (successes and errors).
    pub requests: AtomicU64,
    /// Requests that returned an error outcome. Error replies are counted
    /// here and kept **out** of the latency histogram, so fast-fail
    /// replies (e.g. `EndpointDisabled`) cannot drag the percentiles.
    pub errors: AtomicU64,
    /// Service-time histogram (nanoseconds), successful requests only.
    pub latency: LatencyHistogram,
}

impl EndpointMetrics {
    /// Records one successfully served request.
    pub fn record(&self, nanos: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latency.record(nanos);
    }

    /// Records one request that produced an error outcome: counted, but
    /// excluded from the latency histogram.
    pub fn record_error(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batch of `total` requests served in `total_nanos`, of
    /// which `errors` returned error outcomes. One amortized latency
    /// sample (the batch's mean per-query time) is recorded, which is the
    /// metrics-cost side of the batched read path.
    pub fn record_batch(&self, total: u64, errors: u64, total_nanos: u64) {
        if total == 0 {
            return;
        }
        self.requests.fetch_add(total, Ordering::Relaxed);
        self.errors.fetch_add(errors, Ordering::Relaxed);
        if errors < total {
            self.latency.record(total_nanos / total);
        }
    }

    /// Serializable view.
    pub fn report(&self) -> EndpointReport {
        EndpointReport {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            latency_ns: self.latency.percentiles(),
        }
    }
}

/// All live counters of a running service.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Route queries.
    pub route: EndpointMetrics,
    /// Hop-count queries.
    pub route_len: EndpointMetrics,
    /// k-disjoint route queries.
    pub route_disjoint: EndpointMetrics,
    /// Pairs-per-call histogram of the batched hop-count endpoint — how
    /// wide callers actually drive `route_len_batch`, and therefore how
    /// much lane-level parallelism the wide engine gets to use. One
    /// sample per batch call (empty batches included).
    pub batch_width: LatencyHistogram,
    /// Status queries.
    pub status: EndpointMetrics,
    /// Stats/epoch meta queries.
    pub meta_requests: AtomicU64,
    /// Fault/repair events admitted to the queue.
    pub events_accepted: AtomicU64,
    /// Events rejected by admission control (queue full).
    pub events_rejected: AtomicU64,
    /// Events applied to a published snapshot.
    pub events_applied: AtomicU64,
    /// Events discarded as invalid (already faulty, off-machine, …).
    pub events_discarded: AtomicU64,
    /// Snapshots published (excluding the initial one).
    pub epochs_published: AtomicU64,
    /// Event batches drained (one published epoch each, unless all events
    /// in the batch were invalid).
    pub batches: AtomicU64,
    /// Sum over read queries of `head_epoch - serving_epoch`.
    pub staleness_sum: AtomicU64,
    /// Largest single-query staleness observed, in epochs.
    pub staleness_max: AtomicU64,
    /// Read queries contributing to the staleness counters.
    pub staleness_samples: AtomicU64,
    /// Epoch publication lag: nanoseconds from the writer draining a batch
    /// to the rebuilt snapshot becoming visible to readers.
    pub epoch_publish_lag: LatencyHistogram,
    /// Certificate checks that failed at publish time (warm and cold
    /// attempts each count once). `CertMode::Warn` counts without
    /// refusing; `CertMode::Enforce` also refuses the publish.
    pub cert_failures: AtomicU64,
    /// Batches refused publication because even the cold-recompute
    /// certificate failed (`CertMode::Enforce` only). The epoch counter
    /// readers observe does **not** advance for these.
    pub publishes_cert_rejected: AtomicU64,
    /// Batches dropped for capacity-ish reasons off the certificate path:
    /// relabeling convergence failure or a WAL I/O error.
    pub publishes_overloaded: AtomicU64,
    /// WAL frame-append time (serialize + write), nanoseconds.
    pub wal_append_ns: LatencyHistogram,
    /// WAL fsync time, nanoseconds — the dominant durability cost.
    pub wal_fsync_ns: LatencyHistogram,
    /// Router/index build time of published snapshots, segment-table phase
    /// (line scans, key/hit arenas, next-blocked tables), nanoseconds (one
    /// sample per publish, warm and cold alike).
    pub index_build_segment_ns: LatencyHistogram,
    /// Build time, ring construction + per-ring index phase, nanoseconds.
    pub index_build_ring_ns: LatencyHistogram,
    /// Build time, packed ring-word phase, nanoseconds.
    pub index_build_wide_ns: LatencyHistogram,
    /// Build time, exit-directory phase, nanoseconds.
    pub index_build_exit_ns: LatencyHistogram,
    /// Whole router/index build wall clock, nanoseconds (≥ the sum of the
    /// phases; the remainder is region merge + grid assembly).
    pub index_build_total_ns: LatencyHistogram,
    /// Reuse ratio of the most recently published build (`f64` bits):
    /// fraction of rings, rows, and columns carried over from the
    /// previous epoch's tables. Zero for cold builds.
    pub index_reuse_ratio_bits: AtomicU64,
}

impl Metrics {
    /// Records how many epochs behind head a read query was served.
    pub fn record_staleness(&self, epochs_behind: u64) {
        self.staleness_sum
            .fetch_add(epochs_behind, Ordering::Relaxed);
        self.staleness_max
            .fetch_max(epochs_behind, Ordering::Relaxed);
        self.staleness_samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one published snapshot's router/index build breakdown.
    pub fn record_index_build(&self, b: &ocp_routing::BuildBreakdown) {
        self.index_build_segment_ns.record(b.segment_ns);
        self.index_build_ring_ns.record(b.ring_ns);
        self.index_build_wide_ns.record(b.wide_ns);
        self.index_build_exit_ns.record(b.exit_ns);
        self.index_build_total_ns.record(b.total_ns);
        self.index_reuse_ratio_bits
            .store(b.reuse_ratio().to_bits(), Ordering::Relaxed);
    }

    /// The latest published build's reuse ratio.
    pub fn index_reuse_ratio(&self) -> f64 {
        f64::from_bits(self.index_reuse_ratio_bits.load(Ordering::Relaxed))
    }
}

/// Serializable snapshot of one endpoint's counters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EndpointReport {
    /// Requests served (successes and errors).
    pub requests: u64,
    /// Requests that returned an error outcome (excluded from
    /// `latency_ns`).
    pub errors: u64,
    /// Service-time percentiles in nanoseconds, successful requests only.
    pub latency_ns: Percentiles,
}

/// Serializable snapshot of the whole service's counters — the payload of
/// the `Stats` endpoint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Head epoch when the report was taken.
    pub epoch: u64,
    /// Snapshots published since start (excluding the initial one).
    pub epochs_published: u64,
    /// Event batches coalesced and drained by the writer.
    pub batches: u64,
    /// Events admitted to the writer queue.
    pub events_accepted: u64,
    /// Events rejected by admission control.
    pub events_rejected: u64,
    /// Events applied to published snapshots.
    pub events_applied: u64,
    /// Events discarded as invalid.
    pub events_discarded: u64,
    /// Events currently waiting in the writer queue.
    pub queue_depth: usize,
    /// Capacity of the writer queue.
    pub queue_capacity: usize,
    /// Route endpoint counters.
    pub route: EndpointReport,
    /// Hop-count endpoint counters.
    pub route_len: EndpointReport,
    /// k-disjoint route endpoint counters.
    pub route_disjoint: EndpointReport,
    /// Batch-width percentiles of the batched hop-count endpoint
    /// (pairs per `route_len_batch` call; `n` counts batch calls).
    pub batch_width: Percentiles,
    /// Status endpoint counters.
    pub status: EndpointReport,
    /// Mean read staleness in epochs behind head.
    pub staleness_mean_epochs: f64,
    /// Worst read staleness in epochs behind head.
    pub staleness_max_epochs: u64,
    /// Epoch publication lag percentiles (drain → snapshot visible), in
    /// nanoseconds.
    pub publish_lag_ns: Percentiles,
    /// Publish-time certificate check failures (see
    /// [`Metrics::cert_failures`]).
    pub cert_failures: u64,
    /// Batches refused publication by the certificate gate.
    pub publishes_cert_rejected: u64,
    /// Batches dropped on convergence failure or WAL I/O error.
    pub publishes_overloaded: u64,
    /// WAL append-time percentiles, nanoseconds (all-zero when the service
    /// runs without a WAL).
    pub wal_append_ns: Percentiles,
    /// WAL fsync-time percentiles, nanoseconds.
    pub wal_fsync_ns: Percentiles,
    /// Router/index build-time percentiles per phase, nanoseconds, one
    /// sample per published snapshot (warm and cold): segment table, ring
    /// indexes, packed ring words, exit directory, and whole-build wall
    /// clock.
    pub index_build_segment_ns: Percentiles,
    /// Ring-phase build percentiles, nanoseconds.
    pub index_build_ring_ns: Percentiles,
    /// Packed-ring-word-phase build percentiles, nanoseconds.
    pub index_build_wide_ns: Percentiles,
    /// Exit-directory-phase build percentiles, nanoseconds.
    pub index_build_exit_ns: Percentiles,
    /// Whole-build wall-clock percentiles, nanoseconds.
    pub index_build_total_ns: Percentiles,
    /// Fraction of rings/rows/columns the most recently published build
    /// reused from the previous epoch (zero for cold builds).
    pub index_reuse_ratio: f64,
}

impl StatsReport {
    /// Total read queries served across route/route_len/route_disjoint/
    /// status.
    pub fn reads_served(&self) -> u64 {
        self.route.requests
            + self.route_len.requests
            + self.route_disjoint.requests
            + self.status.requests
    }
}

/// The `stats`-superset observability payload: service counters plus the
/// process-global metric registry and the most recent completed spans.
/// This is the typed twin of the Prometheus text page.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// The service's own counters (identical to the `Stats` reply).
    pub stats: StatsReport,
    /// Snapshot of every family in the global `ocp-obs` registry.
    pub registry: ocp_obs::RegistrySnapshot,
    /// Recent completed spans from the global trace ring, oldest first.
    pub spans: Vec<ocp_obs::SpanRecord>,
}

/// Writes one latency summary (quantiles + count) in the text format.
fn render_summary(out: &mut String, name: &str, labels: &str, p: &Percentiles) {
    for (q, v) in [
        ("0.5", p.p50),
        ("0.9", p.p90),
        ("0.95", p.p95),
        ("0.99", p.p99),
    ] {
        let sep = if labels.is_empty() { "" } else { "," };
        let _ = writeln!(out, "{name}{{{labels}{sep}quantile=\"{q}\"}} {v}");
    }
    let suffix = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    let _ = writeln!(out, "{name}_count{suffix} {}", p.n);
}

/// Renders the service's own counters as Prometheus text-format families
/// (`ocp_serve_*`). The full `/metrics` page the service exposes is this
/// plus [`ocp_obs::Registry::render_prometheus`] over the global registry.
pub fn prometheus_text(stats: &StatsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# HELP ocp_serve_epoch Current head epoch.");
    let _ = writeln!(out, "# TYPE ocp_serve_epoch gauge");
    let _ = writeln!(out, "ocp_serve_epoch {}", stats.epoch);

    let _ = writeln!(
        out,
        "# HELP ocp_serve_epochs_published_total Snapshots published since start."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_epochs_published_total counter");
    let _ = writeln!(
        out,
        "ocp_serve_epochs_published_total {}",
        stats.epochs_published
    );

    let _ = writeln!(
        out,
        "# HELP ocp_serve_batches_total Event batches drained by the writer."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_batches_total counter");
    let _ = writeln!(out, "ocp_serve_batches_total {}", stats.batches);

    let _ = writeln!(
        out,
        "# HELP ocp_serve_events_total Fault/repair events, by admission outcome."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_events_total counter");
    for (outcome, value) in [
        ("accepted", stats.events_accepted),
        ("rejected", stats.events_rejected),
        ("applied", stats.events_applied),
        ("discarded", stats.events_discarded),
    ] {
        let _ = writeln!(
            out,
            "ocp_serve_events_total{{outcome=\"{outcome}\"}} {value}"
        );
    }

    let _ = writeln!(
        out,
        "# HELP ocp_serve_queue_depth Events waiting in the writer queue."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_queue_depth gauge");
    let _ = writeln!(out, "ocp_serve_queue_depth {}", stats.queue_depth);
    let _ = writeln!(
        out,
        "# HELP ocp_serve_queue_capacity Capacity of the writer queue."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_queue_capacity gauge");
    let _ = writeln!(out, "ocp_serve_queue_capacity {}", stats.queue_capacity);

    let _ = writeln!(
        out,
        "# HELP ocp_serve_requests_total Read queries served, by endpoint."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_requests_total counter");
    let endpoints = [
        ("route", &stats.route),
        ("route_len", &stats.route_len),
        ("route_disjoint", &stats.route_disjoint),
        ("status", &stats.status),
    ];
    for (name, ep) in &endpoints {
        let _ = writeln!(
            out,
            "ocp_serve_requests_total{{endpoint=\"{name}\"}} {}",
            ep.requests
        );
    }

    let _ = writeln!(
        out,
        "# HELP ocp_serve_errors_total Read queries that returned an error outcome, by endpoint."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_errors_total counter");
    for (name, ep) in &endpoints {
        let _ = writeln!(
            out,
            "ocp_serve_errors_total{{endpoint=\"{name}\"}} {}",
            ep.errors
        );
    }

    let _ = writeln!(
        out,
        "# HELP ocp_serve_latency_ns Service-time quantiles per endpoint, nanoseconds."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_latency_ns summary");
    for (name, ep) in &endpoints {
        render_summary(
            &mut out,
            "ocp_serve_latency_ns",
            &format!("endpoint=\"{name}\""),
            &ep.latency_ns,
        );
    }

    let _ = writeln!(
        out,
        "# HELP ocp_serve_batch_width Pairs per route_len_batch call (count is batch calls)."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_batch_width summary");
    render_summary(&mut out, "ocp_serve_batch_width", "", &stats.batch_width);

    let _ = writeln!(
        out,
        "# HELP ocp_serve_staleness_epochs Read staleness in epochs behind head."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_staleness_epochs gauge");
    let _ = writeln!(
        out,
        "ocp_serve_staleness_epochs{{stat=\"mean\"}} {}",
        stats.staleness_mean_epochs
    );
    let _ = writeln!(
        out,
        "ocp_serve_staleness_epochs{{stat=\"max\"}} {}",
        stats.staleness_max_epochs
    );

    let _ = writeln!(
        out,
        "# HELP ocp_serve_publish_lag_ns Epoch publication lag quantiles (drain to visible), nanoseconds."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_publish_lag_ns summary");
    render_summary(
        &mut out,
        "ocp_serve_publish_lag_ns",
        "",
        &stats.publish_lag_ns,
    );

    let _ = writeln!(
        out,
        "# HELP ocp_serve_epoch_publish_total Epoch publish attempts, by result."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_epoch_publish_total counter");
    for (result, value) in [
        ("ok", stats.epochs_published),
        ("cert_reject", stats.publishes_cert_rejected),
        ("overloaded", stats.publishes_overloaded),
    ] {
        let _ = writeln!(
            out,
            "ocp_serve_epoch_publish_total{{result=\"{result}\"}} {value}"
        );
    }

    let _ = writeln!(
        out,
        "# HELP ocp_serve_cert_failures_total Publish-time certificate check failures."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_cert_failures_total counter");
    let _ = writeln!(out, "ocp_serve_cert_failures_total {}", stats.cert_failures);

    let _ = writeln!(
        out,
        "# HELP ocp_serve_wal_append_ns WAL frame append time quantiles, nanoseconds."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_wal_append_ns summary");
    render_summary(
        &mut out,
        "ocp_serve_wal_append_ns",
        "",
        &stats.wal_append_ns,
    );

    let _ = writeln!(
        out,
        "# HELP ocp_serve_wal_fsync_ns WAL fsync time quantiles, nanoseconds."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_wal_fsync_ns summary");
    render_summary(&mut out, "ocp_serve_wal_fsync_ns", "", &stats.wal_fsync_ns);

    let _ = writeln!(
        out,
        "# HELP ocp_serve_index_build_seconds Router/index build time per phase, seconds \
         (one sample per published snapshot): segment = line scans, key/hit arenas and \
         next-blocked tables; ring = rings and ring indexes; wide = packed ring words; \
         exit = exit directory."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_index_build_seconds summary");
    for (phase, p) in [
        ("segment", &stats.index_build_segment_ns),
        ("ring", &stats.index_build_ring_ns),
        ("wide", &stats.index_build_wide_ns),
        ("exit", &stats.index_build_exit_ns),
        ("total", &stats.index_build_total_ns),
    ] {
        // Histograms record nanoseconds; the exported unit is seconds.
        let scaled = Percentiles {
            n: p.n,
            p50: p.p50 / 1e9,
            p90: p.p90 / 1e9,
            p95: p.p95 / 1e9,
            p99: p.p99 / 1e9,
            max: p.max / 1e9,
        };
        render_summary(
            &mut out,
            "ocp_serve_index_build_seconds",
            &format!("phase=\"{phase}\""),
            &scaled,
        );
    }

    let _ = writeln!(
        out,
        "# HELP ocp_serve_index_reuse_ratio Fraction of rings/rows/columns the latest \
         published build reused from the previous epoch."
    );
    let _ = writeln!(out, "# TYPE ocp_serve_index_reuse_ratio gauge");
    let _ = writeln!(
        out,
        "ocp_serve_index_reuse_ratio {}",
        stats.index_reuse_ratio
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        let p = h.percentiles();
        assert_eq!((p.n, p.p50, p.max), (0, 0.0, 0.0));
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = LatencyHistogram::default();
        // 1000ns lands in bucket 9 ([512, 1024)); mid = 768.
        h.record(1000);
        let p = h.percentiles();
        assert_eq!(p.n, 1);
        assert_eq!(p.p50, 768.0);
        assert_eq!(p.max, 768.0);
        // Zero is clamped into the lowest bucket instead of panicking.
        h.record(0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_percentiles_track_the_tail() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64,128), mid 96
        }
        h.record(1 << 20); // ~1ms outlier
        let p = h.percentiles();
        assert_eq!(p.p50, 96.0);
        assert_eq!(p.p99, 96.0);
        assert!(p.max > 1_000_000.0);
    }

    #[test]
    fn histogram_is_usable_from_many_threads() {
        let h = std::sync::Arc::new(LatencyHistogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(50 + t * 10 + i % 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn errors_are_counted_but_kept_out_of_latency() {
        let ep = EndpointMetrics::default();
        ep.record(1000);
        ep.record_error();
        ep.record_error();
        let report = ep.report();
        assert_eq!(report.requests, 3);
        assert_eq!(report.errors, 2);
        assert_eq!(
            report.latency_ns.n, 1,
            "error replies must not enter the histogram"
        );
    }

    #[test]
    fn batch_recording_amortizes_one_latency_sample() {
        let ep = EndpointMetrics::default();
        ep.record_batch(64, 2, 64_000);
        let report = ep.report();
        assert_eq!(report.requests, 64);
        assert_eq!(report.errors, 2);
        assert_eq!(report.latency_ns.n, 1, "one mean sample per batch");
        ep.record_batch(0, 0, 0);
        assert_eq!(ep.report().requests, 64, "empty batches record nothing");
        // An all-error batch contributes counters but no latency sample.
        ep.record_batch(4, 4, 400);
        let report = ep.report();
        assert_eq!((report.requests, report.errors), (68, 6));
        assert_eq!(report.latency_ns.n, 1);
    }

    #[test]
    fn staleness_counters_accumulate() {
        let m = Metrics::default();
        m.record_staleness(0);
        m.record_staleness(3);
        m.record_staleness(1);
        assert_eq!(m.staleness_sum.load(Ordering::Relaxed), 4);
        assert_eq!(m.staleness_max.load(Ordering::Relaxed), 3);
        assert_eq!(m.staleness_samples.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn stats_report_round_trips_json() {
        let r = StatsReport {
            epoch: 5,
            epochs_published: 5,
            batches: 4,
            events_accepted: 10,
            events_rejected: 2,
            events_applied: 9,
            events_discarded: 1,
            queue_depth: 0,
            queue_capacity: 128,
            route: EndpointReport {
                requests: 42,
                errors: 3,
                latency_ns: Percentiles::of(&[100.0, 200.0]),
            },
            route_len: EndpointReport {
                requests: 0,
                errors: 0,
                latency_ns: Percentiles::of(&[]),
            },
            route_disjoint: EndpointReport {
                requests: 5,
                errors: 1,
                latency_ns: Percentiles::of(&[400.0]),
            },
            batch_width: Percentiles::of(&[8.0, 64.0]),
            status: EndpointReport {
                requests: 7,
                errors: 0,
                latency_ns: Percentiles::of(&[50.0]),
            },
            staleness_mean_epochs: 0.25,
            staleness_max_epochs: 2,
            publish_lag_ns: Percentiles::of(&[1000.0, 2000.0]),
            cert_failures: 1,
            publishes_cert_rejected: 1,
            publishes_overloaded: 0,
            wal_append_ns: Percentiles::of(&[300.0]),
            wal_fsync_ns: Percentiles::of(&[9000.0]),
            index_build_segment_ns: Percentiles::of(&[10_000.0]),
            index_build_ring_ns: Percentiles::of(&[20_000.0]),
            index_build_wide_ns: Percentiles::of(&[30_000.0]),
            index_build_exit_ns: Percentiles::of(&[40_000.0]),
            index_build_total_ns: Percentiles::of(&[120_000.0]),
            index_reuse_ratio: 0.75,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert_eq!(r.reads_served(), 54);
    }

    #[test]
    fn index_build_recording_tracks_phases_and_reuse() {
        let m = Metrics::default();
        assert_eq!(m.index_reuse_ratio(), 0.0);
        let b = ocp_routing::BuildBreakdown {
            segment_ns: 1_000,
            ring_ns: 2_000,
            wide_ns: 3_000,
            exit_ns: 4_000,
            total_ns: 11_000,
            rings_total: 4,
            rings_reused: 3,
            rows_total: 16,
            rows_reused: 12,
            cols_total: 16,
            cols_reused: 12,
            incremental: true,
            threads: 1,
        };
        m.record_index_build(&b);
        assert_eq!(m.index_build_segment_ns.count(), 1);
        assert_eq!(m.index_build_total_ns.count(), 1);
        assert_eq!(m.index_reuse_ratio(), b.reuse_ratio());
        assert!(m.index_reuse_ratio() > 0.7);
    }

    #[test]
    fn prometheus_text_renders_every_family() {
        let m = Metrics::default();
        m.route.record(1000);
        m.route.record_error();
        m.epoch_publish_lag.record(5000);
        m.wal_append_ns.record(300);
        m.record_index_build(&ocp_routing::BuildBreakdown {
            segment_ns: 1_000,
            ring_ns: 2_000,
            wide_ns: 3_000,
            exit_ns: 4_000,
            total_ns: 11_000,
            rings_total: 2,
            rings_reused: 1,
            rows_total: 8,
            rows_reused: 4,
            cols_total: 8,
            cols_reused: 4,
            incremental: true,
            threads: 1,
        });
        let r = StatsReport {
            epoch: 2,
            epochs_published: 2,
            batches: 2,
            events_accepted: 3,
            events_rejected: 0,
            events_applied: 2,
            events_discarded: 1,
            queue_depth: 1,
            queue_capacity: 64,
            route: m.route.report(),
            route_len: m.route_len.report(),
            route_disjoint: m.route_disjoint.report(),
            batch_width: m.batch_width.percentiles(),
            status: m.status.report(),
            staleness_mean_epochs: 0.5,
            staleness_max_epochs: 1,
            publish_lag_ns: m.epoch_publish_lag.percentiles(),
            cert_failures: 3,
            publishes_cert_rejected: 1,
            publishes_overloaded: 1,
            wal_append_ns: m.wal_append_ns.percentiles(),
            wal_fsync_ns: m.wal_fsync_ns.percentiles(),
            index_build_segment_ns: m.index_build_segment_ns.percentiles(),
            index_build_ring_ns: m.index_build_ring_ns.percentiles(),
            index_build_wide_ns: m.index_build_wide_ns.percentiles(),
            index_build_exit_ns: m.index_build_exit_ns.percentiles(),
            index_build_total_ns: m.index_build_total_ns.percentiles(),
            index_reuse_ratio: m.index_reuse_ratio(),
        };
        let text = prometheus_text(&r);
        for needle in [
            "# TYPE ocp_serve_epoch gauge",
            "ocp_serve_epoch 2",
            "ocp_serve_events_total{outcome=\"applied\"} 2",
            "ocp_serve_requests_total{endpoint=\"route\"} 2",
            "# TYPE ocp_serve_errors_total counter",
            "ocp_serve_errors_total{endpoint=\"route\"} 1",
            "ocp_serve_errors_total{endpoint=\"route_len\"} 0",
            "ocp_serve_requests_total{endpoint=\"route_disjoint\"} 0",
            "ocp_serve_latency_ns{endpoint=\"route\",quantile=\"0.5\"}",
            "ocp_serve_latency_ns_count{endpoint=\"route\"} 1",
            "# TYPE ocp_serve_publish_lag_ns summary",
            "ocp_serve_publish_lag_ns_count 1",
            "# TYPE ocp_serve_batch_width summary",
            "ocp_serve_batch_width_count 0",
            "ocp_serve_staleness_epochs{stat=\"max\"} 1",
            "# TYPE ocp_serve_epoch_publish_total counter",
            "ocp_serve_epoch_publish_total{result=\"ok\"} 2",
            "ocp_serve_epoch_publish_total{result=\"cert_reject\"} 1",
            "ocp_serve_epoch_publish_total{result=\"overloaded\"} 1",
            "ocp_serve_cert_failures_total 3",
            "# TYPE ocp_serve_wal_append_ns summary",
            "ocp_serve_wal_append_ns_count 1",
            "# TYPE ocp_serve_wal_fsync_ns summary",
            "ocp_serve_wal_fsync_ns_count 0",
            "# TYPE ocp_serve_index_build_seconds summary",
            "ocp_serve_index_build_seconds{phase=\"segment\",quantile=\"0.5\"}",
            "ocp_serve_index_build_seconds{phase=\"total\",quantile=\"0.99\"}",
            "ocp_serve_index_build_seconds_count{phase=\"exit\"} 1",
            "# TYPE ocp_serve_index_reuse_ratio gauge",
            "ocp_serve_index_reuse_ratio 0.5",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
