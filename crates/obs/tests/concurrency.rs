//! Concurrency suite for the metrics registry: writers hammer counters and
//! histograms from scoped threads while a reader snapshots continuously.
//! Every snapshot must be internally consistent (tear-free) and the
//! sequence of snapshots monotone — a reader can never watch a counter go
//! backwards, and a histogram's count always equals the sum of its buckets.

use ocp_obs::{MetricValue, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 20_000;

#[test]
fn counters_are_monotone_under_contention_and_exact_after_join() {
    let registry = Registry::new();
    let stop = AtomicBool::new(false);
    let ready = AtomicBool::new(false);
    thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut last_shared = 0u64;
            let mut last_grand = 0u64;
            let mut observations = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snap = registry.snapshot();
                let shared = snap.counter("ocp_test_ops_total", &[]);
                assert!(shared >= last_shared, "shared counter went backwards");
                last_shared = shared;
                // The whole family is monotone too, summed across series.
                let grand: u64 = snap
                    .family("ocp_test_ops_total")
                    .map(|f| {
                        f.series
                            .iter()
                            .map(|s| match s.value {
                                MetricValue::Counter(v) => v,
                                _ => panic!("counter family holds non-counters"),
                            })
                            .sum()
                    })
                    .unwrap_or(0);
                assert!(grand >= last_grand, "family total went backwards");
                last_grand = grand;
                observations += 1;
                ready.store(true, Ordering::Release);
            }
            observations
        });
        // The writers start only once the reader is snapshotting: on a
        // busy machine they could otherwise finish before it first runs.
        while !ready.load(Ordering::Acquire) && !reader.is_finished() {
            thread::yield_now();
        }
        for w in 0..WRITERS {
            let registry = &registry;
            scope.spawn(move || {
                // Each writer does its own get-or-create: the lookup races
                // are part of what this test exercises.
                let shared = registry.counter("ocp_test_ops_total", "Shared series.", &[]);
                let own_label = format!("w{w}");
                let own = registry.counter(
                    "ocp_test_ops_total",
                    "Shared series.",
                    &[("writer", &own_label)],
                );
                for _ in 0..OPS_PER_WRITER {
                    shared.inc();
                    own.add(2);
                }
            });
        }
        // Stop the reader once every writer increment is visible.
        while registry.snapshot().counter("ocp_test_ops_total", &[])
            < WRITERS as u64 * OPS_PER_WRITER
        {
            std::hint::spin_loop();
        }
        stop.store(true, Ordering::Release);
        assert!(reader.join().unwrap() > 0, "reader never snapshotted");
    });

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("ocp_test_ops_total", &[]),
        WRITERS as u64 * OPS_PER_WRITER
    );
    for w in 0..WRITERS {
        let label = format!("w{w}");
        assert_eq!(
            snap.counter("ocp_test_ops_total", &[("writer", &label)]),
            2 * OPS_PER_WRITER,
            "writer {w} series"
        );
    }
}

#[test]
fn histogram_snapshots_are_tear_free_and_monotone() {
    let registry = Registry::new();
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        for w in 0..WRITERS {
            let registry = &registry;
            scope.spawn(move || {
                let histogram =
                    registry.histogram("ocp_test_latency_ns", "Hammered histogram.", &[]);
                for i in 0..OPS_PER_WRITER {
                    // Spread samples across many buckets.
                    histogram.record((i % 20) + (w as u64) * 1000 + 1);
                }
            });
        }
        let reader = scope.spawn(|| {
            let mut last_count = 0u64;
            let mut last_sum = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snap = registry.snapshot();
                if let Some(h) = snap.histogram("ocp_test_latency_ns", &[]) {
                    // Tear-free by construction: the snapshot's count is
                    // derived from one bucket-array read.
                    let bucket_total: u64 = h.buckets.iter().sum();
                    assert_eq!(h.count, bucket_total, "count != Σ buckets (torn read)");
                    assert!(h.count >= last_count, "histogram count went backwards");
                    assert!(h.sum >= last_sum, "histogram sum went backwards");
                    last_count = h.count;
                    last_sum = h.sum;
                }
            }
        });
        while registry
            .snapshot()
            .histogram("ocp_test_latency_ns", &[])
            .map(|h| h.count)
            .unwrap_or(0)
            < WRITERS as u64 * OPS_PER_WRITER
        {
            std::hint::spin_loop();
        }
        stop.store(true, Ordering::Release);
        reader.join().unwrap();
    });

    let snap = registry.snapshot();
    let h = snap.histogram("ocp_test_latency_ns", &[]).unwrap();
    assert_eq!(h.count, WRITERS as u64 * OPS_PER_WRITER);
    let expected_sum: u64 = (0..WRITERS as u64)
        .map(|w| {
            (0..OPS_PER_WRITER)
                .map(|i| (i % 20) + w * 1000 + 1)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(h.sum, expected_sum, "no recorded value was lost");
}

#[test]
fn get_or_create_races_converge_on_one_series() {
    let registry = Registry::new();
    thread::scope(|scope| {
        for _ in 0..WRITERS {
            let registry = &registry;
            scope.spawn(move || {
                for _ in 0..1000 {
                    registry
                        .counter("ocp_test_race_total", "Raced get-or-create.", &[("k", "v")])
                        .inc();
                }
            });
        }
    });
    let snap = registry.snapshot();
    let family = snap.family("ocp_test_race_total").unwrap();
    assert_eq!(family.series.len(), 1, "races must not duplicate series");
    assert_eq!(
        snap.counter("ocp_test_race_total", &[("k", "v")]),
        WRITERS as u64 * 1000
    );
}

#[test]
fn gauges_land_on_the_final_value_after_racing_adds() {
    let registry = Registry::new();
    thread::scope(|scope| {
        for _ in 0..WRITERS {
            let registry = &registry;
            scope.spawn(move || {
                let gauge = registry.gauge("ocp_test_depth", "Racing gauge.", &[]);
                for _ in 0..OPS_PER_WRITER {
                    gauge.add(1);
                    gauge.add(-1);
                }
                gauge.add(3);
            });
        }
    });
    let snap = registry.snapshot();
    match snap
        .family("ocp_test_depth")
        .and_then(|f| f.series.first())
        .map(|s| &s.value)
    {
        Some(MetricValue::Gauge(v)) => assert_eq!(*v, 3 * WRITERS as i64),
        other => panic!("expected gauge, got {other:?}"),
    }
}
