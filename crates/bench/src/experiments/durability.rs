//! E18: what durability costs on the publish path.
//!
//! PR 6 put two gates between a relabeled snapshot and its readers: the
//! publish-time certificate (`EpochCertificate::describe` + independent
//! `check`) and the epoch WAL (append + fsync before the epoch becomes
//! visible). This experiment prices both against the bare publish path
//! across mesh sizes and clustered-fault densities.
//!
//! Each cell times the exact component sequence the serve writer runs per
//! batch — block-local `Snapshot::apply`, then (certified mode only) the
//! windowed certificate distill/check against the certified previous epoch
//! and a real WAL append + fsync — on a cold-labeled machine, one
//! single-fault batch per trial, median over trials. Timing the
//! components directly rather than through `MeshService` keeps scheduler
//! wakeups and the 1 ms quiesce poll out of the measurement; the
//! `durability-smoke` gate covers the real end-to-end service path
//! (crash → recover → field-identical state).
//!
//! Acceptance bar (full shape): certification + WAL must cost ≤ 10% of the
//! bare publish path at 256²/10% — durability must not tax the epoch rate
//! the serving layer was built for.

use super::Settings;
use ocp_analysis::Table;
use ocp_core::certificate::{outcome_digest, CertifiedEpoch, EpochCertificate};
use ocp_core::prelude::*;
use ocp_mesh::{Coord, Topology};
use ocp_serve::{EventBatch, MeshService, ServeConfig, Snapshot, Wal, WalRecord};
use ocp_workloads::clustered_faults;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One (side, density) cell, certified and bare modes paired.
#[derive(Clone, Debug, Serialize)]
pub struct DurabilityRow {
    /// Mesh side length.
    pub side: u32,
    /// Fraction of nodes faulty (clustered placement).
    pub density: f64,
    /// Faulty nodes at the start of the measurement.
    pub faults: usize,
    /// Single-fault batches timed (median reported).
    pub batches: usize,
    /// Bare publish path: warm apply only, in milliseconds.
    pub baseline_ms: f64,
    /// Durable publish path: apply + certificate + WAL append + fsync.
    pub certified_ms: f64,
    /// Certificate distill + independent check alone.
    pub cert_ms: f64,
    /// WAL record append alone.
    pub wal_append_ms: f64,
    /// WAL fsync alone.
    pub wal_fsync_ms: f64,
    /// `(certified - baseline) / baseline`, in percent.
    pub overhead_pct: f64,
}

/// The full E18 report, serialized to `results/durability.json`.
#[derive(Clone, Debug, Serialize)]
pub struct DurabilityReport {
    /// Sweep cells, ordered by (side, density).
    pub rows: Vec<DurabilityRow>,
}

fn shape(settings: &Settings) -> Vec<u32> {
    if settings.side < 100 {
        vec![16, 32]
    } else {
        vec![64, 128, 256]
    }
}

fn median_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ocp-durability-bench");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{name}-{}.wal", std::process::id()))
}

/// Picks `n` distinct currently-enabled nodes to crash one at a time.
fn fresh_nodes(base: &Snapshot, side: u32, n: usize, rng: &mut SmallRng) -> Vec<Coord> {
    let mut nodes = Vec::new();
    while nodes.len() < n {
        let node = Coord::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32));
        if !base.map.is_faulty(node) && !nodes.contains(&node) {
            nodes.push(node);
        }
    }
    nodes
}

fn run_cell(side: u32, density: f64, batches: usize, seed: u64) -> DurabilityRow {
    let topology = Topology::mesh(side, side);
    let f = ((topology.len() as f64) * density).round().max(1.0) as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let faults = clustered_faults(topology, f, (f / 24).max(1), &mut rng);
    let pipeline = PipelineConfig::default();
    let base = Snapshot::cold(0, FaultMap::new(topology, faults), &pipeline)
        .expect("cold labeling converges");
    let nodes = fresh_nodes(&base, side, batches, &mut rng);
    // The writer checks each batch by induction from the certified
    // previous epoch; epoch 0's own full check happens at start-up.
    let base_cert = EpochCertificate::describe(0, &base.map, &base.outcome);
    base_cert
        .check(&base.map, &base.outcome)
        .expect("epoch-0 certificate validates");
    let certified = CertifiedEpoch {
        certificate: &base_cert,
        map: &base.map,
        outcome: &base.outcome,
    };

    // A real log on a real filesystem: append/fsync costs are the point.
    let wal_path = tmp(&format!("e18-{side}-{}", (density * 100.0) as u32));
    let init = WalRecord::Init {
        topology,
        faults: base.map.faults(),
        rule: pipeline.rule,
        digest: outcome_digest(&base.map, &base.outcome),
    };
    let mut wal = Wal::create(&wal_path, &init).expect("create bench WAL");

    let mut baseline = Vec::new();
    let mut durable = Vec::new();
    let mut cert = Vec::new();
    let mut wal_append = Vec::new();
    let mut wal_fsync = Vec::new();
    for &node in &nodes {
        let batch = EventBatch {
            faults: vec![node],
            repairs: Vec::new(),
        };
        // Bare path: warm apply, publish is just a pointer swap.
        let t0 = Instant::now();
        let next = std::hint::black_box(base.apply(&batch, &pipeline)).expect("warm apply");
        baseline.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(next);

        // Durable path, exactly the writer's sequence on the same batch.
        let t0 = Instant::now();
        let next = std::hint::black_box(base.apply(&batch, &pipeline)).expect("warm apply");
        let t_cert = Instant::now();
        let (faults, repairs) = (&batch.faults, &batch.repairs);
        let certificate =
            EpochCertificate::describe_after(certified, faults, repairs, &next.map, &next.outcome);
        certificate
            .check_after(certified, faults, repairs, &next.map, &next.outcome)
            .expect("publish-time certificate validates");
        cert.push(t_cert.elapsed().as_secs_f64() * 1e3);
        let record = WalRecord::batch(next.epoch, &batch, certificate.grid_digest);
        let t_append = Instant::now();
        wal.append(&record).expect("WAL append");
        wal_append.push(t_append.elapsed().as_secs_f64() * 1e3);
        let t_sync = Instant::now();
        wal.sync().expect("WAL fsync");
        wal_fsync.push(t_sync.elapsed().as_secs_f64() * 1e3);
        durable.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(next);
    }
    let _ = std::fs::remove_file(&wal_path);

    let baseline_ms = median_of(&mut baseline);
    let certified_ms = median_of(&mut durable);
    DurabilityRow {
        side,
        density,
        faults: f,
        batches,
        baseline_ms,
        certified_ms,
        cert_ms: median_of(&mut cert),
        wal_append_ms: median_of(&mut wal_append),
        wal_fsync_ms: median_of(&mut wal_fsync),
        overhead_pct: (certified_ms - baseline_ms) / baseline_ms * 100.0,
    }
}

/// Runs the publish-path sweep: mesh size × clustered density, bare vs
/// certified+durable.
pub fn run(settings: &Settings) -> DurabilityReport {
    let sides = shape(settings);
    let densities = [0.05f64, 0.10];
    let batches = settings.trials.clamp(5, 9) as usize;
    let mut rows = Vec::new();
    for &side in &sides {
        for &density in &densities {
            let seed = settings.seed ^ 0xE18 ^ ((side as u64) << 24) ^ ((density * 100.0) as u64);
            rows.push(run_cell(side, density, batches, seed));
        }
    }
    DurabilityReport { rows }
}

/// The acceptance-bar cell: the largest side at 10% density.
pub fn flagship_overhead(report: &DurabilityReport) -> Option<&DurabilityRow> {
    report
        .rows
        .iter()
        .filter(|r| (r.density - 0.10).abs() < 1e-9)
        .max_by_key(|r| r.side)
}

/// Renders the sweep as a table.
pub fn table(report: &DurabilityReport) -> Table {
    let mut t = Table::new([
        "side",
        "density",
        "faults",
        "bare ms",
        "durable ms",
        "cert ms",
        "append ms",
        "fsync ms",
        "overhead",
    ]);
    for r in &report.rows {
        t.push_row([
            r.side.to_string(),
            format!("{:.2}", r.density),
            r.faults.to_string(),
            format!("{:.3}", r.baseline_ms),
            format!("{:.3}", r.certified_ms),
            format!("{:.3}", r.cert_ms),
            format!("{:.4}", r.wal_append_ms),
            format!("{:.4}", r.wal_fsync_ms),
            format!("{:+.1}%", r.overhead_pct),
        ]);
    }
    t
}

/// Result of the CI crash/recover gate.
#[derive(Clone, Debug, Serialize)]
pub struct SmokeReport {
    /// Epochs published by the uninterrupted durable run.
    pub epochs: u64,
    /// Truncation points recovered from.
    pub cuts_tested: usize,
    /// Cuts that replayed to a verified prefix.
    pub cuts_recovered: usize,
}

/// The `durability-smoke` gate: run a real durable service, crash it (by
/// snapshotting and truncating its WAL), recover, and demand the replayed
/// state be field-identical to the uninterrupted run — the grid digest
/// that backs the certificates is the equality witness.
pub fn smoke(seed: u64) -> SmokeReport {
    let side = 16u32;
    let path = tmp("smoke");
    let service = MeshService::start_durable(
        Topology::mesh(side, side),
        [Coord::new(3, 3)],
        ServeConfig::default(),
        &path,
    )
    .expect("durable service starts");
    let handle = service.handle();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut injected = 0;
    while injected < 6 {
        let node = Coord::new(rng.gen_range(0..side as i32), rng.gen_range(0..side as i32));
        if node == Coord::new(3, 3) || handle.inject_faults(&[node]).accepted != 1 {
            continue;
        }
        injected += 1;
        assert!(service.quiesce(Duration::from_secs(30)), "writer quiesces");
    }
    let mut handle = service.handle();
    let head = handle.snapshot();
    let (oracle_epoch, oracle_digest) = (head.epoch, outcome_digest(&head.map, &head.outcome));
    let oracle_epochs: Vec<u64> = service.epoch_log().iter().map(|r| r.epoch).collect();
    service.shutdown();

    // Uninterrupted recovery must be field-identical.
    let recovered = MeshService::recover(&path, ServeConfig::default()).expect("full recover");
    let mut handle = recovered.handle();
    let head = handle.snapshot();
    assert_eq!(head.epoch, oracle_epoch, "recovered terminal epoch");
    assert_eq!(
        outcome_digest(&head.map, &head.outcome),
        oracle_digest,
        "recovered terminal grids"
    );
    recovered.shutdown();

    // Crash images: the WAL cut at arbitrary byte offsets must recover to
    // a consistent epoch prefix whose grids match the cold oracle.
    let bytes = std::fs::read(&path).expect("read WAL");
    let cut_path = tmp("smoke-cut");
    let cuts: Vec<usize> = (0..5).map(|_| rng.gen_range(1..bytes.len())).collect();
    let mut cuts_recovered = 0;
    for &cut in &cuts {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write truncated copy");
        let Ok(service) = MeshService::recover(&cut_path, ServeConfig::default()) else {
            continue; // cut inside the Init frame: nothing to replay from
        };
        let epochs: Vec<u64> = service.epoch_log().iter().map(|r| r.epoch).collect();
        assert_eq!(
            epochs[..],
            oracle_epochs[..epochs.len()],
            "cut at byte {cut}: prefix-consistent epochs"
        );
        let mut handle = service.handle();
        let head = handle.snapshot();
        let cold = Snapshot::cold(
            head.epoch,
            FaultMap::new(head.map.topology(), head.map.faults()),
            &ServeConfig::default().pipeline,
        )
        .expect("cold oracle converges");
        assert_eq!(
            outcome_digest(&head.map, &head.outcome),
            outcome_digest(&cold.map, &cold.outcome),
            "cut at byte {cut}: recovered grids equal the cold oracle"
        );
        cuts_recovered += 1;
        service.shutdown();
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cut_path);
    SmokeReport {
        epochs: oracle_epoch,
        cuts_tested: cuts.len(),
        cuts_recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_every_cell() {
        let settings = Settings::quick();
        let report = run(&settings);
        assert_eq!(report.rows.len(), 4, "2 sides x 2 densities");
        for row in &report.rows {
            assert!(row.baseline_ms > 0.0, "{row:?}");
            assert!(row.certified_ms >= row.baseline_ms * 0.5, "{row:?}");
            assert!(row.cert_ms > 0.0, "{row:?}");
        }
        let flagship = flagship_overhead(&report).expect("10% rows present");
        assert_eq!(flagship.side, 32);
        assert!(!table(&report).to_string().is_empty());
    }

    #[test]
    fn smoke_recovers_from_crash_images() {
        let report = smoke(0xE18);
        assert_eq!(report.epochs, 6);
        assert!(report.cuts_recovered >= 1, "{report:?}");
    }
}
