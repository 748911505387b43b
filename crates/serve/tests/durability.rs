//! Crash-recovery chaos suite for the epoch WAL (PR 6, tentpole part d).
//!
//! Three attack surfaces, all judged against the same oracle — the
//! deterministic cold pipeline of PR 1:
//!
//! 1. a clean shutdown must recover to a **field-identical** terminal
//!    snapshot (same epoch, same fault set, same per-cell grids — checked
//!    through the FNV grid digest that also backs the certificates);
//! 2. a WAL truncated at *any* byte offset — the on-disk image of a crash
//!    mid-`write(2)` — must recover to a consistent **prefix** of the
//!    uninterrupted run, never to a mangled or reordered history;
//! 3. a WAL file copied while the writer is actively appending (a crash
//!    with no flush coordination at all) must likewise recover to a
//!    consistent prefix.

use ocp_core::prelude::*;
use ocp_mesh::{Coord, Topology};
use ocp_serve::{CertChaos, CertMode, MeshService, ServeConfig, Snapshot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Duration;

const SIDE: u32 = 12;

fn c(x: i32, y: i32) -> Coord {
    Coord::new(x, y)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ocp-durability-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{name}-{}.wal", std::process::id()))
}

/// The same structural digest the certificates pin: topology + rule +
/// per-cell (health, safety, activation). Field equality of two snapshots
/// is equality of (epoch, digest).
fn grid_digest(snapshot: &Snapshot) -> u64 {
    outcome_digest(&snapshot.map, &snapshot.outcome)
}

/// Audit-log rows reduced to their replayable content.
type LogRow = (u64, Vec<Coord>, Vec<Coord>);

fn log_rows(service: &MeshService) -> Vec<LogRow> {
    service
        .epoch_log()
        .iter()
        .map(|r| (r.epoch, r.faults.clone(), r.repairs.clone()))
        .collect()
}

/// Runs a durable service through a deterministic fault/repair schedule,
/// quiescing after every batch, and returns the terminal (epoch, digest)
/// plus the audit log. The WAL file at `path` is left on disk.
fn run_oracle(path: &PathBuf, batches: usize) -> (u64, u64, Vec<LogRow>) {
    let service = MeshService::start_durable(
        Topology::mesh(SIDE, SIDE),
        [c(2, 2), c(3, 2)],
        ServeConfig::default(),
        path,
    )
    .expect("durable service starts");
    let handle = service.handle();
    let mut rng = SmallRng::seed_from_u64(0x0c9);
    let mut live_faults = vec![c(2, 2), c(3, 2)];
    let mut injected = 0;
    while injected < batches {
        // Mostly faults, occasionally a repair of an earlier fault, so the
        // replay exercises both fault and repair batches.
        if injected % 4 == 3 && live_faults.len() > 1 {
            let node = live_faults.remove(rng.gen_range(0..live_faults.len()));
            assert_eq!(handle.repair_nodes(&[node]).accepted, 1);
        } else {
            let node = c(rng.gen_range(0..SIDE as i32), rng.gen_range(0..SIDE as i32));
            if live_faults.contains(&node) {
                continue;
            }
            if handle.inject_faults(&[node]).accepted != 1 {
                continue;
            }
            live_faults.push(node);
        }
        injected += 1;
        assert!(service.quiesce(Duration::from_secs(30)), "writer quiesces");
    }
    let mut handle = service.handle();
    let head = handle.snapshot();
    let result = (head.epoch, grid_digest(&head), log_rows(&service));
    service.shutdown();
    result
}

/// Byte offsets at which each WAL frame ends, starting after the Init
/// frame. Frames are `[u32 BE len][u64 checksum][payload]`.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut bounds = Vec::new();
    let mut pos = 0;
    while pos + 12 <= bytes.len() {
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 12 + len > bytes.len() {
            break;
        }
        pos += 12 + len;
        bounds.push(pos);
    }
    bounds
}

#[test]
fn clean_shutdown_recovers_field_identical_and_keeps_serving() {
    let path = tmp("clean-shutdown");
    let (oracle_epoch, oracle_digest, oracle_log) = run_oracle(&path, 9);
    assert!(oracle_epoch >= 6, "schedule produced a real history");

    // Recovery replays the full log to the byte-identical terminal state.
    let recovered = MeshService::recover(&path, ServeConfig::default()).expect("recover succeeds");
    let mut handle = recovered.handle();
    let head = handle.snapshot();
    assert_eq!(head.epoch, oracle_epoch, "terminal epoch matches");
    assert_eq!(grid_digest(&head), oracle_digest, "terminal grids match");
    assert_eq!(log_rows(&recovered), oracle_log, "audit log matches");
    for row in recovered.epoch_log() {
        let cert = row
            .certificate
            .expect("recovered epochs carry certificates");
        assert_eq!(cert.epoch, row.epoch);
    }

    // The recovered service is live: it keeps appending to the same log.
    let extra = c(0, SIDE as i32 - 1);
    assert_eq!(handle.inject_faults(&[extra]).accepted, 1);
    assert!(recovered.quiesce(Duration::from_secs(30)));
    let extended_epoch = handle.snapshot().epoch;
    let extended_digest = grid_digest(&handle.snapshot());
    assert_eq!(extended_epoch, oracle_epoch + 1);
    recovered.shutdown();

    // ... and a second recovery sees the post-recovery epoch too.
    let again = MeshService::recover(&path, ServeConfig::default()).expect("second recover");
    let mut handle = again.handle();
    assert_eq!(handle.snapshot().epoch, extended_epoch);
    assert_eq!(grid_digest(&handle.snapshot()), extended_digest);
    again.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn recovery_does_not_fabricate_certificates_for_uncertified_epochs() {
    // A Warn-mode service whose second batch fails its certificate check
    // publishes that epoch uncertified (cert_digest 0 in the WAL).
    // Recovery must preserve that fact: re-deriving a certificate for it
    // would make the audit log claim an artifact that never existed.
    let path = tmp("warn-uncertified");
    let config = ServeConfig {
        cert_mode: CertMode::Warn,
        cert_chaos: CertChaos::RejectWarmEveryNth(2),
        ..ServeConfig::default()
    };
    let service = MeshService::start_durable(Topology::mesh(SIDE, SIDE), [c(2, 2)], config, &path)
        .expect("durable service starts");
    let handle = service.handle();
    for node in [c(7, 7), c(9, 3)] {
        assert_eq!(handle.inject_faults(&[node]).accepted, 1);
        assert!(service.quiesce(Duration::from_secs(30)));
    }
    let log = service.epoch_log();
    assert_eq!(log.len(), 2);
    assert!(log[0].certificate.is_some(), "batch 1 certified");
    assert!(log[1].certificate.is_none(), "batch 2 chaos-failed in Warn");
    service.shutdown();

    let recovered = MeshService::recover(
        &path,
        ServeConfig {
            cert_mode: CertMode::Warn,
            ..ServeConfig::default()
        },
    )
    .expect("recover succeeds");
    let log = recovered.epoch_log();
    assert_eq!(log.len(), 2);
    assert!(
        log[0].certificate.is_some(),
        "certified epoch recovers its certificate"
    );
    assert!(
        log[1].certificate.is_none(),
        "uncertified epoch must stay uncertified after recovery"
    );
    assert!(recovered.handle().certificate(2).is_none());
    recovered.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncation_at_fuzzed_offsets_recovers_a_consistent_prefix() {
    let path = tmp("truncate-fuzz");
    let (_, _, oracle_log) = run_oracle(&path, 8);
    let bytes = std::fs::read(&path).expect("read WAL");
    let bounds = frame_boundaries(&bytes);
    assert_eq!(
        bounds.len(),
        oracle_log.len() + 1,
        "one frame per batch plus the Init frame"
    );
    let init_end = bounds[0];

    // ≥10 fuzzed cut points: every frame boundary (a crash between
    // appends) plus random mid-frame offsets (a crash mid-write).
    let mut rng = SmallRng::seed_from_u64(0x7_0c9);
    let mut cuts: Vec<usize> = bounds.clone();
    while cuts.len() < bounds.len() + 8 {
        cuts.push(rng.gen_range(0..bytes.len()));
    }
    assert!(cuts.len() >= 10, "chaos demands at least ten cut points");

    let cut_path = tmp("truncate-fuzz-cut");
    for (i, &cut) in cuts.iter().enumerate() {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write truncated copy");
        if cut < init_end {
            // Even the Init record is torn: there is nothing to replay
            // from, and recovery must say so rather than serve garbage.
            assert!(
                MeshService::recover(&cut_path, ServeConfig::default()).is_err(),
                "cut {i} at byte {cut} (inside Init) must fail to recover"
            );
            continue;
        }
        let survivors = bounds.iter().filter(|&&b| b <= cut).count() - 1;
        let recovered = MeshService::recover(&cut_path, ServeConfig::default())
            .unwrap_or_else(|e| panic!("cut {i} at byte {cut} failed to recover: {e}"));
        let rows = log_rows(&recovered);
        assert_eq!(
            rows,
            oracle_log[..survivors],
            "cut {i} at byte {cut}: recovered history is the intact prefix"
        );
        // Grid equality vs the cold oracle over the recovered fault set.
        let mut handle = recovered.handle();
        let head = handle.snapshot();
        assert_eq!(head.epoch, survivors as u64);
        let cold = Snapshot::cold(
            head.epoch,
            FaultMap::new(head.map.topology(), head.map.faults()),
            &ServeConfig::default().pipeline,
        )
        .expect("cold oracle converges");
        assert_eq!(
            grid_digest(&head),
            grid_digest(&cold),
            "cut {i}: recovered grids equal the cold oracle"
        );
        recovered.shutdown();
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cut_path);
}

#[test]
fn wal_snapshotted_under_live_writes_recovers_a_consistent_prefix() {
    let path = tmp("live-copy");
    let service = MeshService::start_durable(
        Topology::mesh(SIDE, SIDE),
        [c(5, 5)],
        ServeConfig {
            batch_max: 1,
            ..ServeConfig::default()
        },
        &path,
    )
    .expect("durable service starts");
    let handle = service.handle();

    // Fire a stream of single-fault batches with no quiesce and grab raw
    // copies of the WAL file while the writer races us — each copy is the
    // disk image an unflushed crash would leave behind.
    let mut rng = SmallRng::seed_from_u64(0xdead);
    let mut copies = Vec::new();
    let mut injected = 0;
    while injected < 12 {
        let node = c(rng.gen_range(0..SIDE as i32), rng.gen_range(0..SIDE as i32));
        if node == c(5, 5) || handle.inject_faults(&[node]).accepted != 1 {
            continue;
        }
        injected += 1;
        copies.push(std::fs::read(&path).expect("copy live WAL"));
    }
    assert!(service.quiesce(Duration::from_secs(30)));
    let oracle_log = log_rows(&service);
    service.shutdown();

    let copy_path = tmp("live-copy-cut");
    let mut nonempty = 0;
    for (i, copy) in copies.iter().enumerate() {
        std::fs::write(&copy_path, copy).expect("write live copy");
        let Ok(recovered) = MeshService::recover(&copy_path, ServeConfig::default()) else {
            // Copy caught the file before the Init frame landed.
            continue;
        };
        let rows = log_rows(&recovered);
        assert_eq!(
            rows[..],
            oracle_log[..rows.len()],
            "live copy {i}: recovered history is a prefix of the real one"
        );
        nonempty += 1;
        recovered.shutdown();
    }
    assert!(nonempty >= 6, "most live copies recovered: {nonempty}/12");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&copy_path);
}
