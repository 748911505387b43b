//! Fuzzing the third untrusted input: the bytes recovery reads from disk.
//!
//! * **WAL.** A genuine log, truncated, byte-flipped or spliced (a byte
//!   range copied over or into another place), goes through `Wal::open`
//!   and `MeshService::recover`. Each must either refuse, or keep an
//!   intact prefix and truncate the torn tail: `Wal::open` may only return
//!   records the log really holds, and a recovered service must stand at
//!   an epoch of the original run, with its history and grid digest.
//! * **Fleet manifest.** A genuine `manifest.json`, mutated the same
//!   ways, goes through `Fleet::recover`, which must either refuse or
//!   restore exactly the original roster.
//!
//! Nothing may panic on any input.

use ocp_core::prelude::*;
use ocp_fleet::{Fleet, FleetConfig, FleetRequest, FleetResponse, TenantSpec};
use ocp_mesh::{Coord, Topology};
use ocp_serve::{CertMode, MeshService, Request, ServeConfig, Wal, WalRecord};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

fn c(x: i32, y: i32) -> Coord {
    Coord::new(x, y)
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ocp-recovery-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// One way to damage a file; positions are taken modulo its length.
#[derive(Clone, Debug)]
enum Mutation {
    Truncate(usize),
    Flip {
        at: usize,
        mask: u8,
    },
    /// Copies `len` bytes from `from` over the bytes at `to` (or inserts
    /// them there).
    Splice {
        from: usize,
        len: usize,
        to: usize,
        insert: bool,
    },
}

impl Mutation {
    fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let n = bytes.len().max(1);
        let mut out = bytes.to_vec();
        match *self {
            Mutation::Truncate(at) => out.truncate(at % n),
            Mutation::Flip { at, mask } => out[at % n] ^= mask,
            Mutation::Splice {
                from,
                len,
                to,
                insert,
            } => {
                let from = from % n;
                let chunk = bytes[from..(from + len).min(bytes.len())].to_vec();
                let to = to % n;
                if insert {
                    out.splice(to..to, chunk);
                } else {
                    let end = (to + chunk.len()).min(out.len());
                    out.splice(to..end, chunk);
                }
            }
        }
        out
    }
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let places = (0u8..3, any::<usize>(), any::<usize>());
    (places, (1usize..80, any::<bool>(), 1u8..=255)).prop_map(
        |((kind, a, b), (len, insert, mask))| match kind {
            0 => Mutation::Truncate(a),
            1 => Mutation::Flip { at: a, mask },
            _ => Mutation::Splice {
                from: a,
                len,
                to: b,
                insert,
            },
        },
    )
}

/// A genuine log: its bytes, its records, and per epoch the batch and the
/// grid digest the run published.
struct Log {
    bytes: Vec<u8>,
    records: Vec<WalRecord>,
    epochs: Vec<(Vec<Coord>, Vec<Coord>, u64)>,
}

fn genuine_log() -> &'static Log {
    static LOG: OnceLock<Log> = OnceLock::new();
    LOG.get_or_init(|| {
        let path = temp_path("genuine.wal");
        let service = MeshService::start_durable(
            Topology::mesh(10, 10),
            [c(2, 2), c(3, 3)],
            ServeConfig::default(),
            &path,
        )
        .expect("durable service starts");
        let handle = service.handle();
        let script: [(&[Coord], &[Coord]); 5] = [
            (&[c(6, 6)], &[]),
            (&[c(7, 7), c(1, 8)], &[]),
            (&[], &[c(3, 3)]),
            (&[c(4, 1)], &[c(6, 6)]),
            (&[c(8, 2)], &[]),
        ];
        for (faults, repairs) in script {
            if !repairs.is_empty() {
                assert_eq!(handle.repair_nodes(repairs).accepted, repairs.len());
            }
            if !faults.is_empty() {
                assert_eq!(handle.inject_faults(faults).accepted, faults.len());
            }
            assert!(service.quiesce(Duration::from_secs(30)));
        }
        let epochs = service
            .epoch_log()
            .iter()
            .map(|r| {
                let digest = r.certificate.as_ref().expect("certified").grid_digest;
                (r.faults.clone(), r.repairs.clone(), digest)
            })
            .collect();
        service.shutdown();
        let bytes = std::fs::read(&path).expect("read the log");
        let (_, records) = Wal::open(&path).expect("the genuine log opens");
        Log {
            bytes,
            records,
            epochs,
        }
    })
}

/// Byte offset at which the `k`-th frame ends.
fn frame_end(bytes: &[u8], k: usize) -> usize {
    let mut pos = 0;
    for _ in 0..k {
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 12 + len;
    }
    pos
}

fn check_wal(mutation: &Mutation, case: &Path) {
    let log = genuine_log();
    let damaged = mutation.apply(&log.bytes);
    std::fs::write(case, &damaged).unwrap();
    match Wal::open(case) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        Ok((_, records)) => {
            for r in &records {
                assert!(
                    log.records.contains(r),
                    "accepted a record the log never held: {r:?}"
                );
            }
            if log.records.starts_with(&records) {
                // A torn tail is cut back to the last intact frame.
                let kept = std::fs::metadata(case).unwrap().len() as usize;
                assert_eq!(kept, frame_end(&log.bytes, records.len()));
            }
        }
    }

    std::fs::write(case, &damaged).unwrap();
    if let Ok(service) = MeshService::recover(case, ServeConfig::default()) {
        let got: Vec<(Vec<Coord>, Vec<Coord>)> = service
            .epoch_log()
            .iter()
            .map(|r| (r.faults.clone(), r.repairs.clone()))
            .collect();
        let want: Vec<(Vec<Coord>, Vec<Coord>)> = log.epochs[..got.len()]
            .iter()
            .map(|(f, r, _)| (f.clone(), r.clone()))
            .collect();
        assert_eq!(got, want, "recovered history is not a prefix of the run");
        let mut handle = service.handle();
        let head = handle.snapshot();
        assert_eq!(head.epoch, got.len() as u64);
        if let Some(&(_, _, digest)) = got.len().checked_sub(1).map(|i| &log.epochs[i]) {
            assert_eq!(outcome_digest(&head.map, &head.outcome), digest);
        }
        service.shutdown();
    }
}

fn spec(w: u32, h: u32, faults: Vec<Coord>, cert_mode: CertMode) -> TenantSpec {
    TenantSpec {
        topology: Topology::mesh(w, h),
        initial_faults: faults,
        rule: SafetyRule::BothDimensions,
        cert_mode,
    }
}

/// A genuine durable fleet directory: its WALs and manifest bytes.
fn genuine_fleet() -> &'static (PathBuf, Vec<u8>) {
    static FLEET: OnceLock<(PathBuf, Vec<u8>)> = OnceLock::new();
    FLEET.get_or_init(|| {
        let dir = temp_path("fleet");
        let _ = std::fs::remove_dir_all(&dir);
        let config = FleetConfig {
            wal_dir: Some(dir.clone()),
            ..FleetConfig::default()
        };
        let fleet = Fleet::new(config).expect("fleet starts");
        let handle = fleet.handle();
        for (name, spec) in [
            ("alpha", spec(8, 8, vec![c(2, 2)], CertMode::Enforce)),
            ("beta", spec(6, 5, vec![], CertMode::Warn)),
            ("gamma", spec(9, 7, vec![c(1, 1), c(5, 5)], CertMode::Off)),
        ] {
            let reply = handle.dispatch(FleetRequest::CreateTenant {
                name: name.into(),
                spec,
            });
            assert!(!matches!(reply, FleetResponse::Error { .. }), "{reply:?}");
        }
        handle.dispatch(FleetRequest::Tenant {
            tenant: "alpha".into(),
            request: Request::InjectFaults {
                nodes: vec![c(6, 6)],
            },
        });
        fleet.shutdown(Duration::from_secs(10));
        let manifest = std::fs::read(dir.join("manifest.json")).expect("manifest written");
        (dir, manifest)
    })
}

fn check_manifest(mutation: &Mutation, case: &Path) {
    let (dir, manifest) = genuine_fleet();
    let _ = std::fs::remove_dir_all(case);
    std::fs::create_dir_all(case).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), case.join(entry.file_name())).unwrap();
    }
    std::fs::write(case.join("manifest.json"), mutation.apply(manifest)).unwrap();
    let config = FleetConfig {
        wal_dir: Some(case.to_path_buf()),
        ..FleetConfig::default()
    };
    if let Ok(fleet) = Fleet::recover(config) {
        // Recovery rewrites the manifest from the roster it restored.
        let restored = std::fs::read(case.join("manifest.json")).unwrap();
        assert_eq!(&restored, manifest, "recovered a roster nobody wrote");
        fleet.shutdown(Duration::from_secs(10));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_wal_is_refused_or_cut_to_an_intact_prefix(m in mutation()) {
        check_wal(&m, &temp_path("case.wal"));
    }

    #[test]
    fn damaged_manifest_is_refused_or_restores_the_roster(m in mutation()) {
        check_manifest(&m, &temp_path("fleet-case"));
    }
}

#[test]
fn every_truncation_of_the_wal_is_handled() {
    let log = genuine_log();
    let case = temp_path("truncated.wal");
    for at in 0..log.bytes.len() {
        check_wal(&Mutation::Truncate(at), &case);
    }
}

#[test]
fn moved_and_duplicated_frames_are_refused() {
    let log = genuine_log();
    let case = temp_path("spliced.wal");
    let (f1, f2, f3) = (
        frame_end(&log.bytes, 1),
        frame_end(&log.bytes, 2),
        frame_end(&log.bytes, 3),
    );
    // Epoch 2's frame repeated, then epoch 1's frame after epoch 2's.
    for mutation in [
        Mutation::Splice {
            from: f2,
            len: f3 - f2,
            to: f3,
            insert: true,
        },
        Mutation::Splice {
            from: f1,
            len: f2 - f1,
            to: f3,
            insert: true,
        },
    ] {
        let damaged = mutation.apply(&log.bytes);
        std::fs::write(&case, &damaged).unwrap();
        assert!(
            MeshService::recover(&case, ServeConfig::default()).is_err(),
            "{mutation:?} must be refused"
        );
    }
}

#[test]
fn manifest_checksum_and_names_are_enforced() {
    let (_, manifest) = genuine_fleet();
    let text = String::from_utf8(manifest.clone()).unwrap();
    assert!(text.contains("\"checksum\":"), "{text}");
    // Renaming a tenant to another valid name breaks the checksum, though
    // the JSON still parses and names a tenant.
    let case = temp_path("fleet-rename");
    check_manifest(&Mutation::Truncate(0), &case);
    let at = text.find("beta").unwrap() + 3;
    std::fs::write(
        case.join("manifest.json"),
        Mutation::Flip {
            at,
            mask: b'a' ^ b'e',
        }
        .apply(manifest),
    )
    .unwrap();
    let config = FleetConfig {
        wal_dir: Some(case.clone()),
        ..FleetConfig::default()
    };
    let err = Fleet::recover(config).err().expect("refused");
    assert!(err.contains("checksum"), "{err}");
    let _ = std::fs::remove_dir_all(&case);
}
