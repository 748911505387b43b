//! The long-lived mesh-state service: one writer, many lock-free readers.
//!
//! ## Architecture
//!
//! * **Epoch snapshots.** The current machine state lives in an immutable
//!   [`Snapshot`] behind an `Arc`. A single head pointer (epoch counter +
//!   slot) is advanced by the writer; it is never mutated in place.
//! * **Lock-free read hot path.** Every [`ServiceHandle`] caches an
//!   `Arc<Snapshot>`. Serving a query is: one relaxed-cost atomic load of
//!   the head epoch, an equality check, and then pure reads against the
//!   cached snapshot. The publication mutex is touched **only** when the
//!   epoch actually advanced (once per publication per handle, never per
//!   query), and only long enough to clone an `Arc`. Queries therefore
//!   never contend with each other, and never block on the writer's
//!   relabeling work.
//! * **Single writer, batched ingestion.** Fault/repair events enter a
//!   bounded queue ([`BoundedQueue`]) with explicit `Overloaded`
//!   rejection. The writer drains up to `batch_max` events at a time,
//!   validates them against the current map, relabels only the dirty
//!   windows around the faulty blocks the batch touches
//!   ([`Snapshot::apply`]), certifies those windows by induction from the
//!   previous certified epoch, and publishes one new snapshot per
//!   batch — coalescing is what keeps epoch churn (and reader refresh
//!   cost) proportional to load, not to event count.

use crate::api::CertificateReply;
use crate::api::{
    InjectReply, Request, Response, RouteDisjointOutcome, RouteDisjointReply, RouteLenBatchReply,
    RouteLenOutcome, RouteLenReply, RouteOutcome, RouteReply, StatusReply,
};
use crate::metrics::{prometheus_text, Metrics, ObsReport, StatsReport};
use crate::queue::BoundedQueue;
use crate::snapshot::{EventBatch, Snapshot};
use crate::wal::{Wal, WalRecord};
use ocp_core::certificate::{outcome_digest, CertifiedEpoch, EpochCertificate};
use ocp_core::prelude::*;
use ocp_mesh::{Coord, Topology};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the writer treats publish-time certificates.
///
/// In `Enforce` (the default) every candidate snapshot is distilled into
/// an [`EpochCertificate`] and independently re-checked before the atomic
/// publish — in the batch's dirty windows only, by induction from the
/// previous certified epoch ([`EpochCertificate::check_after`]), or in
/// full for the first epoch after a start or recovery. A failing
/// snapshot triggers one cold recompute of the same epoch, checked in
/// full, and if that fails too the batch is refused — readers keep the
/// last certified epoch and never observe a skipped epoch number.
///
/// ```
/// use ocp_serve::{CertMode, ServeConfig};
///
/// // Certificates are enforced unless explicitly relaxed.
/// assert_eq!(ServeConfig::default().cert_mode, CertMode::Enforce);
/// let relaxed = ServeConfig {
///     cert_mode: CertMode::Warn,
///     ..ServeConfig::default()
/// };
/// assert_ne!(relaxed.cert_mode, CertMode::Off);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CertMode {
    /// No certificates: zero publish-path overhead, no audit trail.
    Off,
    /// Produce and check certificates; on failure count
    /// `ocp_serve_cert_failures_total` and publish anyway (uncertified).
    Warn,
    /// Produce, check, and **gate**: refuse the publish unless a
    /// certificate validates (warm attempt, then one cold recompute).
    Enforce,
}

/// Deterministic failure injection for the certificate gate, so the
/// reject paths are testable without manufacturing a genuinely broken
/// labeling engine. Production services leave this `Off`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertChaos {
    /// No injected failures.
    Off,
    /// Every `n`-th non-empty batch fails its warm certificate check,
    /// forcing the cold-recompute fallback (which succeeds).
    RejectWarmEveryNth(u64),
    /// Every `n`-th non-empty batch fails both the warm and the cold
    /// check: in `Enforce` the batch is refused outright.
    RejectBatchEveryNth(u64),
}

impl CertChaos {
    fn fail_warm(self, attempt: u64) -> bool {
        match self {
            CertChaos::Off => false,
            CertChaos::RejectWarmEveryNth(n) | CertChaos::RejectBatchEveryNth(n) => {
                n != 0 && attempt.is_multiple_of(n)
            }
        }
    }

    fn fail_cold(self, attempt: u64) -> bool {
        matches!(self, CertChaos::RejectBatchEveryNth(n) if n != 0 && attempt.is_multiple_of(n))
    }
}

/// Tuning knobs of a [`MeshService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Labeling pipeline configuration (rule, engine, round cap). The
    /// default picks the bit-packed labeling engine — every engine
    /// produces identical snapshots, so this only shortens the writer's
    /// relabel critical section (measured in experiment E15).
    pub pipeline: PipelineConfig,
    /// Admission-control capacity of the fault/repair event queue.
    pub queue_capacity: usize,
    /// Maximum events coalesced into one published epoch.
    pub batch_max: usize,
    /// Publish-time certificate policy (see [`CertMode`]). Defaults to
    /// [`CertMode::Enforce`]; E18 measures the overhead at ≤10% of the
    /// publish path on a 256² mesh at 10% fault density.
    pub cert_mode: CertMode,
    /// Deterministic certificate-failure injection for tests and chaos
    /// drills (see [`CertChaos`]). Defaults to [`CertChaos::Off`].
    pub cert_chaos: CertChaos,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig {
                engine: LabelEngine::Bitboard,
                ..PipelineConfig::default()
            },
            queue_capacity: 1024,
            batch_max: 64,
            cert_mode: CertMode::Enforce,
            cert_chaos: CertChaos::Off,
        }
    }
}

/// Why [`MeshService::recover`] (or [`MeshService::start_durable`]) could
/// not produce a running service.
#[derive(Debug)]
pub enum RecoverError {
    /// The WAL file could not be read or written.
    Io(std::io::Error),
    /// Relabeling failed to converge while replaying the log (a bug
    /// upstream — the round caps are diameter-derived).
    Convergence(ConvergenceError),
    /// The log's intact prefix is not a valid epoch history (missing
    /// `Init`, non-sequential epochs, or a digest that the replayed
    /// snapshot does not reproduce).
    Corrupt(String),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "WAL I/O error: {e}"),
            RecoverError::Convergence(e) => write!(f, "replay failed to converge: {e}"),
            RecoverError::Corrupt(why) => write!(f, "WAL corrupt: {why}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// A fault or repair event flowing through the writer queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// The node crashed.
    Fault(Coord),
    /// The node came back to life.
    Repair(Coord),
}

/// What one published epoch applied — the service's audit log, and the
/// ground truth the consistency tests replay.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// The epoch this batch produced.
    pub epoch: u64,
    /// Faults applied in this batch.
    pub faults: Vec<Coord>,
    /// Repairs applied in this batch.
    pub repairs: Vec<Coord>,
    /// Phase-1 rounds the block-local relabeling needed; for a fault-only
    /// batch, the whole-machine warm run's count. 0 when the certificate
    /// gate fell back to a cold rerun.
    pub warm_rounds: u32,
    /// The publish-time certificate the epoch shipped with (`None` with
    /// [`CertMode::Off`], or for an uncertified [`CertMode::Warn`]
    /// publish).
    pub certificate: Option<EpochCertificate>,
}

struct Shared {
    /// Epoch of the newest published snapshot (the read hot path's only
    /// synchronization point).
    head_epoch: AtomicU64,
    /// The newest published snapshot. Readers lock this only when
    /// `head_epoch` says their cache is stale; the critical section is one
    /// `Arc::clone`.
    head: Mutex<Arc<Snapshot>>,
    metrics: Metrics,
    queue: BoundedQueue<Event>,
    /// Events admitted to the queue, ever.
    events_enqueued: AtomicU64,
    /// Events the writer has finished with (applied or discarded).
    events_settled: AtomicU64,
    epoch_log: Mutex<Vec<EpochRecord>>,
    batch_max: usize,
    /// Certificate of the epoch-0 snapshot (the epoch log only records
    /// applied batches, so the genesis certificate lives here).
    genesis_cert: Option<EpochCertificate>,
}

/// The service: owns the writer thread and the shared state.
///
/// Obtain [`ServiceHandle`]s via [`MeshService::handle`] to serve queries
/// from any number of threads; call [`MeshService::shutdown`] for a clean
/// stop (close queue → drain → join writer).
pub struct MeshService {
    shared: Arc<Shared>,
    config: ServeConfig,
    writer: Option<JoinHandle<()>>,
}

impl MeshService {
    /// Cold-labels `topology` under `initial_faults` and starts the writer
    /// (no durability — see [`MeshService::start_durable`] for the
    /// WAL-backed variant).
    pub fn start(
        topology: Topology,
        initial_faults: impl IntoIterator<Item = Coord>,
        config: ServeConfig,
    ) -> Result<Self, ConvergenceError> {
        let map = FaultMap::new(topology, initial_faults);
        let initial = Arc::new(Snapshot::cold(0, map, &config.pipeline)?);
        Ok(Self::launch(initial, config, None, Vec::new()))
    }

    /// Like [`MeshService::start`], but every applied batch is appended to
    /// a fresh write-ahead log at `wal_path` (truncating any existing
    /// file) and fsynced **before** the epoch becomes visible to readers.
    /// A crashed service is resurrected from the log with
    /// [`MeshService::recover`].
    pub fn start_durable(
        topology: Topology,
        initial_faults: impl IntoIterator<Item = Coord>,
        config: ServeConfig,
        wal_path: impl AsRef<Path>,
    ) -> Result<Self, RecoverError> {
        let map = FaultMap::new(topology, initial_faults);
        let initial =
            Arc::new(Snapshot::cold(0, map, &config.pipeline).map_err(RecoverError::Convergence)?);
        let digest = if config.cert_mode == CertMode::Off {
            0
        } else {
            outcome_digest(&initial.map, &initial.outcome)
        };
        let init = WalRecord::Init {
            topology,
            faults: initial.map.faults(),
            rule: config.pipeline.rule,
            digest,
        };
        let wal = Wal::create(wal_path, &init).map_err(RecoverError::Io)?;
        Ok(Self::launch(initial, config, Some(wal), Vec::new()))
    }

    /// Resurrects a service from its write-ahead log: replays every intact
    /// record through the ordinary epoch pipeline (tolerating a torn
    /// tail), validates each stored certificate digest against the
    /// replayed snapshot, and resumes serving — and logging into the same
    /// file — at the terminal epoch. Replay determinism (the PR-1
    /// cold-oracle property) guarantees the recovered terminal snapshot is
    /// field-identical to the pre-crash one.
    ///
    /// The safety rule recorded in the log overrides
    /// `config.pipeline.rule`: a log must be replayed under the rule that
    /// produced it.
    pub fn recover(
        wal_path: impl AsRef<Path>,
        mut config: ServeConfig,
    ) -> Result<Self, RecoverError> {
        let (wal, records) = Wal::open(wal_path).map_err(RecoverError::Io)?;
        let mut records = records.into_iter();
        let Some(WalRecord::Init {
            topology,
            faults,
            rule,
            digest,
        }) = records.next()
        else {
            return Err(RecoverError::Corrupt(
                "log does not start with an Init record".into(),
            ));
        };
        config.pipeline.rule = rule;
        let map = FaultMap::new(topology, faults);
        let mut current =
            Snapshot::cold(0, map, &config.pipeline).map_err(RecoverError::Convergence)?;
        if digest != 0 && outcome_digest(&current.map, &current.outcome) != digest {
            return Err(RecoverError::Corrupt(
                "epoch 0 digest does not match the replayed snapshot".into(),
            ));
        }

        let mut log = Vec::new();
        for record in records {
            let WalRecord::Batch {
                epoch,
                faults,
                repairs,
                cert_digest,
            } = record
            else {
                return Err(RecoverError::Corrupt("second Init record".into()));
            };
            if epoch != current.epoch + 1 {
                return Err(RecoverError::Corrupt(format!(
                    "epoch {epoch} follows epoch {}",
                    current.epoch
                )));
            }
            let batch = EventBatch { faults, repairs };
            let next = current
                .apply(&batch, &config.pipeline)
                .map_err(RecoverError::Convergence)?;
            if cert_digest != 0 && outcome_digest(&next.map, &next.outcome) != cert_digest {
                return Err(RecoverError::Corrupt(format!(
                    "epoch {epoch} digest does not match the replayed snapshot"
                )));
            }
            let warm_rounds = next.outcome.safety_trace.rounds();
            // A zero digest marks an epoch that was originally published
            // uncertified (CertMode::Off, or a Warn-mode publish whose
            // check failed); re-deriving a certificate for it would make
            // the recovered audit log claim artifacts that never existed.
            let certificate = (config.cert_mode != CertMode::Off && cert_digest != 0)
                .then(|| EpochCertificate::describe(epoch, &next.map, &next.outcome));
            log.push(EpochRecord {
                epoch,
                faults: batch.faults,
                repairs: batch.repairs,
                warm_rounds,
                certificate,
            });
            current = next;
        }
        Ok(Self::launch(Arc::new(current), config, Some(wal), log))
    }

    /// Wires up the shared state and spawns the writer. `initial` is the
    /// head snapshot (epoch 0 on a fresh start, the replayed terminal
    /// epoch on recovery); `log` is the rebuilt audit log on recovery.
    fn launch(
        initial: Arc<Snapshot>,
        config: ServeConfig,
        wal: Option<Wal>,
        log: Vec<EpochRecord>,
    ) -> Self {
        let genesis_cert = match (config.cert_mode, initial.epoch) {
            (CertMode::Off, _) => None,
            // On recovery past epoch 0 the genesis snapshot is gone; its
            // batches were digest-validated during replay instead.
            (_, epoch) if epoch > 0 => None,
            _ => Some(EpochCertificate::describe(
                0,
                &initial.map,
                &initial.outcome,
            )),
        };
        let shared = Arc::new(Shared {
            head_epoch: AtomicU64::new(initial.epoch),
            head: Mutex::new(initial.clone()),
            metrics: Metrics::default(),
            queue: BoundedQueue::new(config.queue_capacity),
            events_enqueued: AtomicU64::new(0),
            events_settled: AtomicU64::new(0),
            epoch_log: Mutex::new(log),
            batch_max: config.batch_max,
            genesis_cert,
        });
        // The first certified epoch the writer's windowed checks build on:
        // the genesis, once it passes the full check. After a recovery
        // there is none, so the first publish is checked in full.
        let mut certified = None;
        if let Some(cert) = &shared.genesis_cert {
            if cert.check(&initial.map, &initial.outcome).is_err() {
                // The cold pipeline is verified by the whole test suite;
                // this firing means a certificate-layer bug, not a bad
                // machine state. Count it — epoch 0 must exist regardless.
                shared.metrics.cert_failures.fetch_add(1, Ordering::Relaxed);
                eprintln!("ocp-serve: genesis certificate failed its own check");
            } else {
                certified = Some(cert.clone());
            }
        }
        let writer = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ocp-serve-writer".into())
                .spawn(move || writer_loop(shared, initial, certified, config, wal))
                .expect("spawn writer thread")
        };
        Self {
            shared,
            config,
            writer: Some(writer),
        }
    }

    /// A new query handle bound to the current head snapshot.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            cached: self.shared.head.lock().expect("head lock").clone(),
            shared: self.shared.clone(),
            scratch: ocp_routing::RouteScratch::new(),
            batch_results: Vec::new(),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The audit log: one record per published epoch, in order.
    pub fn epoch_log(&self) -> Vec<EpochRecord> {
        self.shared
            .epoch_log
            .lock()
            .expect("epoch log lock")
            .clone()
    }

    /// Blocks until every admitted event has been applied or discarded, or
    /// the deadline passes; returns whether quiescence was reached.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let enqueued = self.shared.events_enqueued.load(Ordering::Acquire);
            let settled = self.shared.events_settled.load(Ordering::Acquire);
            if settled >= enqueued {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Clean shutdown: stop admitting events, let the writer drain the
    /// backlog, join it, and return the final stats.
    pub fn shutdown(mut self) -> StatsReport {
        self.shared.queue.close();
        if let Some(writer) = self.writer.take() {
            writer.join().expect("writer thread panicked");
        }
        self.handle().stats()
    }
}

impl Drop for MeshService {
    fn drop(&mut self) {
        self.shared.queue.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// The writer: drain → validate → relabel → certify → log → publish,
/// until closed. `certified` is the certificate of `current` when that
/// epoch passed its check here; each batch is then described and checked
/// only in its dirty windows, by induction from it. Without one (after a
/// recovery, or an uncertified Warn publish) the batch is checked in full.
fn writer_loop(
    shared: Arc<Shared>,
    mut current: Arc<Snapshot>,
    mut certified: Option<EpochCertificate>,
    config: ServeConfig,
    mut wal: Option<Wal>,
) {
    let pipeline = config.pipeline;
    // Non-empty batches processed, the clock the chaos injector ticks on.
    let mut attempt = 0u64;
    while let Some(first) = shared.queue.recv() {
        let mut events = vec![first];
        shared
            .queue
            .drain_up_to(shared.batch_max.saturating_sub(1), &mut events);
        let drained = events.len() as u64;
        shared.metrics.batches.fetch_add(1, Ordering::Relaxed);

        // Validate against the current map; duplicates within the batch
        // and events that no longer make sense are discarded (a fault for
        // an already-faulty node, a repair for a healthy one).
        let mut batch = EventBatch::default();
        let mut discarded = 0u64;
        for event in events {
            let valid = match event {
                Event::Fault(c) => {
                    current.map.topology().contains(c)
                        && !current.map.is_faulty(c)
                        && !batch.faults.contains(&c)
                }
                Event::Repair(c) => {
                    current.map.topology().contains(c)
                        && current.map.is_faulty(c)
                        && !batch.repairs.contains(&c)
                        && !batch.faults.contains(&c)
                }
            };
            if !valid {
                discarded += 1;
                continue;
            }
            match event {
                Event::Fault(c) => batch.faults.push(c),
                Event::Repair(c) => batch.repairs.push(c),
            }
        }
        shared
            .metrics
            .events_discarded
            .fetch_add(discarded, Ordering::Relaxed);

        if !batch.is_empty() {
            attempt += 1;
            // Publication lag: relabel + certify + log + publish time, from
            // the moment the batch is assembled to the moment readers can
            // see the epoch.
            let publish_start = Instant::now();
            match current.apply(&batch, &pipeline) {
                Ok(candidate) => {
                    let mut next = candidate;
                    let mut warm_rounds = next.outcome.safety_trace.rounds();
                    // Certificate gate: distill, then independently
                    // re-check before anything becomes visible. A failing
                    // warm snapshot gets one cold recompute of the *same*
                    // epoch; a failing cold one is refused, so readers
                    // never observe an uncertified epoch in Enforce — and
                    // never a skipped epoch number either, because the
                    // counter only advances on publish.
                    let mut certificate = None;
                    let mut rejected = false;
                    if config.cert_mode != CertMode::Off {
                        let (cert, checked) = match &certified {
                            Some(prev) => {
                                let base = CertifiedEpoch {
                                    certificate: prev,
                                    map: &current.map,
                                    outcome: &current.outcome,
                                };
                                let (faults, repairs) = (&batch.faults, &batch.repairs);
                                let cert = EpochCertificate::describe_after(
                                    base,
                                    faults,
                                    repairs,
                                    &next.map,
                                    &next.outcome,
                                );
                                let checked = cert
                                    .check_after(base, faults, repairs, &next.map, &next.outcome)
                                    .is_ok();
                                (cert, checked)
                            }
                            None => {
                                let cert = EpochCertificate::describe(
                                    next.epoch,
                                    &next.map,
                                    &next.outcome,
                                );
                                let checked = cert.check(&next.map, &next.outcome).is_ok();
                                (cert, checked)
                            }
                        };
                        let warm_ok = checked && !config.cert_chaos.fail_warm(attempt);
                        if warm_ok {
                            certificate = Some(cert);
                        } else {
                            shared.metrics.cert_failures.fetch_add(1, Ordering::Relaxed);
                            if config.cert_mode == CertMode::Enforce {
                                match Snapshot::cold(next.epoch, next.map.clone(), &pipeline) {
                                    Ok(cold) => {
                                        let cert = EpochCertificate::describe(
                                            cold.epoch,
                                            &cold.map,
                                            &cold.outcome,
                                        );
                                        let cold_ok = cert.check(&cold.map, &cold.outcome).is_ok()
                                            && !config.cert_chaos.fail_cold(attempt);
                                        if cold_ok {
                                            next = cold;
                                            warm_rounds = 0;
                                            certificate = Some(cert);
                                        } else {
                                            shared
                                                .metrics
                                                .cert_failures
                                                .fetch_add(1, Ordering::Relaxed);
                                            rejected = true;
                                        }
                                    }
                                    Err(_) => rejected = true,
                                }
                            }
                            // Warn: count the failure, publish uncertified.
                        }
                    }
                    if rejected {
                        shared
                            .metrics
                            .publishes_cert_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        shared
                            .metrics
                            .events_discarded
                            .fetch_add(batch.len() as u64, Ordering::Relaxed);
                        eprintln!(
                            "ocp-serve writer: certificate rejected epoch {}, batch dropped",
                            current.epoch + 1
                        );
                    } else if !wal_append(
                        &shared,
                        wal.as_mut(),
                        &next,
                        &batch,
                        certificate.as_ref(),
                    ) {
                        // Write-ahead failed: the epoch must not become
                        // visible without being durable first.
                        shared
                            .metrics
                            .publishes_overloaded
                            .fetch_add(1, Ordering::Relaxed);
                        shared
                            .metrics
                            .events_discarded
                            .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    } else {
                        let next = Arc::new(next);
                        {
                            // Publish: slot first, then epoch, inside the same
                            // critical section — a reader that observes the new
                            // epoch is guaranteed to find a snapshot at least
                            // that new in the slot.
                            let mut head = shared.head.lock().expect("head lock");
                            *head = next.clone();
                            shared.head_epoch.store(next.epoch, Ordering::Release);
                        }
                        shared
                            .metrics
                            .epoch_publish_lag
                            .record(publish_start.elapsed().as_nanos() as u64);
                        shared.metrics.record_index_build(&next.build);
                        shared
                            .metrics
                            .events_applied
                            .fetch_add(batch.len() as u64, Ordering::Relaxed);
                        shared
                            .metrics
                            .epochs_published
                            .fetch_add(1, Ordering::Relaxed);
                        shared
                            .epoch_log
                            .lock()
                            .expect("epoch log lock")
                            .push(EpochRecord {
                                epoch: next.epoch,
                                faults: batch.faults.clone(),
                                repairs: batch.repairs.clone(),
                                warm_rounds,
                                certificate: certificate.clone(),
                            });
                        certified = certificate;
                        current = next;
                    }
                }
                Err(e) => {
                    // A convergence stall is a bug upstream (the round cap
                    // is diameter-derived); keep serving the last good
                    // snapshot and account the batch as discarded.
                    shared
                        .metrics
                        .publishes_overloaded
                        .fetch_add(1, Ordering::Relaxed);
                    shared
                        .metrics
                        .events_discarded
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    eprintln!("ocp-serve writer: relabeling failed, batch dropped: {e}");
                }
            }
        }
        shared.events_settled.fetch_add(drained, Ordering::Release);
    }
}

/// Appends + fsyncs one batch record ahead of its publish. Returns false
/// when the WAL write failed (the batch must then be dropped — durability
/// is a precondition of visibility). A failed append is rolled back to
/// the pre-append offset: left in place, a fully-written record for the
/// never-published epoch would collide with the next publish's reuse of
/// the same epoch number (recovery then fails on the duplicate), and torn
/// bytes would masquerade as a torn tail and swallow every later record
/// on open. If the rollback itself fails the log poisons itself and every
/// further batch is refused — durable publishing halts loudly rather than
/// silently degrading. A service without a WAL trivially succeeds.
fn wal_append(
    shared: &Shared,
    wal: Option<&mut Wal>,
    next: &Snapshot,
    batch: &EventBatch,
    certificate: Option<&EpochCertificate>,
) -> bool {
    let Some(wal) = wal else { return true };
    let digest = certificate.map_or(0, |c| c.grid_digest);
    let record = WalRecord::batch(next.epoch, batch, digest);
    let pre_append = wal.offset();
    let append_start = Instant::now();
    let appended = wal.append(&record);
    shared
        .metrics
        .wal_append_ns
        .record(append_start.elapsed().as_nanos() as u64);
    let result = appended.and_then(|()| {
        let fsync_start = Instant::now();
        let synced = wal.sync();
        shared
            .metrics
            .wal_fsync_ns
            .record(fsync_start.elapsed().as_nanos() as u64);
        synced
    });
    match result {
        Ok(()) => true,
        Err(e) => {
            match wal.rollback(pre_append) {
                Ok(()) => {
                    eprintln!(
                        "ocp-serve writer: WAL write failed, batch dropped \
                         and log rolled back: {e}"
                    );
                }
                Err(roll) => {
                    eprintln!(
                        "ocp-serve writer: WAL write failed ({e}) and rollback \
                         failed ({roll}); durable publishing halted — all \
                         further batches will be dropped"
                    );
                }
            }
            false
        }
    }
}

/// A cloneable query handle over the service.
///
/// Read methods take `&mut self` only to refresh the handle's cached
/// snapshot pointer; they never lock on the hot path (see the module
/// docs). A handle is `Send`, so spawn one per worker thread.
pub struct ServiceHandle {
    shared: Arc<Shared>,
    cached: Arc<Snapshot>,
    scratch: ocp_routing::RouteScratch,
    /// Reusable result staging for the batched read path.
    batch_results: Vec<Result<usize, ocp_routing::RoutingError>>,
}

impl Clone for ServiceHandle {
    fn clone(&self) -> Self {
        Self {
            shared: self.shared.clone(),
            cached: self.cached.clone(),
            scratch: ocp_routing::RouteScratch::new(),
            batch_results: Vec::new(),
        }
    }
}

impl ServiceHandle {
    /// Hot path: one atomic load; the mutex is taken only when a new epoch
    /// was actually published since this handle last looked.
    fn refresh(&mut self) {
        let head = self.shared.head_epoch.load(Ordering::Acquire);
        if self.cached.epoch != head {
            self.cached = self.shared.head.lock().expect("head lock").clone();
        }
    }

    /// Records how far behind head the just-served epoch was.
    fn note_staleness(&self, served_epoch: u64) {
        let head = self.shared.head_epoch.load(Ordering::Relaxed);
        self.shared
            .metrics
            .record_staleness(head.saturating_sub(served_epoch));
    }

    /// The snapshot the next query would be served against.
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        self.refresh();
        self.cached.clone()
    }

    /// Current head epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.head_epoch.load(Ordering::Acquire)
    }

    /// Full fault-tolerant route between two nodes.
    pub fn route(&mut self, src: Coord, dst: Coord) -> RouteReply {
        let start = Instant::now();
        self.refresh();
        let outcome = match self.cached.router.route(src, dst) {
            Ok(path) => RouteOutcome::Delivered { hops: path.hops },
            Err(error) => RouteOutcome::Failed { error },
        };
        match &outcome {
            RouteOutcome::Delivered { .. } => self
                .shared
                .metrics
                .route
                .record(start.elapsed().as_nanos() as u64),
            RouteOutcome::Failed { .. } => self.shared.metrics.route.record_error(),
        }
        let reply = RouteReply {
            epoch: self.cached.epoch,
            outcome,
        };
        self.note_staleness(reply.epoch);
        reply
    }

    /// Up to `k` pairwise vertex-disjoint routes between two nodes,
    /// answered against one snapshot with the handle's persistent
    /// scratch. At `k == 1` the reply is byte-identical to what
    /// [`route`](ServiceHandle::route) returns, and the query fails
    /// exactly when `route` fails, with the same error.
    pub fn route_disjoint(&mut self, src: Coord, dst: Coord, k: usize) -> RouteDisjointReply {
        let start = Instant::now();
        self.refresh();
        let outcome = match self
            .cached
            .router
            .route_disjoint_with(src, dst, k, &mut self.scratch)
        {
            Ok(routes) => RouteDisjointOutcome::Delivered {
                paths: routes.paths.into_iter().map(|p| p.hops).collect(),
                stretch: routes.stretch,
            },
            Err(error) => RouteDisjointOutcome::Failed { error },
        };
        match &outcome {
            RouteDisjointOutcome::Delivered { .. } => self
                .shared
                .metrics
                .route_disjoint
                .record(start.elapsed().as_nanos() as u64),
            RouteDisjointOutcome::Failed { .. } => {
                self.shared.metrics.route_disjoint.record_error()
            }
        }
        let reply = RouteDisjointReply {
            epoch: self.cached.epoch,
            outcome,
        };
        self.note_staleness(reply.epoch);
        reply
    }

    /// Hop count only (no path allocation).
    pub fn route_len(&mut self, src: Coord, dst: Coord) -> RouteLenReply {
        let start = Instant::now();
        self.refresh();
        let outcome = match self.cached.router.route_len(src, dst) {
            Ok(len) => RouteLenOutcome::Delivered { len },
            Err(error) => RouteLenOutcome::Failed { error },
        };
        match &outcome {
            RouteLenOutcome::Delivered { .. } => self
                .shared
                .metrics
                .route_len
                .record(start.elapsed().as_nanos() as u64),
            RouteLenOutcome::Failed { .. } => self.shared.metrics.route_len.record_error(),
        }
        let reply = RouteLenReply {
            epoch: self.cached.epoch,
            outcome,
        };
        self.note_staleness(reply.epoch);
        reply
    }

    /// Many hop counts against **one** snapshot: the batched read fast
    /// path. The snapshot is refreshed once and each pair runs through
    /// the router's traversal with the handle's persistent scratch — the
    /// scratch and results vector are reused across batches, so a
    /// warmed-up handle performs no per-query allocation. The reply
    /// carries a single epoch tag, and metrics are amortized: one
    /// staleness sample, one mean-latency sample, and one `batch_width`
    /// sample for the whole batch. Outcomes are field-equal to sequential
    /// singleton [`route_len`](ServiceHandle::route_len) calls against
    /// the same snapshot.
    pub fn route_len_batch(&mut self, pairs: &[(Coord, Coord)]) -> RouteLenBatchReply {
        let start = Instant::now();
        self.refresh();
        self.cached
            .router
            .route_len_batch_with(pairs, &mut self.scratch, &mut self.batch_results);
        let mut errors = 0u64;
        let outcomes: Vec<RouteLenOutcome> = self
            .batch_results
            .iter()
            .map(|res| match res {
                Ok(len) => RouteLenOutcome::Delivered { len: *len },
                Err(error) => {
                    errors += 1;
                    RouteLenOutcome::Failed {
                        error: error.clone(),
                    }
                }
            })
            .collect();
        self.shared.metrics.route_len.record_batch(
            pairs.len() as u64,
            errors,
            start.elapsed().as_nanos() as u64,
        );
        self.shared.metrics.batch_width.record(pairs.len() as u64);
        let reply = RouteLenBatchReply {
            epoch: self.cached.epoch,
            outcomes,
        };
        if !pairs.is_empty() {
            self.note_staleness(reply.epoch);
        }
        reply
    }

    /// Labeled state of one node.
    pub fn status(&mut self, node: Coord) -> StatusReply {
        let start = Instant::now();
        self.refresh();
        let reply = StatusReply {
            epoch: self.cached.epoch,
            node,
            state: self.cached.node_state(node),
        };
        self.shared
            .metrics
            .status
            .record(start.elapsed().as_nanos() as u64);
        self.note_staleness(reply.epoch);
        reply
    }

    /// Enqueues crash events; admission-controlled, never blocking.
    pub fn inject_faults(&self, nodes: &[Coord]) -> InjectReply {
        self.inject(nodes.iter().map(|&c| Event::Fault(c)))
    }

    /// Enqueues repair events; admission-controlled, never blocking.
    pub fn repair_nodes(&self, nodes: &[Coord]) -> InjectReply {
        self.inject(nodes.iter().map(|&c| Event::Repair(c)))
    }

    fn inject(&self, events: impl ExactSizeIterator<Item = Event>) -> InjectReply {
        let epoch_at_enqueue = self.epoch();
        let requested = events.len();
        // One admission step for the whole request, so the writer cannot
        // pick up its first event before the rest and split it into two
        // epochs.
        let accepted = self.shared.queue.push_prefix(events);
        let rejected = requested - accepted;
        self.shared
            .events_enqueued
            .fetch_add(accepted as u64, Ordering::Release);
        self.shared
            .metrics
            .events_accepted
            .fetch_add(accepted as u64, Ordering::Relaxed);
        self.shared
            .metrics
            .events_rejected
            .fetch_add(rejected as u64, Ordering::Relaxed);
        InjectReply {
            accepted,
            rejected,
            epoch_at_enqueue,
        }
    }

    /// Live counters and latency percentiles.
    pub fn stats(&self) -> StatsReport {
        let m = &self.shared.metrics;
        m.meta_requests.fetch_add(1, Ordering::Relaxed);
        let samples = m.staleness_samples.load(Ordering::Relaxed);
        StatsReport {
            epoch: self.epoch(),
            epochs_published: m.epochs_published.load(Ordering::Relaxed),
            batches: m.batches.load(Ordering::Relaxed),
            events_accepted: m.events_accepted.load(Ordering::Relaxed),
            events_rejected: m.events_rejected.load(Ordering::Relaxed),
            events_applied: m.events_applied.load(Ordering::Relaxed),
            events_discarded: m.events_discarded.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.len(),
            queue_capacity: self.shared.queue.capacity(),
            route: m.route.report(),
            route_len: m.route_len.report(),
            route_disjoint: m.route_disjoint.report(),
            batch_width: m.batch_width.percentiles(),
            status: m.status.report(),
            staleness_mean_epochs: if samples == 0 {
                0.0
            } else {
                m.staleness_sum.load(Ordering::Relaxed) as f64 / samples as f64
            },
            staleness_max_epochs: m.staleness_max.load(Ordering::Relaxed),
            publish_lag_ns: m.epoch_publish_lag.percentiles(),
            cert_failures: m.cert_failures.load(Ordering::Relaxed),
            publishes_cert_rejected: m.publishes_cert_rejected.load(Ordering::Relaxed),
            publishes_overloaded: m.publishes_overloaded.load(Ordering::Relaxed),
            wal_append_ns: m.wal_append_ns.percentiles(),
            wal_fsync_ns: m.wal_fsync_ns.percentiles(),
            index_build_segment_ns: m.index_build_segment_ns.percentiles(),
            index_build_ring_ns: m.index_build_ring_ns.percentiles(),
            index_build_wide_ns: m.index_build_wide_ns.percentiles(),
            index_build_exit_ns: m.index_build_exit_ns.percentiles(),
            index_build_total_ns: m.index_build_total_ns.percentiles(),
            index_reuse_ratio: m.index_reuse_ratio(),
        }
    }

    /// The certificate one published epoch shipped with, or `None` when
    /// the epoch is unknown, was published uncertified, or the service
    /// runs with [`CertMode::Off`]. Epoch 0 answers with the genesis
    /// certificate.
    pub fn certificate(&self, epoch: u64) -> Option<EpochCertificate> {
        if epoch == 0 {
            return self.shared.genesis_cert.clone();
        }
        self.shared
            .epoch_log
            .lock()
            .expect("epoch log lock")
            .iter()
            .find(|r| r.epoch == epoch)
            .and_then(|r| r.certificate.clone())
    }

    /// The Prometheus text-format exposition page: the service's own
    /// families followed by the process-global `ocp-obs` registry (labeling
    /// phases, executors, chaos counters).
    pub fn metrics_text(&self) -> String {
        let mut page = prometheus_text(&self.stats());
        page.push_str(&ocp_obs::global().render_prometheus());
        page
    }

    /// The full typed observability report: service stats plus the global
    /// metric registry snapshot and the recent span trace.
    pub fn obs_report(&self) -> ObsReport {
        ObsReport {
            stats: self.stats(),
            registry: ocp_obs::global().snapshot(),
            spans: ocp_obs::tracer().snapshot(),
        }
    }

    /// Serves one typed [`Request`] — the single dispatch point shared by
    /// the TCP layer and any in-process caller that speaks the wire API.
    pub fn dispatch(&mut self, request: Request) -> Response {
        match request {
            Request::Route { src, dst } => Response::Route(self.route(src, dst)),
            Request::RouteLen { src, dst } => Response::RouteLen(self.route_len(src, dst)),
            Request::RouteDisjoint { src, dst, k } => {
                Response::RouteDisjoint(self.route_disjoint(src, dst, k))
            }
            Request::RouteLenBatch { pairs } => {
                Response::RouteLenBatch(self.route_len_batch(&pairs))
            }
            Request::Batch { requests } => Response::Batch {
                replies: requests.into_iter().map(|r| self.dispatch(r)).collect(),
            },
            Request::Status { node } => Response::Status(self.status(node)),
            Request::InjectFaults { nodes } => Response::Injected(self.inject_faults(&nodes)),
            Request::RepairNodes { nodes } => Response::Injected(self.repair_nodes(&nodes)),
            Request::Stats => Response::Stats(Box::new(self.stats())),
            Request::MetricsText => Response::MetricsText {
                text: self.metrics_text(),
            },
            Request::ObsReport => Response::Obs(Box::new(self.obs_report())),
            Request::Epoch => Response::Epoch {
                epoch: self.epoch(),
            },
            Request::Certificate { epoch } => Response::Certificate(Box::new(CertificateReply {
                epoch,
                certificate: self.certificate(epoch),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::NodeState;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn small_service() -> MeshService {
        MeshService::start(Topology::mesh(12, 12), [c(3, 3)], ServeConfig::default())
            .expect("service starts")
    }

    #[test]
    fn off_machine_repairs_are_discarded_and_the_writer_survives() {
        let service = small_service();
        let handle = service.handle();
        // (-1, 1) aliases the faulty-looking row-major index of (11, 0) and
        // (100, 100) indexes past the grid; neither is a node.
        let _ = handle.inject_faults(&[c(11, 0)]);
        assert!(service.quiesce(Duration::from_secs(10)));
        assert_eq!(handle.repair_nodes(&[c(-1, 1), c(100, 100)]).accepted, 2);
        assert!(service.quiesce(Duration::from_secs(10)));
        assert_eq!(handle.inject_faults(&[c(6, 6)]).accepted, 1);
        assert!(
            service.quiesce(Duration::from_secs(10)),
            "writer still alive"
        );
        let log = service.epoch_log();
        assert_eq!(log.len(), 2, "the bogus repairs published nothing");
        assert!(log.iter().all(|r| r.repairs.is_empty()));
        assert_eq!(service.shutdown().events_discarded, 2);
    }

    #[test]
    fn serves_routes_against_the_initial_snapshot() {
        let service = small_service();
        let mut h = service.handle();
        let reply = h.route(c(0, 3), c(11, 3));
        assert_eq!(reply.epoch, 0);
        match reply.outcome {
            RouteOutcome::Delivered { hops } => {
                assert_eq!(hops.first(), Some(&c(0, 3)));
                assert_eq!(hops.last(), Some(&c(11, 3)));
            }
            RouteOutcome::Failed { error } => panic!("route failed: {error}"),
        }
        let report = service.shutdown();
        assert_eq!(report.route.requests, 1);
    }

    #[test]
    fn injected_faults_converge_and_change_answers() {
        let service = small_service();
        let mut h = service.handle();
        assert_eq!(h.status(c(7, 7)).state, NodeState::Enabled);
        let ack = h.inject_faults(&[c(7, 7)]);
        assert_eq!((ack.accepted, ack.rejected), (1, 0));
        assert!(service.quiesce(Duration::from_secs(30)), "writer drained");
        assert_eq!(h.status(c(7, 7)).state, NodeState::Faulty);
        assert!(h.epoch() >= 1);
        // The epoch log records exactly what was applied.
        let log = service.epoch_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].faults, vec![c(7, 7)]);
        assert!(log[0].repairs.is_empty());
    }

    #[test]
    fn repairs_flow_through_the_cold_path() {
        let service = small_service();
        let mut h = service.handle();
        let ack = h.repair_nodes(&[c(3, 3)]);
        assert_eq!(ack.accepted, 1);
        assert!(service.quiesce(Duration::from_secs(30)));
        assert_eq!(h.status(c(3, 3)).state, NodeState::Enabled);
        assert_eq!(h.snapshot().map.fault_count(), 0);
    }

    #[test]
    fn invalid_events_are_discarded_not_applied() {
        let service = small_service();
        let h = service.handle();
        // Already faulty, off-machine, and repair-of-healthy: all invalid.
        h.inject_faults(&[c(3, 3), c(99, 99)]);
        h.repair_nodes(&[c(0, 0)]);
        assert!(service.quiesce(Duration::from_secs(30)));
        let stats = h.stats();
        assert_eq!(stats.events_discarded, 3);
        assert_eq!(stats.events_applied, 0);
        assert_eq!(h.epoch(), 0, "no epoch published for all-invalid batches");
    }

    #[test]
    fn admission_control_rejects_overload() {
        let service = MeshService::start(
            Topology::mesh(30, 30),
            [],
            ServeConfig {
                queue_capacity: 4,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let h = service.handle();
        // Far more events than capacity in one call: some must be
        // rejected (the writer may drain a few concurrently, so the exact
        // split varies, but the queue can never have buffered them all).
        let nodes: Vec<Coord> = (0..200).map(|i| c(i % 30, i / 30)).collect();
        let ack = h.inject_faults(&nodes);
        assert!(ack.rejected > 0, "queue of 4 absorbed 200 events");
        assert_eq!(ack.accepted + ack.rejected, 200);
        let stats = h.stats();
        assert_eq!(stats.events_rejected, ack.rejected as u64);
    }

    #[test]
    fn dispatch_covers_every_request_kind() {
        let service = small_service();
        let mut h = service.handle();
        let cases = [
            Request::Route {
                src: c(0, 0),
                dst: c(5, 5),
            },
            Request::RouteLen {
                src: c(0, 0),
                dst: c(5, 5),
            },
            Request::RouteDisjoint {
                src: c(0, 0),
                dst: c(5, 5),
                k: 2,
            },
            Request::RouteLenBatch {
                pairs: vec![(c(0, 0), c(5, 5)), (c(1, 0), c(0, 1))],
            },
            Request::Batch {
                requests: vec![Request::Epoch, Request::Stats],
            },
            Request::Status { node: c(3, 3) },
            Request::InjectFaults { nodes: vec![] },
            Request::RepairNodes { nodes: vec![] },
            Request::Stats,
            Request::MetricsText,
            Request::ObsReport,
            Request::Epoch,
        ];
        for request in cases {
            let response = h.dispatch(request.clone());
            assert!(
                !matches!(response, Response::Error { .. }),
                "{request:?} errored"
            );
        }
    }

    #[test]
    fn batched_route_len_matches_singletons() {
        let service = small_service();
        let mut h = service.handle();
        let pairs = [
            (c(0, 0), c(11, 11)),
            (c(0, 3), c(11, 3)),
            (c(3, 3), c(0, 0)), // endpoint faulty: error outcome
            (c(5, 5), c(5, 5)),
        ];
        let batch = h.route_len_batch(&pairs);
        assert_eq!(batch.epoch, 0);
        assert_eq!(batch.outcomes.len(), pairs.len());
        for (&(src, dst), outcome) in pairs.iter().zip(&batch.outcomes) {
            assert_eq!(outcome, &h.route_len(src, dst).outcome, "{src}->{dst}");
        }
        let stats = h.stats();
        // 4 batched + 4 singleton requests; one error in each pass.
        assert_eq!(stats.route_len.requests, 8);
        assert_eq!(stats.route_len.errors, 2);
        // Batched metrics are amortized: one latency sample for the whole
        // batch, then one per singleton success.
        assert_eq!(stats.route_len.latency_ns.n, 4);
        // One batch-width sample covering the whole call; singletons
        // don't contribute.
        assert_eq!(stats.batch_width.n, 1);
        // Log-bucketed histogram: a width-4 sample reads back at its
        // bucket's geometric midpoint, so allow the [4, 8) bucket range.
        assert!(
            stats.batch_width.p50 >= 4.0 && stats.batch_width.p50 < 8.0,
            "batch width sample should read back in the [4, 8) bucket, got {}",
            stats.batch_width.p50
        );
    }

    #[test]
    fn batch_request_dispatches_inner_requests_in_order() {
        let service = small_service();
        let mut h = service.handle();
        let response = h.dispatch(Request::Batch {
            requests: vec![
                Request::Epoch,
                Request::RouteLen {
                    src: c(0, 0),
                    dst: c(2, 0),
                },
                Request::RouteLenBatch {
                    pairs: vec![(c(0, 0), c(1, 0))],
                },
            ],
        });
        let Response::Batch { replies } = response else {
            panic!("expected batch response");
        };
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0], Response::Epoch { epoch: 0 });
        match &replies[1] {
            Response::RouteLen(r) => {
                assert_eq!(r.outcome, RouteLenOutcome::Delivered { len: 2 })
            }
            other => panic!("expected route_len reply, got {other:?}"),
        }
        match &replies[2] {
            Response::RouteLenBatch(r) => {
                assert_eq!(r.outcomes, vec![RouteLenOutcome::Delivered { len: 1 }])
            }
            other => panic!("expected route_len_batch reply, got {other:?}"),
        }
    }

    #[test]
    fn error_replies_skip_the_latency_histogram() {
        let service = small_service();
        let mut h = service.handle();
        h.route(c(3, 3), c(0, 0)); // faulty endpoint: fast-fail
        h.route(c(0, 0), c(1, 1));
        let stats = h.stats();
        assert_eq!(stats.route.requests, 2);
        assert_eq!(stats.route.errors, 1);
        assert_eq!(
            stats.route.latency_ns.n, 1,
            "fast-fail replies must not pollute latency percentiles"
        );
        let page = h.metrics_text();
        assert!(
            page.contains("ocp_serve_errors_total{endpoint=\"route\"} 1"),
            "{page}"
        );
    }

    #[test]
    fn publish_lag_and_scrape_reflect_published_epochs() {
        let service = small_service();
        let h = service.handle();
        h.inject_faults(&[c(8, 8)]);
        assert!(service.quiesce(Duration::from_secs(30)));
        let stats = h.stats();
        assert_eq!(
            stats.publish_lag_ns.n as u64, stats.epochs_published,
            "one lag sample per published epoch"
        );
        assert!(stats.publish_lag_ns.p50 > 0.0, "relabeling takes time");
        let page = h.metrics_text();
        assert!(page.contains("ocp_serve_publish_lag_ns_count 1"), "{page}");
        assert!(
            page.contains("ocp_serve_epochs_published_total 1"),
            "{page}"
        );
        let report = h.obs_report();
        assert_eq!(report.stats.epoch, h.epoch());
    }

    #[test]
    fn batches_coalesce_into_few_epochs() {
        // A request's events are admitted in one step, so the writer drains
        // each 12-node request whole and publishes it as exactly one epoch.
        // A split would depend on thread timing, so the request repeats,
        // alternately faulting and repairing the same nodes.
        const ROUNDS: u64 = 4000;
        let service = MeshService::start(
            Topology::mesh(20, 20),
            [],
            ServeConfig {
                batch_max: 64,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let h = service.handle();
        let nodes: Vec<Coord> = (0..12).map(|i| c(1 + i, 1 + i)).collect();
        for round in 0..ROUNDS {
            let ack = if round % 2 == 0 {
                h.inject_faults(&nodes)
            } else {
                h.repair_nodes(&nodes)
            };
            assert_eq!(ack.accepted, 12);
            assert!(service.quiesce(Duration::from_secs(30)));
            let stats = h.stats();
            assert_eq!(stats.events_applied, 12 * (round + 1));
            assert_eq!(
                stats.epochs_published,
                round + 1,
                "request {round} published as more than one epoch"
            );
        }
        let report = service.shutdown();
        assert_eq!(report.events_applied, 12 * ROUNDS);
    }

    #[test]
    fn every_published_epoch_carries_a_validated_certificate() {
        let service = small_service(); // default: CertMode::Enforce
        let mut h = service.handle();
        h.inject_faults(&[c(7, 7)]);
        assert!(service.quiesce(Duration::from_secs(30)));
        h.inject_faults(&[c(9, 2)]);
        assert!(service.quiesce(Duration::from_secs(30)));
        let log = service.epoch_log();
        assert_eq!(log.len(), 2);
        for record in &log {
            let cert = record
                .certificate
                .as_ref()
                .expect("Enforce always certifies");
            assert_eq!(cert.epoch, record.epoch);
        }
        // The head certificate re-validates against the head snapshot —
        // independently of the engine that produced it.
        let snap = h.snapshot();
        let head_cert = h.certificate(snap.epoch).expect("head epoch certified");
        head_cert
            .check(&snap.map, &snap.outcome)
            .expect("head certificate validates");
        // Epoch 0 is answered from the genesis certificate.
        assert!(h.certificate(0).is_some());
        assert!(h.certificate(999).is_none());
        // And the dispatch surface exposes the same thing.
        match h.dispatch(Request::Certificate { epoch: snap.epoch }) {
            Response::Certificate(reply) => {
                assert_eq!(reply.epoch, snap.epoch);
                assert_eq!(reply.certificate, Some(head_cert));
            }
            other => panic!("expected certificate reply, got {other:?}"),
        }
    }

    #[test]
    fn cert_off_publishes_without_certificates() {
        let service = MeshService::start(
            Topology::mesh(12, 12),
            [c(3, 3)],
            ServeConfig {
                cert_mode: CertMode::Off,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let h = service.handle();
        h.inject_faults(&[c(7, 7)]);
        assert!(service.quiesce(Duration::from_secs(30)));
        let log = service.epoch_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].certificate.is_none());
        assert!(h.certificate(0).is_none());
        assert_eq!(h.stats().cert_failures, 0);
    }

    #[test]
    fn chaos_warm_failure_falls_back_to_cold_and_publishes() {
        let service = MeshService::start(
            Topology::mesh(12, 12),
            [c(3, 3)],
            ServeConfig {
                cert_chaos: CertChaos::RejectWarmEveryNth(1),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut h = service.handle();
        h.inject_faults(&[c(7, 7)]);
        assert!(service.quiesce(Duration::from_secs(30)));
        assert_eq!(h.epoch(), 1, "cold fallback still publishes");
        assert_eq!(h.status(c(7, 7)).state, NodeState::Faulty);
        let stats = h.stats();
        assert_eq!(stats.cert_failures, 1, "the injected warm failure");
        assert_eq!(stats.publishes_cert_rejected, 0);
        let log = service.epoch_log();
        assert_eq!(log[0].warm_rounds, 0, "published from the cold recompute");
        let cert = log[0].certificate.as_ref().expect("cold publish certified");
        let snap = h.snapshot();
        cert.check(&snap.map, &snap.outcome)
            .expect("cert validates");
    }

    #[test]
    fn chaos_batch_rejection_never_advances_the_reader_epoch() {
        let service = MeshService::start(
            Topology::mesh(12, 12),
            [c(3, 3)],
            ServeConfig {
                cert_chaos: CertChaos::RejectBatchEveryNth(2),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut h = service.handle();
        // Batch 1 publishes, batch 2 is chaos-rejected, batch 3 publishes.
        for (i, node) in [c(7, 7), c(9, 2), c(1, 9)].iter().enumerate() {
            h.inject_faults(&[*node]);
            assert!(service.quiesce(Duration::from_secs(30)), "batch {i}");
        }
        assert_eq!(h.epoch(), 2, "two publishes, one rejection, no gaps");
        let stats = h.stats();
        assert_eq!(stats.publishes_cert_rejected, 1);
        assert_eq!(stats.cert_failures, 2, "warm + cold failures of batch 2");
        assert_eq!(stats.events_discarded, 1, "the rejected batch's event");
        assert_eq!(stats.events_applied, 2);
        // The epoch log is gapless: 1, 2.
        let epochs: Vec<u64> = service.epoch_log().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![1, 2]);
        // The rejected batch's fault never became visible.
        assert_eq!(h.status(c(9, 2)).state, NodeState::Enabled);
        // The scrape page carries the publish-result breakdown.
        let page = h.metrics_text();
        assert!(
            page.contains("ocp_serve_epoch_publish_total{result=\"ok\"} 2"),
            "{page}"
        );
        assert!(
            page.contains("ocp_serve_epoch_publish_total{result=\"cert_reject\"} 1"),
            "{page}"
        );
        assert!(page.contains("ocp_serve_cert_failures_total 2"), "{page}");
    }

    #[test]
    fn warn_mode_counts_failures_but_still_publishes() {
        let service = MeshService::start(
            Topology::mesh(12, 12),
            [c(3, 3)],
            ServeConfig {
                cert_mode: CertMode::Warn,
                cert_chaos: CertChaos::RejectWarmEveryNth(1),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let h = service.handle();
        h.inject_faults(&[c(7, 7)]);
        assert!(service.quiesce(Duration::from_secs(30)));
        assert_eq!(h.epoch(), 1, "Warn never refuses");
        let stats = h.stats();
        assert_eq!(stats.cert_failures, 1);
        assert_eq!(stats.publishes_cert_rejected, 0);
        let log = service.epoch_log();
        assert!(
            log[0].certificate.is_none(),
            "failed check leaves the epoch uncertified in Warn"
        );
    }

    #[test]
    fn stale_handle_refreshes_on_next_query() {
        let service = small_service();
        let mut reader = service.handle();
        assert_eq!(reader.route(c(0, 0), c(1, 1)).epoch, 0);
        let writer_side = service.handle();
        writer_side.inject_faults(&[c(8, 8)]);
        assert!(service.quiesce(Duration::from_secs(30)));
        // The stale reader picks up the new epoch on its next query.
        assert_eq!(reader.route(c(0, 0), c(1, 1)).epoch, 1);
    }
}
