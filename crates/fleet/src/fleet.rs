//! The fleet itself: N independent [`MeshService`] instances behind one
//! address space of tenant names.
//!
//! ## Isolation model
//!
//! Every tenant owns a **whole** mesh service — its own writer thread,
//! event queue, epoch chain, WAL file, and certificate history. The
//! fleet layer adds only *placement* (a consistent-hash ring assigning
//! each tenant to a shard id, used as the bounded-cardinality metrics
//! label), *admission* (per-tenant token buckets plus fleet-wide
//! connection/byte budgets), and *lifecycle* (create/drop/list, durable
//! manifest, graceful drain). Nothing is shared between tenants'
//! epoch machinery, which is what makes the isolation test in this
//! module meaningful rather than vacuous: fault churn, epoch advance,
//! and WAL recovery on tenant A cannot touch tenant B's state because
//! no code path connects them.
//!
//! ## Durability
//!
//! With [`FleetConfig::wal_dir`] set, each tenant's epochs are logged to
//! `<wal_dir>/<name>.wal` and the tenant roster itself is persisted to
//! `<wal_dir>/manifest.json` (rewritten atomically on every create and
//! drop, with a checksum of the roster). [`Fleet::recover`] rebuilds the whole fleet from that
//! directory: the manifest restores the roster and each tenant's
//! service is resurrected by [`MeshService::recover`] — placement needs
//! no persistence because the hash ring is deterministic.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use ocp_obs::Registry;
use ocp_serve::{MeshService, Request, ServeConfig, ServiceHandle, StatsReport};

use crate::admission::{FleetBudget, TokenBucket};
use crate::api::{FleetRequest, FleetResponse, FleetStatsReply, TenantInfo, TenantSpec};
use crate::ring::HashRing;

/// Tenant names must be non-empty, at most this long, and drawn from
/// `[a-z0-9_-]` — the alphabet that embeds safely in WAL file names and
/// JSON without escaping.
pub const MAX_TENANT_NAME_LEN: usize = 64;

/// Fleet-level configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Shards on the consistent-hash ring (the metrics label space).
    pub shards: usize,
    /// When set, tenants are WAL-backed under this directory and the
    /// roster is persisted to `manifest.json` there.
    pub wal_dir: Option<PathBuf>,
    /// Hard cap on live tenants.
    pub max_tenants: usize,
    /// Per-tenant admission bucket: burst capacity (tokens).
    pub tenant_burst: u64,
    /// Per-tenant admission bucket: sustained refill rate (tokens/sec).
    pub tenant_rate: u64,
    /// Fleet-wide connection budget (applied by the TCP front).
    pub max_connections: u64,
    /// Fleet-wide in-flight request byte budget.
    pub max_inflight_bytes: u64,
    /// Base per-tenant service config; each tenant's [`TenantSpec`]
    /// overrides the safety rule and certificate mode.
    pub serve: ServeConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            wal_dir: None,
            max_tenants: 64,
            tenant_burst: 100_000,
            tenant_rate: 100_000,
            max_connections: 16_384,
            max_inflight_bytes: 64 << 20,
            serve: ServeConfig::default(),
        }
    }
}

/// One live tenant.
struct TenantEntry {
    shard: usize,
    durable: bool,
    spec: TenantSpec,
    /// The owning service; taken out on drop/shutdown.
    service: MeshService,
    /// Prototype query handle, cloned per dispatch.
    handle: ServiceHandle,
    bucket: Arc<TokenBucket>,
}

/// Fleet-lifetime counters backing [`FleetStatsReply`].
#[derive(Default)]
struct FleetCounters {
    created: AtomicU64,
    dropped: AtomicU64,
    requests: AtomicU64,
    throttled: AtomicU64,
    over_budget: AtomicU64,
    unknown_tenant: AtomicU64,
}

struct FleetInner {
    config: FleetConfig,
    ring: HashRing,
    tenants: RwLock<HashMap<String, TenantEntry>>,
    /// Names with a create in flight: reserved *before* the tenant's WAL
    /// is created (which truncates), so two racing creates of the same
    /// name cannot both reach the filesystem. See [`NameReservation`].
    creating: Mutex<HashSet<String>>,
    budget: FleetBudget,
    registry: Registry,
    counters: FleetCounters,
}

/// Releases a name reserved in [`FleetInner::creating`] on every exit
/// path of `create_tenant`. The winner inserts into the tenant map
/// *before* this drops, so a racer always observes either the
/// reservation or the live entry — never a gap.
struct NameReservation<'a> {
    creating: &'a Mutex<HashSet<String>>,
    name: &'a str,
}

impl Drop for NameReservation<'_> {
    fn drop(&mut self) {
        let mut creating = match self.creating.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        creating.remove(self.name);
    }
}

/// The fleet owner: holds the tenant services and tears them down on
/// [`Fleet::shutdown`]. Query paths go through [`FleetHandle`] clones.
pub struct Fleet {
    inner: Arc<FleetInner>,
}

/// A cloneable, thread-safe dispatcher over the fleet — the type the
/// reactor front's workers hold.
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<FleetInner>,
}

/// Rejects names that would be unsafe as WAL file names or hostile as
/// metric/label content.
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME_LEN {
        return Err(format!(
            "tenant name must be 1..={MAX_TENANT_NAME_LEN} characters"
        ));
    }
    if !name
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
    {
        return Err("tenant name may only contain [a-z0-9_-]".into());
    }
    Ok(())
}

/// The durable roster as stored in `manifest.json`: the tenants and an
/// FNV-1a checksum of their canonical encoding, so a corrupted manifest
/// is refused rather than restoring a roster nobody wrote.
#[derive(serde::Serialize, serde::Deserialize)]
struct Manifest {
    tenants: BTreeMap<String, TenantSpec>,
    checksum: u64,
}

impl Manifest {
    fn encode(tenants: BTreeMap<String, TenantSpec>) -> Vec<u8> {
        let body = serde_json::to_vec(&tenants).expect("specs always serialize");
        let checksum = ocp_core::certificate::fnv1a(&body);
        serde_json::to_vec(&Manifest { tenants, checksum }).expect("manifests always serialize")
    }

    /// The roster, once the bytes parse, the checksum matches the
    /// tenants' canonical encoding, and every name is a valid tenant name
    /// (names become WAL file names). A bare roster without the checksum,
    /// as earlier builds wrote it, is still read; recovery rewrites it in
    /// the checksummed form.
    fn decode(raw: &[u8]) -> Result<BTreeMap<String, TenantSpec>, String> {
        let tenants = match serde_json::from_slice::<Manifest>(raw) {
            Ok(manifest) => {
                let body = serde_json::to_vec(&manifest.tenants).expect("specs always serialize");
                if ocp_core::certificate::fnv1a(&body) != manifest.checksum {
                    return Err("checksum mismatch".into());
                }
                manifest.tenants
            }
            Err(e) => serde_json::from_slice(raw).map_err(|_| e.to_string())?,
        };
        for name in tenants.keys() {
            validate_tenant_name(name).map_err(|e| format!("tenant {name:?}: {e}"))?;
        }
        Ok(tenants)
    }
}

impl Fleet {
    /// Starts an empty fleet. Creates `wal_dir` (and an empty manifest)
    /// when durability is configured.
    pub fn new(config: FleetConfig) -> std::io::Result<Self> {
        let fleet = Self::bare(config)?;
        fleet.handle().write_manifest_if_durable()?;
        Ok(fleet)
    }

    /// The shared constructor: allocates the fleet and `wal_dir` but
    /// does **not** touch `manifest.json` — [`Fleet::recover`] must be
    /// able to build an empty fleet without clobbering the very roster
    /// it is about to restore from.
    fn bare(config: FleetConfig) -> std::io::Result<Self> {
        if let Some(dir) = &config.wal_dir {
            std::fs::create_dir_all(dir)?;
        }
        let inner = Arc::new(FleetInner {
            ring: HashRing::new(config.shards),
            budget: FleetBudget::new(config.max_connections, config.max_inflight_bytes),
            registry: Registry::new(),
            counters: FleetCounters::default(),
            tenants: RwLock::new(HashMap::new()),
            creating: Mutex::new(HashSet::new()),
            config,
        });
        Ok(Self { inner })
    }

    /// Rebuilds a durable fleet from `config.wal_dir`: reads the roster
    /// from `manifest.json` and resurrects every tenant's service from
    /// its WAL. Placement and shard labels are recomputed from the
    /// deterministic hash ring.
    ///
    /// # Errors
    /// Fails if `wal_dir` is unset, the manifest is unreadable or fails
    /// its checksum, a tenant name in it is invalid, or any tenant's WAL
    /// replay fails — a fleet that cannot prove it restored every tenant
    /// refuses to start.
    pub fn recover(config: FleetConfig) -> Result<Self, String> {
        let dir = config
            .wal_dir
            .clone()
            .ok_or_else(|| "recover requires FleetConfig::wal_dir".to_string())?;
        let manifest_path = dir.join("manifest.json");
        let raw = std::fs::read(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        let roster = Manifest::decode(&raw).map_err(|e| format!("corrupt manifest: {e}"))?;

        // `bare`, not `new`: the on-disk manifest must stay intact until
        // the roster it describes is fully restored, so a crash at any
        // point during recovery leaves a manifest that still names every
        // tenant for the next attempt.
        let fleet = Self::bare(config).map_err(|e| format!("fleet init: {e}"))?;
        {
            let handle = fleet.handle();
            let mut tenants = handle.inner.tenants.write().expect("tenant map lock");
            for (name, spec) in roster {
                let wal_path = dir.join(format!("{name}.wal"));
                let serve = handle.serve_config_for(&spec);
                let service = MeshService::recover(&wal_path, serve)
                    .map_err(|e| format!("tenant {name}: WAL recovery failed: {e:?}"))?;
                let entry = handle.entry_for(&name, spec, service, true);
                tenants.insert(name, entry);
            }
            handle
                .inner
                .counters
                .created
                .store(tenants.len() as u64, Ordering::Relaxed);
            handle.tenants_gauge().set(tenants.len() as i64);
        }
        // Canonicalize the manifest against the recovered roster so a
        // second restart recovers the same fleet.
        fleet
            .handle()
            .write_manifest_if_durable()
            .map_err(|e| format!("manifest rewrite after recovery: {e}"))?;
        Ok(fleet)
    }

    /// A cloneable dispatcher for this fleet.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            inner: self.inner.clone(),
        }
    }

    /// Graceful drain: quiesces every tenant's writer (bounded by
    /// `timeout` each), shuts each service down, and returns the final
    /// per-tenant stats, sorted by tenant name.
    pub fn shutdown(self, timeout: Duration) -> Vec<(String, StatsReport)> {
        let entries: Vec<(String, TenantEntry)> = {
            let mut tenants = self.inner.tenants.write().expect("tenant map lock");
            let mut entries: Vec<_> = tenants.drain().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries
        };
        self.handle().tenants_gauge().set(0);
        entries
            .into_iter()
            .map(|(name, entry)| {
                entry.service.quiesce(timeout);
                (name, entry.service.shutdown())
            })
            .collect()
    }
}

impl FleetHandle {
    // ---- dispatch ----------------------------------------------------

    /// Handles one wire frame: JSON-decodes a [`FleetRequest`], runs it,
    /// and JSON-encodes the [`FleetResponse`]. Malformed payloads get a
    /// typed error reply instead of a dropped connection. This is the
    /// closure the reactor front's workers run.
    pub fn dispatch_bytes(&self, payload: &[u8]) -> Vec<u8> {
        let reply = match serde_json::from_slice::<FleetRequest>(payload) {
            Ok(request) => self.dispatch_costed(request, payload.len() as u64),
            Err(e) => FleetResponse::Error {
                message: format!("malformed fleet request: {e}"),
            },
        };
        serde_json::to_vec(&reply).expect("fleet responses always serialize")
    }

    /// Handles one in-process request (byte cost 1 against the fleet
    /// budget — use [`FleetHandle::dispatch_bytes`] on the wire path
    /// where the true frame size is known).
    pub fn dispatch(&self, request: FleetRequest) -> FleetResponse {
        self.dispatch_costed(request, 1)
    }

    fn dispatch_costed(&self, request: FleetRequest, wire_bytes: u64) -> FleetResponse {
        match request {
            FleetRequest::CreateTenant { name, spec } => self.create_tenant(&name, spec),
            FleetRequest::DropTenant { name } => self.drop_tenant(&name),
            FleetRequest::ListTenants => FleetResponse::Tenants {
                tenants: self.list_tenants(),
            },
            FleetRequest::Tenant { tenant, request } => {
                self.tenant_request(&tenant, request, wire_bytes)
            }
            FleetRequest::FleetStats => FleetResponse::FleetStats(self.stats()),
            FleetRequest::MetricsText => FleetResponse::MetricsText {
                text: self.metrics_text(),
            },
        }
    }

    fn tenant_request(&self, tenant: &str, request: Request, wire_bytes: u64) -> FleetResponse {
        // Per-tenant admission first, then the fleet-wide byte budget:
        // a throttled tenant must not consume shared budget.
        let (mut handle, shard, bucket) = {
            let tenants = self.inner.tenants.read().expect("tenant map lock");
            match tenants.get(tenant) {
                Some(entry) => (entry.handle.clone(), entry.shard, entry.bucket.clone()),
                None => {
                    self.inner
                        .counters
                        .unknown_tenant
                        .fetch_add(1, Ordering::Relaxed);
                    return FleetResponse::Error {
                        message: format!("unknown tenant {tenant:?}"),
                    };
                }
            }
        };
        if !bucket.try_take(1) {
            self.inner
                .counters
                .throttled
                .fetch_add(1, Ordering::Relaxed);
            self.inner
                .registry
                .tenant_counter(
                    "ocp_fleet_throttled_total",
                    "Requests rejected by a tenant's admission bucket.",
                    shard,
                )
                .inc();
            return FleetResponse::Throttled {
                tenant: tenant.to_string(),
            };
        }
        if !self.inner.budget.acquire_bytes(wire_bytes) {
            self.inner
                .counters
                .over_budget
                .fetch_add(1, Ordering::Relaxed);
            return FleetResponse::Error {
                message: "fleet over in-flight byte budget".into(),
            };
        }
        let response = handle.dispatch(request);
        self.inner.budget.release_bytes(wire_bytes);
        self.inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.inner
            .registry
            .tenant_counter(
                "ocp_fleet_requests_total",
                "Tenant-scoped requests dispatched, labeled by shard id.",
                shard,
            )
            .inc();
        FleetResponse::Tenant {
            tenant: tenant.to_string(),
            response,
        }
    }

    // ---- lifecycle ---------------------------------------------------

    fn create_tenant(&self, name: &str, spec: TenantSpec) -> FleetResponse {
        if let Err(message) = validate_tenant_name(name) {
            return FleetResponse::Error { message };
        }
        // Reserve the name before any filesystem work: creating a durable
        // tenant truncates `<name>.wal`, so two racing creates that both
        // passed a plain duplicate check would have the loser destroy the
        // winner's live log. The reservation is dropped on every exit
        // path, but only after a winner has inserted into the map.
        let _reservation = {
            let mut creating = self.inner.creating.lock().expect("creation guard lock");
            if creating.contains(name) {
                return FleetResponse::Error {
                    message: format!("tenant {name:?} already exists"),
                };
            }
            {
                let tenants = self.inner.tenants.read().expect("tenant map lock");
                if tenants.contains_key(name) {
                    return FleetResponse::Error {
                        message: format!("tenant {name:?} already exists"),
                    };
                }
            }
            creating.insert(name.to_string());
            NameReservation {
                creating: &self.inner.creating,
                name,
            }
        };
        let serve = self.serve_config_for(&spec);
        let durable = self.inner.config.wal_dir.is_some();

        // Build the service *outside* the map lock (cold labeling can be
        // expensive), then insert under the lock.
        let started = if let Some(dir) = &self.inner.config.wal_dir {
            let wal_path = dir.join(format!("{name}.wal"));
            MeshService::start_durable(
                spec.topology,
                spec.initial_faults.iter().copied(),
                serve,
                wal_path,
            )
            .map_err(|e| format!("{e:?}"))
        } else {
            MeshService::start(spec.topology, spec.initial_faults.iter().copied(), serve)
                .map_err(|e| format!("{e:?}"))
        };
        let service = match started {
            Ok(service) => service,
            Err(message) => {
                return FleetResponse::Error {
                    message: format!("tenant {name:?}: {message}"),
                }
            }
        };

        let shard;
        {
            let mut tenants = self.inner.tenants.write().expect("tenant map lock");
            if tenants.contains_key(name) {
                drop(tenants);
                service.quiesce(Duration::from_millis(100));
                let _ = service.shutdown();
                return FleetResponse::Error {
                    message: format!("tenant {name:?} already exists"),
                };
            }
            if tenants.len() >= self.inner.config.max_tenants {
                drop(tenants);
                let _ = service.shutdown();
                return FleetResponse::Error {
                    message: format!("fleet at max_tenants ({})", self.inner.config.max_tenants),
                };
            }
            let entry = self.entry_for(name, spec, service, durable);
            shard = entry.shard;
            tenants.insert(name.to_string(), entry);
            self.tenants_gauge().set(tenants.len() as i64);
        }
        self.inner.counters.created.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.write_manifest_if_durable() {
            return FleetResponse::Error {
                message: format!("tenant {name:?} created but manifest write failed: {e}"),
            };
        }
        FleetResponse::Created {
            tenant: name.to_string(),
            shard,
        }
    }

    fn drop_tenant(&self, name: &str) -> FleetResponse {
        let entry = {
            let mut tenants = self.inner.tenants.write().expect("tenant map lock");
            let entry = tenants.remove(name);
            self.tenants_gauge().set(tenants.len() as i64);
            entry
        };
        let Some(entry) = entry else {
            return FleetResponse::Error {
                message: format!("unknown tenant {name:?}"),
            };
        };
        entry.service.quiesce(Duration::from_secs(1));
        let _ = entry.service.shutdown();
        self.inner.counters.dropped.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.write_manifest_if_durable() {
            return FleetResponse::Error {
                message: format!("tenant {name:?} dropped but manifest write failed: {e}"),
            };
        }
        FleetResponse::Dropped {
            tenant: name.to_string(),
        }
    }

    fn list_tenants(&self) -> Vec<TenantInfo> {
        let tenants = self.inner.tenants.read().expect("tenant map lock");
        let mut infos: Vec<TenantInfo> = tenants
            .iter()
            .map(|(name, entry)| TenantInfo {
                name: name.clone(),
                shard: entry.shard,
                epoch: entry.handle.epoch(),
                durable: entry.durable,
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    // ---- introspection -----------------------------------------------

    /// Fleet-wide counters.
    pub fn stats(&self) -> FleetStatsReply {
        let tenants = self.inner.tenants.read().expect("tenant map lock").len() as u64;
        let c = &self.inner.counters;
        FleetStatsReply {
            tenants,
            created_total: c.created.load(Ordering::Relaxed),
            dropped_total: c.dropped.load(Ordering::Relaxed),
            requests_total: c.requests.load(Ordering::Relaxed),
            throttled_total: c.throttled.load(Ordering::Relaxed),
            over_budget_total: c.over_budget.load(Ordering::Relaxed),
            unknown_tenant_total: c.unknown_tenant.load(Ordering::Relaxed),
        }
    }

    /// The fleet's Prometheus page: fleet-level series plus per-tenant
    /// series labeled by shard id (bounded cardinality).
    pub fn metrics_text(&self) -> String {
        self.inner.registry.render_prometheus()
    }

    /// The fleet's metrics registry, for embedding into a larger page.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The fleet-wide connection/byte budget (the TCP front claims
    /// connection slots against it).
    pub fn budget(&self) -> &FleetBudget {
        &self.inner.budget
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.inner.config
    }

    /// The shard the ring places `tenant` on (pure; the tenant need not
    /// exist).
    pub fn shard_of(&self, tenant: &str) -> usize {
        self.inner.ring.shard(tenant)
    }

    /// A direct query handle into one tenant's service, bypassing fleet
    /// admission — the in-process oracle path used by tests and the
    /// fleet experiments.
    pub fn tenant_handle(&self, tenant: &str) -> Option<ServiceHandle> {
        let tenants = self.inner.tenants.read().expect("tenant map lock");
        tenants.get(tenant).map(|entry| entry.handle.clone())
    }

    // ---- internals ---------------------------------------------------

    fn serve_config_for(&self, spec: &TenantSpec) -> ServeConfig {
        let mut serve = self.inner.config.serve;
        serve.pipeline.rule = spec.rule;
        serve.cert_mode = spec.cert_mode;
        serve
    }

    fn entry_for(
        &self,
        name: &str,
        spec: TenantSpec,
        service: MeshService,
        durable: bool,
    ) -> TenantEntry {
        TenantEntry {
            shard: self.inner.ring.shard(name),
            durable,
            handle: service.handle(),
            bucket: Arc::new(TokenBucket::new(
                self.inner.config.tenant_burst,
                self.inner.config.tenant_rate,
            )),
            spec,
            service,
        }
    }

    fn tenants_gauge(&self) -> Arc<ocp_obs::Gauge> {
        self.inner
            .registry
            .gauge("ocp_fleet_tenants", "Live tenants in the fleet.", &[])
    }

    /// Atomically rewrites `<wal_dir>/manifest.json` with the current
    /// roster (write-to-temp then rename). No-op for in-memory fleets.
    fn write_manifest_if_durable(&self) -> std::io::Result<()> {
        let Some(dir) = &self.inner.config.wal_dir else {
            return Ok(());
        };
        let roster: BTreeMap<String, TenantSpec> = {
            let tenants = self.inner.tenants.read().expect("tenant map lock");
            tenants
                .iter()
                .map(|(name, entry)| (name.clone(), entry.spec.clone()))
                .collect()
        };
        let bytes = Manifest::encode(roster);
        let tmp = dir.join("manifest.json.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, dir.join("manifest.json"))?;
        Ok(())
    }
}
