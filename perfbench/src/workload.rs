//! The workloads and their seeded inputs.
//!
//! Every input is drawn from the `--seed` argument: the fault map, the read
//! request pool, and the injector's fault blobs. The service sees only
//! these generated inputs, never the seed.

use ocp_mesh::{Coord, Neighbor, Topology, DIRECTIONS};
use ocp_routing::EnabledMap;
use ocp_serve::Request;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::time::Duration;

/// What the read connections send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// RouteLen ≈ 90 %, Route ≈ 5 %, Status ≈ 5 %.
    Wire,
    /// RouteLenBatch of 64 enabled pairs ≈ 80 %, Route ≈ 20 %.
    Flagship,
}

/// One workload definition. The open-loop rates are constants set to about
/// half the closed-loop capacity measured on a 2-vCPU Xeon VM while other
/// tenants stole 20–35 % of its CPU time (≈ 20k requests/s on wire-small,
/// ≈ 1.5k on route-flagship); they are never derived from the run being
/// measured.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Mesh side length (the mesh is `side × side`).
    pub side: u32,
    /// Fault density in percent, placed by `clustered_faults`.
    pub fault_pct: usize,
    pub mix: Mix,
    /// Requests in flight per read connection in the closed-loop phase.
    pub depth: usize,
    /// Offered requests per second in the open-loop phase.
    pub open_rate: f64,
    /// Distinct requests in the read pool (the stream cycles through it).
    pub pool: usize,
    /// Pacing between the starts of fault-injection batches (a batch that
    /// is still becoming visible delays the next). The machine stays static
    /// while reads run; the publish path is measured in a tail phase after
    /// them. Pacing keeps the number of publishes, and so the epoch log, the
    /// same from run to run.
    pub batch_interval: Duration,
}

/// Nodes per injected fault blob.
pub const BLOB: usize = 16;
/// Pairs per RouteLenBatch request.
pub const BATCH_PAIRS: usize = 64;
/// Every `REPAIR_EVERY`-th injector batch repairs the live blobs.
pub const REPAIR_EVERY: u64 = 4;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "wire-small",
        why: "small cheap reads on a 64x64 mesh, so codec, framing and the reactor do the work",
        side: 64,
        fault_pct: 5,
        mix: Mix::Wire,
        depth: 16,
        open_rate: 10_000.0,
        pool: 4096,
        batch_interval: Duration::from_millis(5),
    },
    Workload {
        name: "route-flagship",
        why: "64-pair RouteLenBatch and long Routes on a 256x256 mesh at 6% faults, so routing compute dominates",
        side: 256,
        // At 10 % clustered faults a 256² map sits at the percolation
        // threshold: about half the seeds merge into one region touching
        // the border, where two thirds of the pairs fail fast, so no metric
        // would be steady across seeds. At 6 % every seed keeps about a
        // hundred regions and long routes.
        fault_pct: 6,
        mix: Mix::Flagship,
        depth: 4,
        open_rate: 750.0,
        pool: 1024,
        batch_interval: Duration::from_millis(40),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// An independent random stream per input kind, all derived from the seed.
pub fn stream(seed: u64, kind: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ kind)
}

impl Workload {
    pub fn topology(&self) -> Topology {
        Topology::mesh(self.side, self.side)
    }

    /// The initial fault list: clustered faults at the workload's density.
    pub fn faults(&self, seed: u64) -> Vec<Coord> {
        let t = self.topology();
        let f = t.len() * self.fault_pct / 100;
        // Clusters of about 24 nodes, as in the routing and rebuild
        // experiments (E17/E20/E22).
        ocp_workloads::clustered_faults(t, f, (f / 24).max(1), &mut stream(seed, 1))
    }

    /// The read request pool, drawn over the nodes enabled at epoch 0.
    pub fn pool(&self, seed: u64, enabled: &EnabledMap) -> Vec<Request> {
        let t = self.topology();
        let mut rng = stream(seed, 2);
        let pair = |rng: &mut SmallRng| {
            (
                random_enabled(rng, t, enabled),
                random_enabled(rng, t, enabled),
            )
        };
        (0..self.pool)
            .map(|_| {
                let roll = rng.gen_range(0u32..100);
                match self.mix {
                    Mix::Wire if roll < 90 => {
                        let (src, dst) = pair(&mut rng);
                        Request::RouteLen { src, dst }
                    }
                    Mix::Wire if roll < 95 => {
                        let (src, dst) = pair(&mut rng);
                        Request::Route { src, dst }
                    }
                    Mix::Wire => Request::Status {
                        node: random_node(&mut rng, t),
                    },
                    Mix::Flagship if roll < 80 => Request::RouteLenBatch {
                        pairs: (0..BATCH_PAIRS).map(|_| pair(&mut rng)).collect(),
                    },
                    Mix::Flagship => {
                        let (src, dst) = pair(&mut rng);
                        Request::Route { src, dst }
                    }
                }
            })
            .collect()
    }
}

/// Answered queries a request stands for: a batch counts its pairs.
pub fn queries_in(request: &Request) -> u64 {
    match request {
        Request::RouteLenBatch { pairs } => pairs.len() as u64,
        _ => 1,
    }
}

fn random_node(rng: &mut SmallRng, t: Topology) -> Coord {
    Coord::new(
        rng.gen_range(0..t.width() as i32),
        rng.gen_range(0..t.height() as i32),
    )
}

fn random_enabled(rng: &mut SmallRng, t: Topology, enabled: &EnabledMap) -> Coord {
    loop {
        let c = random_node(rng, t);
        if enabled.is_enabled(c) {
            return c;
        }
    }
}

/// One injector batch.
#[derive(Clone, Debug, PartialEq)]
pub enum Batch {
    /// Crash these nodes; visible once the last one reads Faulty.
    Inject(Vec<Coord>),
    /// Repair these nodes; visible once the last one stops reading Faulty.
    Repair(Vec<Coord>),
}

impl Batch {
    /// The node whose Status shows the batch applied: the last event
    /// queued, since the writer applies events in queue order.
    pub fn witness(&self) -> Coord {
        match self {
            Batch::Inject(nodes) | Batch::Repair(nodes) => *nodes.last().expect("non-empty batch"),
        }
    }
}

/// The injector's seeded batch sequence: compact blobs of [`BLOB`] nodes
/// enabled at epoch 0, with every [`REPAIR_EVERY`]-th batch repairing all
/// live blobs. Repairing them all returns the machine to its initial fault
/// set, so the workload stays stationary however long it runs.
pub struct BlobSource {
    rng: SmallRng,
    topology: Topology,
    enabled: EnabledMap,
    live: Vec<Coord>,
    taken: HashSet<Coord>,
    issued: u64,
}

impl BlobSource {
    pub fn new(seed: u64, enabled: EnabledMap) -> BlobSource {
        BlobSource {
            rng: stream(seed, 3),
            topology: enabled.topology(),
            enabled,
            live: Vec::new(),
            taken: HashSet::new(),
            issued: 0,
        }
    }

    /// The next batch of the sequence.
    pub fn next_batch(&mut self) -> Batch {
        self.issued += 1;
        if self.issued.is_multiple_of(REPAIR_EVERY) && !self.live.is_empty() {
            self.taken.clear();
            return Batch::Repair(std::mem::take(&mut self.live));
        }
        let blob = self.blob();
        self.taken.extend(blob.iter().copied());
        self.live.extend(blob.iter().copied());
        Batch::Inject(blob)
    }

    /// A 4-connected set of [`BLOB`] nodes, enabled at epoch 0 and not in
    /// a live blob, grown breadth-first from a random start.
    fn blob(&mut self) -> Vec<Coord> {
        let usable = |s: &Self, c: Coord| s.enabled.is_enabled(c) && !s.taken.contains(&c);
        for _ in 0..10_000 {
            let start = random_node(&mut self.rng, self.topology);
            if !usable(self, start) {
                continue;
            }
            let mut blob = Vec::with_capacity(BLOB);
            let mut seen = HashSet::from([start]);
            let mut queue = VecDeque::from([start]);
            while let Some(c) = queue.pop_front() {
                blob.push(c);
                if blob.len() == BLOB {
                    return blob;
                }
                for dir in DIRECTIONS {
                    if let Neighbor::Node(n) = self.topology.neighbor(c, dir) {
                        if usable(self, n) && seen.insert(n) {
                            queue.push_back(n);
                        }
                    }
                }
            }
        }
        panic!("no room for a {BLOB}-node blob of enabled nodes");
    }
}
