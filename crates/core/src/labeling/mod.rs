//! The two distributed labeling phases of the paper.
//!
//! Phase 1 ([`safety`]) classifies nonfaulty nodes safe/unsafe and yields the
//! rectangular faulty blocks; phase 2 ([`enablement`]) re-enables as many
//! unsafe-but-nonfaulty nodes as possible, leaving minimal orthogonal convex
//! disabled regions. Both are [`ocp_distsim::LockstepProtocol`]s and run on
//! any of the generic executors — or, via [`LabelEngine::Bitboard`], on the
//! word-parallel bit-packed kernels of [`bits`], which reproduce the exact
//! same outcomes and traces at a fraction of the cost.

pub mod bits;
pub mod distance;
pub mod enablement;
pub mod safety;

use ocp_distsim::Executor;

/// How the labeling phases execute.
///
/// Every variant produces byte-identical grids and [`ocp_distsim::RunTrace`]s
/// for the paper's (deterministic, monotone) protocols — pinned by the
/// executor-equivalence tests — so the choice is purely a performance one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelEngine {
    /// Run the phase protocols generically on an `ocp-distsim` executor
    /// (the paper-faithful message-passing renderings).
    Lockstep(Executor),
    /// Protocol-specific word-parallel bit-packed kernels with a row-level
    /// frontier ([`bits`]), single-threaded. Orders of magnitude faster on
    /// large sparse-fault meshes; the serving writer's engine.
    Bitboard,
}

impl Default for LabelEngine {
    /// The paper-faithful reference setting.
    fn default() -> Self {
        LabelEngine::Lockstep(Executor::Sequential)
    }
}

impl From<Executor> for LabelEngine {
    fn from(executor: Executor) -> Self {
        LabelEngine::Lockstep(executor)
    }
}

impl LabelEngine {
    /// Stable lowercase identifier, used as the `engine` label on every
    /// metric the labeling phases export and as the engine name in the
    /// `repro` experiment sweeps (e.g. `lockstep-sequential`,
    /// `lockstep-frontier`, `bitboard`).
    pub fn label(&self) -> &'static str {
        match self {
            LabelEngine::Lockstep(Executor::Sequential) => "lockstep-sequential",
            LabelEngine::Lockstep(Executor::Frontier) => "lockstep-frontier",
            LabelEngine::Lockstep(Executor::Actor) => "lockstep-actor",
            LabelEngine::Bitboard => "bitboard",
        }
    }
}

/// Default round cap for a topology: `cells + 1`, a bound every
/// converging run meets.
///
/// Both phases are monotone — phase 1 only turns nodes safe → unsafe,
/// phase 2 only disabled → enabled — so each node flips at most once per
/// phase. A run stops at its first round without a flip, so every earlier
/// round flips at least one node, and a run executes at most `cells`
/// flipping rounds plus the final quiet one. The bound holds for every
/// engine (the bitboard kernels replay the executors' per-round change
/// counts exactly) and for warm starts, which begin from the previous
/// unsafe set and stay monotone from there. A diameter-based cap does
/// not: clustered 10 % maps need more than `2(w + h) + 8` rounds, since
/// one phase-1 wave can zig-zag through a whole merged cluster.
pub fn default_round_cap(topology: ocp_mesh::Topology) -> u32 {
    u32::try_from(topology.len()).map_or(u32::MAX, |cells| cells.saturating_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use ocp_mesh::Topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A seeded clustered 128² / 10 % map whose phase 1 needs 595 rounds:
    /// past the old `2(w + h) + 8 = 520` cap, inside `cells + 1`.
    #[test]
    fn default_cap_converges_on_clustered_ten_percent_maps() {
        let t = Topology::mesh(128, 128);
        let f = t.len() / 10;
        let mut rng = SmallRng::seed_from_u64(196u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 1);
        let faults = ocp_workloads::clustered_faults(t, f, f / 24, &mut rng);
        let (first, rest) = faults.split_at(f / 2);
        let map = FaultMap::new(t, faults.iter().copied());
        let old_cap = 2 * (t.width() + t.height()) + 8;
        for engine in [LabelEngine::default(), LabelEngine::Bitboard] {
            let config = PipelineConfig {
                engine,
                ..PipelineConfig::default()
            };
            let out = try_run_pipeline(&map, &config).expect("converges under the default cap");
            assert!(
                out.safety_trace.rounds_executed() > old_cap,
                "{engine:?}: the map must need more rounds than the old cap"
            );
        }
        // A warm start onto the same final map converges too (on the
        // serving engine; the engines are trace-identical).
        let config = PipelineConfig {
            engine: LabelEngine::Bitboard,
            ..PipelineConfig::default()
        };
        let half = FaultMap::new(t, first.iter().copied());
        let previous = try_run_pipeline(&half, &config).expect("converges");
        let (_, warm) =
            crate::maintenance::try_relabel_after_faults(&half, rest, &previous, &config)
                .expect("warm start converges under the default cap");
        let cold = try_run_pipeline(&map, &config).expect("converges");
        assert_eq!(warm.outcome.activation, cold.activation);
    }
}
