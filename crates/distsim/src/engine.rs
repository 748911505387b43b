//! Executor selection and shared engine plumbing.

use crate::{LockstepProtocol, NeighborStates, RunTrace};
use ocp_mesh::{Coord, Grid, Neighborhood};

/// How to execute a [`LockstepProtocol`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// Deterministic single-threaded double-buffered execution.
    Sequential,
    /// Frontier-driven execution: a dirty-set worklist re-steps only nodes
    /// with a changed neighborhood (seeded by
    /// [`LockstepProtocol::initial_frontier`]). Byte-identical states *and*
    /// traces to `Sequential` for deterministic protocols, at
    /// `O(|frontier|)` instead of `O(N)` per round once activity
    /// localizes.
    Frontier,
    /// One OS thread per node, one channel per link — the literal
    /// message-passing reading of the paper. Only sensible for small
    /// machines; above 4096 nodes [`run`] falls back to `Frontier`.
    Actor,
}

impl Executor {
    /// Stable lowercase identifier, used as the `executor` label on every
    /// metric the engine exports (e.g. `sequential`, `frontier`).
    pub fn label(&self) -> &'static str {
        match self {
            Executor::Sequential => "sequential",
            Executor::Frontier => "frontier",
            Executor::Actor => "actor",
        }
    }
}

/// Result of running a protocol to quiescence (or to the round cap).
#[derive(Clone, Debug)]
pub struct RunOutcome<S> {
    /// Final per-node states.
    pub states: Grid<S>,
    /// Rounds, change counts and message totals.
    pub trace: RunTrace,
}

/// Largest machine the actor executor will accept (threads = nodes).
pub(crate) const MAX_ACTOR_NODES: usize = 4096;

/// Runs `protocol` to quiescence with the chosen executor.
///
/// `max_rounds` caps execution for non-converging protocols; the paper's
/// protocols converge within the largest block diameter, so callers
/// typically pass a small multiple of the topology diameter. If the cap is
/// hit, [`RunTrace::converged`] is false.
///
/// All executors produce byte-identical outcomes for deterministic
/// protocols (verified by the cross-executor integration tests).
///
/// ```
/// use ocp_distsim::{run, Executor, LockstepProtocol, NeighborStates};
/// use ocp_mesh::{Coord, Topology};
///
/// /// Every node adopts the max value seen in its neighborhood.
/// struct Flood(Topology);
/// impl LockstepProtocol for Flood {
///     type State = u32;
///     fn topology(&self) -> Topology { self.0 }
///     fn initial(&self, c: Coord) -> u32 { (c == Coord::new(0, 0)) as u32 }
///     fn ghost(&self) -> u32 { 0 }
///     fn participates(&self, _c: Coord) -> bool { true }
///     fn step(&self, _c: Coord, cur: u32, n: &NeighborStates<u32>) -> u32 {
///         n.iter().map(|(_, s)| s).fold(cur, u32::max)
///     }
/// }
///
/// let out = run(&Flood(Topology::mesh(4, 4)), Executor::Sequential, 100);
/// assert!(out.trace.converged);
/// assert_eq!(out.trace.rounds(), 6); // eccentricity of the corner
/// assert!(out.states.iter().all(|(_, &s)| s == 1));
/// ```
///
/// `Executor::Actor` on a machine larger than 4096 nodes does not panic:
/// it falls back to the frontier executor and records the substitution in
/// [`RunTrace::notes`] — the outcome is identical because all executors
/// agree on deterministic protocols.
pub fn run<P: LockstepProtocol>(
    protocol: &P,
    executor: Executor,
    max_rounds: u32,
) -> RunOutcome<P::State> {
    let timer = ocp_obs::enabled().then(std::time::Instant::now);
    let out = run_inner(protocol, executor, max_rounds);
    if let Some(start) = timer {
        crate::telemetry::record_run(executor.label(), &out.trace, start.elapsed());
    }
    out
}

fn run_inner<P: LockstepProtocol>(
    protocol: &P,
    executor: Executor,
    max_rounds: u32,
) -> RunOutcome<P::State> {
    match executor {
        Executor::Sequential => crate::sequential::run(protocol, max_rounds),
        Executor::Frontier => crate::frontier::run(protocol, max_rounds),
        Executor::Actor => {
            let nodes = protocol.topology().len();
            if nodes > MAX_ACTOR_NODES {
                let mut out = crate::frontier::run(protocol, max_rounds);
                out.trace.notes.push(format!(
                    "actor executor refused {nodes} nodes (cap {MAX_ACTOR_NODES}); \
                     fell back to the frontier executor"
                ));
                out
            } else {
                crate::actor::run(protocol, max_rounds)
            }
        }
    }
}

/// Like [`run`], but a run that stops at `max_rounds` without reaching a
/// quiet round is an explicit [`ConvergenceError`](crate::ConvergenceError)
/// instead of a silently ignorable flag. Prefer this in any caller that
/// treats the returned states as a fixpoint.
pub fn try_run<P: LockstepProtocol>(
    protocol: &P,
    executor: Executor,
    max_rounds: u32,
) -> Result<RunOutcome<P::State>, crate::ConvergenceError> {
    let out = run(protocol, executor, max_rounds);
    if out.trace.converged {
        Ok(out)
    } else {
        Err(crate::ConvergenceError::from_round_cap(&out, max_rounds))
    }
}

/// Lockstep actor execution under a chaos layer: every send passes through
/// the per-link models of `chaos` (drops, duplicates, reorders rendered as
/// one-round-late arrivals, down windows keyed by round number). Loss is
/// repaired by the lockstep re-announcement each round; convergence is
/// detected when a round has no state changes and no loss left any
/// receiver stale, which for monotone confluent protocols pins the same
/// fixpoint as a reliable run.
///
/// # Panics
/// Panics above 4096 nodes: no other executor implements the lockstep
/// chaos semantics, so there is nothing correct to fall back to (use
/// [`crate::run_chaos`], the event-driven chaos executor, for large
/// machines).
pub fn run_actor_chaos<P: LockstepProtocol>(
    protocol: &P,
    max_rounds: u32,
    chaos: &crate::ChaosConfig,
) -> RunOutcome<P::State> {
    assert!(
        protocol.topology().len() <= MAX_ACTOR_NODES,
        "actor chaos executor limited to {MAX_ACTOR_NODES} nodes ({} requested); \
         use run_chaos (event-driven) for larger machines",
        protocol.topology().len()
    );
    let timer = ocp_obs::enabled().then(std::time::Instant::now);
    let out = crate::actor::run_chaos(protocol, max_rounds, chaos);
    if let Some(start) = timer {
        crate::telemetry::record_run("actor-chaos", &out.trace, start.elapsed());
        crate::telemetry::record_chaos("actor-chaos", &out.trace.chaos);
    }
    out
}

/// [`run_actor_chaos`] with the convergence watchdog: hitting the round cap
/// is an explicit error.
pub fn try_run_actor_chaos<P: LockstepProtocol>(
    protocol: &P,
    max_rounds: u32,
    chaos: &crate::ChaosConfig,
) -> Result<RunOutcome<P::State>, crate::ConvergenceError> {
    let out = run_actor_chaos(protocol, max_rounds, chaos);
    if out.trace.converged {
        Ok(out)
    } else {
        Err(crate::ConvergenceError::from_round_cap(&out, max_rounds))
    }
}

/// Collects the four neighbor states of `c`, resolving mesh ghosts to the
/// protocol's ghost state and looking real neighbors up via `lookup`.
pub(crate) fn gather<P: LockstepProtocol>(
    protocol: &P,
    c: Coord,
    mut lookup: impl FnMut(Coord) -> P::State,
) -> NeighborStates<P::State> {
    let hood = Neighborhood::of(protocol.topology(), c);
    let g = protocol.ghost();
    let mut resolve = |n: ocp_mesh::Neighbor| match n.coord() {
        Some(cc) => lookup(cc),
        None => g,
    };
    NeighborStates::new([
        resolve(hood.in_direction(ocp_mesh::Direction::West)),
        resolve(hood.in_direction(ocp_mesh::Direction::East)),
        resolve(hood.in_direction(ocp_mesh::Direction::South)),
        resolve(hood.in_direction(ocp_mesh::Direction::North)),
    ])
}

/// Status messages sent per exchange round: every participating node sends
/// its state over each of its real links (ghost links carry nothing).
pub(crate) fn messages_per_round<P: LockstepProtocol>(protocol: &P) -> u64 {
    let t = protocol.topology();
    t.coords()
        .filter(|&c| protocol.participates(c))
        .map(|c| u64::from(t.real_degree(c)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosConfig;
    use ocp_mesh::{Coord, Topology};

    /// Monotone max-flood (confluent).
    struct MaxFlood(Topology);

    impl LockstepProtocol for MaxFlood {
        type State = u32;
        fn topology(&self) -> Topology {
            self.0
        }
        fn initial(&self, c: Coord) -> u32 {
            if c == Coord::new(0, 0) {
                77
            } else {
                0
            }
        }
        fn ghost(&self) -> u32 {
            0
        }
        fn participates(&self, _c: Coord) -> bool {
            true
        }
        fn step(&self, _c: Coord, cur: u32, n: &NeighborStates<u32>) -> u32 {
            n.iter().map(|(_, s)| s).fold(cur, u32::max)
        }
    }

    #[test]
    fn oversized_actor_falls_back_to_frontier() {
        // 70x70 = 4900 nodes: above the actor cap. Must not panic, must
        // reproduce the sequential run exactly, and must say what it did.
        let p = MaxFlood(Topology::mesh(70, 70));
        let reference = run(&p, Executor::Sequential, 400);
        let mut out = run(&p, Executor::Actor, 400);
        assert!(out.trace.converged);
        assert_eq!(out.trace.notes.len(), 1);
        assert!(
            out.trace.notes[0].contains("fell back to the frontier executor"),
            "{:?}",
            out.trace.notes
        );
        assert!(out
            .states
            .iter()
            .zip(reference.states.iter())
            .all(|((_, a), (_, b))| a == b));
        // Apart from the note, the trace is the sequential one.
        out.trace.notes.clear();
        assert_eq!(out.trace, reference.trace);
    }

    #[test]
    fn actor_chaos_reaches_reliable_fixpoint() {
        let p = MaxFlood(Topology::mesh(6, 5));
        let reference = run(&p, Executor::Sequential, 100);
        let cfg = ChaosConfig::uniform(0xAC7, 0.2, 0.1, 0.1);
        let out = try_run_actor_chaos(&p, 10_000, &cfg).expect("chaos actor run stalled");
        assert!(out
            .states
            .iter()
            .zip(reference.states.iter())
            .all(|((_, a), (_, b))| a == b));
        assert!(
            out.trace.chaos.dropped > 0,
            "nothing was dropped: {:?}",
            out.trace.chaos
        );
    }

    #[test]
    fn try_run_surfaces_round_cap() {
        let p = MaxFlood(Topology::mesh(12, 12));
        // A 12x12 corner flood needs 22 productive rounds; cap it at 3.
        let err = try_run(&p, Executor::Sequential, 3)
            .expect_err("cap of 3 cannot converge")
            .with_label("engine self-test");
        assert!(err.to_string().contains("engine self-test"));
        assert!(err.to_string().contains("3 rounds"));
    }
}
