//! # ocp-distsim
//!
//! A distributed **synchronous lock-step** simulation engine for
//! neighbor-exchange protocols on 2-D meshes and tori.
//!
//! The paper's algorithms (Section 3) are phrased as iterative protocols:
//!
//! > *"each node exchanges its status with its neighbors and changes its
//! > status based on the collected neighbors' status … each iterative
//! > algorithm is assumed to be synchronous and each round of exchange and
//! > update is done in a lock-step mode … until there is no status change."*
//!
//! A protocol is described once, as a [`LockstepProtocol`] — per-node initial
//! state, the ghost-node state for mesh boundaries, and a transition function
//! from the four collected neighbor states. The engine then runs it to
//! quiescence on one of three interchangeable executors:
//!
//! * [`Executor::Sequential`] — deterministic double-buffered reference
//!   executor; the semantics every other executor must reproduce.
//! * [`Executor::Frontier`] — dirty-set worklist scheduling: only nodes
//!   with a changed neighborhood are re-stepped each round (protocols can
//!   seed round 1 via [`LockstepProtocol::initial_frontier`]). Identical
//!   states and traces to `Sequential`, much faster once activity
//!   localizes around fault clusters.
//! * [`Executor::Actor`] — the most literal rendering of the paper: **one
//!   thread per node**, with a channel per link; every round each node sends
//!   its status to its neighbors, receives theirs, and steps. Practical for
//!   small meshes (tests, demos); above 4096 nodes [`run`] falls back to
//!   the frontier executor and says so in [`RunTrace::notes`]. The
//!   executor-equivalence tests pin all three to identical results.
//!
//! Faulty nodes "just cease to work" (Section 2): they are modeled as
//! non-participating nodes whose state never leaves its initial value —
//! their neighbors observing that permanent value stands in for hardware
//! fault detection.
//!
//! The engine reports a [`RunTrace`]: rounds to convergence (the metric of
//! the paper's Figure 5 (a)/(b)), per-round change counts, message totals,
//! and — when a chaos layer is active — the injected-anomaly counters.
//!
//! ## Chaos layer
//!
//! The [`chaos`] module adds a seeded adversary: per-link drop, duplicate
//! and reorder probabilities plus link-down windows ([`ChaosConfig`]) and
//! mid-run node crashes ([`CrashPlan`]). [`run_chaos`] is the event-driven
//! executor under that adversary; [`run_actor_chaos`] is the lockstep actor
//! rendering. Both rely on the protocols being monotone confluent joins to
//! re-converge to the reliable fixpoint, with a heartbeat/re-announcement
//! discipline repairing lost knowledge. The [`try_run`] family turns a run
//! that stalls at its cap into an explicit [`ConvergenceError`] with
//! diagnostics instead of a silently ignorable flag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
pub mod asynchronous;
pub mod chaos;
mod engine;
mod error;
mod frontier;
mod protocol;
mod sequential;
mod telemetry;
mod trace;

pub use asynchronous::{run_async, run_chaos, try_run_async, try_run_chaos, AsyncOutcome};
pub use chaos::{ChaosConfig, ChaosStats, CrashPlan, LinkModel};
pub use engine::{run, run_actor_chaos, try_run, try_run_actor_chaos, Executor, RunOutcome};
pub use error::{ConvergenceError, ConvergenceErrorKind};
pub use protocol::{LockstepProtocol, NeighborStates};
pub use trace::RunTrace;
