//! The convergence watchdog: explicit errors for runs that stall.
//!
//! Historically a run that hit its round or event cap reported
//! `converged: false` and nothing else — silent enough that several callers
//! simply ignored it and published a non-fixpoint grid as if it were the
//! answer. [`ConvergenceError`] turns that condition into a value that must
//! be handled, carrying enough diagnostics (cap, progress at the cap,
//! chaos counters) to tell a protocol bug from an under-provisioned cap or
//! a link that can never deliver.

use crate::chaos::ChaosStats;
use crate::{AsyncOutcome, RunOutcome};
use std::fmt;

/// A protocol run stopped at its cap instead of reaching quiescence.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergenceError {
    /// Human-readable description of which computation stalled
    /// (e.g. `"phase-1 safety labeling"`). Empty if the caller added none.
    pub label: String,
    /// What stopped the run, with diagnostics.
    pub kind: ConvergenceErrorKind,
}

/// The cap a stalled run hit.
#[derive(Clone, Debug, PartialEq)]
pub enum ConvergenceErrorKind {
    /// A lockstep run executed `cap` rounds without a quiet round.
    RoundCap {
        /// The configured round cap.
        cap: u32,
        /// Nodes still changing in the last executed round.
        last_round_changes: u32,
        /// Total state changes across the run.
        total_changes: u64,
        /// Chaos counters at the cap (all zeros for a reliable run).
        chaos: ChaosStats,
    },
    /// An event-driven run processed `cap` events without draining its
    /// queue.
    EventCap {
        /// The configured event cap.
        cap: u64,
        /// Messages delivered before the cap.
        messages_delivered: u64,
        /// Virtual time of the last processed event.
        virtual_time: u64,
        /// Chaos counters at the cap (all zeros for a reliable run).
        chaos: ChaosStats,
    },
}

impl ConvergenceError {
    /// Attaches (or replaces) the description of the stalled computation.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Builds the error from a lockstep outcome known not to have
    /// converged.
    pub(crate) fn from_round_cap<S>(outcome: &RunOutcome<S>, cap: u32) -> Self {
        Self::round_cap_from_trace(cap, &outcome.trace)
    }

    /// Builds a round-cap error from an executed [`crate::RunTrace`] — for
    /// engines outside this crate that honor the same lockstep round
    /// semantics (e.g. the bit-packed labeling kernels in `ocp-core`).
    pub fn round_cap_from_trace(cap: u32, trace: &crate::RunTrace) -> Self {
        ConvergenceError {
            label: String::new(),
            kind: ConvergenceErrorKind::RoundCap {
                cap,
                last_round_changes: trace.changes_per_round.last().copied().unwrap_or(0),
                total_changes: trace.total_changes(),
                chaos: trace.chaos,
            },
        }
    }

    /// Builds the error from an event-driven outcome known not to have
    /// converged.
    pub(crate) fn from_event_cap<S>(outcome: &AsyncOutcome<S>, cap: u64) -> Self {
        ConvergenceError {
            label: String::new(),
            kind: ConvergenceErrorKind::EventCap {
                cap,
                messages_delivered: outcome.messages_delivered,
                virtual_time: outcome.virtual_time,
                chaos: outcome.chaos,
            },
        }
    }
}

impl fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = if self.label.is_empty() {
            "protocol run"
        } else {
            self.label.as_str()
        };
        match &self.kind {
            ConvergenceErrorKind::RoundCap {
                cap,
                last_round_changes,
                total_changes,
                chaos,
            } => {
                write!(
                    f,
                    "{what} did not converge within {cap} rounds \
                     ({last_round_changes} nodes still changing in the last round, \
                     {total_changes} changes total"
                )?;
                if chaos != &ChaosStats::default() {
                    write!(
                        f,
                        "; chaos: {} dropped, {} duplicated, {} reordered, \
                         {} retransmissions, {} down-discards",
                        chaos.dropped,
                        chaos.duplicated,
                        chaos.reordered,
                        chaos.retransmissions,
                        chaos.link_down_discards
                    )?;
                }
                write!(
                    f,
                    ") — raise the round cap or check the protocol for oscillation"
                )
            }
            ConvergenceErrorKind::EventCap {
                cap,
                messages_delivered,
                virtual_time,
                chaos,
            } => {
                write!(
                    f,
                    "{what} did not quiesce within {cap} events \
                     ({messages_delivered} messages delivered, virtual time {virtual_time}"
                )?;
                if chaos != &ChaosStats::default() {
                    write!(
                        f,
                        "; chaos: {} dropped, {} duplicated, {} reordered, \
                         {} retransmissions, {} down-discards",
                        chaos.dropped,
                        chaos.duplicated,
                        chaos.reordered,
                        chaos.retransmissions,
                        chaos.link_down_discards
                    )?;
                }
                write!(
                    f,
                    ") — raise the event cap, or check for a link that can never deliver \
                     (drop 1.0 / unbounded down window)"
                )
            }
        }
    }
}

impl std::error::Error for ConvergenceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, Executor, LockstepProtocol, NeighborStates};
    use ocp_mesh::{Coord, Topology};

    /// Oscillates forever: never converges under any cap.
    struct Blinker(Topology);

    impl LockstepProtocol for Blinker {
        type State = bool;
        fn topology(&self) -> Topology {
            self.0
        }
        fn initial(&self, c: Coord) -> bool {
            (c.x + c.y) % 2 == 0
        }
        fn ghost(&self) -> bool {
            false
        }
        fn participates(&self, _c: Coord) -> bool {
            true
        }
        fn step(&self, _c: Coord, cur: bool, _n: &NeighborStates<bool>) -> bool {
            !cur
        }
    }

    #[test]
    fn round_cap_error_carries_diagnostics() {
        let p = Blinker(Topology::mesh(4, 4));
        let out = run(&p, Executor::Sequential, 7);
        assert!(!out.trace.converged);
        let err = ConvergenceError::from_round_cap(&out, 7).with_label("blinker test");
        match &err.kind {
            ConvergenceErrorKind::RoundCap {
                cap,
                last_round_changes,
                ..
            } => {
                assert_eq!(*cap, 7);
                assert_eq!(*last_round_changes, 16);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("blinker test"), "{text}");
        assert!(text.contains("7 rounds"), "{text}");
    }
}
