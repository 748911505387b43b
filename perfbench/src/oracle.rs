//! The oracle checks, all run off the clock.
//!
//! * Reads, on the static machine: every wire reply must equal, byte for
//!   byte, the in-process `ServiceHandle::dispatch` of the same request on
//!   the same epoch, and a seeded sample of those oracle replies is
//!   re-derived from the reference traversal.
//! * Publishes: every Status poll of the injector is checked against the
//!   snapshot of the epoch it is tagged with, rebuilt from
//!   `MeshService::epoch_log()` with `Snapshot::apply`; the terminal
//!   snapshot must match a cold build and the service's head.

use crate::workload::stream;
use ocp_core::prelude::*;
use ocp_serve::{
    EpochRecord, EventBatch, Request, Response, RouteLenOutcome, RouteOutcome, ServiceHandle,
    Snapshot, StatusReply,
};
use rand::Rng;

/// Pool entries re-derived from the reference traversal.
const REFERENCE_SAMPLE: usize = 256;

/// The in-process oracle's reply bytes for every pool request.
pub fn expected_replies(handle: &mut ServiceHandle, pool: &[Request]) -> Vec<Vec<u8>> {
    pool.iter()
        .map(|r| serde_json::to_vec(&handle.dispatch(r.clone())).expect("responses serialize"))
        .collect()
}

/// Checks a seeded sample of the oracle replies themselves against the
/// reference traversal. Returns one line per problem.
pub fn check_oracle(
    snapshot: &Snapshot,
    pool: &[Request],
    expected: &[Vec<u8>],
    seed: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut rng = stream(seed, 4);
    let router = &snapshot.router;
    let len_ref = |src, dst| match router.route_len_reference(src, dst) {
        Ok(len) => RouteLenOutcome::Delivered { len },
        Err(error) => RouteLenOutcome::Failed { error },
    };
    for (i, (request, bytes)) in pool.iter().zip(expected).enumerate() {
        if rng.gen_range(0..pool.len()) >= REFERENCE_SAMPLE {
            continue;
        }
        let response: Response = match serde_json::from_slice(bytes) {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("pool[{i}]: oracle reply does not decode: {e}"));
                continue;
            }
        };
        let ok = match (request, &response) {
            (Request::RouteLen { src, dst }, Response::RouteLen(reply)) => {
                reply.outcome == len_ref(*src, *dst)
            }
            (Request::Route { src, dst }, Response::Route(reply)) => {
                match (&reply.outcome, router.route_reference(*src, *dst)) {
                    (RouteOutcome::Delivered { hops }, Ok(path)) => *hops == path.hops,
                    (RouteOutcome::Failed { error }, Err(e)) => *error == e,
                    _ => false,
                }
            }
            (Request::RouteLenBatch { pairs }, Response::RouteLenBatch(reply)) => {
                reply.outcomes.len() == pairs.len()
                    && pairs
                        .iter()
                        .zip(&reply.outcomes)
                        .all(|(&(s, d), o)| *o == len_ref(s, d))
            }
            (Request::Status { node }, Response::Status(reply)) => {
                reply.state == snapshot.node_state(*node)
            }
            _ => false,
        };
        if !ok {
            problems.push(format!("pool[{i}]: oracle reply fails the reference check"));
        }
    }
    problems
}

/// What an epoch replay found.
pub struct EpochReplay {
    pub problems: Vec<String>,
    /// Status polls checked against their tagged epoch.
    pub checked: usize,
}

/// Replays the epoch log from `initial`, checking each Status poll against
/// the snapshot of its epoch, each certificate digest against the replayed
/// snapshot, and the terminal snapshot against both a cold build and the
/// service's own head snapshot (`head`).
pub fn replay_epochs(
    initial: &Snapshot,
    log: &[EpochRecord],
    config: &PipelineConfig,
    polls: &[StatusReply],
    head: &Snapshot,
) -> EpochReplay {
    let mut problems = Vec::new();
    let mut polls_by_epoch: Vec<&StatusReply> = polls.iter().collect();
    polls_by_epoch.sort_by_key(|p| p.epoch);
    let mut p = 0;
    let mut checked = 0;
    let mut current = initial.clone();
    let mut records = log.iter();
    loop {
        while let Some(poll) = polls_by_epoch.get(p).copied() {
            if poll.epoch != current.epoch {
                break;
            }
            let want = current.node_state(poll.node);
            if poll.state != want {
                problems.push(format!(
                    "Status {:?} at epoch {}: got {:?}, want {want:?}",
                    poll.node, poll.epoch, poll.state
                ));
            }
            checked += 1;
            p += 1;
        }
        let Some(record) = records.next() else { break };
        if record.epoch != current.epoch + 1 {
            problems.push(format!(
                "epoch log jumps from {} to {}",
                current.epoch, record.epoch
            ));
            break;
        }
        let batch = EventBatch {
            faults: record.faults.clone(),
            repairs: record.repairs.clone(),
        };
        current = match current.apply(&batch, config) {
            Ok(next) => next,
            Err(e) => {
                problems.push(format!(
                    "epoch {} does not converge on replay: {e}",
                    record.epoch
                ));
                break;
            }
        };
        if let Some(cert) = &record.certificate {
            if cert.grid_digest != outcome_digest(&current.map, &current.outcome) {
                problems.push(format!(
                    "epoch {}: certificate digest differs from the replay",
                    record.epoch
                ));
            }
        }
    }
    let stray = polls_by_epoch.len() - p;
    if stray > 0 {
        problems.push(format!(
            "{stray} polls tagged with epochs the log does not reach"
        ));
    }
    match Snapshot::cold(current.epoch, current.map.clone(), config) {
        Ok(cold) => {
            let digests =
                |s: &Snapshot| (outcome_digest(&s.map, &s.outcome), s.router.table_digest());
            if digests(&current) != digests(&cold) {
                problems.push("terminal replayed snapshot differs from a cold build".into());
            }
            if head.epoch != current.epoch || digests(head) != digests(&cold) {
                problems.push(format!(
                    "service head (epoch {}) differs from the cold build of epoch {}",
                    head.epoch, current.epoch
                ));
            }
        }
        Err(e) => problems.push(format!("cold build of the terminal map failed: {e}")),
    }
    EpochReplay { problems, checked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Reads;
    use ocp_mesh::{Coord, Topology};
    use ocp_serve::{MeshService, NodeState, ServeConfig};
    use std::time::Duration;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn small_service() -> MeshService {
        MeshService::start(
            Topology::mesh(10, 10),
            [c(4, 4), c(4, 5), c(5, 4)],
            ServeConfig::default(),
        )
        .expect("service starts")
    }

    fn pool() -> Vec<Request> {
        vec![
            Request::RouteLen {
                src: c(0, 4),
                dst: c(9, 4),
            },
            Request::Route {
                src: c(4, 0),
                dst: c(4, 9),
            },
            Request::Status { node: c(4, 4) },
            Request::RouteLenBatch {
                pairs: vec![(c(0, 0), c(9, 9)), (c(3, 4), c(6, 5))],
            },
        ]
    }

    #[test]
    fn static_check_accepts_faithful_replies_and_flags_one_corrupted_reply() {
        let service = small_service();
        let mut handle = service.handle();
        let pool = pool();
        let expected = expected_replies(&mut handle, &pool);
        assert!(check_oracle(&handle.snapshot(), &pool, &expected, 7).is_empty());

        let mut reads = Reads::new(pool.clone(), expected.clone());
        for (i, bytes) in expected.iter().enumerate() {
            let mut wire = bytes.clone();
            if i == 1 {
                // Corrupt one hop of the Route reply: a digit of a coordinate.
                let pos = wire
                    .iter()
                    .rposition(|b| b.is_ascii_digit())
                    .expect("reply holds a digit");
                wire[pos] = if wire[pos] == b'1' { b'2' } else { b'1' };
            }
            reads.accept(i as u32, &wire);
        }
        assert_eq!(reads.mismatches, vec![1]);
        service.shutdown();
    }

    #[test]
    fn static_check_flags_an_error_reply_and_a_lost_read() {
        let service = small_service();
        let pool = pool();
        let expected = expected_replies(&mut service.handle(), &pool);
        let mut reads = Reads::new(pool, expected.clone());
        let error = serde_json::to_vec(&Response::Error {
            message: "overloaded".into(),
        })
        .unwrap();
        reads.accept(0, &expected[0]);
        reads.accept(2, &error);
        reads.lost(3);
        assert_eq!(reads.mismatches, vec![2, 3]);
        service.shutdown();
    }

    #[test]
    fn oracle_check_rejects_a_corrupted_oracle_reply() {
        let service = small_service();
        let mut handle = service.handle();
        let pool = pool();
        let mut expected = expected_replies(&mut handle, &pool);
        let mut bad: Response = serde_json::from_slice(&expected[0]).unwrap();
        if let Response::RouteLen(reply) = &mut bad {
            reply.outcome = RouteLenOutcome::Delivered { len: 1 };
        }
        expected[0] = serde_json::to_vec(&bad).unwrap();
        // A pool smaller than the reference sample is checked in full.
        let problems = check_oracle(&handle.snapshot(), &pool, &expected, 7);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("pool[0]"));
        service.shutdown();
    }

    #[test]
    fn epoch_replay_flags_a_poll_with_a_corrupted_state() {
        let service = small_service();
        let mut handle = service.handle();
        let initial = handle.snapshot();
        let node = c(6, 4);
        let mut polls = vec![handle.status(node)];
        assert!(handle.inject_faults(&[c(6, 5), node]).fully_accepted());
        assert!(service.quiesce(Duration::from_secs(30)));
        polls.push(handle.status(node));
        assert_eq!(polls[1].state, NodeState::Faulty);
        let head = handle.snapshot();
        let config = service.config().pipeline;
        let log = service.epoch_log();

        let clean = replay_epochs(&initial, &log, &config, &polls, &head);
        assert!(clean.problems.is_empty(), "{:?}", clean.problems);
        assert_eq!(clean.checked, 2);

        let mut corrupted = polls.clone();
        corrupted[1].state = polls[0].state;
        let bad = replay_epochs(&initial, &log, &config, &corrupted, &head);
        assert_eq!(bad.problems.len(), 1, "{:?}", bad.problems);
        service.shutdown();
    }
}
