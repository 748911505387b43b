//! Engine tests against two reference protocols with analytically known
//! behavior: max-flooding and BFS distance fronts.

use ocp_distsim::{run, Executor, LockstepProtocol, NeighborStates, RunOutcome};
use ocp_mesh::{Coord, Topology};

/// Max-flood: every node starts with a value; each round it adopts the max
/// of itself and its neighbors. Converges to the global max everywhere in
/// exactly ecc(argmax) rounds (eccentricity of the seed).
struct MaxFlood {
    topology: Topology,
    seed: Coord,
}

impl LockstepProtocol for MaxFlood {
    type State = u32;

    fn topology(&self) -> Topology {
        self.topology
    }

    fn initial(&self, c: Coord) -> u32 {
        if c == self.seed {
            1_000_000
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

    fn step(&self, _c: Coord, current: u32, neighbors: &NeighborStates<u32>) -> u32 {
        neighbors
            .iter()
            .map(|(_, s)| s)
            .fold(current, |a, b| a.max(b))
    }
}

/// A protocol that never converges (parity flip) — exercises the round cap.
struct Blinker {
    topology: Topology,
}

impl LockstepProtocol for Blinker {
    type State = bool;

    fn topology(&self) -> Topology {
        self.topology
    }

    fn initial(&self, _c: Coord) -> bool {
        false
    }

    fn ghost(&self) -> bool {
        false
    }

    fn participates(&self, _c: Coord) -> bool {
        true
    }

    fn step(&self, _c: Coord, current: bool, _n: &NeighborStates<bool>) -> bool {
        !current
    }
}

fn eccentricity(t: Topology, seed: Coord) -> u32 {
    t.coords().map(|c| t.distance(seed, c)).max().unwrap()
}

#[test]
fn max_flood_converges_in_eccentricity_rounds_mesh() {
    let t = Topology::mesh(9, 7);
    let seed = Coord::new(2, 3);
    let p = MaxFlood { topology: t, seed };
    let out = run(&p, Executor::Sequential, 100);
    assert!(out.trace.converged);
    assert_eq!(out.trace.rounds(), eccentricity(t, seed));
    assert!(out.states.iter().all(|(_, &s)| s == 1_000_000));
}

#[test]
fn max_flood_converges_faster_on_torus() {
    let seed = Coord::new(0, 0);
    let mesh = MaxFlood {
        topology: Topology::mesh(10, 10),
        seed,
    };
    let torus = MaxFlood {
        topology: Topology::torus(10, 10),
        seed,
    };
    let rm = run(&mesh, Executor::Sequential, 100).trace.rounds();
    let rt = run(&torus, Executor::Sequential, 100).trace.rounds();
    assert_eq!(rm, 18);
    assert_eq!(rt, 10); // wraparound halves the distance
}

#[test]
fn executors_agree_on_mesh_and_torus() {
    for t in [Topology::mesh(8, 6), Topology::torus(8, 6)] {
        let p = MaxFlood {
            topology: t,
            seed: Coord::new(7, 5),
        };
        let seq = run(&p, Executor::Sequential, 100);
        for exec in [Executor::Frontier, Executor::Actor] {
            let out: RunOutcome<u32> = run(&p, exec, 100);
            assert_eq!(out.trace, seq.trace, "{exec:?} trace mismatch on {t:?}");
            assert!(out
                .states
                .iter()
                .zip(seq.states.iter())
                .all(|((_, a), (_, b))| a == b));
        }
    }
}

#[test]
fn round_cap_reports_non_convergence() {
    let p = Blinker {
        topology: Topology::mesh(4, 4),
    };
    for exec in [Executor::Sequential, Executor::Frontier, Executor::Actor] {
        let out = run(&p, exec, 5);
        assert!(!out.trace.converged, "{exec:?}");
        assert_eq!(out.trace.rounds_executed(), 5);
        assert_eq!(out.trace.rounds(), 5);
    }
}

#[test]
fn message_accounting_mesh_vs_torus() {
    // 3x3 mesh: 4 corners*2 + 4 edges*3 + 1 interior*4 = 24 directed links.
    let p = MaxFlood {
        topology: Topology::mesh(3, 3),
        seed: Coord::new(1, 1),
    };
    let out = run(&p, Executor::Sequential, 100);
    // Eccentricity of the center is 2: 2 productive rounds + 1 quiet.
    assert_eq!(out.trace.rounds_executed(), 3);
    assert_eq!(out.trace.messages_sent, 72);

    // 3x3 torus: every node has 4 live links -> 36 per round.
    let p = MaxFlood {
        topology: Topology::torus(3, 3),
        seed: Coord::new(1, 1),
    };
    let out = run(&p, Executor::Sequential, 100);
    assert_eq!(
        out.trace.messages_sent,
        36 * out.trace.rounds_executed() as u64
    );
}

#[test]
fn single_row_and_column_topologies() {
    for t in [
        Topology::mesh(7, 1),
        Topology::mesh(1, 7),
        Topology::torus(7, 1),
    ] {
        let p = MaxFlood {
            topology: t,
            seed: Coord::new(0, 0),
        };
        for exec in [Executor::Sequential, Executor::Frontier, Executor::Actor] {
            let out = run(&p, exec, 100);
            assert!(out.trace.converged, "{exec:?} on {t:?}");
            assert!(out.states.iter().all(|(_, &s)| s == 1_000_000));
        }
    }
}

#[test]
fn non_participating_nodes_freeze() {
    /// Flood where one node is "faulty" and never updates.
    struct Frozen {
        inner: MaxFlood,
        dead: Coord,
    }
    impl LockstepProtocol for Frozen {
        type State = u32;
        fn topology(&self) -> Topology {
            self.inner.topology
        }
        fn initial(&self, c: Coord) -> u32 {
            self.inner.initial(c)
        }
        fn ghost(&self) -> u32 {
            0
        }
        fn participates(&self, c: Coord) -> bool {
            c != self.dead
        }
        fn step(&self, c: Coord, cur: u32, n: &NeighborStates<u32>) -> u32 {
            self.inner.step(c, cur, n)
        }
    }
    let t = Topology::mesh(5, 1); // a line, easy to block
    let p = Frozen {
        inner: MaxFlood {
            topology: t,
            seed: Coord::new(0, 0),
        },
        dead: Coord::new(2, 0),
    };
    for exec in [Executor::Sequential, Executor::Frontier, Executor::Actor] {
        let out = run(&p, exec, 100);
        assert!(out.trace.converged);
        // Flood reaches (1,0) but the dead node blocks propagation further.
        assert_eq!(*out.states.get(Coord::new(1, 0)), 1_000_000, "{exec:?}");
        assert_eq!(*out.states.get(Coord::new(2, 0)), 0, "{exec:?}");
        assert_eq!(*out.states.get(Coord::new(3, 0)), 0, "{exec:?}");
        assert_eq!(*out.states.get(Coord::new(4, 0)), 0, "{exec:?}");
    }
}

#[test]
fn zero_round_convergence_when_already_stable() {
    // All nodes share the max already.
    struct Stable(Topology);
    impl LockstepProtocol for Stable {
        type State = u8;
        fn topology(&self) -> Topology {
            self.0
        }
        fn initial(&self, _c: Coord) -> u8 {
            7
        }
        fn ghost(&self) -> u8 {
            7
        }
        fn participates(&self, _c: Coord) -> bool {
            true
        }
        fn step(&self, _c: Coord, cur: u8, n: &NeighborStates<u8>) -> u8 {
            n.iter().map(|(_, s)| s).fold(cur, |a, b| a.max(b))
        }
    }
    let out = run(&Stable(Topology::mesh(6, 6)), Executor::Sequential, 10);
    assert!(out.trace.converged);
    assert_eq!(out.trace.rounds(), 0);
    assert_eq!(out.trace.rounds_executed(), 1);
}
