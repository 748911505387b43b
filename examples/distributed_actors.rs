//! The protocol as real message-passing processes: one thread per node, one
//! channel per link — the literal reading of the paper's model — compared
//! against the sequential and frontier executors on the same problem.
//!
//! ```sh
//! cargo run --example distributed_actors
//! ```

use ocp_core::labeling::enablement::compute_enablement;
use ocp_core::labeling::safety::{compute_safety, SafetyRule};
use ocp_core::prelude::*;
use ocp_distsim::Executor;
use ocp_mesh::{Coord, Topology};
use ocp_workloads::uniform_faults;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let topology = Topology::mesh(16, 16);
    let mut rng = SmallRng::seed_from_u64(99);
    let faults = uniform_faults(topology, 12, &mut rng);
    println!(
        "16x16 mesh, {} faults at {:?}\n",
        faults.len(),
        faults.iter().take(6).collect::<Vec<_>>()
    );
    let map = FaultMap::new(topology, faults);

    let executors: [(&str, Executor); 3] = [
        ("sequential (reference)", Executor::Sequential),
        ("frontier: dirty-set worklist", Executor::Frontier),
        (
            "actor: 256 node threads, 960 link channels",
            Executor::Actor,
        ),
    ];

    let mut reference: Option<(Vec<Coord>, u32, u32)> = None;
    for (name, exec) in executors {
        let t0 = std::time::Instant::now();
        let safety = compute_safety(&map, SafetyRule::BothDimensions, exec, 400);
        let enable = compute_enablement(&map, &safety.grid, exec, 400);
        let elapsed = t0.elapsed();
        let disabled: Vec<Coord> = enable
            .grid
            .coords_where(|&a| a == ActivationState::Disabled)
            .collect();
        println!("== {name} ==");
        println!(
            "  phase 1: {} rounds / {} msgs; phase 2: {} rounds / {} msgs; wall {elapsed:?}",
            safety.trace.rounds(),
            safety.trace.messages_sent,
            enable.trace.rounds(),
            enable.trace.messages_sent,
        );
        println!("  disabled nodes: {}", disabled.len());
        match &reference {
            None => reference = Some((disabled, safety.trace.rounds(), enable.trace.rounds())),
            Some((ref_disabled, r1, r2)) => {
                assert_eq!(&disabled, ref_disabled, "{name} diverged from reference");
                assert_eq!(safety.trace.rounds(), *r1);
                assert_eq!(enable.trace.rounds(), *r2);
                println!("  ✓ identical labels and round counts as the reference");
            }
        }
        println!();
    }
    println!("all executors agree: the protocol is purely local and deterministic");
}
