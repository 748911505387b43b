//! Word-parallel bit-packed kernels for the two labeling phases.
//!
//! Both phase rules are pure boolean neighborhood functions, so one
//! [`BitGrid`] bit per node and a handful of shifts/ANDs/ORs evaluate 64
//! nodes per machine word:
//!
//! * **Phase 1** tracks the *unsafe* bit. Ghosts are safe (`0`), so mesh
//!   boundaries shifting in zeros are already correct. Definition 2b turns
//!   into `next = cur | ((w | e) & (n | s) & nonfaulty)` and Definition 2a
//!   into `next = cur | (maj2(w, e, n, s) & nonfaulty)`.
//! * **Phase 2** tracks the *disabled* bit. Ghosts are enabled (`0`). A
//!   disabled node stays disabled iff at most one neighbor is enabled,
//!   i.e. at least three of the four resolved neighbor slots are
//!   disabled: `next = cur & (faulty | maj3(w, e, n, s))`.
//!
//! On top of the word kernels sits a **row-level frontier**: after round
//! 1, only rows within distance 1 of a row that changed are recomputed
//! (wrapping across the torus seam), which is the bitboard rendering of
//! the frontier executor's dirty set. The kernel is single-threaded:
//! after bit packing a round is so little work (a 512-wide row is 8 words)
//! that exchanging halo rows between row-band threads costs more than it
//! saves on every mesh up to 512² (EXPERIMENTS E15).
//!
//! The kernels preserve the *exact* lockstep semantics of the
//! sequential reference executor: same per-round change counts (including
//! the trailing quiet round), same message accounting, same convergence
//! flag — the equivalence tests pin byte-identical grids and traces.

use crate::labeling::enablement::{ActivationState, EnablementOutcome};
use crate::labeling::safety::{SafetyOutcome, SafetyRule, SafetyState};
use crate::status::{FaultMap, Health};
use ocp_distsim::{ConvergenceError, RunTrace};
use ocp_mesh::{BitGrid, Grid, TopologyKind};

/// `1` where at least two of the four inputs are `1`.
#[inline]
fn maj2(a: u64, b: u64, c: u64, d: u64) -> u64 {
    (a & b) | ((a | b) & (c | d)) | (c & d)
}

/// `1` where at least three of the four inputs are `1`.
#[inline]
fn maj3(a: u64, b: u64, c: u64, d: u64) -> u64 {
    ((a & b) & (c | d)) | ((c & d) & (a | b))
}

/// The per-word transition of one labeling phase.
#[derive(Clone, Copy)]
enum WordRule {
    /// Phase 1, Definition 2a (`cur` = unsafe bits).
    SafetyTwoNeighbors,
    /// Phase 1, Definition 2b (`cur` = unsafe bits).
    SafetyBothDimensions,
    /// Phase 2, Definition 3 (`cur` = disabled bits).
    Enablement,
}

impl WordRule {
    /// 64 nodes' lockstep update in one word. `w/e/n/s` carry the
    /// neighbor bit of each node in the matching direction; padding bits
    /// stay zero because `nonfaulty` is zero there (phase 1) and `cur` is
    /// zero there (phase 2).
    #[inline]
    fn step(self, cur: u64, [w, e, n, s]: [u64; 4], faulty: u64, nonfaulty: u64) -> u64 {
        match self {
            WordRule::SafetyTwoNeighbors => cur | (maj2(w, e, n, s) & nonfaulty),
            WordRule::SafetyBothDimensions => cur | ((w | e) & (n | s) & nonfaulty),
            WordRule::Enablement => cur & (faulty | maj3(w, e, n, s)),
        }
    }
}

/// Status messages per exchange round — identical accounting to the
/// lockstep executors: every nonfaulty node sends its state over each of
/// its real links. Computed in closed form (O(faults), not O(nodes)):
/// a torus node always has four real links (wrap links exist even at
/// degenerate sizes, with multiplicity), a mesh node loses one per
/// machine border it sits on.
fn messages_per_round(map: &FaultMap) -> u64 {
    let t = map.topology();
    let (w, h) = (u64::from(t.width()), u64::from(t.height()));
    let wrap = t.kind() == TopologyKind::Torus;
    let all: u64 = if wrap {
        4 * w * h
    } else {
        4 * w * h - 2 * w - 2 * h
    };
    let mut faulty_links = 0u64;
    for (i, health) in map.health_grid().as_slice().iter().enumerate() {
        if *health == Health::Faulty {
            faulty_links += if wrap {
                4
            } else {
                let (x, y) = (i as u64 % w, i as u64 / w);
                4 - u64::from(x == 0)
                    - u64::from(x == w - 1)
                    - u64::from(y == 0)
                    - u64::from(y == h - 1)
            };
        }
    }
    all - faulty_links
}

/// Runs one phase's word kernel, with the row-level frontier, to
/// quiescence (or the round cap).
fn run_bits(
    init: &BitGrid,
    faulty: &BitGrid,
    nonfaulty: &BitGrid,
    rule: WordRule,
    max_rounds: u32,
    per_round: u64,
) -> (BitGrid, RunTrace) {
    let t = init.topology();
    let h = t.height() as usize;
    let wpr = init.words_per_row();
    let wrap = t.kind() == TopologyKind::Torus;

    let mut cur = init.clone();
    let mut nxt = init.clone();
    let zeros = vec![0u64; wpr];
    let mut gw = vec![0u64; wpr];
    let mut ge = vec![0u64; wpr];
    // Row frontier: round 1 sweeps all rows; afterwards only rows within
    // distance 1 of a changed row can change.
    let mut dirty = vec![true; h];
    let mut row_changed = vec![false; h];

    let mut changes_per_round = Vec::new();
    let mut messages_sent = 0u64;
    let mut converged = false;

    while (changes_per_round.len() as u32) < max_rounds {
        let mut changed = 0u32;
        for y in 0..h {
            let gy = y as u32;
            if !dirty[y] {
                row_changed[y] = false;
                nxt.row_mut(gy).copy_from_slice(cur.row(gy));
                continue;
            }
            cur.gather_west(gy, &mut gw);
            cur.gather_east(gy, &mut ge);
            let north = cur.row_above(gy).unwrap_or(&zeros);
            let south = cur.row_below(gy).unwrap_or(&zeros);
            let crow = cur.row(gy);
            let frow = faulty.row(gy);
            let nfrow = nonfaulty.row(gy);
            let mut diff = 0u32;
            let out = nxt.row_mut(gy);
            for k in 0..wpr {
                let v = rule.step(
                    crow[k],
                    [gw[k], ge[k], north[k], south[k]],
                    frow[k],
                    nfrow[k],
                );
                diff += (v ^ crow[k]).count_ones();
                out[k] = v;
            }
            changed += diff;
            row_changed[y] = diff > 0;
        }
        messages_sent += per_round;
        changes_per_round.push(changed);
        if changed == 0 {
            converged = true;
            break;
        }
        std::mem::swap(&mut cur, &mut nxt);
        for y in 0..h {
            let above = if y + 1 < h {
                row_changed[y + 1]
            } else {
                wrap && row_changed[0]
            };
            let below = if y > 0 {
                row_changed[y - 1]
            } else {
                wrap && row_changed[h - 1]
            };
            dirty[y] = row_changed[y] || above || below;
        }
    }
    (
        cur,
        RunTrace::new(changes_per_round, messages_sent, converged),
    )
}

/// Bit mask of the faulty nodes.
fn faulty_bits(map: &FaultMap) -> BitGrid {
    BitGrid::from_cells(map.topology(), map.health_grid().as_slice(), |&h| {
        h == Health::Faulty
    })
}

/// Bit mask of the nonfaulty nodes.
fn nonfaulty_bits(map: &FaultMap) -> BitGrid {
    BitGrid::from_cells(map.topology(), map.health_grid().as_slice(), |&h| {
        h == Health::Healthy
    })
}

/// Phase 1 on the bit engine. `warm` resumes from a previous converged
/// safety grid (the maintenance warm-start: faults only ever grow the
/// unsafe set); `None` is the cold start where only faults are unsafe.
///
/// Low-level like [`compute_safety`](crate::labeling::safety::compute_safety):
/// a stall at `max_rounds` is only reported through the trace. Prefer
/// [`try_compute_safety_bits`] when the grid is treated as a fixpoint.
///
/// # Panics
/// Panics if `warm` covers a different topology than `map`.
pub fn compute_safety_bits(
    map: &FaultMap,
    rule: SafetyRule,
    warm: Option<&Grid<SafetyState>>,
    max_rounds: u32,
) -> SafetyOutcome {
    let t = map.topology();
    let word_rule = match rule {
        SafetyRule::TwoUnsafeNeighbors => WordRule::SafetyTwoNeighbors,
        SafetyRule::BothDimensions => WordRule::SafetyBothDimensions,
    };
    let faulty = faulty_bits(map);
    let nonfaulty = nonfaulty_bits(map);
    // Initial unsafe set: the faults, plus — warm — everything the
    // previous fixpoint already labeled unsafe.
    let init = match warm {
        None => faulty.clone(),
        Some(prev) => {
            assert_eq!(
                t,
                prev.topology(),
                "warm-start safety grid belongs to a different machine"
            );
            let mut bits = BitGrid::from_cells(t, prev.as_slice(), |&s| s == SafetyState::Unsafe);
            bits.union_with(&faulty);
            bits
        }
    };
    let (bits, trace) = run_bits(
        &init,
        &faulty,
        &nonfaulty,
        word_rule,
        max_rounds,
        messages_per_round(map),
    );
    SafetyOutcome {
        grid: bits.unpack(|b| {
            if b {
                SafetyState::Unsafe
            } else {
                SafetyState::Safe
            }
        }),
        trace,
    }
}

/// [`compute_safety_bits`] with the convergence watchdog.
pub fn try_compute_safety_bits(
    map: &FaultMap,
    rule: SafetyRule,
    warm: Option<&Grid<SafetyState>>,
    max_rounds: u32,
) -> Result<SafetyOutcome, ConvergenceError> {
    let out = compute_safety_bits(map, rule, warm, max_rounds);
    if out.trace.converged {
        Ok(out)
    } else {
        Err(
            ConvergenceError::round_cap_from_trace(max_rounds, &out.trace)
                .with_label("phase-1 safety labeling"),
        )
    }
}

/// Phase 2 on the bit engine, consuming phase 1's converged safety grid.
///
/// # Panics
/// Panics if the safety grid covers a different topology than `map`.
pub fn compute_enablement_bits(
    map: &FaultMap,
    safety: &Grid<SafetyState>,
    max_rounds: u32,
) -> EnablementOutcome {
    let t = map.topology();
    assert_eq!(
        t,
        safety.topology(),
        "safety grid belongs to a different machine"
    );
    let faulty = faulty_bits(map);
    let nonfaulty = nonfaulty_bits(map);
    // Initially disabled: the unsafe nodes plus (defensively) all faults.
    let mut init = BitGrid::from_cells(t, safety.as_slice(), |&s| s == SafetyState::Unsafe);
    init.union_with(&faulty);
    let (bits, trace) = run_bits(
        &init,
        &faulty,
        &nonfaulty,
        WordRule::Enablement,
        max_rounds,
        messages_per_round(map),
    );
    EnablementOutcome {
        grid: bits.unpack(|b| {
            if b {
                ActivationState::Disabled
            } else {
                ActivationState::Enabled
            }
        }),
        trace,
    }
}

/// [`compute_enablement_bits`] with the convergence watchdog.
pub fn try_compute_enablement_bits(
    map: &FaultMap,
    safety: &Grid<SafetyState>,
    max_rounds: u32,
) -> Result<EnablementOutcome, ConvergenceError> {
    let out = compute_enablement_bits(map, safety, max_rounds);
    if out.trace.converged {
        Ok(out)
    } else {
        Err(
            ConvergenceError::round_cap_from_trace(max_rounds, &out.trace)
                .with_label("phase-2 enablement labeling"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeling::enablement::compute_enablement;
    use crate::labeling::safety::compute_safety;
    use ocp_distsim::Executor;
    use ocp_mesh::{Coord, Topology};
    use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};

    fn random_map(t: Topology, faults: usize, seed: u64) -> FaultMap {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut all: Vec<Coord> = t.coords().collect();
        all.shuffle(&mut rng);
        FaultMap::new(t, all.into_iter().take(faults))
    }

    fn check_both_phases(map: &FaultMap, rule: SafetyRule) {
        let cap = 400;
        let ref_safety = compute_safety(map, rule, Executor::Sequential, cap);
        let bit_safety = compute_safety_bits(map, rule, None, cap);
        assert_eq!(bit_safety.grid, ref_safety.grid, "{rule:?}");
        assert_eq!(bit_safety.trace, ref_safety.trace, "{rule:?}");

        let ref_enable = compute_enablement(map, &ref_safety.grid, Executor::Sequential, cap);
        let bit_enable = compute_enablement_bits(map, &bit_safety.grid, cap);
        assert_eq!(bit_enable.grid, ref_enable.grid, "{rule:?}");
        assert_eq!(bit_enable.trace, ref_enable.trace, "{rule:?}");
    }

    #[test]
    fn matches_sequential_across_word_boundaries() {
        // Widths straddling the 64-bit word edge, both kinds, both rules.
        for &(w, h) in &[(9u32, 7u32), (63, 5), (64, 4), (65, 4), (70, 9)] {
            for kind in [Topology::mesh(w, h), Topology::torus(w, h)] {
                let map = random_map(kind, (w * h / 12) as usize, u64::from(w * 1000 + h));
                for rule in [SafetyRule::TwoUnsafeNeighbors, SafetyRule::BothDimensions] {
                    check_both_phases(&map, rule);
                }
            }
        }
    }

    #[test]
    fn warm_start_matches_warm_protocol_semantics() {
        // Bit warm start must reproduce the maintenance warm run: initial
        // state = previous fixpoint + new faults.
        let t = Topology::mesh(24, 24);
        let mut rng = SmallRng::seed_from_u64(42);
        for trial in 0..5 {
            let base = random_map(t, 30, 100 + trial);
            let cold = compute_safety(&base, SafetyRule::BothDimensions, Executor::Sequential, 400);
            assert!(cold.trace.converged);
            let extra = Coord::new(rng.gen_range(0..24), rng.gen_range(0..24));
            let updated = base.with_additional_fault(extra);

            // Oracle: a cold run on the updated map reaches the same
            // fixpoint (phase 1 is monotone in the fault set)...
            let oracle = compute_safety(
                &updated,
                SafetyRule::BothDimensions,
                Executor::Sequential,
                400,
            );
            let warm =
                compute_safety_bits(&updated, SafetyRule::BothDimensions, Some(&cold.grid), 400);
            // ...and the warm bit run lands on it.
            assert_eq!(warm.grid, oracle.grid, "trial {trial}");
            assert!(warm.trace.converged);
        }
    }

    #[test]
    fn fault_free_machine_converges_in_one_quiet_round() {
        for t in [Topology::mesh(10, 10), Topology::torus(65, 3)] {
            let map = FaultMap::healthy(t);
            let out = compute_safety_bits(&map, SafetyRule::BothDimensions, None, 10);
            assert_eq!(out.trace.changes_per_round, vec![0]);
            assert!(out.trace.converged);
            assert_eq!(out.grid.count_where(|&s| s == SafetyState::Unsafe), 0);
        }
    }

    #[test]
    fn round_cap_surfaces_as_convergence_error() {
        // A long diagonal chain needs many phase-1 rounds; cap 1 stalls.
        let faults: Vec<Coord> = (0..8).map(|i| Coord::new(i, i)).collect();
        let map = FaultMap::new(Topology::mesh(10, 10), faults);
        let err = try_compute_safety_bits(&map, SafetyRule::BothDimensions, None, 1)
            .expect_err("cap of 1 cannot converge");
        let text = err.to_string();
        assert!(text.contains("phase-1 safety labeling"), "{text}");
        assert!(text.contains("1 rounds"), "{text}");
    }

    #[test]
    fn dense_random_sweep_small_machines() {
        let mut rng = SmallRng::seed_from_u64(0xB175);
        for trial in 0..30u64 {
            let w = rng.gen_range(1..14);
            let h = rng.gen_range(1..14);
            let t = if rng.gen_bool(0.5) {
                Topology::mesh(w, h)
            } else {
                Topology::torus(w, h)
            };
            let map = random_map(t, rng.gen_range(0..(t.len() / 2 + 1)), trial);
            let rule = if rng.gen_bool(0.5) {
                SafetyRule::TwoUnsafeNeighbors
            } else {
                SafetyRule::BothDimensions
            };
            check_both_phases(&map, rule);
        }
    }
}
