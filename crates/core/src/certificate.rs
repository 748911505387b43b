//! Publish-time certificates: serializable, independently re-checkable
//! witnesses that a converged outcome satisfies the paper's theorems.
//!
//! [`verify`](crate::verify::verify) answers "does this outcome satisfy
//! Section 3/4?" for tests. A serving system needs a stronger artifact: a
//! compact, serializable **certificate** produced at publish time that
//! (a) pins down *what* was published — a structural digest of the grids
//! plus per-region witnesses — and (b) can be re-validated later, by
//! another process, after a crash, or against a snapshot replayed from a
//! write-ahead log, **without trusting the engine that produced it**.
//!
//! [`EpochCertificate::check`] therefore re-extracts faulty blocks and
//! disabled regions from the raw safety/activation grids and re-proves
//! every claim from scratch: the outcome's own `blocks`/`regions` vectors
//! are cross-checked against the grids rather than believed. A warm-start
//! relabeling bug that produces self-consistent-looking-but-wrong derived
//! data is caught the moment it disagrees with the grids or the theorems.
//!
//! The checker is built to run on the publish path of a live service, so
//! the quadratic cell-pair distance scans of the test-oriented verifier
//! are replaced by a bounding-box sweep with an exact boundary-cell scan
//! reserved for the rare close pairs ([`close_pairs`]).

use crate::blocks::{extract_blocks, FaultyBlock};
use crate::labeling::enablement::ActivationState;
use crate::labeling::safety::{SafetyRule, SafetyState};
use crate::pipeline::PipelineOutcome;
use crate::regions::{extract_regions, DisabledRegion};
use crate::status::{FaultMap, Health};
use crate::verify::{VerifyReport, Violation};
use crate::window::{dirty_windows, DirtyWindows};
use ocp_geometry::{boundary_cells, closure_spans, corner_nodes, ClosureSpans, Rect, Region};
use ocp_mesh::{Coord, Topology, TopologyKind};
use serde::{Deserialize, Serialize};

/// Incremental FNV-1a hasher over bytes — dependency-free, stable across
/// platforms and runs, good enough to detect torn or tampered state (this
/// is an integrity check, not a cryptographic commitment). Also used by
/// `ocp-serve`'s epoch WAL for record checksums.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one little-endian `u64` into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Structural digest of a labeled machine: topology, rule, and one byte
/// per cell combining health, safety, and activation. Two outcomes digest
/// equal iff they label the same machine identically, so this is the
/// "what was published" identity the WAL persists per epoch.
pub fn outcome_digest(map: &FaultMap, outcome: &PipelineOutcome) -> u64 {
    let topology = map.topology();
    let mut h = Fnv1a::new();
    h.write(&[match topology.kind() {
        TopologyKind::Mesh => 0u8,
        TopologyKind::Torus => 1u8,
    }]);
    h.write_u64(topology.width() as u64);
    h.write_u64(topology.height() as u64);
    h.write(&[match outcome.rule {
        SafetyRule::TwoUnsafeNeighbors => 0u8,
        SafetyRule::BothDimensions => 1u8,
    }]);
    let health = map.health_grid().as_slice();
    let safety = outcome.safety.as_slice();
    let activation = outcome.activation.as_slice();
    for i in 0..health.len() {
        let byte = ((health[i] == Health::Faulty) as u8) << 2
            | ((safety[i] == SafetyState::Unsafe) as u8) << 1
            | (activation[i] == ActivationState::Disabled) as u8;
        h.write(&[byte]);
    }
    h.finish()
}

/// The minimum inter-block distance the rule guarantees (Def 2a / 2b).
pub(crate) fn required_block_distance(rule: SafetyRule) -> u32 {
    match rule {
        SafetyRule::TwoUnsafeNeighbors => 3,
        SafetyRule::BothDimensions => 2,
    }
}

/// One contiguous occupied run of a region row, in planar coordinates —
/// the row-interval form of a histogram-of-intervals convexity witness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowInterval {
    /// Row coordinate.
    pub y: i32,
    /// Leftmost occupied cell of the row.
    pub x_min: i32,
    /// Rightmost occupied cell of the row.
    pub x_max: i32,
}

/// Compact facts about one faulty block (Section 3 claims).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockFact {
    /// Member cells.
    pub cells: usize,
    /// Faulty member cells.
    pub faults: usize,
    /// Planar bounding box; `None` for a torus block that wraps all the
    /// way around and admits no planar embedding.
    pub bbox: Option<Rect>,
    /// Whether the block is a full rectangle (what Section 3 guarantees).
    pub rectangle: bool,
}

/// Per-region witness of Theorems 1/2 and Lemma 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegionWitness {
    /// Member cells.
    pub cells: usize,
    /// Faulty member cells.
    pub faults: usize,
    /// Row intervals of the planar embedding, ascending in `y`. Together
    /// with the column-contiguity the checker re-derives, these witness
    /// orthogonal convexity (Theorem 1). Empty when `wrapped`.
    pub rows: Vec<RowInterval>,
    /// Corner nodes (Definition 4) of the planar embedding — Lemma 1 says
    /// each must be faulty. Empty when `wrapped`.
    pub corners: Vec<Coord>,
    /// Size of the orthogonal convex closure of the region's faults —
    /// Theorem 2's minimality witness (equals `cells` iff minimal).
    pub closure_cells: usize,
    /// True for a torus region with no planar embedding; the geometric
    /// witnesses are skipped for it (mirrors [`VerifyReport`]).
    pub wrapped: bool,
}

/// A compact, serializable certificate that one labeled epoch satisfies
/// every machine-checkable claim of the paper.
///
/// Produced by [`EpochCertificate::describe`] (pure distillation — no
/// judgment) and validated by [`EpochCertificate::check`], which re-proves
/// the claims from the raw grids without trusting the producing engine.
/// `ocp-serve` gates every epoch publication on `check` and persists
/// `grid_digest` in its write-ahead log so crash recovery can prove it
/// replayed to the same machine state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochCertificate {
    /// The epoch this certificate describes (0 for the initial cold run).
    pub epoch: u64,
    /// Safety rule the labeling ran under.
    pub rule: SafetyRule,
    /// The machine.
    pub topology: Topology,
    /// Faults in the map at this epoch.
    pub fault_count: usize,
    /// [`outcome_digest`] of the grids this certificate describes.
    pub grid_digest: u64,
    /// Minimum inter-block distance the rule guarantees (Def 2a / 2b).
    pub required_block_distance: u32,
    /// One fact set per faulty block, in `outcome.blocks` order.
    pub blocks: Vec<BlockFact>,
    /// One witness per disabled region, in `outcome.regions` order.
    pub regions: Vec<RegionWitness>,
}

impl EpochCertificate {
    /// Distills `outcome` into a certificate. This is the *producer* side:
    /// it records what the engine claims without judging it — validation
    /// is [`EpochCertificate::check`]'s job, on purpose a separate code
    /// path so the certificate can be re-checked by a party that never ran
    /// the engine.
    pub fn describe(epoch: u64, map: &FaultMap, outcome: &PipelineOutcome) -> Self {
        Self {
            epoch,
            rule: outcome.rule,
            topology: map.topology(),
            fault_count: map.fault_count(),
            grid_digest: outcome_digest(map, outcome),
            required_block_distance: required_block_distance(outcome.rule),
            blocks: outcome.blocks.iter().map(BlockFact::of).collect(),
            regions: outcome.regions.iter().map(RegionWitness::of).collect(),
        }
    }

    /// [`EpochCertificate::describe`] for the epoch after `base`, reusing
    /// `base`'s facts for every block and region outside the batch's
    /// dirty windows ([`crate::window::dirty_windows`], re-derived from
    /// `base` and the batch). Distills only the windows, and equals the
    /// full describe of a correct outcome: the blocks and regions outside
    /// are `base`'s, in the same relative order. `grid_digest` still
    /// covers the whole machine. Windows past a quarter of the machine
    /// are described in full, as [`EpochCertificate::check_after`] checks
    /// them.
    pub fn describe_after(
        base: CertifiedEpoch<'_>,
        faults: &[Coord],
        repairs: &[Coord],
        map: &FaultMap,
        outcome: &PipelineOutcome,
    ) -> Self {
        let epoch = base.certificate.epoch + 1;
        let topology = map.topology();
        let windows = dirty_windows(
            topology,
            base.outcome.rule,
            &base.outcome.blocks,
            faults,
            repairs,
        );
        if !worth_windowing(&windows, topology) {
            return Self::describe(epoch, map, outcome);
        }
        let inside = |r: &Region| {
            r.iter()
                .next()
                .is_some_and(|c| windows.contains(topology, c))
        };
        Self {
            epoch,
            rule: outcome.rule,
            topology,
            fault_count: map.fault_count(),
            grid_digest: outcome_digest(map, outcome),
            required_block_distance: required_block_distance(outcome.rule),
            blocks: splice_facts(
                base.outcome.blocks.iter().zip(&base.certificate.blocks),
                outcome.blocks.iter(),
                |b| &b.cells,
                &inside,
                BlockFact::of,
            ),
            regions: splice_facts(
                base.outcome.regions.iter().zip(&base.certificate.regions),
                outcome.regions.iter(),
                |r| &r.cells,
                &inside,
                RegionWitness::of,
            ),
        }
    }

    /// Independently re-verifies that `outcome` (a) satisfies every
    /// Section 3/4 claim and (b) is the outcome this certificate
    /// describes. The outcome's own `blocks`/`regions` vectors are never
    /// trusted: on a mesh they are first *proven* to be exactly the
    /// maximal components of the raw safety/activation grids with flat
    /// `O(cells)` passes ([`EpochCertificate::validate_declared`]), after
    /// which every theorem is checked directly on the declared sets; on
    /// a torus, or whenever that proof fails, blocks and regions are
    /// re-extracted from the grids and the theorems are checked on that
    /// ground truth instead ([`Violation::OutcomeInconsistent`] flags the
    /// mismatch). Returns every violation found, never just the first.
    pub fn check(
        &self,
        map: &FaultMap,
        outcome: &PipelineOutcome,
    ) -> Result<VerifyReport, Vec<Violation>> {
        let mut violations = Vec::new();
        let mut report = VerifyReport::default();
        let topology = map.topology();
        let required = self.check_identity(map, outcome, &mut violations);

        // Faults must be unsafe and disabled — read from the grids.
        let mut faults_covered = true;
        for fault in map.faults() {
            if *outcome.safety.get(fault) != SafetyState::Unsafe
                || *outcome.activation.get(fault) != ActivationState::Disabled
            {
                violations.push(Violation::FaultNotCovered { fault });
                faults_covered = false;
            }
        }

        // The fast path needs fault coverage: `validate_declared`'s
        // counting argument for fault-set exactness assumes every map
        // fault lies inside a stamped component.
        let declared = (topology.kind() == TopologyKind::Mesh && faults_covered)
            .then(|| self.validate_declared(map, outcome, &mut violations))
            .flatten();
        match declared {
            Some(state) => {
                self.check_declared(map, outcome, state, required, &mut violations, &mut report)
            }
            None => self.check_extracted(
                map,
                outcome,
                required,
                topology.kind() == TopologyKind::Torus,
                &mut violations,
                &mut report,
            ),
        }

        if violations.is_empty() {
            Ok(report)
        } else {
            Err(violations)
        }
    }

    /// The checks that do not depend on the decomposition: convergence,
    /// the certificate's identity fields, and the whole-machine grid
    /// digest. Returns the rule's required block distance.
    fn check_identity(
        &self,
        map: &FaultMap,
        outcome: &PipelineOutcome,
        violations: &mut Vec<Violation>,
    ) -> u32 {
        if !outcome.safety_trace.converged {
            violations.push(Violation::NotConverged { phase: "safety" });
        }
        if !outcome.enablement_trace.converged {
            violations.push(Violation::NotConverged {
                phase: "enablement",
            });
        }
        // Identity: is this even the outcome the certificate describes?
        if self.rule != outcome.rule {
            violations.push(Violation::CertificateMismatch {
                what: "safety rule".into(),
            });
        }
        if self.topology != map.topology() {
            violations.push(Violation::CertificateMismatch {
                what: "topology".into(),
            });
        }
        if self.fault_count != map.fault_count() {
            violations.push(Violation::CertificateMismatch {
                what: "fault count".into(),
            });
        }
        let required = required_block_distance(outcome.rule);
        if self.required_block_distance != required {
            violations.push(Violation::CertificateMismatch {
                what: "required block distance".into(),
            });
        }
        let actual_digest = outcome_digest(map, outcome);
        if actual_digest != self.grid_digest {
            violations.push(Violation::DigestMismatch {
                expected: self.grid_digest,
                actual: actual_digest,
            });
        }
        required
    }

    /// Mesh-path proof that the outcome's declared blocks and regions are
    /// exactly the maximal 4-connected components of the safety and
    /// activation grids, and that their declared fault sets are exactly
    /// the fault map's faults within each component — without extracting
    /// anything. Four facts are established per family in flat `O(cells)`
    /// passes:
    ///
    /// 1. disjointness — stamping every declared cell into an owner array
    ///    detects overlaps (and out-of-bounds or empty sets);
    /// 2. parity — a grid sweep confirms stamped ⟺ unsafe (resp.
    ///    disabled), i.e. the family covers its grid class exactly;
    /// 3. maximality — no two *different* declared sets are 4-adjacent,
    ///    checked against each cell's right/down neighbors;
    /// 4. connectivity — each declared set is one component under a
    ///    vertical-run union-find ([`runs_connected`]).
    ///
    /// A family with all four properties *is* the unique decomposition of
    /// its grid class into maximal connected components, so on success
    /// the declared sets serve as ground truth for every theorem check.
    /// On failure the matching [`Violation::OutcomeInconsistent`] is
    /// pushed and `None` returned — the caller re-extracts instead.
    fn validate_declared(
        &self,
        map: &FaultMap,
        outcome: &PipelineOutcome,
        violations: &mut Vec<Violation>,
    ) -> Option<DeclaredState> {
        let topology = map.topology();
        let (block_owner, block_scans, blocks_ok) =
            scan_family(topology, outcome.blocks.iter().map(|b| &b.cells));
        let blocks_ok = blocks_ok
            && partition_matches_grid(topology, &block_owner, |c| {
                *outcome.safety.get(c) == SafetyState::Unsafe
            });
        if !blocks_ok {
            violations.push(Violation::OutcomeInconsistent {
                what: "blocks differ from the safety grid's unsafe components".into(),
            });
        }
        let (region_owner, region_scans, regions_ok) =
            scan_family(topology, outcome.regions.iter().map(|r| &r.cells));
        let regions_ok = regions_ok
            && partition_matches_grid(topology, &region_owner, |c| {
                *outcome.activation.get(c) == ActivationState::Disabled
            });
        if !regions_ok {
            violations.push(Violation::OutcomeInconsistent {
                what: "regions differ from the activation grid's disabled components".into(),
            });
        }
        if !blocks_ok || !regions_ok {
            return None;
        }
        // The theorem checks consume the declared fault sets, so those
        // must be exact too (the extraction path recomputes them from the
        // map instead).
        if !fault_sets_exact(map, &block_owner, outcome.blocks.iter().map(|b| &b.faults))
            || !fault_sets_exact(
                map,
                &region_owner,
                outcome.regions.iter().map(|r| &r.faults),
            )
        {
            violations.push(Violation::OutcomeInconsistent {
                what: "declared fault sets differ from the fault map".into(),
            });
            return None;
        }
        Some(DeclaredState {
            block_owner,
            block_scans,
            region_scans,
        })
    }

    /// Theorem and witness checks on a successfully validated declared
    /// decomposition — the mesh publish path. Planar embeddings on a
    /// mesh are the identity, so the declared machine-coordinate sets
    /// are their own planar ground truth and the producer's `planar`
    /// fields are never consulted.
    fn check_declared(
        &self,
        map: &FaultMap,
        outcome: &PipelineOutcome,
        state: DeclaredState,
        required: u32,
        violations: &mut Vec<Violation>,
        report: &mut VerifyReport,
    ) {
        let topology = map.topology();
        let DeclaredState {
            block_owner,
            block_scans,
            region_scans,
        } = state;
        report.blocks_checked = outcome.blocks.len();
        report.regions_checked = outcome.regions.len();

        // Section 3 blocks: rectangles, pairwise >= required apart, and
        // the certificate's distilled facts must match.
        if self.blocks.len() != outcome.blocks.len() {
            violations.push(Violation::CertificateMismatch {
                what: format!(
                    "block count: certificate {} vs outcome {}",
                    self.blocks.len(),
                    outcome.blocks.len()
                ),
            });
        }
        for (i, (block, scan)) in outcome.blocks.iter().zip(&block_scans).enumerate() {
            let rectangle = scan.bbox.is_some_and(|b| b.area() == scan.len);
            if !rectangle {
                violations.push(Violation::BlockNotRectangle { block: i });
            }
            if let Some(fact) = self.blocks.get(i) {
                let matches = fact.cells == scan.len
                    && fact.faults == block.faults.len()
                    && fact.bbox == scan.bbox
                    && fact.rectangle == rectangle;
                if !matches {
                    violations.push(Violation::CertificateMismatch {
                        what: format!("block {i} facts"),
                    });
                }
            }
        }
        let block_sets: Vec<&Region> = outcome.blocks.iter().map(|b| &b.cells).collect();
        for (i, j, distance) in close_pairs(topology, &block_sets, required) {
            violations.push(Violation::BlocksTooClose {
                blocks: (i, j),
                distance,
                required,
            });
        }

        // Regions: pairwise spacing, Theorems 1/2, Lemma 1, witnesses.
        if self.regions.len() != outcome.regions.len() {
            violations.push(Violation::CertificateMismatch {
                what: format!(
                    "region count: certificate {} vs outcome {}",
                    self.regions.len(),
                    outcome.regions.len()
                ),
            });
        }
        let declared: Vec<&Region> = outcome.regions.iter().map(|r| &r.cells).collect();
        for (i, j, distance) in close_pairs(topology, &declared, 2) {
            violations.push(Violation::RegionsTooClose {
                regions: (i, j),
                distance,
            });
        }

        let mut region_cost_per_block = vec![0usize; outcome.blocks.len()];
        let mut regions_per_block = vec![0usize; outcome.blocks.len()];
        let mut sole_region = vec![usize::MAX; outcome.blocks.len()];
        let mut closure_lens = vec![0usize; outcome.regions.len()];
        for (i, (region, scan)) in outcome.regions.iter().zip(&region_scans).enumerate() {
            let profile = scan.profile();
            let contiguous = profile.rows_contiguous();
            // Definition 1: contiguous rows + one run per column.
            if !contiguous || scan.column_gap {
                violations.push(Violation::RegionNotConvex { region: i });
            }
            let corners = if contiguous {
                profile.corners()
            } else {
                corner_nodes(&region.cells)
            };
            for &corner in &corners {
                if !region.faults.contains(corner) {
                    violations.push(Violation::CornerNotFaulty { region: i, corner });
                }
            }
            let closure = closure_spans(&region.faults);
            if !profile.matches_closure(&closure) {
                violations.push(Violation::RegionNotMinimal {
                    region: i,
                    sizes: (region.cells.len(), closure.len()),
                });
            }
            closure_lens[i] = closure.len();
            if let Some(witness) = self.regions.get(i) {
                let matches = witness.cells == region.cells.len()
                    && witness.faults == region.faults.len()
                    && !witness.wrapped
                    && witness.rows == profile.row_intervals()
                    && witness.corners == corners
                    && witness.closure_cells == closure.len();
                if !matches {
                    violations.push(Violation::CertificateMismatch {
                        what: format!("region {i} witness"),
                    });
                }
            }
            // Phase 2 only removes nodes: every cell of the region must
            // sit inside one block (read off the stamped owner array).
            let mut cells = scan
                .runs
                .iter()
                .flat_map(|&(x, y0, y1)| (y0..=y1).map(move |y| Coord::new(x, y)));
            let first_owner = cells
                .next()
                .map_or(usize::MAX, |c| block_owner[topology.index_of(c)]);
            if first_owner != usize::MAX
                && cells.all(|c| block_owner[topology.index_of(c)] == first_owner)
            {
                region_cost_per_block[first_owner] += region.cells.len() - region.faults.len();
                regions_per_block[first_owner] += 1;
                sole_region[first_owner] = i;
            } else {
                violations.push(Violation::RegionOutsideBlock { region: i });
            }
        }

        // Corollary, per block: the nonfaulty cost of a block's regions
        // is bounded by the smallest orthogonal convex polygon covering
        // all the block's faults.
        for (bi, block) in outcome.blocks.iter().enumerate() {
            if region_cost_per_block[bi] == 0 {
                continue; // the bound is nonnegative — nothing to violate
            }
            let faults = block.faults.len();
            // A block with a single region re-uses that region's closure:
            // the region's (validated) faults are a subset of the block's
            // with equal count, hence the same set and the same closure.
            let reuse = (regions_per_block[bi] == 1)
                .then(|| sole_region[bi])
                .filter(|&ri| outcome.regions[ri].faults.len() == faults);
            let closure_cells = match reuse {
                Some(ri) => closure_lens[ri],
                None => closure_spans(&block.faults).len(),
            };
            let closure_cost = closure_cells - faults;
            if region_cost_per_block[bi] > closure_cost {
                violations.push(Violation::CorollaryViolated {
                    block: bi,
                    costs: (region_cost_per_block[bi], closure_cost),
                });
            }
        }
    }

    /// Ground-truth path: re-extract blocks and regions from the raw
    /// grids and check every theorem on the extraction. Used for tori
    /// (whose seam adjacency the flat declared-validation passes do not
    /// model) and as the fallback when a mesh outcome's declared
    /// decomposition failed validation — the violations then describe
    /// the actual grid components. `verify_consistency` guards the
    /// declared-vs-extracted comparison; the mesh fallback already
    /// reported that mismatch.
    fn check_extracted(
        &self,
        map: &FaultMap,
        outcome: &PipelineOutcome,
        required: u32,
        verify_consistency: bool,
        violations: &mut Vec<Violation>,
        report: &mut VerifyReport,
    ) {
        let topology = map.topology();
        self.compare_facts(outcome, violations);

        let blocks = extract_blocks(map, &outcome.safety);
        if verify_consistency && !same_components(outcome.blocks.iter().map(|b| &b.cells), &blocks)
        {
            violations.push(Violation::OutcomeInconsistent {
                what: "blocks differ from the safety grid's unsafe components".into(),
            });
        }
        let regions = extract_regions(map, &outcome.activation);
        if verify_consistency
            && !same_components(outcome.regions.iter().map(|r| &r.cells), &regions)
        {
            violations.push(Violation::OutcomeInconsistent {
                what: "regions differ from the activation grid's disabled components".into(),
            });
        }
        // Regions pairwise >= 2 apart. Re-extracted components are
        // maximal and therefore >= 2 apart by construction, so this
        // theorem is checked on the *declared* regions — a service that
        // publishes two regions closer than the paper allows is caught
        // here even when its grids are merely split differently.
        let declared: Vec<&Region> = outcome.regions.iter().map(|r| &r.cells).collect();
        regions_too_close(topology, &declared, violations);
        check_components(topology, &blocks, &regions, required, violations, report);
    }

    /// The windowed counterpart of [`EpochCertificate::check`] for the
    /// epoch after `base`, which must itself be certified — the induction
    /// step. The checker re-derives the batch's dirty windows from `base`
    /// and the batch ([`crate::window::dirty_windows`]), never from the
    /// labeler, and then proves:
    ///
    /// * the identity fields and the whole-machine grid digest, as the
    ///   full check does, with the epoch one past `base`'s;
    /// * `map` is `base`'s map plus the batch;
    /// * outside the windows, the grids equal `base`'s byte for byte, and
    ///   the declared blocks and regions there are `base`'s, with `base`'s
    ///   facts, in the same relative order;
    /// * inside each window, no unsafe node sits on the edge ring (so no
    ///   block crosses it), the declared blocks and regions are exactly
    ///   the grids' components there, and every Section 3/4 claim and
    ///   witness holds for them.
    ///
    /// A batch whose windows reach around a torus, or cover more than a
    /// quarter of the machine, is checked in full.
    /// Returns every violation found; the report counts the window's
    /// blocks and regions only.
    pub fn check_after(
        &self,
        base: CertifiedEpoch<'_>,
        faults: &[Coord],
        repairs: &[Coord],
        map: &FaultMap,
        outcome: &PipelineOutcome,
    ) -> Result<VerifyReport, Vec<Violation>> {
        let topology = map.topology();
        if base.map.topology() != topology
            || faults.iter().chain(repairs).any(|&c| !topology.contains(c))
        {
            return Err(vec![Violation::CertificateMismatch {
                what: "the batch does not fit the previous epoch's machine".into(),
            }]);
        }
        let windows = dirty_windows(
            topology,
            base.outcome.rule,
            &base.outcome.blocks,
            faults,
            repairs,
        );
        let (DirtyWindows::Local(list), true) = (&windows, worth_windowing(&windows, topology))
        else {
            return self.check(map, outcome);
        };
        let mut violations = Vec::new();
        let mut report = VerifyReport::default();
        let required = self.check_identity(map, outcome, &mut violations);
        if self.epoch != base.certificate.epoch + 1 {
            violations.push(Violation::CertificateMismatch {
                what: format!(
                    "epoch {} does not follow the certified epoch {}",
                    self.epoch, base.certificate.epoch
                ),
            });
        }
        if *map != base.map.with_events(faults, repairs) {
            violations.push(Violation::CertificateMismatch {
                what: "fault map is not the previous epoch's plus the batch".into(),
            });
        }
        if !windows.same_outside(&base.outcome.safety, &outcome.safety)
            || !windows.same_outside(&base.outcome.activation, &outcome.activation)
        {
            violations.push(Violation::OutcomeInconsistent {
                what: "labels outside the dirty windows differ from the previous epoch".into(),
            });
        }
        let inside = |r: &Region| {
            r.iter()
                .next()
                .is_some_and(|c| windows.contains(topology, c))
        };
        let carried = carried_match(
            base.outcome.blocks.iter().zip(&base.certificate.blocks),
            outcome.blocks.iter().zip(&self.blocks),
            |b| &b.cells,
            &inside,
            |a, b| a.cells == b.cells && a.faults == b.faults && a.planar == b.planar,
            BlockFact::of,
        ) && carried_match(
            base.outcome.regions.iter().zip(&base.certificate.regions),
            outcome.regions.iter().zip(&self.regions),
            |r| &r.cells,
            &inside,
            |a, b| {
                a.cells == b.cells
                    && a.faults == b.faults
                    && a.planar == b.planar
                    && a.planar_faults == b.planar_faults
            },
            RegionWitness::of,
        );
        if self.blocks.len() != outcome.blocks.len() || self.regions.len() != outcome.regions.len()
        {
            violations.push(Violation::CertificateMismatch {
                what: "block or region count".into(),
            });
        } else if !carried {
            violations.push(Violation::CertificateMismatch {
                what: "blocks, regions or facts differ from the previous epoch's or the window's"
                    .into(),
            });
        }

        // Ground truth inside each window, on the window's own mesh.
        let mut truth_blocks: Vec<Region> = Vec::new();
        let mut truth_regions: Vec<Region> = Vec::new();
        for win in list {
            let local_map = FaultMap::from_health(win.cut(map.health_grid()));
            let safety = win.cut(&outcome.safety);
            let activation = win.cut(&outcome.activation);
            if win
                .edge(topology)
                .into_iter()
                .any(|l| *safety.get(l) == SafetyState::Unsafe)
            {
                violations.push(Violation::OutcomeInconsistent {
                    what: "an unsafe node sits on the edge of a dirty window".into(),
                });
            }
            for fault in local_map.faults() {
                if *safety.get(fault) != SafetyState::Unsafe
                    || *activation.get(fault) != ActivationState::Disabled
                {
                    violations.push(Violation::FaultNotCovered {
                        fault: win.to_machine(topology, fault),
                    });
                }
            }
            let blocks = extract_blocks(&local_map, &safety);
            let regions = extract_regions(&local_map, &activation);
            let to_machine =
                |r: &Region| Region::from_cells(r.iter().map(|l| win.to_machine(topology, l)));
            truth_blocks.extend(blocks.iter().map(|b| to_machine(&b.cells)));
            truth_regions.extend(regions.iter().map(|r| to_machine(&r.cells)));
            let local_topology = win.local_topology();
            check_components(
                local_topology,
                &blocks,
                &regions,
                required,
                &mut violations,
                &mut report,
            );
        }
        let declared_blocks: Vec<&Region> = outcome
            .blocks
            .iter()
            .map(|b| &b.cells)
            .filter(|r| inside(r))
            .collect();
        let declared_regions: Vec<&Region> = outcome
            .regions
            .iter()
            .map(|r| &r.cells)
            .filter(|r| inside(r))
            .collect();
        if !same_sets(&declared_blocks, &truth_blocks) {
            violations.push(Violation::OutcomeInconsistent {
                what: "blocks differ from the safety grid's unsafe components".into(),
            });
        }
        if !same_sets(&declared_regions, &truth_regions) {
            violations.push(Violation::OutcomeInconsistent {
                what: "regions differ from the activation grid's disabled components".into(),
            });
        }
        regions_too_close(topology, &declared_regions, &mut violations);

        if violations.is_empty() {
            Ok(report)
        } else {
            Err(violations)
        }
    }

    /// Compares the certificate's distilled facts against the outcome's
    /// declared blocks/regions (order-aligned: `describe` preserves the
    /// outcome's ordering). A mismatch means this certificate describes a
    /// *different* outcome — the check that matters when a WAL-recovered
    /// certificate is validated against a replayed snapshot.
    fn compare_facts(&self, outcome: &PipelineOutcome, violations: &mut Vec<Violation>) {
        if self.blocks.len() != outcome.blocks.len() {
            violations.push(Violation::CertificateMismatch {
                what: format!(
                    "block count: certificate {} vs outcome {}",
                    self.blocks.len(),
                    outcome.blocks.len()
                ),
            });
        }
        for (i, (fact, block)) in self.blocks.iter().zip(&outcome.blocks).enumerate() {
            let matches = fact.cells == block.cells.len()
                && fact.faults == block.faults.len()
                && fact.bbox == block.bbox()
                && fact.rectangle == block.is_rectangle();
            if !matches {
                violations.push(Violation::CertificateMismatch {
                    what: format!("block {i} facts"),
                });
            }
        }
        if self.regions.len() != outcome.regions.len() {
            violations.push(Violation::CertificateMismatch {
                what: format!(
                    "region count: certificate {} vs outcome {}",
                    self.regions.len(),
                    outcome.regions.len()
                ),
            });
        }
        for (i, (witness, region)) in self.regions.iter().zip(&outcome.regions).enumerate() {
            let matches = witness.cells == region.cells.len()
                && witness.faults == region.faults.len()
                && match (&region.planar, &region.planar_faults) {
                    (Some(planar), Some(planar_faults)) => {
                        let profile = PlanarProfile::new(planar);
                        !witness.wrapped
                            && witness.rows == profile.row_intervals()
                            && witness.corners == profile.corners_of(planar)
                            && witness.closure_cells == closure_spans(planar_faults).len()
                    }
                    _ => witness.wrapped && witness.closure_cells == 0,
                };
            if !matches {
                violations.push(Violation::CertificateMismatch {
                    what: format!("region {i} witness"),
                });
            }
        }
    }
}

/// The previous certified epoch a windowed describe or check builds on:
/// its certificate (checked, in full or windowed, before it was
/// published), its fault map and its outcome.
#[derive(Clone, Copy, Debug)]
pub struct CertifiedEpoch<'a> {
    /// The certificate the epoch was published with.
    pub certificate: &'a EpochCertificate,
    /// The epoch's fault map.
    pub map: &'a FaultMap,
    /// The epoch's labeled outcome.
    pub outcome: &'a PipelineOutcome,
}

impl BlockFact {
    /// The facts `describe` records for one block.
    fn of(b: &FaultyBlock) -> Self {
        let bbox = b.bbox();
        BlockFact {
            cells: b.cells.len(),
            faults: b.faults.len(),
            bbox,
            // Full rectangle iff the planar embedding fills its own
            // bounding box — one pass, not two.
            rectangle: match (&b.planar, bbox) {
                (Some(planar), Some(bbox)) => bbox.area() == planar.len(),
                _ => false,
            },
        }
    }
}

impl RegionWitness {
    /// The witness `describe` records for one region.
    fn of(r: &DisabledRegion) -> Self {
        match (&r.planar, &r.planar_faults) {
            (Some(planar), Some(planar_faults)) => {
                let profile = PlanarProfile::new(planar);
                RegionWitness {
                    cells: r.cells.len(),
                    faults: r.faults.len(),
                    corners: profile.corners_of(planar),
                    rows: profile.row_intervals(),
                    closure_cells: closure_spans(planar_faults).len(),
                    wrapped: false,
                }
            }
            _ => RegionWitness {
                cells: r.cells.len(),
                faults: r.faults.len(),
                rows: Vec::new(),
                corners: Vec::new(),
                closure_cells: 0,
                wrapped: true,
            },
        }
    }
}

/// True when describing and checking the windows alone beats the whole
/// machine: they are local and cover at most a quarter of it. Past that
/// the full mesh check's flat passes are cheaper than re-extracting the
/// windows (at 256² / 10 % clustered faults, one giant block puts most of
/// the machine in the window and the windowed check costs twice the full
/// one).
fn worth_windowing(windows: &DirtyWindows, topology: Topology) -> bool {
    !windows.is_machine() && windows.cells(topology) * 4 <= topology.len()
}

/// The facts of a new epoch's components: `base`'s facts, in order, for
/// the components outside the dirty windows, and fresh ones (`of`) for
/// those inside.
fn splice_facts<'a, T: 'a, F: Clone + 'a>(
    base: impl Iterator<Item = (&'a T, &'a F)>,
    next: impl Iterator<Item = &'a T>,
    cells: impl Fn(&T) -> &Region,
    inside: &impl Fn(&Region) -> bool,
    of: impl Fn(&T) -> F,
) -> Vec<F> {
    let mut carried = base.filter(|(t, _)| !inside(cells(t))).map(|(_, f)| f);
    next.map(|item| match inside(cells(item)) {
        true => of(item),
        false => carried.next().cloned().unwrap_or_else(|| of(item)),
    })
    .collect()
}

/// True iff the new epoch's components outside the dirty windows are
/// `base`'s, in order and with `base`'s facts, and the facts of those
/// inside are what `describe` records for them.
fn carried_match<'a, T: 'a, F: PartialEq + 'a>(
    base: impl Iterator<Item = (&'a T, &'a F)>,
    next: impl Iterator<Item = (&'a T, &'a F)>,
    cells: impl Fn(&T) -> &Region,
    inside: &impl Fn(&Region) -> bool,
    same: impl Fn(&T, &T) -> bool,
    of: impl Fn(&T) -> F,
) -> bool {
    let mut carried = base.filter(|(t, _)| !inside(cells(t)));
    for (item, fact) in next {
        if inside(cells(item)) {
            if *fact != of(item) {
                return false;
            }
        } else {
            match carried.next() {
                Some((old, old_fact)) if same(old, item) && old_fact == fact => {}
                _ => return false,
            }
        }
    }
    carried.next().is_none()
}

/// Theorem checks on ground-truth components extracted on `topology`
/// (the machine, or one dirty window as a mesh of its own): Section 3's
/// rectangles and spacing, Theorems 1/2 and Lemma 1 per region,
/// containment, and the per-block corollary.
fn check_components(
    topology: Topology,
    blocks: &[FaultyBlock],
    regions: &[DisabledRegion],
    required: u32,
    violations: &mut Vec<Violation>,
    report: &mut VerifyReport,
) {
    // Section 3: blocks are rectangles, pairwise >= required apart.
    for (i, block) in blocks.iter().enumerate() {
        match &block.planar {
            None => report.wrapped_blocks += 1,
            Some(_) => {
                report.blocks_checked += 1;
                if !block.is_rectangle() {
                    violations.push(Violation::BlockNotRectangle { block: i });
                }
            }
        }
    }
    let block_sets: Vec<&Region> = blocks.iter().map(|b| &b.cells).collect();
    for (i, j, distance) in close_pairs(topology, &block_sets, required) {
        violations.push(Violation::BlocksTooClose {
            blocks: (i, j),
            distance,
            required,
        });
    }
    // Which block owns each cell (containment + the corollary).
    let mut owner: Vec<usize> = vec![usize::MAX; topology.len()];
    for (bi, block) in blocks.iter().enumerate() {
        for cell in block.cells.iter() {
            owner[topology.index_of(cell)] = bi;
        }
    }
    // Theorems 1/2 and Lemma 1 per region.
    for (i, region) in regions.iter().enumerate() {
        match (&region.planar, &region.planar_faults) {
            (Some(planar), Some(planar_faults)) => {
                report.regions_checked += 1;
                let profile = PlanarProfile::new(planar);
                if !profile.is_convex() {
                    violations.push(Violation::RegionNotConvex { region: i });
                }
                for corner in profile.corners_of(planar) {
                    if !planar_faults.contains(corner) {
                        violations.push(Violation::CornerNotFaulty { region: i, corner });
                    }
                }
                let closure = closure_spans(planar_faults);
                if !profile.matches_closure(&closure) {
                    violations.push(Violation::RegionNotMinimal {
                        region: i,
                        sizes: (planar.len(), closure.len()),
                    });
                }
            }
            _ => report.wrapped_regions += 1,
        }
    }

    // Phase 2 only removes nodes: every region sits inside a block.
    let mut region_cost_per_block = vec![0usize; blocks.len()];
    for (i, region) in regions.iter().enumerate() {
        let contained = region
            .cells
            .iter()
            .next()
            .map(|first| owner[topology.index_of(first)])
            .filter(|&bi| bi != usize::MAX)
            .is_some_and(|bi| {
                if blocks[bi].cells.is_superset(&region.cells) {
                    region_cost_per_block[bi] += region.nonfaulty_count();
                    true
                } else {
                    false
                }
            });
        if !contained {
            violations.push(Violation::RegionOutsideBlock { region: i });
        }
    }

    // Corollary, per block: the nonfaulty cost of a block's regions is
    // bounded by the smallest orthogonal convex polygon covering all the
    // block's faults (`None` bound for unwrappable blocks).
    for (bi, block) in blocks.iter().enumerate() {
        if block.planar.is_none() {
            continue;
        }
        // On a mesh the block's faults are already planar; only torus
        // blocks need the seam translation.
        let planar_faults = if topology.kind() == TopologyKind::Mesh {
            block.faults.clone()
        } else {
            let cells: Vec<Coord> = block.cells.iter().collect();
            let Some(mapping) = Region::unwrap_mapping(topology, &cells) else {
                continue;
            };
            Region::from_cells(block.faults.iter().map(|f| mapping[&f]))
        };
        let closure_cost = closure_spans(&planar_faults).len() - planar_faults.len();
        if region_cost_per_block[bi] > closure_cost {
            violations.push(Violation::CorollaryViolated {
                block: bi,
                costs: (region_cost_per_block[bi], closure_cost),
            });
        }
    }
}

/// Declared regions closer than the paper's distance 2.
fn regions_too_close(topology: Topology, declared: &[&Region], violations: &mut Vec<Violation>) {
    for (i, j, distance) in close_pairs(topology, declared, 2) {
        violations.push(Violation::RegionsTooClose {
            regions: (i, j),
            distance,
        });
    }
}

/// True when two families of cell sets are equal, order aside.
fn same_sets(declared: &[&Region], truth: &[Region]) -> bool {
    if declared.len() != truth.len() {
        return false;
    }
    let mut declared: Vec<&Region> = declared.to_vec();
    let mut truth: Vec<&Region> = truth.iter().collect();
    declared.sort_by_key(|r| r.iter().next());
    truth.sort_by_key(|r| r.iter().next());
    declared == truth
}

/// Row-table profile of a planar region: one pass over the cells, after
/// which every geometric question the certificate asks — row intervals,
/// Definition-1 convexity, Definition-4 corners, Theorem-2 closure
/// equality — is answered from the per-row `(x_min, x_max, count)` table
/// in `O(rows)` or `O(area)` flat-array time instead of per-cell set
/// probes. Semantics are identical to the `ocp-geometry` primitives; the
/// generic ones remain the fallback when a row has gaps.
struct PlanarProfile {
    /// `(y, x_min, x_max, count)` per occupied row, ascending in `y`.
    rows: Vec<(i32, i32, i32, usize)>,
    /// Total cell count.
    len: usize,
}

impl PlanarProfile {
    fn new(region: &Region) -> Self {
        let Some(bbox) = region.bbox() else {
            return Self {
                rows: Vec::new(),
                len: 0,
            };
        };
        let y0 = bbox.min.y;
        let height = (bbox.max.y - y0 + 1) as usize;
        let mut table: Vec<(i32, i32, usize)> = vec![(i32::MAX, i32::MIN, 0); height];
        for c in region.iter() {
            let row = &mut table[(c.y - y0) as usize];
            row.0 = row.0.min(c.x);
            row.1 = row.1.max(c.x);
            row.2 += 1;
        }
        Self {
            rows: table
                .into_iter()
                .enumerate()
                .filter(|(_, r)| r.2 > 0)
                .map(|(i, (lo, hi, n))| (y0 + i as i32, lo, hi, n))
                .collect(),
            len: region.len(),
        }
    }

    /// True when every occupied row is gap-free — the precondition for
    /// [`PlanarProfile::corners`].
    fn rows_contiguous(&self) -> bool {
        self.rows
            .iter()
            .all(|&(_, lo, hi, n)| n == (hi - lo + 1) as usize)
    }

    fn row_intervals(&self) -> Vec<RowInterval> {
        self.rows
            .iter()
            .map(|&(y, lo, hi, _)| RowInterval {
                y,
                x_min: lo,
                x_max: hi,
            })
            .collect()
    }

    /// Exactly `is_orthogonally_convex`: no row has a gap and every
    /// column's occupied rows form one contiguous `y`-interval.
    fn is_convex(&self) -> bool {
        if !self.rows_contiguous() {
            return false;
        }
        let Some(x0) = self.rows.iter().map(|r| r.1).min() else {
            return true;
        };
        let x1 = self.rows.iter().map(|r| r.2).max().expect("non-empty");
        let width = (x1 - x0 + 1) as usize;
        let mut first = vec![0i32; width];
        let mut last = vec![0i32; width];
        let mut count = vec![0usize; width];
        for &(y, lo, hi, _) in &self.rows {
            for x in (lo - x0) as usize..=(hi - x0) as usize {
                if count[x] == 0 {
                    first[x] = y;
                }
                last[x] = y;
                count[x] += 1;
            }
        }
        (0..width).all(|x| count[x] == 0 || count[x] == (last[x] - first[x] + 1) as usize)
    }

    /// Definition-4 corner nodes, sorted in `Coord` order. Valid only when
    /// [`PlanarProfile::rows_contiguous`]: then the only cells with
    /// x-dimension exposure are each row's two endpoints, so the scan is
    /// `O(rows)`.
    fn corners(&self) -> Vec<Coord> {
        debug_assert!(self.rows_contiguous());
        let mut out = Vec::new();
        for (i, &(y, lo, hi, _)) in self.rows.iter().enumerate() {
            let above = self
                .rows
                .get(i + 1)
                .filter(|r| r.0 == y + 1)
                .map(|&(_, lo, hi, _)| (lo, hi));
            let below = i
                .checked_sub(1)
                .map(|p| self.rows[p])
                .filter(|r| r.0 == y - 1)
                .map(|(_, lo, hi, _)| (lo, hi));
            let inside =
                |row: Option<(i32, i32)>, x: i32| row.is_some_and(|(lo, hi)| lo <= x && x <= hi);
            for x in [lo, hi] {
                if !inside(above, x) || !inside(below, x) {
                    out.push(Coord::new(x, y));
                }
                if lo == hi {
                    break; // single-cell row: one candidate only
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// True iff the profiled region is exactly the closure `spans`
    /// describes (Theorem 2's minimality), without materializing cells.
    fn matches_closure(&self, spans: &ClosureSpans) -> bool {
        self.len == spans.len()
            && self.rows.len() == spans.rows.len()
            && self
                .rows
                .iter()
                .zip(&spans.rows)
                .all(|(&(y, lo, hi, n), &(sy, slo, shi))| {
                    y == sy && lo == slo && hi == shi && n == (shi - slo + 1) as usize
                })
    }

    /// Corner nodes with the gapped-row fallback to the generic scan.
    fn corners_of(&self, planar: &Region) -> Vec<Coord> {
        if self.rows_contiguous() {
            self.corners()
        } else {
            corner_nodes(planar)
        }
    }
}

/// Artifacts of a successful declared-decomposition validation, carried
/// into the theorem checks so nothing is scanned twice: the per-cell
/// block owner array (containment) and the per-set scans (geometry).
struct DeclaredState {
    block_owner: Vec<usize>,
    block_scans: Vec<DeclaredScan>,
    region_scans: Vec<DeclaredScan>,
}

/// One declared cell set, scanned in a single pass over its (sorted)
/// cells: maximal vertical runs, bounding box, and a column-gap flag.
struct DeclaredScan {
    /// `(x, y0, y1)` maximal vertical runs in column-major order.
    runs: Vec<(i32, i32, i32)>,
    bbox: Option<Rect>,
    /// Some column holds more than one run — an orthogonal-convexity
    /// violation in the y dimension.
    column_gap: bool,
    len: usize,
}

impl DeclaredScan {
    /// Builds the row profile from the runs — a flat fill over the
    /// bounding-box height, with no second pass over the cell set.
    fn profile(&self) -> PlanarProfile {
        let Some(bbox) = self.bbox else {
            return PlanarProfile {
                rows: Vec::new(),
                len: 0,
            };
        };
        let y0 = bbox.min.y;
        let mut table: Vec<(i32, i32, usize)> =
            vec![(i32::MAX, i32::MIN, 0); bbox.height() as usize];
        for &(x, ry0, ry1) in &self.runs {
            for y in ry0..=ry1 {
                let row = &mut table[(y - y0) as usize];
                row.0 = row.0.min(x);
                row.1 = row.1.max(x);
                row.2 += 1;
            }
        }
        PlanarProfile {
            rows: table
                .into_iter()
                .enumerate()
                .filter(|(_, r)| r.2 > 0)
                .map(|(i, (lo, hi, n))| (y0 + i as i32, lo, hi, n))
                .collect(),
            len: self.len,
        }
    }
}

/// Stamps every set of a declared family into a per-cell owner array and
/// scans each set once. The returned flag is `false` on any overlap,
/// out-of-bounds cell, empty set, or disconnected set — the properties a
/// family of extracted components can never exhibit.
fn scan_family<'a>(
    topology: Topology,
    sets: impl Iterator<Item = &'a Region>,
) -> (Vec<usize>, Vec<DeclaredScan>, bool) {
    let mut owner = vec![usize::MAX; topology.len()];
    let mut scans = Vec::new();
    let mut ok = true;
    for (k, set) in sets.enumerate() {
        let mut runs: Vec<(i32, i32, i32)> = Vec::new();
        let mut column_gap = false;
        let (mut min, mut max) = (
            Coord::new(i32::MAX, i32::MAX),
            Coord::new(i32::MIN, i32::MIN),
        );
        for c in set.iter() {
            if !topology.contains(c) {
                ok = false;
                continue;
            }
            let i = topology.index_of(c);
            if owner[i] != usize::MAX {
                ok = false; // overlap within the family
            }
            owner[i] = k;
            min = Coord::new(min.x.min(c.x), min.y.min(c.y));
            max = Coord::new(max.x.max(c.x), max.y.max(c.y));
            // `Region` iterates in (x, y) order: cells of one column
            // arrive consecutively with ascending y.
            let extended = match runs.last_mut() {
                Some(last) if last.0 == c.x && last.2 + 1 == c.y => {
                    last.2 = c.y;
                    true
                }
                Some(last) => {
                    column_gap |= last.0 == c.x;
                    false
                }
                None => false,
            };
            if !extended {
                runs.push((c.x, c.y, c.y));
            }
        }
        ok &= !runs.is_empty() && runs_connected(&runs);
        scans.push(DeclaredScan {
            runs,
            bbox: (min.x <= max.x).then(|| Rect::new(min, max)),
            column_gap,
            len: set.len(),
        });
    }
    (owner, scans, ok)
}

/// True iff the stamped owner array agrees cell-for-cell with the grid
/// class (`in_class`) *and* no two distinct owners are 4-adjacent — i.e.
/// the declared family covers its class exactly and every declared set
/// is maximal. One flat sweep; only right/down neighbors are inspected
/// (mesh adjacency is symmetric).
fn partition_matches_grid(
    topology: Topology,
    owner: &[usize],
    mut in_class: impl FnMut(Coord) -> bool,
) -> bool {
    let (w, h) = (topology.width() as i32, topology.height() as i32);
    for y in 0..h {
        for x in 0..w {
            let c = Coord::new(x, y);
            let o = owner[topology.index_of(c)];
            if (o != usize::MAX) != in_class(c) {
                return false;
            }
            if o == usize::MAX {
                continue;
            }
            if x + 1 < w {
                let right = owner[topology.index_of(Coord::new(x + 1, y))];
                if right != usize::MAX && right != o {
                    return false;
                }
            }
            if y + 1 < h {
                let down = owner[topology.index_of(Coord::new(x, y + 1))];
                if down != usize::MAX && down != o {
                    return false;
                }
            }
        }
    }
    true
}

/// True iff each declared fault list is exactly the fault map's faults
/// within the declaring set. Each declared fault is verified to be a
/// real fault owned by its declarer, so no fault can be declared twice;
/// the total count then pins the sets exactly, because every map fault
/// lies inside some stamped cell (fault coverage and stamping parity
/// are checked before this runs).
fn fault_sets_exact<'a>(
    map: &FaultMap,
    owner: &[usize],
    declared: impl Iterator<Item = &'a Region>,
) -> bool {
    let topology = map.topology();
    let mut total = 0usize;
    for (k, faults) in declared.enumerate() {
        total += faults.len();
        for f in faults.iter() {
            if !topology.contains(f) || !map.is_faulty(f) || owner[topology.index_of(f)] != k {
                return false;
            }
        }
    }
    total == map.fault_count()
}

/// True iff a set of column-major vertical runs forms one 4-connected
/// component: runs in adjacent columns with overlapping y-intervals are
/// merged with a path-halving union-find (two-pointer per column pair),
/// then all runs must share a root.
fn runs_connected(runs: &[(i32, i32, i32)]) -> bool {
    if runs.len() <= 1 {
        return true;
    }
    let mut parent: Vec<u32> = (0..runs.len() as u32).collect();
    fn find(parent: &mut [u32], mut i: u32) -> u32 {
        while parent[i as usize] != i {
            parent[i as usize] = parent[parent[i as usize] as usize];
            i = parent[i as usize];
        }
        i
    }
    let (mut prev_start, mut prev_end) = (0usize, 0usize);
    let mut i = 0;
    while i < runs.len() {
        let x = runs[i].0;
        let start = i;
        while i < runs.len() && runs[i].0 == x {
            i += 1;
        }
        if prev_end > prev_start && runs[prev_start].0 == x - 1 {
            let mut j = prev_start;
            for k in start..i {
                let (_, y0, y1) = runs[k];
                while j < prev_end && runs[j].2 < y0 {
                    j += 1;
                }
                let mut jj = j;
                while jj < prev_end && runs[jj].1 <= y1 {
                    let (a, b) = (find(&mut parent, k as u32), find(&mut parent, jj as u32));
                    if a != b {
                        parent[a as usize] = b;
                    }
                    jj += 1;
                }
            }
        }
        prev_start = start;
        prev_end = i;
    }
    let root = find(&mut parent, 0);
    (1..runs.len() as u32).all(|k| find(&mut parent, k) == root)
}

/// True when the declared component list matches the extracted one as a
/// family of cell sets (order-insensitively — extraction order is scan
/// order, which a legitimate alternative pipeline need not share).
fn same_components<'a, I, T>(declared: I, extracted: &[T]) -> bool
where
    I: ExactSizeIterator<Item = &'a Region>,
    T: AsComponent,
{
    if declared.len() != extracted.len() {
        return false;
    }
    let mut declared: Vec<&Region> = declared.collect();
    let mut actual: Vec<&Region> = extracted.iter().map(AsComponent::cells).collect();
    declared.sort_by_key(|r| r.iter().next());
    actual.sort_by_key(|r| r.iter().next());
    declared.into_iter().zip(actual).all(|(d, a)| d == a)
}

/// The cell set of an extracted component (block or region).
trait AsComponent {
    fn cells(&self) -> &Region;
}

impl AsComponent for FaultyBlock {
    fn cells(&self) -> &Region {
        &self.cells
    }
}

impl AsComponent for DisabledRegion {
    fn cells(&self) -> &Region {
        &self.cells
    }
}

/// All pairs of cell sets at topology distance `< bound`, with their exact
/// distance. Built for publish-path budgets: a sweep over bounding boxes
/// (sorted by `min.x`, early exit once the x-gap alone reaches `bound`)
/// prunes almost every pair in O(1), and only the survivors pay an exact
/// boundary-cell scan — the minimum distance between two cell sets is
/// always attained at boundary cells of each. On tori the bounding-box
/// bound does not hold across the seam, so every pair is scanned exactly
/// (tori only appear at test scales in this workspace).
pub(crate) fn close_pairs(
    topology: Topology,
    sets: &[&Region],
    bound: u32,
) -> Vec<(usize, usize, u32)> {
    let mut out = Vec::new();
    if sets.len() < 2 {
        return out;
    }
    let mesh = topology.kind() == TopologyKind::Mesh;
    let boxes: Vec<Option<Rect>> = sets.iter().map(|s| s.bbox()).collect();
    let mut boundaries: Vec<Option<Vec<Coord>>> = vec![None; sets.len()];
    let mut order: Vec<usize> = (0..sets.len()).filter(|&i| boxes[i].is_some()).collect();
    order.sort_by_key(|&i| boxes[i].expect("filtered").min.x);
    for (pos, &i) in order.iter().enumerate() {
        let bi = boxes[i].expect("filtered");
        for &j in &order[pos + 1..] {
            let bj = boxes[j].expect("filtered");
            if mesh {
                if bj.min.x - bi.max.x >= bound as i32 {
                    // Sorted by min.x: every later set is even further.
                    break;
                }
                if bi.distance(bj) >= bound {
                    continue;
                }
            }
            let d = exact_min_distance(topology, sets, &mut boundaries, i, j);
            if d < bound {
                out.push((i.min(j), i.max(j), d));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Exact minimum topology distance between two cell sets, scanning only
/// boundary cells (memoized per set across pairs).
fn exact_min_distance(
    topology: Topology,
    sets: &[&Region],
    boundaries: &mut [Option<Vec<Coord>>],
    i: usize,
    j: usize,
) -> u32 {
    for k in [i, j] {
        if boundaries[k].is_none() {
            boundaries[k] = Some(boundary_cells(sets[k]));
        }
    }
    let (a, b) = (
        boundaries[i].as_ref().expect("memoized"),
        boundaries[j].as_ref().expect("memoized"),
    );
    let mut best = u32::MAX;
    for &u in a {
        for &v in b {
            best = best.min(topology.distance(u, v));
            if best == 0 {
                return 0;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};
    use ocp_mesh::Topology;

    fn c(x: i32, y: i32) -> Coord {
        Coord::new(x, y)
    }

    fn converged(t: Topology, faults: &[Coord]) -> (FaultMap, PipelineOutcome) {
        let map = FaultMap::new(t, faults.iter().copied());
        let out = run_pipeline(&map, &PipelineConfig::default());
        (map, out)
    }

    #[test]
    fn valid_outcomes_certify_and_check() {
        for faults in [
            vec![],
            vec![c(1, 3), c(2, 1), c(3, 2)],
            vec![c(3, 3), c(4, 4)],
        ] {
            let (map, out) = converged(Topology::mesh(8, 8), &faults);
            let cert = EpochCertificate::describe(7, &map, &out);
            assert_eq!(cert.epoch, 7);
            assert_eq!(cert.fault_count, faults.len());
            let report = cert.check(&map, &out).expect("valid outcome certifies");
            assert_eq!(report.regions_checked, out.regions.len());
        }
    }

    #[test]
    fn certificate_serializes_and_round_trips() {
        let (map, out) = converged(Topology::mesh(8, 8), &[c(3, 3), c(4, 4), c(3, 5)]);
        let cert = EpochCertificate::describe(2, &map, &out);
        let json = serde_json::to_string(&cert).unwrap();
        let back: EpochCertificate = serde_json::from_str(&json).unwrap();
        assert_eq!(cert, back);
        back.check(&map, &out)
            .expect("deserialized cert still checks");
    }

    #[test]
    fn digest_tracks_every_grid_and_identity_change() {
        let (map, out) = converged(Topology::mesh(8, 8), &[c(3, 3)]);
        let d0 = outcome_digest(&map, &out);
        assert_eq!(d0, outcome_digest(&map, &out), "deterministic");
        let (map2, out2) = converged(Topology::mesh(8, 8), &[c(3, 4)]);
        assert_ne!(d0, outcome_digest(&map2, &out2), "different fault set");
        let (map3, out3) = converged(Topology::torus(8, 8), &[c(3, 3)]);
        assert_ne!(d0, outcome_digest(&map3, &out3), "different topology");
        let mut tampered = out.clone();
        tampered.activation.set(c(0, 0), ActivationState::Disabled);
        assert_ne!(d0, outcome_digest(&map, &tampered), "one flipped cell");
    }

    #[test]
    fn check_rejects_a_certificate_for_a_different_outcome() {
        let (map_a, out_a) = converged(Topology::mesh(10, 10), &[c(3, 3)]);
        let (map_b, out_b) = converged(Topology::mesh(10, 10), &[c(7, 7)]);
        let cert_a = EpochCertificate::describe(0, &map_a, &out_a);
        let errs = cert_a.check(&map_b, &out_b).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::DigestMismatch { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn close_pairs_matches_brute_force() {
        use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
        for t in [Topology::mesh(20, 20), Topology::torus(20, 20)] {
            for seed in 0..6u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut all: Vec<Coord> = t.coords().collect();
                all.shuffle(&mut rng);
                let faults: Vec<Coord> = all.into_iter().take(28).collect();
                let (_map, out) = converged(t, &faults);
                let sets: Vec<&Region> = out.regions.iter().map(|r| &r.cells).collect();
                for bound in [2u32, 4, 7] {
                    let fast = close_pairs(t, &sets, bound);
                    let mut brute = Vec::new();
                    for i in 0..sets.len() {
                        for j in i + 1..sets.len() {
                            let mut best = u32::MAX;
                            for u in sets[i].iter() {
                                for v in sets[j].iter() {
                                    best = best.min(t.distance(u, v));
                                }
                            }
                            if best < bound {
                                brute.push((i, j, best));
                            }
                        }
                    }
                    assert_eq!(fast, brute, "{t:?} seed {seed} bound {bound}");
                }
            }
        }
    }

    #[test]
    fn torus_wrapped_regions_are_witnessed_as_wrapped() {
        // A full row of faults on a small torus wraps around: no planar
        // embedding exists and the geometric witnesses are skipped.
        let t = Topology::torus(6, 6);
        let faults: Vec<Coord> = (0..6).map(|x| c(x, 2)).collect();
        let (map, out) = converged(t, &faults);
        let cert = EpochCertificate::describe(0, &map, &out);
        let report = cert.check(&map, &out).expect("wrapped outcome certifies");
        assert!(
            cert.regions.iter().any(|w| w.wrapped) || report.wrapped_regions == 0,
            "wrapped witnesses align with the report"
        );
        assert_eq!(
            cert.regions.iter().filter(|w| w.wrapped).count(),
            report.wrapped_regions
        );
    }

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64-bit.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"ab");
        let mut g = Fnv1a::new();
        g.write(b"a");
        g.write(b"b");
        assert_eq!(h.finish(), g.finish(), "incremental == one-shot");
    }

    // ----- mutation-negative tests: each distinct corruption of a
    // converged outcome must be rejected with the matching violation -----

    /// The 2x3 block pattern: faults at the four corners of a 2-wide,
    /// 3-tall rectangle. Under the classical rule (Def 2a) the whole
    /// rectangle is one block and one region, with `(2,3)` and `(3,3)`
    /// nonfaulty members.
    fn two_by_three() -> (FaultMap, PipelineOutcome) {
        let map = FaultMap::new(Topology::mesh(10, 10), [c(2, 2), c(3, 2), c(2, 4), c(3, 4)]);
        let out = run_pipeline(
            &map,
            &PipelineConfig {
                rule: SafetyRule::TwoUnsafeNeighbors,
                ..PipelineConfig::default()
            },
        );
        assert_eq!(out.regions.len(), 1, "fixture: one merged 2x3 region");
        assert_eq!(out.regions[0].cells.len(), 6);
        (map, out)
    }

    fn rejects_with(
        map: &FaultMap,
        out: &PipelineOutcome,
        pred: impl Fn(&Violation) -> bool,
        label: &str,
    ) {
        let cert = EpochCertificate::describe(1, map, out);
        let errs = cert.check(map, out).expect_err(label);
        assert!(errs.iter().any(pred), "{label}: got {errs:?}");
    }

    #[test]
    fn mutation_relabel_fault_safe_is_rejected() {
        let (map, mut out) = two_by_three();
        out.safety.set(c(2, 2), SafetyState::Safe);
        out.activation.set(c(2, 2), ActivationState::Enabled);
        rejects_with(
            &map,
            &out,
            |v| matches!(v, Violation::FaultNotCovered { fault } if *fault == c(2, 2)),
            "fault relabeled safe",
        );
    }

    #[test]
    fn mutation_shaved_region_cell_is_rejected_as_nonconvex() {
        let (map, mut out) = two_by_three();
        // Shave the nonfaulty mid-edge cell (3,3): the region stays
        // connected through column x=2 but column x=3 now has a hole.
        assert!(!map.is_faulty(c(3, 3)), "mutation target must be nonfaulty");
        out.activation.set(c(3, 3), ActivationState::Enabled);
        rejects_with(
            &map,
            &out,
            |v| matches!(v, Violation::RegionNotConvex { .. }),
            "shaved region cell",
        );
    }

    #[test]
    fn mutation_widened_region_is_rejected_as_nonminimal() {
        let (map, mut out) = two_by_three();
        // Widen the region one cell past its closure: still orthogonally
        // convex, but no longer the *smallest* polygon covering its faults.
        out.activation.set(c(4, 3), ActivationState::Disabled);
        rejects_with(
            &map,
            &out,
            |v| matches!(v, Violation::RegionNotMinimal { .. }),
            "widened region",
        );
    }

    #[test]
    fn mutation_regions_below_spacing_are_rejected() {
        let (map, mut out) = two_by_three();
        // Re-declare the single region as two pieces at distance 1 — two
        // published regions closer than the paper's spacing bound. The
        // grids are untouched, so only the declared-region checks can
        // catch this.
        let region = out.regions.remove(0);
        let (left_cells, right_cells): (Vec<Coord>, Vec<Coord>) =
            region.cells.iter().partition(|cell| cell.x == 2);
        for cells in [left_cells, right_cells] {
            let faults = Region::from_cells(cells.iter().copied().filter(|&f| map.is_faulty(f)));
            let piece = Region::from_cells(cells);
            out.regions.push(DisabledRegion {
                planar: Some(piece.clone()),
                planar_faults: Some(faults.clone()),
                cells: piece,
                faults,
            });
        }
        rejects_with(
            &map,
            &out,
            |v| matches!(v, Violation::RegionsTooClose { distance: 1, .. }),
            "regions below spacing",
        );
    }

    #[test]
    fn mutation_merged_regions_across_the_gap_are_rejected() {
        // Two singleton regions at the legal distance 2; disabling the
        // bridge cell merges them into one grid component that no block
        // contains.
        let (map, mut out) = converged(Topology::mesh(10, 10), &[c(2, 2), c(2, 4)]);
        assert_eq!(out.regions.len(), 2);
        out.activation.set(c(2, 3), ActivationState::Disabled);
        rejects_with(
            &map,
            &out,
            |v| matches!(v, Violation::RegionOutsideBlock { .. }),
            "merged regions",
        );
    }

    #[test]
    fn mutation_tampered_closure_witness_is_rejected() {
        // The outcome is untouched — only the certificate's Theorem-2
        // minimality witness lies. Both checker paths must notice.
        let (map, out) = two_by_three();
        let mut cert = EpochCertificate::describe(1, &map, &out);
        cert.regions[0].closure_cells += 1;
        let errs = cert
            .check(&map, &out)
            .expect_err("tampered closure witness");
        assert!(
            errs.iter().any(
                |v| matches!(v, Violation::CertificateMismatch { what } if what.contains("witness"))
            ),
            "declared path: {errs:?}"
        );

        // Torus outcomes take the extracted path (compare_facts).
        let (map, out) = converged(Topology::torus(10, 10), &[c(3, 3)]);
        assert!(!out.regions.is_empty(), "fixture: at least one region");
        let mut cert = EpochCertificate::describe(1, &map, &out);
        cert.regions[0].closure_cells += 1;
        let errs = cert.check(&map, &out).expect_err("tampered torus witness");
        assert!(
            errs.iter().any(
                |v| matches!(v, Violation::CertificateMismatch { what } if what.contains("witness"))
            ),
            "extracted path: {errs:?}"
        );
    }

    /// Epoch 0 (16x16 mesh: a 2x2 block at [3,4]² and a lone fault at
    /// (12,12)), its certificate, and epoch 1 after a fault at (5,5),
    /// whose dirty window is [2,6]².
    fn windowed_fixture() -> (
        FaultMap,
        PipelineOutcome,
        EpochCertificate,
        FaultMap,
        PipelineOutcome,
    ) {
        let cfg = PipelineConfig::default();
        let (map0, out0) = converged(Topology::mesh(16, 16), &[c(3, 3), c(4, 4), c(12, 12)]);
        let cert0 = EpochCertificate::describe(0, &map0, &out0);
        let (map1, epoch) =
            crate::maintenance::try_relabel_batch(&map0, &[c(5, 5)], &[], &out0, &cfg).unwrap();
        assert_eq!(
            epoch.windows,
            DirtyWindows::Local(vec![crate::window::Window::new(c(2, 2), 5, 5)])
        );
        (map0, out0, cert0, map1, epoch.outcome)
    }

    /// Describes `out1` the windowed way and checks it the windowed way
    /// against the fixture's epoch 0 after `faults`.
    fn check_windowed(
        (map0, out0, cert0): (&FaultMap, &PipelineOutcome, &EpochCertificate),
        faults: &[Coord],
        map1: &FaultMap,
        out1: &PipelineOutcome,
    ) -> Result<VerifyReport, Vec<Violation>> {
        let base = CertifiedEpoch {
            certificate: cert0,
            map: map0,
            outcome: out0,
        };
        let cert = EpochCertificate::describe_after(base, &[c(5, 5)], &[], map1, out1);
        cert.check_after(base, faults, &[], map1, out1)
    }

    #[test]
    fn windowed_describe_and_check_match_the_full_ones() {
        let (map0, out0, cert0, map1, out1) = windowed_fixture();
        let base = CertifiedEpoch {
            certificate: &cert0,
            map: &map0,
            outcome: &out0,
        };
        let cert = EpochCertificate::describe_after(base, &[c(5, 5)], &[], &map1, &out1);
        assert_eq!(cert, EpochCertificate::describe(1, &map1, &out1));
        let report = cert
            .check_after(base, &[c(5, 5)], &[], &map1, &out1)
            .expect("a correct epoch passes");
        // Only the window's block and its three single-fault regions
        // were checked (the lone fault at (12,12) is carried over).
        assert_eq!((report.blocks_checked, report.regions_checked), (1, 3));
        cert.check(&map1, &out1).expect("and the full check agrees");
    }

    #[test]
    fn windowed_check_rejects_a_flipped_label_inside_the_window() {
        let (map0, out0, cert0, map1, mut out1) = windowed_fixture();
        // (3,5) is an enabled node of the new 3x3 block; disabling it
        // splits no list entry, so only the grid knows.
        assert_eq!(*out1.activation.get(c(3, 5)), ActivationState::Enabled);
        out1.activation.set(c(3, 5), ActivationState::Disabled);
        let errs = check_windowed((&map0, &out0, &cert0), &[c(5, 5)], &map1, &out1)
            .expect_err("flipped inside");
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::OutcomeInconsistent { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn windowed_check_rejects_a_flipped_label_outside_the_window() {
        let (map0, out0, cert0, map1, mut out1) = windowed_fixture();
        out1.safety.set(c(9, 9), SafetyState::Unsafe);
        let errs = check_windowed((&map0, &out0, &cert0), &[c(5, 5)], &map1, &out1)
            .expect_err("flipped outside");
        assert!(
            errs.iter().any(
                |v| matches!(v, Violation::OutcomeInconsistent { what } if what.contains("outside"))
            ),
            "{errs:?}"
        );
    }

    #[test]
    fn windowed_check_rejects_a_block_touching_the_window_edge() {
        let (map0, out0, cert0, map1, mut out1) = windowed_fixture();
        // Grow the new block [3,5]² by a column into the window's east
        // edge (x = 6), consistently in the grids and the lists.
        for y in 3..=5 {
            out1.safety.set(c(6, y), SafetyState::Unsafe);
        }
        out1.blocks = extract_blocks(&map1, &out1.safety);
        let errs = check_windowed((&map0, &out0, &cert0), &[c(5, 5)], &map1, &out1)
            .expect_err("block on the edge");
        assert!(
            errs.iter().any(
                |v| matches!(v, Violation::OutcomeInconsistent { what } if what.contains("edge"))
            ),
            "{errs:?}"
        );
    }

    #[test]
    fn windowed_check_rejects_a_certificate_for_a_different_batch() {
        let (map0, out0, cert0, map1, out1) = windowed_fixture();
        // The same epoch checked as if the batch had broken (5,6) instead.
        let errs = check_windowed((&map0, &out0, &cert0), &[c(5, 6)], &map1, &out1)
            .expect_err("different batch");
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::CertificateMismatch { .. })),
            "{errs:?}"
        );
        // And a certificate of another epoch's outcome.
        let (map_b, out_b) = converged(
            Topology::mesh(16, 16),
            &[c(3, 3), c(4, 4), c(12, 12), c(9, 2)],
        );
        let base = CertifiedEpoch {
            certificate: &cert0,
            map: &map0,
            outcome: &out0,
        };
        let other = EpochCertificate::describe_after(base, &[c(9, 2)], &[], &map_b, &out_b);
        let errs = other
            .check_after(base, &[c(5, 5)], &[], &map1, &out1)
            .expect_err("another epoch's certificate");
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::DigestMismatch { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn mutation_tampered_declared_blocks_are_rejected() {
        let (map, mut out) = two_by_three();
        out.blocks.pop();
        rejects_with(
            &map,
            &out,
            |v| matches!(v, Violation::OutcomeInconsistent { .. }),
            "dropped declared block",
        );
    }
}
