//! # ocp-core
//!
//! The paper's contribution: a distributed two-phase labeling scheme that
//! turns rectangular **faulty blocks** into minimal **orthogonal convex
//! polygons** ("disabled regions") in 2-D meshes and tori.
//!
//! ## The three orthogonal node classifications (Section 3)
//!
//! 1. **faulty / nonfaulty** — ground truth, [`FaultMap`].
//! 2. **safe / unsafe** — computed by phase 1 ([`labeling::safety`]):
//!    * Definition 2a: a nonfaulty node is unsafe iff it has **two or more**
//!      unsafe neighbors (classical faulty-block rule, blocks ≥ 3 apart).
//!    * Definition 2b: a nonfaulty node is unsafe iff it has an unsafe
//!      neighbor **in both dimensions** (enhanced rule, blocks ≥ 2 apart,
//!      fewer nonfaulty nodes sacrificed).
//!
//!    Connected unsafe nodes form rectangular faulty blocks
//!    ([`blocks::extract_blocks`]).
//! 3. **enabled / disabled** — computed by phase 2
//!    ([`labeling::enablement`], Definition 3): faulty ⇒ disabled, safe ⇒
//!    enabled; a nonfaulty unsafe node starts disabled and is flipped to
//!    enabled once it sees **two or more enabled** neighbors. The rule is
//!    monotone (disabled → enabled only), which is exactly what makes the
//!    status well defined — Figure 2's "double status" examples are pinned
//!    as tests. Connected disabled nodes form the disabled regions
//!    ([`regions::extract_regions`]).
//!
//! Both phases run as synchronous neighbor-exchange protocols on
//! `ocp-distsim`'s engine, converging within the largest block diameter
//! rounds.
//!
//! ## Reproduced results
//!
//! * Theorem 1 — every disabled region is an orthogonal convex polygon.
//! * Lemma 1 — every corner node of a disabled region is faulty.
//! * Theorem 2 — every disabled region is the *smallest* orthogonal convex
//!   polygon covering the faults it contains (checked against the
//!   orthogonal convex closure).
//! * Corollary — disabled regions of a block never contain more nonfaulty
//!   nodes than the smallest orthogonal convex polygon covering all the
//!   block's faults.
//!
//! [`verify::verify`] machine-checks all of these on any outcome, and
//! [`pipeline::run_pipeline`] packages the whole flow.
//!
//! ```
//! use ocp_core::prelude::*;
//! use ocp_mesh::{Coord, Topology};
//!
//! // Section 3's example: three faults in a 6x6 mesh.
//! let map = FaultMap::new(
//!     Topology::mesh(6, 6),
//!     [Coord::new(1, 3), Coord::new(2, 1), Coord::new(3, 2)],
//! );
//! let out = run_pipeline(&map, &PipelineConfig::default());
//! assert_eq!(out.blocks.len(), 1);           // one 3x3 faulty block...
//! assert_eq!(out.blocks[0].cells.len(), 9);
//! // ...whose nonfaulty nodes are all re-enabled by phase 2:
//! assert!(out.regions.iter().all(|r| r.nonfaulty_count() == 0));
//! verify(&map, &out).expect("paper invariants hold");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod certificate;
pub mod labeling;
pub mod maintenance;
pub mod partition;
pub mod pipeline;
pub mod regions;
pub mod stats;
pub mod status;
pub(crate) mod telemetry;
pub mod verify;
pub mod window;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::blocks::{extract_blocks, FaultyBlock};
    pub use crate::certificate::{outcome_digest, EpochCertificate};
    pub use crate::labeling::enablement::ActivationState;
    pub use crate::labeling::safety::{SafetyRule, SafetyState};
    pub use crate::labeling::LabelEngine;
    pub use crate::maintenance::{run_fault_schedule, FaultScheduleOutcome};
    pub use crate::pipeline::{run_pipeline, try_run_pipeline, PipelineConfig, PipelineOutcome};
    pub use crate::regions::{extract_regions, DisabledRegion};
    pub use crate::stats::ModelStats;
    pub use crate::status::FaultMap;
    pub use crate::verify::{verify, Violation};
    pub use ocp_distsim::ConvergenceError;
}

pub use prelude::*;
