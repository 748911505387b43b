//! E17's quick sweep, timed in a test binary of its own.
//!
//! The sweep asserts that every indexed engine beats the reference
//! traversal from short timed passes. Among the library's unit tests,
//! which run in parallel, those passes competed with the other tests for
//! a two-core machine and the assertion flaked. Cargo runs test binaries
//! one after another, so here the sweep has the CPU to itself.

use ocp_bench::experiments::routeperf::{flagship_speedup, run, REFERENCE};
use ocp_bench::experiments::Settings;

#[test]
fn quick_sweep_shows_indexed_wins() {
    let report = run(&Settings::quick());
    // 2 sides x 3 densities x 3 engines.
    assert_eq!(report.rows.len(), 18);
    assert_eq!(report.build.len(), 6);
    for r in &report.rows {
        assert!(r.ns_per_query > 0.0);
        assert!(r.speedup > 0.0);
        if r.engine == REFERENCE {
            assert!((r.speedup - 1.0).abs() < 1e-9);
        }
    }
    // Indexed must beat the reference at every cell, even tiny ones.
    for r in report.rows.iter().filter(|r| r.engine != REFERENCE) {
        assert!(
            r.speedup > 1.0,
            "{} at {}x{} d={} only reached {:.2}x",
            r.engine,
            r.side,
            r.side,
            r.density,
            r.speedup
        );
    }
    let flagship = flagship_speedup(&report).expect("batch64 rows exist");
    assert_eq!(flagship.side, 48);
    assert!((flagship.density - 0.10).abs() < 1e-9);
}
