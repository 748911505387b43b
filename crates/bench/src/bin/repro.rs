//! `repro` — regenerates every exhibit of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--trials N] [--seed S] [--out DIR] <command>
//!
//! Commands:
//!   fig5a         rounds to form faulty blocks vs faults (mesh & torus)
//!   fig5b         rounds to form disabled regions vs faults
//!   fig5c         enabled ratio vs faults (mesh)
//!   fig5d         enabled ratio vs faults (torus)
//!   models        Def-2a vs Def-2b vs disabled-region cost table (E9)
//!   routing       routing-model comparison + CDG + wormhole (E10)
//!   verify        theorem-checking campaign (E8)
//!   maintenance   warm vs cold relabeling rounds
//!   partition     disabled regions vs exact optimal polygon cover (E11)
//!   async         asynchronous execution vs lock-step fixpoint (E12)
//!   chaos         lossy-link overhead vs drop rate (E13)
//!   serve         mesh-state service: throughput/tail latency/staleness (E14)
//!   serve-smoke   ~2s TCP service smoke run (CI gate)
//!   scaling       labeling-engine speedups: size x density x engine (E15)
//!   routeperf     wide/indexed vs reference route_len throughput (E17)
//!   routeperf-smoke  quick E17 sweep with a relaxed speedup bar (CI gate)
//!   rebuild       incremental vs cold epoch builds, digest-pinned (E22)
//!   rebuild-smoke quick E22 sweep: digest-identical + modest speedup (CI gate)
//!   obs           observability overhead sweep, on vs off (E16)
//!   obs-smoke     TCP scrape of the metrics/obs endpoints (CI gate)
//!   durability    publish-path cost of certificates + WAL, on vs off (E18)
//!   durability-smoke  crash/recover replay gate over a real WAL (CI gate)
//!   fleet         reactor + fleet at connection scale: sweep, 2x bar, 10k sustain (E19)
//!   fleet-smoke   512 pipelined conns x 4 tenants, oracle-verified, 2x bar (CI gate)
//!   disjoint      k-disjoint serving: all-to-all oracle-verified + CDG prover (E21)
//!   disjoint-smoke  all-pairs k=2 over the reactor, verified + sampled CDG (CI gate)
//!   bench-check   --in <log>: bench-smoke names vs results/bench_baseline.json
//!   example-sec3  the paper's Section 3 worked example, rendered
//!   all           everything above
//! ```
//!
//! Tables print to stdout; JSON records land in `--out` (default
//! `results/`).

use ocp_analysis::to_json;
use ocp_bench::experiments::{
    self, asynchrony, chaos, disjoint, durability, fig5, fleet, maintenance, models, observability,
    partition_gap, rebuild, routeperf, routing_eval, scaling, serve_load, verification, Settings,
};
use std::path::PathBuf;

struct Args {
    settings: Settings,
    out_dir: PathBuf,
    command: String,
    in_file: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut settings = Settings::default();
    let mut out_dir = PathBuf::from("results");
    let mut command = String::from("all");
    let mut in_file: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => settings = Settings::quick(),
            "--trials" => {
                settings.trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trials needs a number");
            }
            "--seed" => {
                settings.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--side" => {
                settings.side = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--side needs a number");
            }
            "--out" => {
                out_dir = args.next().map(PathBuf::from).expect("--out needs a path");
            }
            "--in" => {
                in_file = args.next().map(PathBuf::from);
                assert!(in_file.is_some(), "--in needs a path");
            }
            "--help" | "-h" => {
                println!("see module docs: repro [--quick] [--trials N] [--seed S] [--side N] [--out DIR] [--in FILE] <fig5a|fig5b|fig5c|fig5d|models|routing|verify|maintenance|partition|async|chaos|serve|serve-smoke|scaling|routeperf|routeperf-smoke|rebuild|rebuild-smoke|obs|obs-smoke|durability|durability-smoke|fleet|fleet-smoke|disjoint|disjoint-smoke|bench-check|example-sec3|all>");
                std::process::exit(0);
            }
            other => command = other.to_string(),
        }
    }
    Args {
        settings,
        out_dir,
        command,
        in_file,
    }
}

fn save(out_dir: &PathBuf, name: &str, json: String) {
    std::fs::create_dir_all(out_dir).expect("create results dir");
    let path = out_dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write results");
    println!("[saved {}]", path.display());
}

fn run_fig5(args: &Args, which: &str) {
    println!(
        "Figure 5 reproduction: {}x{} machine, f in {{10%..100%}} of side, {} trials",
        args.settings.side, args.settings.side, args.settings.trials
    );
    let fig = fig5::run(&args.settings);
    match which {
        "fig5a" => {
            let t = fig5::panel_table(&[&fig.rounds_fb_mesh, &fig.rounds_fb_torus]);
            println!(
                "{}",
                experiments::render_section("Fig 5(a): rounds to form faulty blocks", &t)
            );
        }
        "fig5b" => {
            let t = fig5::panel_table(&[&fig.rounds_dr_mesh, &fig.rounds_dr_torus]);
            println!(
                "{}",
                experiments::render_section("Fig 5(b): rounds to form disabled regions", &t)
            );
        }
        "fig5c" => {
            let t = fig5::panel_table(&[&fig.ratio_mesh]);
            println!(
                "{}",
                experiments::render_section(
                    "Fig 5(c): % enabled among unsafe-nonfaulty (mesh)",
                    &t
                )
            );
        }
        "fig5d" => {
            let t = fig5::panel_table(&[&fig.ratio_torus]);
            println!(
                "{}",
                experiments::render_section(
                    "Fig 5(d): % enabled among unsafe-nonfaulty (torus)",
                    &t
                )
            );
        }
        _ => {
            let ta = fig5::panel_table(&[&fig.rounds_fb_mesh, &fig.rounds_fb_torus]);
            let tb = fig5::panel_table(&[&fig.rounds_dr_mesh, &fig.rounds_dr_torus]);
            let tc = fig5::panel_table(&[&fig.ratio_mesh]);
            let td = fig5::panel_table(&[&fig.ratio_torus]);
            println!(
                "{}",
                experiments::render_section("Fig 5(a): rounds to form faulty blocks", &ta)
            );
            println!(
                "{}",
                experiments::render_section("Fig 5(b): rounds to form disabled regions", &tb)
            );
            println!(
                "{}",
                experiments::render_section("Fig 5(c): % enabled (mesh)", &tc)
            );
            println!(
                "{}",
                experiments::render_section("Fig 5(d): % enabled (torus)", &td)
            );
        }
    }
    save(&args.out_dir, "fig5", to_json(&fig));
}

fn run_models(args: &Args) {
    let ab = models::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E9: nonfaulty nodes sacrificed per model (means)",
            &models::table(&ab)
        )
    );
    save(&args.out_dir, "models", to_json(&ab));
}

fn run_routing(args: &Args) {
    let rows = routing_eval::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E10: routing under FB vs DR fault models (32x32 mesh)",
            &routing_eval::table(&rows)
        )
    );
    save(&args.out_dir, "routing", to_json(&rows));
}

fn run_verify(args: &Args) {
    let report = verification::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E8: theorem verification campaign",
            &verification::table(&report)
        )
    );
    for s in &report.samples {
        println!("  VIOLATION: {s}");
    }
    save(&args.out_dir, "verify", to_json(&report));
    if report.violations > 0 {
        std::process::exit(1);
    }
}

fn run_maintenance(args: &Args) {
    let result = maintenance::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "Maintenance: phase-1 rounds after one new fault",
            &maintenance::table(&result)
        )
    );
    save(&args.out_dir, "maintenance", to_json(&result));
}

fn run_partition(args: &Args) {
    let rows = partition_gap::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E11: disabled regions vs exact optimal polygon cover (open problem)",
            &partition_gap::table(&rows)
        )
    );
    save(&args.out_dir, "partition", to_json(&rows));
}

fn run_async_exp(args: &Args) {
    let rows = asynchrony::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E12: asynchronous execution vs lock-step fixpoint",
            &asynchrony::table(&rows)
        )
    );
    save(&args.out_dir, "async", to_json(&rows));
}

fn run_chaos_exp(args: &Args) {
    let rows = chaos::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E13: lossy-link overhead vs drop rate (chaos executor)",
            &chaos::table(&rows)
        )
    );
    save(&args.out_dir, "chaos", to_json(&rows));
}

fn run_serve(args: &Args) {
    let report = serve_load::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E14: mesh-state service, closed-loop load",
            &serve_load::load_table(&report.closed_loop)
        )
    );
    println!(
        "{}",
        experiments::render_section(
            "E14: mesh-state service, open-loop load (latency from scheduled arrival)",
            &serve_load::load_table(&report.open_loop)
        )
    );
    println!(
        "{}",
        experiments::render_section(
            "E14: read staleness vs writer coalescing window",
            &serve_load::staleness_table(&report.staleness)
        )
    );
    save(&args.out_dir, "serve", to_json(&report));
}

fn run_scaling(args: &Args) {
    let report = scaling::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E15: two-phase labeling cost per engine (cold)",
            &scaling::labeling_table(&report)
        )
    );
    println!(
        "{}",
        experiments::render_section(
            "E15: warm relabel latency per engine (serve writer path)",
            &scaling::relabel_table(&report)
        )
    );
    save(&args.out_dir, "scaling", to_json(&report));
}

fn run_routeperf(args: &Args) {
    let report = routeperf::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E17: route_len throughput, indexed vs reference query path",
            &routeperf::table(&report)
        )
    );
    println!(
        "{}",
        experiments::render_section(
            "E17: cold-baseline router + index construction cost (E22 patches it incrementally)",
            &routeperf::build_table(&report)
        )
    );
    save(&args.out_dir, "routeperf", to_json(&report));
    let flagship = routeperf::flagship_speedup(&report).expect("batch64 rows");
    println!(
        "flagship: {}x{} d={:.2} batch=64 speedup {:.2}x",
        flagship.side, flagship.side, flagship.density, flagship.speedup
    );
    // The acceptance bar applies to the full shape (256² / 10% clustered):
    // the batch path at batch=64 must deliver >= 7x the reference
    // traversal's throughput (measured ~9.2x on the baseline machine;
    // EXPERIMENTS.md E20 documents the measured ceiling).
    if args.settings.side >= 100 && flagship.speedup < 7.0 {
        eprintln!(
            "FAIL: flagship wide-batch64 speedup {:.2}x below the 7x acceptance bar",
            flagship.speedup
        );
        std::process::exit(1);
    }
}

fn run_routeperf_smoke(args: &Args) {
    let mut settings = args.settings;
    if settings.side >= 100 {
        settings = Settings::quick();
    }
    let report = routeperf::run(&settings);
    let flagship = routeperf::flagship_speedup(&report).expect("batch64 rows");
    println!(
        "routeperf smoke: {} cells, flagship {}x{} d={:.2} batch=64 speedup {:.2}x",
        report.rows.len(),
        flagship.side,
        flagship.side,
        flagship.density,
        flagship.speedup
    );
    // Relaxed bar: small machines under CI noise still must show a clear
    // win (the quick shape measures ~4.8x); the 7x bar is enforced by
    // the full `routeperf` run.
    assert!(
        flagship.speedup >= 3.0,
        "smoke wide-batch64 speedup {:.2}x below the 3x smoke bar",
        flagship.speedup
    );
    println!("routeperf smoke: batch path clears the 3x smoke bar");
}

fn run_rebuild(args: &Args) {
    let report = rebuild::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E22: incremental vs cold epoch builds (digest-pinned)",
            &rebuild::table(&report)
        )
    );
    save(&args.out_dir, "rebuild", to_json(&report));
    for r in &report.rows {
        if !r.digest_match {
            eprintln!(
                "FAIL: incremental rebuild diverged from the cold build at \
                 {}x{} d={:.2} batch={}",
                r.side, r.side, r.density, r.batch
            );
            std::process::exit(1);
        }
    }
    let flagship = rebuild::flagship(&report).expect("rebuild rows");
    println!(
        "flagship: {}x{} d={:.2} batch={} incremental {:.1}x, parallel cold {:.2}x ({} threads)",
        flagship.side,
        flagship.side,
        flagship.density,
        flagship.batch,
        flagship.speedup_incremental,
        flagship.speedup_parallel,
        report.threads
    );
    // Acceptance bars apply to the full shape (256² / 10% clustered,
    // batch <= 64): the incremental rebuild must beat the cold build by
    // >= 5x, and the banded cold build must reach >= 2x when the machine
    // actually has cores to band over.
    if args.settings.side >= 100 && flagship.speedup_incremental < 5.0 {
        eprintln!(
            "FAIL: flagship incremental speedup {:.2}x below the 5x acceptance bar",
            flagship.speedup_incremental
        );
        std::process::exit(1);
    }
    if args.settings.side >= 100 && report.threads >= 2 && flagship.speedup_parallel < 2.0 {
        eprintln!(
            "FAIL: parallel cold-build speedup {:.2}x below the 2x acceptance bar \
             at {} threads",
            flagship.speedup_parallel, report.threads
        );
        std::process::exit(1);
    }
    if report.threads < 2 {
        println!(
            "parallel cold-build bar skipped: only {} core available",
            report.threads
        );
    }
}

fn run_rebuild_smoke(args: &Args) {
    let mut settings = args.settings;
    if settings.side >= 100 {
        settings = Settings::quick();
    }
    let report = rebuild::run(&settings);
    // On the quick machines a 16-fault batch is a large fraction of the
    // mesh, so the speedup bar gates on the single-fault flagship; the
    // full-shape bars live in the full `rebuild` run.
    let flagship = report
        .rows
        .iter()
        .filter(|r| r.batch == 1)
        .max_by(|a, b| {
            (a.side, a.density)
                .partial_cmp(&(b.side, b.density))
                .expect("finite densities")
        })
        .expect("batch=1 rows");
    println!(
        "rebuild smoke: {} cells, flagship {}x{} d={:.2} batch={} incremental {:.1}x reuse {:.2}",
        report.rows.len(),
        flagship.side,
        flagship.side,
        flagship.density,
        flagship.batch,
        flagship.speedup_incremental,
        flagship.reuse_ratio
    );
    // Digest equality is the hard gate at every size.
    for r in &report.rows {
        assert!(
            r.digest_match,
            "incremental rebuild diverged from cold at {}x{} d={:.2} batch={}",
            r.side, r.side, r.density, r.batch
        );
    }
    assert!(
        flagship.speedup_incremental >= 1.5,
        "smoke incremental speedup {:.2}x below the 1.5x smoke bar",
        flagship.speedup_incremental
    );
    println!("rebuild smoke: digest-identical everywhere, clears the 1.5x smoke bar");
}

fn run_obs(args: &Args) {
    let report = observability::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E16: observability overhead, instrumentation on vs off",
            &observability::table(&report)
        )
    );
    println!(
        "aggregate overhead: {:+.2}% ({} metric families, {} spans recorded)",
        report.aggregate_overhead_pct, report.metric_families, report.spans_recorded
    );
    save(&args.out_dir, "obs", to_json(&report));
    if report.aggregate_overhead_pct > 5.0 {
        eprintln!(
            "FAIL: observability overhead {:.2}% exceeds the 5% acceptance bar",
            report.aggregate_overhead_pct
        );
        std::process::exit(1);
    }
    println!("observability overhead within the 5% acceptance bar");
}

fn run_obs_smoke(args: &Args) {
    let report = observability::obs_smoke(args.settings.seed);
    println!(
        "obs smoke: {}-byte Prometheus scrape, {} metric families, {} spans, {} epoch(s) published",
        report.scrape_bytes, report.registry_families, report.spans, report.epochs_published
    );
    println!("obs smoke: all three exposure surfaces OK");
}

/// Compares the benchmark names in a `cargo bench` log against the keys of
/// `results/bench_baseline.json`, so the committed baseline can never
/// silently drift from the bench suites again (it went stale once already).
fn run_bench_check(args: &Args) {
    use std::collections::BTreeSet;
    let log_path = args
        .in_file
        .as_ref()
        .expect("bench-check needs --in <bench log>");
    let log = std::fs::read_to_string(log_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", log_path.display()));
    let measured: BTreeSet<String> = log
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("bench: "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    assert!(
        !measured.is_empty(),
        "no `bench:` lines in {} — is it a `cargo bench -p ocp-bench` log?",
        log_path.display()
    );

    let baseline_path = args.out_dir.join("bench_baseline.json");
    let baseline_text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", baseline_path.display()));
    let parsed = serde_json::from_str::<serde_json::Value>(&baseline_text).expect("valid JSON");
    let mut baseline: BTreeSet<String> = BTreeSet::new();
    let suites = parsed
        .get("suites")
        .and_then(|s| s.as_object())
        .expect("baseline has a `suites` object");
    for (_suite, body) in suites {
        let benchmarks = body
            .get("benchmarks")
            .and_then(|b| b.as_object())
            .expect("suite has a `benchmarks` object");
        for (name, _value) in benchmarks {
            baseline.insert(name.clone());
        }
    }

    let missing: Vec<&String> = baseline.difference(&measured).collect();
    let unknown: Vec<&String> = measured.difference(&baseline).collect();
    println!(
        "bench-check: {} measured, {} baselined",
        measured.len(),
        baseline.len()
    );
    for name in &missing {
        eprintln!("  baseline key never ran: {name}");
    }
    for name in &unknown {
        eprintln!("  bench has no baseline:  {name}");
    }
    if !missing.is_empty() || !unknown.is_empty() {
        eprintln!(
            "FAIL: bench suites and {} disagree; regenerate the baseline",
            baseline_path.display()
        );
        std::process::exit(1);
    }
    println!("bench-check: baseline keys match the bench suites");
}

fn run_durability(args: &Args) {
    let report = durability::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E18: publish-path cost of certificates + WAL (bare vs durable)",
            &durability::table(&report)
        )
    );
    save(&args.out_dir, "durability", to_json(&report));
    let flagship = durability::flagship_overhead(&report).expect("10% density rows");
    println!(
        "flagship: {}x{} d={:.2} durability overhead {:+.2}%",
        flagship.side, flagship.side, flagship.density, flagship.overhead_pct
    );
    // The acceptance bar applies to the full shape (256² / 10% clustered).
    if args.settings.side >= 100 && flagship.overhead_pct > 10.0 {
        eprintln!(
            "FAIL: durability overhead {:+.2}% exceeds the 10% acceptance bar",
            flagship.overhead_pct
        );
        std::process::exit(1);
    }
}

fn run_durability_smoke(args: &Args) {
    let report = durability::smoke(args.settings.seed);
    println!(
        "durability smoke: {} epochs replayed, {}/{} crash images recovered to verified prefixes",
        report.epochs, report.cuts_recovered, report.cuts_tested
    );
    assert!(
        report.cuts_recovered >= 1,
        "no crash image recovered: {report:?}"
    );
    println!("durability smoke: crash/recover replay OK");
}

fn run_serve_smoke(args: &Args) {
    let report = serve_load::smoke(std::time::Duration::from_secs(2), args.settings.seed);
    println!(
        "serve smoke: {} TCP requests in {} ms, {} epochs published",
        report.served, report.duration_ms, report.epochs_published
    );
    assert!(report.served > 0, "smoke run served zero requests");
    println!("serve smoke: clean shutdown OK");
}

fn run_fleet(args: &Args) {
    println!(
        "E19: reactor + fleet at connection scale ({} mode)",
        if args.settings.side < 100 {
            "quick"
        } else {
            "full"
        }
    );
    let report = fleet::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E19: fleet load sweep (connections x tenants x depth)",
            &fleet::table(&report.sweep)
        )
    );
    println!(
        "{}",
        experiments::render_section(
            "E19: blocking vs reactor serve transports",
            &fleet::table(&report.comparison)
        )
    );
    println!(
        "{}",
        experiments::render_section(
            "E19: pipelined connection sustain",
            &fleet::sustain_table(&report.sustain)
        )
    );
    println!("reactor/blocking speedup: {:.2}x", report.speedup_at_1k);
    save(&args.out_dir, "fleet", to_json(&report));
    let quick = args.settings.side < 100;
    let mismatches: u64 = report.sweep.iter().map(|r| r.mismatches).sum::<u64>()
        + report.comparison.iter().map(|r| r.mismatches).sum::<u64>()
        + report.sustain.mismatches;
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} replies differed from the in-process oracle");
        std::process::exit(1);
    }
    if !quick {
        if report.sustain.connections < 10_000
            || report.sustain.conns_served < report.sustain.connections
            || report.sustain.conns_lost > 0
        {
            eprintln!(
                "FAIL: sustain bar not met: {}/{} connections served, {} lost",
                report.sustain.conns_served, report.sustain.connections, report.sustain.conns_lost
            );
            std::process::exit(1);
        }
        if report.speedup_at_1k < 2.0 {
            eprintln!(
                "FAIL: reactor speedup {:.2}x is below the 2x acceptance bar",
                report.speedup_at_1k
            );
            std::process::exit(1);
        }
    }
}

fn run_fleet_smoke(args: &Args) {
    let report = fleet::smoke(args.settings.seed);
    println!(
        "fleet smoke: {} conns x {} tenants, {} verified replies ({} mismatches), {} served / {} lost",
        report.connections,
        report.tenants,
        report.verified,
        report.mismatches,
        report.conns_served,
        report.conns_lost
    );
    println!(
        "fleet smoke: blocking {:.0} req/s vs reactor {:.0} req/s ({:.2}x)",
        report.blocking_throughput, report.reactor_throughput, report.speedup
    );
    assert!(report.connections >= 512, "smoke ran too few connections");
    assert!(report.tenants >= 4, "smoke ran too few tenants");
    assert_eq!(
        report.mismatches, 0,
        "replies differed from the in-process oracle"
    );
    assert_eq!(
        report.conns_served, report.connections,
        "some connections never completed a verified reply"
    );
    assert_eq!(report.conns_lost, 0, "connections were lost mid-run");
    assert!(
        report.speedup >= 2.0,
        "reactor speedup {:.2}x is below the 2x bar",
        report.speedup
    );
    println!("fleet smoke: multi-tenant pipelined serving OK");
}

fn run_disjoint(args: &Args) {
    let report = disjoint::run(&args.settings);
    println!(
        "{}",
        experiments::render_section(
            "E21: k-disjoint serving, all-to-all oracle-verified over TCP",
            &disjoint::table(&report)
        )
    );
    println!(
        "{}",
        experiments::render_section(
            "E21: virtual-channel deadlock prover (CDG acyclicity, all pairs)",
            &disjoint::deadlock_table(&report)
        )
    );
    save(&args.out_dir, "disjoint", to_json(&report));
    if report.total_mismatches > 0 {
        eprintln!(
            "FAIL: {} replies differed from the cold oracle",
            report.total_mismatches
        );
        std::process::exit(1);
    }
    if let Some(stuck) = report.deadlock.iter().find(|d| !d.free) {
        eprintln!(
            "FAIL: CDG has {} back edges on {}",
            stuck.back_edges, stuck.scenario
        );
        std::process::exit(1);
    }
    println!("disjoint: 0 oracle mismatches, every scenario CDG-acyclic");
}

fn run_disjoint_smoke(args: &Args) {
    let report = disjoint::smoke(args.settings.seed);
    println!(
        "disjoint smoke: {} all-pairs k=2 queries over the reactor, {} delivered, {} mismatches",
        report.queries, report.delivered, report.mismatches
    );
    println!(
        "disjoint smoke: CDG {} back edges over {} vcs (max {} labels/link)",
        report.back_edges, report.vcs, report.max_link_vcs
    );
    println!("disjoint smoke: k-disjoint serving + deadlock model OK");
}

fn run_example_sec3() {
    use ocp_core::prelude::*;
    let fx = ocp_workloads::fixtures::sec3_example();
    let map = FaultMap::new(fx.topology, fx.faults.iter().copied());
    let out = run_pipeline(&map, &PipelineConfig::default());
    println!("\n== Section 3 worked example ==\n");
    println!("{}", fx.description);
    let render = |title: &str, s: String| println!("{title}:\n{s}");
    render(
        "faults (#)",
        ocp_mesh::render(&out.safety, |c, _| if map.is_faulty(c) { '#' } else { '.' }),
    );
    render(
        "unsafe after phase 1 (u)",
        ocp_mesh::render(&out.safety, |c, s| match s {
            SafetyState::Unsafe if map.is_faulty(c) => '#',
            SafetyState::Unsafe => 'u',
            SafetyState::Safe => '.',
        }),
    );
    render(
        "disabled after phase 2 (d)",
        ocp_mesh::render(&out.activation, |c, a| match a {
            ActivationState::Disabled if map.is_faulty(c) => '#',
            ActivationState::Disabled => 'd',
            ActivationState::Enabled => '.',
        }),
    );
    println!(
        "blocks: {}  regions: {}  rounds: {} + {}",
        out.blocks.len(),
        out.regions.len(),
        out.safety_trace.rounds(),
        out.enablement_trace.rounds()
    );
    ocp_core::verify::verify(&map, &out).expect("invariants");
    println!("all Section 4 invariants verified");
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "fig5a" | "fig5b" | "fig5c" | "fig5d" | "fig5" => run_fig5(&args, &args.command),
        "models" => run_models(&args),
        "routing" => run_routing(&args),
        "verify" => run_verify(&args),
        "maintenance" => run_maintenance(&args),
        "partition" => run_partition(&args),
        "async" => run_async_exp(&args),
        "chaos" => run_chaos_exp(&args),
        "serve" => run_serve(&args),
        "serve-smoke" => run_serve_smoke(&args),
        "scaling" => run_scaling(&args),
        "routeperf" => run_routeperf(&args),
        "routeperf-smoke" => run_routeperf_smoke(&args),
        "rebuild" => run_rebuild(&args),
        "rebuild-smoke" => run_rebuild_smoke(&args),
        "obs" => run_obs(&args),
        "obs-smoke" => run_obs_smoke(&args),
        "durability" => run_durability(&args),
        "durability-smoke" => run_durability_smoke(&args),
        "fleet" => run_fleet(&args),
        "fleet-smoke" => run_fleet_smoke(&args),
        "disjoint" => run_disjoint(&args),
        "disjoint-smoke" => run_disjoint_smoke(&args),
        // Internal: the out-of-process load driver the fleet sustain
        // exhibit re-execs (stdout carries exactly one JSON object).
        "fleet-driver" => {
            let spec = args
                .in_file
                .as_ref()
                .expect("fleet-driver needs --in <spec>");
            println!("{}", fleet::drive_spec_file(spec));
        }
        "bench-check" => run_bench_check(&args),
        "example-sec3" => run_example_sec3(),
        "all" => {
            run_fig5(&args, "fig5");
            run_models(&args);
            run_routing(&args);
            run_maintenance(&args);
            run_partition(&args);
            run_async_exp(&args);
            run_chaos_exp(&args);
            run_serve(&args);
            run_scaling(&args);
            run_routeperf(&args);
            run_rebuild(&args);
            run_obs(&args);
            run_durability(&args);
            run_fleet(&args);
            run_disjoint(&args);
            run_verify(&args);
            run_example_sec3();
        }
        other => {
            eprintln!("unknown command: {other} (try --help)");
            std::process::exit(2);
        }
    }
}
