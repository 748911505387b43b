//! The serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the real service — `MeshService::start_durable` behind the
//! reactor `TcpFront` — drives one seeded workload over pipelined v2
//! connections from one client thread, checks every reply against the
//! oracle off the clock, and prints the metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, from a run that also writes a span dump.
//! Every run writes its result, with provenance, under `.perfbench_out/`.
//! The exit code is nonzero on any oracle mismatch.

mod driver;
mod oracle;
mod spans;
mod stats;
mod sysinfo;
mod timer;
mod trace;
mod workload;

use driver::{Driver, Injector, Mode, Outcome, PhaseResult, PublishSample, Reads, WriterProbe};
use ocp_serve::{MeshService, Request, ServeConfig, Snapshot, StatsReport, TcpFront, Transport};
use spans::SpanRecorder;
use stats::{beyond, mean, median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sysinfo::{json_str, Provenance};
use workload::{BlobSource, Mix, Workload};

/// Set-ups per run, at the least; `setup_s` is the median of the faster
/// half.
const SETUP_REPS: usize = 31;
/// Set-ups go on until this much time has passed, so that one burst of
/// hypervisor steal cannot cover them all.
const SETUP_SPAN: Duration = Duration::from_secs(2);
/// Epoch-log batches the traced run replays through the publish layers.
const PUBLISH_REPLAY_MAX: usize = 96;
const OUT_DIR: &str = ".perfbench_out";
/// The end-to-end metrics of the JSON line, each bounded in
/// `BENCHMARK.json`. They are the ones that stay steady under the 0–30 %
/// hypervisor steal of a shared 2-vCPU VM: CPU time per operation, the
/// service's memory after set-up, and set-up time. Throughput, latencies
/// and the end-of-run peak memory (which grows with the driver's records
/// of every reply) are printed but move by more than any usable bound from
/// run to run there.
const GATED: [&str; 4] = ["setup_s", "setup_rss_mib", "read_cpu_us", "publish_cpu_ms"];
/// Name of `MeshService`'s writer thread.
const WRITER_THREAD: &str = "ocp-serve-writer";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the run directory");
    let result = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// A started service with its front and a connected client.
struct Stack {
    service: MeshService,
    front: TcpFront,
    driver: Driver,
}

impl Stack {
    fn stop(self) {
        drop(self.driver);
        self.front.shutdown();
        self.service.shutdown();
    }
}

/// From the generated fault list to the first verified reply: cold
/// labeling and router build, WAL creation, reactor start, connect.
fn set_up(
    w: &Workload,
    faults: &[ocp_mesh::Coord],
    wal: &Path,
    connections: usize,
) -> Result<(Stack, f64), String> {
    let start = Instant::now();
    let service = MeshService::start_durable(
        w.topology(),
        faults.iter().copied(),
        ServeConfig::default(),
        wal,
    )
    .map_err(|e| format!("service start: {e}"))?;
    let front = TcpFront::start(&service, "127.0.0.1:0", Transport::Reactor)
        .map_err(|e| format!("reactor start: {e}"))?;
    let mut driver =
        Driver::connect(front.local_addr(), connections).map_err(|e| format!("connect: {e}"))?;
    let probe = Request::Status { node: faults[0] };
    let got = driver
        .round_trip(&probe)
        .map_err(|e| format!("set-up probe: {e}"))?;
    if got != service.handle().dispatch(probe) {
        return Err("set-up probe reply differs from the in-process oracle".into());
    }
    let elapsed = start.elapsed().as_secs_f64();
    Ok((
        Stack {
            service,
            front,
            driver,
        },
        elapsed,
    ))
}

/// Metric values by name, with units.
#[derive(Default)]
struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(k),
                    num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number; non-finite values (which no metric should produce) as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args, tmp: &Path) -> Result<bool, String> {
    let w = &args.workload;
    let nproc = sysinfo::nproc();
    let connections = nproc.min(2);
    let prov = Provenance::collect(tmp, 1, connections);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("  why: {}", w.why);
    println!(
        "  mesh={}x{} faults={}% clustered depth={} open_rate={}/s pool={} batch_interval={:?}",
        w.side, w.side, w.fault_pct, w.depth, w.open_rate, w.pool, w.batch_interval
    );
    for line in prov.lines() {
        println!("  provenance {line}");
    }

    let steal0 = sysinfo::steal_ticks();
    let faults = w.faults(args.seed);
    let wal = tmp.join("serve.wal");
    let mut setups = Vec::new();
    let mut stack: Option<Stack> = None;
    let began = Instant::now();
    while setups.len() < SETUP_REPS || began.elapsed() < SETUP_SPAN {
        if let Some(previous) = stack.take() {
            previous.stop();
        }
        let (s, secs) = set_up(w, &faults, &wal, connections)?;
        setups.push(secs);
        stack = Some(s);
    }
    // A set-up takes milliseconds, shorter than the tick in which the
    // kernel counts hypervisor steal, so the quiet set-ups cannot be told
    // apart by steal as the sub-windows are. Steal only ever slows a set-up
    // down: the median of the faster half (the lower quartile) tracks the
    // program, and a slower set-up path still moves every set-up.
    let setup_s = percentile(&setups, 25.0);
    println!(
        "  set-up: {} runs, ms min {:.3} p25 {:.3} p50 {:.3} max {:.3}",
        setups.len(),
        percentile(&setups, 0.0) * 1e3,
        setup_s * 1e3,
        median(&setups) * 1e3,
        percentile(&setups, 100.0) * 1e3
    );
    let Stack {
        service,
        front,
        mut driver,
    } = stack.expect("at least one set-up");
    let mut outcome = Outcome::default();
    let mut problems: Vec<String> = Vec::new();

    // Inputs and oracle, off the clock.
    let mut handle = service.handle();
    let initial: Arc<Snapshot> = handle.snapshot();
    let pool = w.pool(args.seed, &initial.enabled);
    let expected = oracle::expected_replies(&mut handle, &pool);
    problems.extend(oracle::check_oracle(&initial, &pool, &expected, args.seed));
    let mut reads = Reads::new(pool, expected);
    let mut injector = Injector::new(
        BlobSource::new(args.seed, initial.enabled.clone()),
        w.batch_interval,
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let mut metrics = Metrics::default();
    let mut layer = Metrics::default();
    let mut recorder = SpanRecorder::new(Instant::now());
    // The writer thread does nothing but publish, so its CPU time and that
    // of the cold-build workers it spawns, divided by the epochs it
    // published, is the publish path's cost.
    let writer_probe = || -> WriterProbe {
        let handle = service.handle();
        Box::new(move || {
            let cpu = sysinfo::named_threads_cpu_s(WRITER_THREAD);
            (cpu, handle.stats().epochs_published)
        })
    };
    driver.writer = Some(writer_probe());
    // The service's footprint: labeled machine, indexes and the read pool,
    // before the load adds the driver's own per-reply records.
    let setup_rss_mib = sysinfo::peak_rss_mib();

    let (run, traced) = if !args.trace {
        let run = load(w, &mut driver, &mut reads, &mut injector, budget, |_, _| {});
        absorb(&mut outcome, &mut driver);
        drop(driver);
        front.shutdown();
        (run, None)
    } else {
        // An untraced closed loop first, for the tracing overhead.
        let closed = Mode::Closed { depth: w.depth };
        let untraced = driver.run_phase(closed, budget.mul_f64(0.2), &mut reads, None);
        absorb(&mut outcome, &mut driver);
        let reactor = front.reactor_stats().expect("reactor transport");
        drop(driver);
        front.shutdown();

        let origin = Instant::now();
        let (mut server, phase, sink) = trace::start_traced(&service, origin)
            .map_err(|e| format!("traced reactor start: {e}"))?;
        let mut tdriver = Driver::connect(server.local_addr(), connections)
            .map_err(|e| format!("connect to the traced reactor: {e}"))?;
        tdriver.tracer = Some(SpanRecorder::new(origin));
        tdriver.writer = Some(writer_probe());
        // The client spans of the closed and the open phase.
        let mut clients = Vec::new();
        let run = load(
            w,
            &mut tdriver,
            &mut reads,
            &mut injector,
            budget.mul_f64(0.8),
            |d, next| {
                clients.push(d.tracer.replace(SpanRecorder::new(origin)).expect("tracer"));
                phase.store(next, Ordering::Relaxed);
            },
        );
        absorb(&mut outcome, &mut tdriver);
        let treactor = server.stats();
        drop(tdriver);
        server.shutdown();
        let mut server_recs: BTreeMap<usize, SpanRecorder> = BTreeMap::new();
        for (slot, rec) in sink.lock().map_err(|_| "span sink poisoned")?.drain(..) {
            match server_recs.get_mut(&slot) {
                Some(r) => r.absorb(rec),
                None => {
                    server_recs.insert(slot, rec);
                }
            }
        }
        layer.set(
            "reactor.bytes_per_reply",
            (reactor.bytes_in + reactor.bytes_out) as f64 / reactor.responses.max(1) as f64,
            "bytes",
        );
        layer.set(
            "reactor.refused",
            (reactor.refused + treactor.refused) as f64,
            "count",
        );
        let [closed_client, open_client]: [SpanRecorder; 2] = clients
            .try_into()
            .map_err(|_| "expected two client span sets")?;
        let tr = Traced {
            untraced,
            closed_client,
            open_client,
            server: server_recs,
        };
        (run, Some(tr))
    };
    // Publish metrics are taken over the batches that became visible in the
    // quiet sub-windows of the publish tail.
    let publish_windows = driver::quiet_windows(&run.tail.marks);
    let (writer_cpu_s, epochs) = publish_windows.iter().fold((0.0, 0), |(cpu, n), (a, b)| {
        (
            cpu + b.writer_cpu_s - a.writer_cpu_s,
            n + b.epochs - a.epochs,
        )
    });

    // Verification, off the clock.
    let head = service.handle().snapshot();
    let log = service.epoch_log();
    let final_stats = service.handle().stats();
    for idx in reads.mismatches.iter().take(8) {
        problems.push(format!("pool[{idx}]: wire reply differs from the oracle"));
    }
    if reads.mismatches.len() > 8 {
        problems.push(format!(
            "... {} wire mismatches in all",
            reads.mismatches.len()
        ));
    }
    let replay = oracle::replay_epochs(
        &initial,
        &log,
        &ServeConfig::default().pipeline,
        &injector.polls,
        &head,
    );
    problems.extend(replay.problems);
    let (closed_result, open_result) = (&run.closed, &run.open);

    // End-to-end metrics.
    metrics.set("setup_s", setup_s, "s");
    metrics.set("read_qps", closed_result.qps(), "queries/s");
    metrics.set("read_cpu_us", closed_result.cpu_us_per_query(), "us");
    metrics.set("read_p50_us", open_result.quiet_latency_us(50.0), "us");
    metrics.set("read_p99_us", open_result.quiet_latency_us(99.0), "us");
    let quiet: Vec<PublishSample> = injector
        .samples
        .iter()
        .copied()
        .filter(|p| driver::within(&publish_windows, p.done))
        .collect();
    let warm: Vec<f64> = samples(&quiet, Some(false));
    let cold: Vec<f64> = samples(&quiet, Some(true));
    let all: Vec<f64> = samples(&quiet, None);
    metrics.set("publish_warm_p50_ms", median(&warm), "ms");
    metrics.set("publish_cold_p50_ms", median(&cold), "ms");
    metrics.set("publish_p99_ms", percentile(&all, 99.0), "ms");
    metrics.set(
        "publish_cpu_ms",
        writer_cpu_s * 1e3 / epochs.max(1) as f64,
        "ms",
    );
    metrics.set("peak_rss_mib", sysinfo::peak_rss_mib(), "MiB");
    metrics.set("setup_rss_mib", setup_rss_mib, "MiB");
    let error_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    println!(
        "  samples: closed answers={} open answers={} publishes warm={} cold={}",
        closed_result.answers.len(),
        open_result.answers.len(),
        warm.len(),
        cold.len()
    );
    println!("  closed-loop sub-windows (queries/s, CPU us/query, steal %):");
    for (rate, cpu_us, steal) in closed_result.window_report() {
        println!("    {rate:>10.0} {cpu_us:>10.2} {:>6.1}", steal * 100.0);
    }
    if beyond(&open_result.latency_us(), 99.0) < 10 {
        println!("  note: read_p99_us has fewer than 10 samples beyond it");
    }
    if beyond(&all, 99.0) < 10 {
        println!(
            "  note: publish_p99_ms rests on {} publishes (fewer than 10 beyond it)",
            all.len()
        );
    }
    println!(
        "  driver: gen_lag_p99_us={:.1} (open loop)",
        percentile(&open_result.gen_lag_us, 99.0)
    );
    println!("  end-to-end metrics (* reported in the JSON line and bounded):");
    for (name, (value, unit)) in &metrics.0 {
        let mark = if GATED.contains(&name.as_str()) {
            '*'
        } else {
            ' '
        };
        println!("  {mark} {name:<22} {value:>14.4} {unit}");
    }
    println!("    {:<22} {:>14.6} ratio", "error_frac", error_frac);
    metrics.0.retain(|name, _| GATED.contains(&name.as_str()));

    if let Some(tr) = traced {
        let ctx = LayerCtx {
            w,
            args,
            initial: &initial,
            log: &log,
            stats: &final_stats,
            load: &run,
            warm_p50: median(&warm),
            tmp,
        };
        per_layer(
            &ctx,
            tr,
            &reads.pool,
            &mut layer,
            &mut recorder,
            &mut problems,
        );
        metrics = layer;
        let dump = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", w.name, args.seed));
        std::fs::write(
            &dump,
            format!(
                "{{\"provenance\":{},\"spans\":{}}}\n",
                prov.json(),
                recorder.dump_json()
            ),
        )
        .map_err(|e| format!("write the span dump: {e}"))?;
        println!("  span dump: {}", dump.display());
    }

    let steal1 = sysinfo::steal_ticks();
    println!(
        "  hypervisor steal during the run: {:.1} % of CPU time",
        100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64
    );
    for e in &outcome.errors {
        println!("  failure: {e}");
    }
    for p in problems.iter().take(20) {
        println!("  ORACLE MISMATCH: {p}");
    }
    let matched = problems.is_empty();
    println!(
        "  oracle: {} ({} read replies byte-compared, {} epoch-tagged polls checked over {} epochs)",
        if matched { "all replies match" } else { "MISMATCH" },
        reads.answered,
        replay.checked,
        log.len()
    );
    // A failed operation (an error reply, a timeout, a refused event) is an
    // incorrect run too, even where the oracle saw nothing to compare.
    let correct = matched && outcome.failed == 0;
    service.shutdown();

    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.json()
    );
    let record = Path::new(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name, args.seed, args.trace as u8
    ));
    std::fs::write(
        &record,
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"provenance\":{},\"result\":{}}}\n",
            json_str(w.name),
            args.seed,
            args.seconds,
            prov.json(),
            line
        ),
    )
    .map_err(|e| format!("write the result record: {e}"))?;
    println!("{line}");
    Ok(correct)
}

fn absorb(outcome: &mut Outcome, driver: &mut Driver) {
    let o = std::mem::take(&mut driver.outcome);
    outcome.attempted += o.attempted;
    outcome.failed += o.failed;
    outcome.errors.extend(o.errors);
}

fn samples(s: &[PublishSample], cold: Option<bool>) -> Vec<f64> {
    s.iter()
        .filter(|p| cold.is_none_or(|c| p.cold == c))
        .map(|p| p.ms)
        .collect()
}

/// The three load phases of a run.
struct Load {
    closed: PhaseResult,
    open: PhaseResult,
    tail: PhaseResult,
}

/// The run's load schedule over `budget`: closed-loop reads, open-loop
/// reads, then the publish tail, in which only the injector runs.
/// `between(driver, next)` runs before phase `next` (1 open, 2 tail).
fn load(
    w: &Workload,
    driver: &mut Driver,
    reads: &mut Reads,
    injector: &mut Injector,
    budget: Duration,
    mut between: impl FnMut(&mut Driver, usize),
) -> Load {
    let closed = Mode::Closed { depth: w.depth };
    let closed = driver.run_phase(closed, budget.mul_f64(0.35), reads, None);
    between(driver, 1);
    let open = Mode::Open { rate: w.open_rate };
    let open = driver.run_phase(open, budget.mul_f64(0.35), reads, None);
    between(driver, 2);
    let tail = driver.run_phase(Mode::Idle, budget.mul_f64(0.3), reads, Some(injector));
    Load { closed, open, tail }
}

/// Spans and results of the traced run.
struct Traced {
    /// The closed loop run before tracing started, for the overhead.
    untraced: PhaseResult,
    closed_client: SpanRecorder,
    open_client: SpanRecorder,
    server: BTreeMap<usize, SpanRecorder>,
}

struct LayerCtx<'a> {
    w: &'a Workload,
    args: &'a Args,
    initial: &'a Snapshot,
    log: &'a [ocp_serve::EpochRecord],
    stats: &'a StatsReport,
    load: &'a Load,
    warm_p50: f64,
    tmp: &'a Path,
}

/// Computes the per-layer metrics, prints the self-time table, the
/// unattributed remainder, the tracing overhead and the blocking layer,
/// and gathers every span into `recorder`.
fn per_layer(
    ctx: &LayerCtx,
    tr: Traced,
    pool: &[Request],
    layer: &mut Metrics,
    recorder: &mut SpanRecorder,
    problems: &mut Vec<String>,
) {
    let Traced {
        untraced,
        closed_client,
        open_client,
        mut server,
    } = tr;
    let open_server = server
        .remove(&1)
        .unwrap_or_else(|| SpanRecorder::new(Instant::now()));
    let ns = |r: &SpanRecorder, n: &str| r.agg(n).mean_ns();

    // Read path, from the traced open-loop phase.
    let read = open_client.agg("client.read");
    let client_enc = ns(&open_client, "codec.client_encode");
    let client_dec = ns(&open_client, "codec.client_decode");
    let server_dec = ns(&open_server, "codec.server_decode");
    let dispatch = ns(&open_server, "serve.dispatch");
    let server_enc = ns(&open_server, "codec.server_encode");
    let handle_ns = ns(&open_server, "server.handle");
    let wire_ns = read.mean_self_ns() - handle_ns;
    layer.set("reactor.wire_us", wire_ns / 1e3, "us");
    layer.set("codec.server_decode_ns", server_dec, "ns");
    layer.set("codec.server_encode_ns", server_enc, "ns");
    layer.set("codec.client_encode_ns", client_enc, "ns");
    layer.set("codec.client_decode_ns", client_dec, "ns");
    layer.set("serve.dispatch_ns", dispatch, "ns");

    let rr = trace::replay_reads(recorder, ctx.initial, pool);
    layer.set(
        "serve.dispatch_overhead_ns",
        dispatch - rr.per_request_ns,
        "ns",
    );
    layer.set("routing.route_len_ns", rr.route_len_ns, "ns");
    layer.set("routing.route_ns", rr.route_ns, "ns");
    layer.set("routing.batch_ns_per_pair", rr.batch_ns_per_pair, "ns");
    layer.set("routing.disjoint_ns", rr.disjoint_ns, "ns");
    layer.set("routing.hops_mean", rr.hops_mean, "count");
    layer.set(
        "serve.staleness_mean_epochs",
        ctx.stats.staleness_mean_epochs,
        "epochs",
    );
    layer.set(
        "serve.staleness_max_epochs",
        ctx.stats.staleness_max_epochs as f64,
        "epochs",
    );

    // Publish path, replayed from the epoch log.
    let pr = trace::replay_publishes(
        recorder,
        ctx.initial,
        ctx.log,
        &ServeConfig::default().pipeline,
        &ctx.tmp.join("replay.wal"),
        PUBLISH_REPLAY_MAX,
    );
    problems.extend(pr.problems.iter().cloned());
    layer.set("core.pipeline_cold_ms", median(&pr.pipeline_cold_ms), "ms");
    layer.set("routing.build_cold_ms", median(&pr.build_cold_ms), "ms");
    layer.set(
        "routing.build_incremental_ms",
        median(&pr.build_incremental_ms),
        "ms",
    );
    layer.set(
        "routing.build_segment_ms",
        median(&pr.build_segment_ms),
        "ms",
    );
    layer.set("routing.build_ring_ms", median(&pr.build_ring_ms), "ms");
    layer.set("routing.build_wide_ms", median(&pr.build_wide_ms), "ms");
    layer.set("routing.build_exit_ms", median(&pr.build_exit_ms), "ms");
    layer.set("routing.reuse_ratio", mean(&pr.reuse_ratio), "ratio");
    layer.set("core.relabel_warm_ms", median(&pr.relabel_warm_ms), "ms");
    layer.set("core.warm_rounds", mean(&pr.warm_rounds), "count");
    layer.set("core.cert_describe_ms", median(&pr.cert_describe_ms), "ms");
    layer.set("core.cert_check_ms", median(&pr.cert_check_ms), "ms");
    layer.set("serve.wal_append_us", median(&pr.wal_append_us), "us");
    layer.set("serve.wal_fsync_us", median(&pr.wal_fsync_us), "us");
    layer.set("serve.wal_bytes_per_publish", mean(&pr.wal_bytes), "bytes");
    let st = ctx.stats;
    layer.set(
        "serve.stats_wal_append_p50_us",
        st.wal_append_ns.p50 / 1e3,
        "us",
    );
    layer.set(
        "serve.stats_wal_fsync_p50_us",
        st.wal_fsync_ns.p50 / 1e3,
        "us",
    );
    layer.set(
        "serve.publish_lag_p50_ms",
        st.publish_lag_ns.p50 / 1e6,
        "ms",
    );
    layer.set("serve.events_rejected", st.events_rejected as f64, "count");
    layer.set(
        "serve.publishes_rejected",
        (st.publishes_cert_rejected + st.publishes_overloaded) as f64,
        "count",
    );
    layer.set(
        "driver.gen_lag_p99_us",
        percentile(&ctx.load.open.gen_lag_us, 99.0),
        "us",
    );

    // Tracing overhead: traced minus untraced closed-loop medians.
    let overhead = median(&ctx.load.closed.latency_us()) - median(&untraced.latency_us());
    layer.set("trace.overhead_p50_us", overhead, "us");
    let read_ns = read.mean_ns();
    let attributed = client_enc + client_dec + server_dec + dispatch + server_enc;
    layer.set(
        "trace.read_unattributed_frac",
        (read_ns - attributed) / read_ns.max(1.0),
        "ratio",
    );
    let publish_layers = [
        ("core.relabel_warm", median(&pr.relabel_warm_ms)),
        (
            "routing.build_incremental",
            median(&pr.build_incremental_ms),
        ),
        ("core.cert_describe", median(&pr.cert_describe_ms)),
        ("core.cert_check", median(&pr.cert_check_ms)),
        ("serve.wal_append", median(&pr.wal_append_us) / 1e3),
        ("serve.wal_fsync", median(&pr.wal_fsync_us) / 1e3),
    ];
    let publish_sum: f64 = publish_layers.iter().map(|(_, v)| v).sum();
    layer.set(
        "trace.publish_unattributed_ms",
        ctx.warm_p50 - publish_sum,
        "ms",
    );

    // Report.
    println!("  traced run (per-layer):");
    println!(
        "    read path, open loop at {}/s: read {:.2} us = client encode {:.0} ns + wire/reactor {:.2} us \
         + server decode {:.0} ns + dispatch {:.0} ns + server encode {:.0} ns + client decode {:.0} ns",
        ctx.w.open_rate,
        read_ns / 1e3,
        client_enc,
        wire_ns / 1e3,
        server_dec,
        dispatch,
        server_enc,
        client_dec
    );
    println!(
        "    unattributed by benchmark spans: {:.2} us per read ({:.1} %), mostly reactor framing, epoll, handoff and loopback",
        (read_ns - attributed) / 1e3,
        100.0 * (read_ns - attributed) / read_ns.max(1.0)
    );
    println!(
        "    dispatch {dispatch:.0} ns = routing replay {:.0} ns + overhead {:.0} ns (refresh, metrics, reply assembly)",
        rr.per_request_ns,
        dispatch - rr.per_request_ns
    );
    println!(
        "    publish path, warm p50 {:.3} ms end to end; replayed layers sum to {:.3} ms; writer lag p50 {:.3} ms; \
         remainder {:.3} ms is queue wait, head swap and visibility detection",
        ctx.warm_p50,
        publish_sum,
        st.publish_lag_ns.p50 / 1e6,
        ctx.warm_p50 - publish_sum
    );
    println!("    tracing overhead: {overhead:+.2} us on the closed-loop read p50");

    let read_layers = [
        (
            "codec (client+server)",
            client_enc + client_dec + server_dec + server_enc,
        ),
        ("reactor/wire", wire_ns),
        ("serve dispatch overhead", dispatch - rr.per_request_ns),
        ("routing", rr.per_request_ns),
    ];
    let (read_top, _) =
        read_layers
            .iter()
            .copied()
            .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    let (pub_top, _) =
        publish_layers
            .iter()
            .copied()
            .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    let stated = match ctx.w.mix {
        Mix::Wire => &["codec (client+server)", "reactor/wire"][..],
        Mix::Flagship => &["routing"][..],
    };
    println!("    most blocking time on the read path: {read_top}");
    if !stated.contains(&read_top) {
        println!(
            "    NOTE: this differs from the workload's stated reason ({})",
            ctx.w.why
        );
    }
    println!("    most blocking time on the publish-tail path: {pub_top}");

    for rec in [closed_client, open_client, open_server]
        .into_iter()
        .chain(server.into_values())
    {
        recorder.absorb(rec);
    }
    println!(
        "    {:<30} {:>9} {:>13} {:>13}",
        "span", "count", "mean_ns", "self_ns"
    );
    for (name, agg) in recorder.aggs() {
        println!(
            "    {:<30} {:>9} {:>13.0} {:>13.0}",
            name,
            agg.count,
            agg.mean_ns(),
            agg.mean_self_ns()
        );
    }
    println!("  per-layer metrics (seed {}):", ctx.args.seed);
    for (name, (value, unit)) in &layer.0 {
        println!("    {name:<32} {value:>14.4} {unit}");
    }
}
