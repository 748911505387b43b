//! The load driver: one client thread multiplexing nonblocking loopback
//! connections over the reactor crate's own `Poll`, speaking pipelined
//! framing v2.
//!
//! A phase runs the connections closed-loop (a fixed number of requests in
//! flight per connection) or open-loop (a fixed offered rate, each request
//! timed from when it was due), or runs only the fault injector. The client
//! encodes every request and decodes every reply with the service's own API
//! types, as a real client would; every read reply is compared with the
//! oracle's bytes from [`crate::oracle`].

use crate::spans::SpanRecorder;
use crate::stats::{median, percentile};
use crate::sysinfo::{process_cpu_s, steal_ticks};
use crate::timer::Timer;
use crate::workload::{queries_in, Batch, BlobSource};
use ocp_mesh::Coord;
use ocp_reactor::{encode_v2_into, DecodedFrame, Events, FrameDecoder, Interest, Poll, Token};
use ocp_serve::{NodeState, Request, Response, StatusReply};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long a phase may wait for outstanding replies after its window.
const DRAIN: Duration = Duration::from_secs(10);
/// How long the injector waits for a batch to become visible.
const VISIBILITY_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest single wait in the event loop; the timer wakes it earlier.
const MAX_WAIT_MS: i32 = 10;
/// Poll token of the timer (connections use their index).
const TIMER: usize = usize::MAX;

/// Why a request was sent.
#[derive(Clone, Copy, Debug)]
enum Role {
    /// A read from the pool, by pool index.
    Read(u32),
    /// An InjectFaults or RepairNodes command.
    Command,
    /// A Status poll of the injector's witness node.
    Poll,
}

struct Pending {
    role: Role,
    due: Instant,
    encode_start: Instant,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    outpos: usize,
    wants_write: bool,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    closed: bool,
}

/// A reply as it came off the wire.
struct Reply {
    conn: usize,
    id: u64,
    payload: Vec<u8>,
}

/// How the read connections are driven in a phase.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// `depth` requests in flight per connection.
    Closed { depth: usize },
    /// `rate` requests per second, round-robin over the connections.
    Open { rate: f64 },
    /// No reads; only the injector runs.
    Idle,
}

/// Sub-windows a phase is cut into.
pub const WINDOWS: usize = 16;

/// Process CPU time and machine-wide steal, sampled at each sub-window
/// boundary.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pub at: Instant,
    pub cpu_s: f64,
    /// The service writer's CPU seconds and published epochs, from the
    /// driver's [`WriterProbe`] (zero without one).
    pub writer_cpu_s: f64,
    pub epochs: u64,
    steal: u64,
    total: u64,
}

/// Reads the service writer's CPU seconds and the epochs it has published.
pub type WriterProbe = Box<dyn Fn() -> (f64, u64)>;

impl Mark {
    fn now(writer: Option<&WriterProbe>) -> Mark {
        let (steal, total) = steal_ticks();
        let (writer_cpu_s, epochs) = writer.map_or((0.0, 0), |probe| probe());
        Mark {
            at: Instant::now(),
            cpu_s: process_cpu_s(),
            writer_cpu_s,
            epochs,
            steal,
            total,
        }
    }
}

/// The quieter half of the sub-windows between consecutive `marks`: those
/// in which the hypervisor stole the least CPU time from this machine
/// (ties go to the earlier window). Another tenant's load only ever slows
/// a window down, so metrics over the quiet half track the program rather
/// than its neighbours, while a slower program still moves every window.
pub fn quiet_windows(marks: &[Mark]) -> Vec<(Mark, Mark)> {
    let mut windows: Vec<(Mark, Mark)> = marks.windows(2).map(|m| (m[0], m[1])).collect();
    windows.sort_by(|x, y| steal(x).total_cmp(&steal(y)));
    windows.truncate(windows.len().div_ceil(2));
    windows
}

/// The share of machine CPU time the hypervisor stole between two marks.
fn steal((a, b): &(Mark, Mark)) -> f64 {
    (b.steal - a.steal) as f64 / b.total.saturating_sub(a.total).max(1) as f64
}

/// Whether `t` falls inside one of `windows`.
pub fn within(windows: &[(Mark, Mark)], t: Instant) -> bool {
    windows.iter().any(|(a, b)| a.at <= t && t < b.at)
}

/// One answered read.
pub struct Answer {
    /// When the reply was decoded.
    pub done: Instant,
    /// Closed loop: send-to-decoded time. Open loop: due-to-decoded time.
    pub latency_us: f64,
    /// Queries the reply answered (a batch counts its pairs).
    pub queries: u64,
}

/// What the reads of one phase produced.
#[derive(Default)]
pub struct PhaseResult {
    /// Every read answered in the phase, drain included.
    pub answers: Vec<Answer>,
    /// Open loop: how late each request was sent.
    pub gen_lag_us: Vec<f64>,
    /// CPU and steal at the phase start and each sub-window end.
    pub marks: Vec<Mark>,
}

impl PhaseResult {
    fn queries_between(&self, a: &Mark, b: &Mark) -> u64 {
        self.answers
            .iter()
            .filter(|x| a.at <= x.done && x.done < b.at)
            .map(|x| x.queries)
            .sum()
    }

    /// Queries answered per second, process CPU microseconds per query,
    /// and the hypervisor's steal fraction, of each sub-window in order.
    pub fn window_report(&self) -> Vec<(f64, f64, f64)> {
        self.marks
            .windows(2)
            .map(|m| {
                let queries = self.queries_between(&m[0], &m[1]);
                (
                    queries as f64 / (m[1].at - m[0].at).as_secs_f64(),
                    (m[1].cpu_s - m[0].cpu_s) * 1e6 / queries.max(1) as f64,
                    steal(&(m[0], m[1])),
                )
            })
            .collect()
    }

    /// Median over the quiet sub-windows of queries answered per second.
    pub fn qps(&self) -> f64 {
        let rates: Vec<f64> = quiet_windows(&self.marks)
            .iter()
            .map(|(a, b)| self.queries_between(a, b) as f64 / (b.at - a.at).as_secs_f64())
            .collect();
        median(&rates)
    }

    /// Process CPU microseconds per query answered in the quiet
    /// sub-windows.
    pub fn cpu_us_per_query(&self) -> f64 {
        let (cpu, queries) = quiet_windows(&self.marks)
            .iter()
            .fold((0.0, 0), |(cpu, q), (a, b)| {
                (cpu + b.cpu_s - a.cpu_s, q + self.queries_between(a, b))
            });
        cpu * 1e6 / queries.max(1) as f64
    }

    pub fn latency_us(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.latency_us).collect()
    }

    /// Latency percentile `q` over the replies of the quiet sub-windows.
    pub fn quiet_latency_us(&self, q: f64) -> f64 {
        let quiet = quiet_windows(&self.marks);
        let latencies: Vec<f64> = self
            .answers
            .iter()
            .filter(|a| within(&quiet, a.done))
            .map(|a| a.latency_us)
            .collect();
        percentile(&latencies, q)
    }
}

/// The read stream: cycles through the seeded pool, and compares every
/// reply with the oracle's bytes for its request.
pub struct Reads {
    pub pool: Vec<Request>,
    cursor: usize,
    /// The oracle's reply bytes for each pool request.
    expected: Vec<Vec<u8>>,
    /// Pool indices whose wire reply differed from the oracle or never came.
    pub mismatches: Vec<u32>,
    /// Replies compared with the oracle.
    pub answered: u64,
}

impl Reads {
    pub fn new(pool: Vec<Request>, expected: Vec<Vec<u8>>) -> Reads {
        assert_eq!(pool.len(), expected.len(), "one oracle reply per request");
        Reads {
            pool,
            cursor: 0,
            expected,
            mismatches: Vec::new(),
            answered: 0,
        }
    }

    fn next(&mut self) -> u32 {
        let idx = self.cursor;
        self.cursor = (self.cursor + 1) % self.pool.len();
        idx as u32
    }

    /// Compares one wire reply with the oracle. An error reply differs from
    /// the oracle's answer, so it is a mismatch like any other.
    pub(crate) fn accept(&mut self, idx: u32, payload: &[u8]) {
        self.answered += 1;
        if self.expected[idx as usize] != payload {
            self.mismatches.push(idx);
        }
    }

    /// Records a read that got no reply.
    pub(crate) fn lost(&mut self, idx: u32) {
        self.mismatches.push(idx);
    }
}

/// One publish as the injector saw it.
#[derive(Clone, Copy, Debug)]
pub struct PublishSample {
    /// A repair batch (the cold path) rather than a fault-only one.
    pub cold: bool,
    /// From sending the command to the first Status reply showing it.
    pub ms: f64,
    /// When the batch became visible.
    pub done: Instant,
}

enum InjectorState {
    Idle,
    AwaitAck { batch: Batch, sent: Instant },
    Polling { batch: Batch, sent: Instant },
}

/// The fault injector: one batch outstanding at a time.
pub struct Injector {
    source: BlobSource,
    /// Pacing between batch starts.
    interval: Duration,
    state: InjectorState,
    next_at: Option<Instant>,
    pub samples: Vec<PublishSample>,
    /// Every Status reply the injector received, for the epoch replay.
    pub polls: Vec<StatusReply>,
}

impl Injector {
    pub fn new(source: BlobSource, interval: Duration) -> Injector {
        Injector {
            source,
            interval,
            state: InjectorState::Idle,
            next_at: None,
            samples: Vec::new(),
            polls: Vec::new(),
        }
    }

    fn is_idle(&self) -> bool {
        matches!(self.state, InjectorState::Idle)
    }

    /// When the injector next wants to act on its own (not on a reply).
    fn wake_at(&self) -> Option<Instant> {
        match self.state {
            InjectorState::Idle => Some(self.next_at.unwrap_or_else(Instant::now)),
            _ => None,
        }
    }
}

/// Counts of operations attempted and failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// The client: connections, the event loop, and client-side spans.
pub struct Driver {
    poll: Poll,
    timer: Timer,
    conns: Vec<Conn>,
    events: Events,
    scratch: Vec<u8>,
    replies: Vec<Reply>,
    /// Client-side spans (encode, decode, whole read) when tracing.
    pub tracer: Option<SpanRecorder>,
    /// Sampled with every sub-window mark, for the publish path's cost.
    pub writer: Option<WriterProbe>,
    pub outcome: Outcome,
}

impl Driver {
    /// Opens `connections` pipelined connections to `addr`.
    pub fn connect(addr: SocketAddr, connections: usize) -> io::Result<Driver> {
        let poll = Poll::new()?;
        let mut conns = Vec::with_capacity(connections);
        for i in 0..connections {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.write_all(&ocp_reactor::MAGIC)?;
            let mut echo = [0u8; 4];
            stream.read_exact(&mut echo)?;
            if echo != ocp_reactor::MAGIC {
                return Err(io::Error::other("server did not echo the v2 magic"));
            }
            stream.set_nonblocking(true)?;
            poll.register(stream.as_raw_fd(), Token(i), Interest::READABLE)?;
            conns.push(Conn {
                stream,
                decoder: FrameDecoder::new_v2(),
                out: Vec::new(),
                outpos: 0,
                wants_write: false,
                next_id: 1,
                pending: HashMap::new(),
                closed: false,
            });
        }
        let timer = Timer::new()?;
        poll.register(timer.raw(), Token(TIMER), Interest::READABLE)?;
        Ok(Driver {
            poll,
            timer,
            conns,
            events: Events::with_capacity(256),
            scratch: vec![0u8; 64 * 1024],
            replies: Vec::new(),
            tracer: None,
            writer: None,
            outcome: Outcome::default(),
        })
    }

    /// Sends one request and blocks until its reply arrives: the set-up
    /// probe. Returns the decoded reply.
    pub fn round_trip(&mut self, request: &Request) -> io::Result<Response> {
        let (id, _) = self.send(0, request, Role::Command, Instant::now());
        let deadline = Instant::now() + DRAIN;
        while Instant::now() < deadline {
            self.pump(10);
            if let Some(pos) = self.replies.iter().position(|r| r.id == id && r.conn == 0) {
                let reply = self.replies.swap_remove(pos);
                self.conns[0].pending.remove(&id);
                return serde_json::from_slice(&reply.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no reply to the set-up probe",
        ))
    }

    /// Encodes and queues one request; returns its correlation id and
    /// when it was handed to the socket.
    fn send(&mut self, conn: usize, request: &Request, role: Role, due: Instant) -> (u64, Instant) {
        let encode_start = Instant::now();
        let payload = serde_json::to_vec(request).expect("requests always serialize");
        let c = &mut self.conns[conn];
        let id = c.next_id;
        c.next_id += 1;
        encode_v2_into(&mut c.out, id, &payload);
        let sent = Instant::now();
        c.pending.insert(
            id,
            Pending {
                role,
                due,
                encode_start,
                sent,
            },
        );
        self.outcome.attempted += 1;
        self.flush(conn);
        (id, sent)
    }

    /// Waits up to `timeout_ms` for socket events and collects every
    /// complete reply into `self.replies`.
    fn pump(&mut self, timeout_ms: i32) {
        self.poll
            .poll(&mut self.events, Some(timeout_ms))
            .expect("driver poll");
        let ready: Vec<(usize, bool, bool)> = self
            .events
            .iter()
            .map(|e| {
                (
                    e.token().0,
                    e.is_readable() || e.is_error(),
                    e.is_writable(),
                )
            })
            .collect();
        for (idx, readable, writable) in ready {
            if idx == TIMER {
                self.timer.clear();
                continue;
            }
            if readable {
                self.read(idx);
            }
            if writable {
                self.flush(idx);
            }
        }
    }

    fn read(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.closed {
            return;
        }
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.closed = true;
                    break;
                }
                Ok(n) => {
                    conn.decoder.extend(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closed = true;
                    break;
                }
            }
        }
        loop {
            match conn.decoder.next_frame() {
                Ok(Some(DecodedFrame::V2 { corr_id, payload })) => self.replies.push(Reply {
                    conn: idx,
                    id: corr_id,
                    payload,
                }),
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    conn.closed = true;
                    self.outcome
                        .fail(format!("connection {idx}: frame error {e:?}"));
                    break;
                }
            }
        }
    }

    fn flush(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.closed {
            return;
        }
        while conn.outpos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.outpos..]) {
                Ok(0) => {
                    conn.closed = true;
                    return;
                }
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.closed = true;
                    return;
                }
            }
        }
        if conn.outpos == conn.out.len() {
            conn.out.clear();
            conn.outpos = 0;
        }
        let want = conn.outpos < conn.out.len();
        if want != conn.wants_write {
            conn.wants_write = want;
            let interest = if want {
                Interest::READABLE.with(Interest::WRITABLE)
            } else {
                Interest::READABLE
            };
            let _ = self
                .poll
                .reregister(conn.stream.as_raw_fd(), Token(idx), interest);
        }
    }

    fn reads_pending(&self) -> bool {
        self.conns
            .iter()
            .any(|c| !c.closed && c.pending.values().any(|p| matches!(p.role, Role::Read(_))))
    }

    fn send_read(&mut self, conn: usize, reads: &mut Reads, due: Instant) -> Instant {
        let idx = reads.next();
        self.send(conn, &reads.pool[idx as usize], Role::Read(idx), due)
            .1
    }

    /// Starts the injector's next batch if one may start and is due. The
    /// injector speaks on the first connection.
    fn injector_tick(&mut self, inj: &mut Injector, now: Instant, may_start: bool) {
        if !may_start || !inj.is_idle() || inj.next_at.is_some_and(|t| now < t) {
            return;
        }
        let batch = inj.source.next_batch();
        let request = match &batch {
            Batch::Inject(nodes) => Request::InjectFaults {
                nodes: nodes.clone(),
            },
            Batch::Repair(nodes) => Request::RepairNodes {
                nodes: nodes.clone(),
            },
        };
        inj.next_at = Some(now + inj.interval);
        let sent = Instant::now();
        self.send(0, &request, Role::Command, sent);
        inj.state = InjectorState::AwaitAck { batch, sent };
    }

    fn poll_witness(&mut self, node: Coord) {
        self.send(0, &Request::Status { node }, Role::Poll, Instant::now());
    }

    /// Runs one phase for `window`, then drains outstanding reads. The
    /// injector, when given, starts batches through the window; the phase
    /// then waits for its outstanding batch to become visible.
    pub fn run_phase(
        &mut self,
        mode: Mode,
        window: Duration,
        reads: &mut Reads,
        mut injector: Option<&mut Injector>,
    ) -> PhaseResult {
        let mut result = PhaseResult::default();
        let start = Instant::now();
        let deadline = start + window;
        result.marks.push(Mark::now(self.writer.as_ref()));
        let mut seq = 0u64;
        let mut rr = 0usize;
        if let Mode::Closed { depth } = mode {
            for c in 0..self.conns.len() {
                for _ in 0..depth {
                    self.send_read(c, reads, start);
                }
            }
        }
        let mut replies = Vec::new();
        loop {
            let now = Instant::now();
            let active = now < deadline;
            let mark = result.marks.len();
            if mark <= WINDOWS && now >= start + window.mul_f64(mark as f64 / WINDOWS as f64) {
                result.marks.push(Mark::now(self.writer.as_ref()));
            }
            let mut next_due = None;
            if let (Mode::Open { rate }, true) = (mode, active) {
                loop {
                    let due = start + Duration::from_secs_f64(seq as f64 / rate);
                    if due > now {
                        next_due = Some(due);
                        break;
                    }
                    let conn = rr % self.conns.len();
                    rr += 1;
                    seq += 1;
                    let sent = self.send_read(conn, reads, due);
                    result
                        .gen_lag_us
                        .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
                }
            }
            if let Some(inj) = injector.as_deref_mut() {
                self.injector_tick(inj, now, active);
            }
            if !active {
                let injector_done = injector.as_deref().is_none_or(Injector::is_idle);
                if injector_done && !self.reads_pending() {
                    break;
                }
                if now > deadline + DRAIN {
                    self.abandon(reads);
                    if !injector_done {
                        self.outcome
                            .fail("injector batch still outstanding after the drain".into());
                    }
                    break;
                }
            }
            let wake = [
                next_due,
                injector.as_deref().and_then(Injector::wake_at),
                active.then_some(deadline),
            ]
            .into_iter()
            .flatten()
            .min();
            let wait = wake.map(|t| t.saturating_duration_since(Instant::now()));
            let timeout_ms = match wait {
                Some(w) if w.is_zero() => 0,
                Some(w) => {
                    self.timer.arm(w).expect("arm the driver timer");
                    MAX_WAIT_MS
                }
                None => MAX_WAIT_MS,
            };
            self.pump(timeout_ms);
            std::mem::swap(&mut replies, &mut self.replies);
            for reply in replies.drain(..) {
                self.on_reply(
                    reply,
                    mode,
                    active,
                    reads,
                    injector.as_deref_mut(),
                    &mut result,
                );
            }
        }
        result
    }

    /// Counts every read still outstanding after the drain as a timeout,
    /// and as a mismatch of the check.
    fn abandon(&mut self, reads: &mut Reads) {
        for c in 0..self.conns.len() {
            let lost: Vec<(u64, u32)> = self.conns[c]
                .pending
                .iter()
                .filter_map(|(&id, p)| match p.role {
                    Role::Read(idx) => Some((id, idx)),
                    _ => None,
                })
                .collect();
            for (id, idx) in lost {
                self.conns[c].pending.remove(&id);
                reads.lost(idx);
                self.outcome
                    .fail(format!("connection {c}: read {id} timed out"));
            }
        }
    }

    fn on_reply(
        &mut self,
        reply: Reply,
        mode: Mode,
        active: bool,
        reads: &mut Reads,
        injector: Option<&mut Injector>,
        result: &mut PhaseResult,
    ) {
        let Some(pending) = self.conns[reply.conn].pending.remove(&reply.id) else {
            self.outcome.fail(format!(
                "connection {}: reply for unknown id {}",
                reply.conn, reply.id
            ));
            return;
        };
        let decode_start = Instant::now();
        let decoded = serde_json::from_slice::<Response>(&reply.payload);
        let done = Instant::now();
        // A failed read still goes to the check (its bytes differ from the
        // oracle's) and, in the closed loop, is replaced by the next read.
        let response = match decoded {
            Ok(Response::Error { message }) => {
                self.outcome.fail(format!("error reply: {message}"));
                None
            }
            Ok(response) => Some(response),
            Err(e) => {
                self.outcome.fail(format!("undecodable reply: {e}"));
                None
            }
        };
        if let Some(tracer) = self.tracer.as_mut() {
            let id = ((reply.conn as u64) << 48) | reply.id;
            let encode_ns = pending.sent.duration_since(pending.encode_start).as_nanos() as u64;
            let decode_ns = done.duration_since(decode_start).as_nanos() as u64;
            let name = match pending.role {
                Role::Read(_) => "client.read",
                Role::Command => "client.command",
                Role::Poll => "client.poll",
            };
            let parent = tracer.record(
                name,
                id,
                0,
                pending.encode_start,
                done,
                encode_ns + decode_ns,
            );
            tracer.record(
                "codec.client_encode",
                id,
                parent,
                pending.encode_start,
                pending.sent,
                0,
            );
            tracer.record("codec.client_decode", id, parent, decode_start, done, 0);
        }
        match pending.role {
            Role::Read(idx) => {
                let from = match mode {
                    Mode::Open { .. } => pending.due,
                    _ => pending.encode_start,
                };
                if response.is_some() {
                    result.answers.push(Answer {
                        done,
                        latency_us: done.saturating_duration_since(from).as_secs_f64() * 1e6,
                        queries: queries_in(&reads.pool[idx as usize]),
                    });
                }
                reads.accept(idx, &reply.payload);
                if let (Mode::Closed { .. }, true) = (mode, active) {
                    self.send_read(reply.conn, reads, Instant::now());
                }
            }
            Role::Command => {
                let (Some(inj), Some(response)) = (injector, response) else {
                    return;
                };
                let InjectorState::AwaitAck { batch, sent } =
                    std::mem::replace(&mut inj.state, InjectorState::Idle)
                else {
                    self.outcome
                        .fail("command reply with no batch outstanding".into());
                    return;
                };
                match response {
                    Response::Injected(ack) if ack.fully_accepted() => {
                        self.poll_witness(batch.witness());
                        inj.state = InjectorState::Polling { batch, sent };
                    }
                    Response::Injected(ack) => self.outcome.fail(format!(
                        "{} of {} events refused by admission control",
                        ack.rejected,
                        ack.accepted + ack.rejected
                    )),
                    other => self
                        .outcome
                        .fail(format!("unexpected reply to a command: {other:?}")),
                }
            }
            Role::Poll => {
                let (Some(inj), Some(response)) = (injector, response) else {
                    return;
                };
                let Response::Status(status) = response else {
                    self.outcome
                        .fail("unexpected reply to a Status poll".into());
                    return;
                };
                let faulty = status.state == NodeState::Faulty;
                inj.polls.push(status);
                let InjectorState::Polling { batch, sent } =
                    std::mem::replace(&mut inj.state, InjectorState::Idle)
                else {
                    self.outcome
                        .fail("poll reply with no batch outstanding".into());
                    return;
                };
                let cold = matches!(batch, Batch::Repair(_));
                if faulty != cold {
                    inj.samples.push(PublishSample {
                        cold,
                        ms: done.duration_since(sent).as_secs_f64() * 1e3,
                        done,
                    });
                } else if done.duration_since(sent) > VISIBILITY_TIMEOUT {
                    self.outcome
                        .fail(format!("batch not visible after {VISIBILITY_TIMEOUT:?}"));
                } else {
                    self.poll_witness(batch.witness());
                    inj.state = InjectorState::Polling { batch, sent };
                }
            }
        }
    }
}
