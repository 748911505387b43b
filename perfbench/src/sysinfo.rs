//! Process accounting and run provenance, read from `/proc` with no
//! dependency beyond the standard library.

use crate::timer::Timespec;
use std::path::Path;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes one timespec, which `ts` is.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// On-CPU time of the whole process, in seconds: every thread, exited ones
/// included, to the nanosecond rather than in `/proc/self/stat`'s 10 ms
/// ticks.
pub fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU time of the process's threads named `name`, exited ones
/// included, in seconds: the process's time minus that of every live
/// thread with another name, the latter from
/// `/proc/self/task/<tid>/schedstat`. A thread a named thread spawns
/// inherits its name, so this also counts its short-lived workers, whose
/// own task entries are gone once they exit. Exact as long as no thread
/// with another name exits between two readings.
pub fn named_threads_cpu_s(name: &str) -> f64 {
    // The kernel keeps the first 15 bytes of a thread name.
    let comm = &name[..name.len().min(15)];
    let me = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|f| f.to_owned()));
    let process = process_cpu_s();
    let mut others = 0.0;
    for task in std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .flatten()
    {
        // A thread that exited since the listing has no files left.
        let Ok(task_comm) = std::fs::read_to_string(task.path().join("comm")) else {
            continue;
        };
        if task_comm.trim() == comm {
            continue;
        }
        if Some(task.file_name()) == me {
            // The kernel brings a running thread's schedstat up to date
            // only at its next tick; the calling thread's clock is exact.
            others += clock_s(CLOCK_THREAD_CPUTIME_ID);
        } else if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            let ns: f64 = stat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse().ok())
                .expect("schedstat starts with the run time in ns");
            others += ns * 1e-9;
        }
    }
    process - others
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran someone else while this machine's CPUs wanted to run.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and on what a result was measured.
pub struct Provenance {
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub wal_fs: String,
    pub client_threads: usize,
    pub connections: usize,
}

impl Provenance {
    /// Collects provenance for a run whose WAL lives in `wal_dir`.
    ///
    /// # Panics
    /// Panics if the driver uses more client threads or connections than
    /// the machine has CPUs: the numbers would then measure oversubscription.
    pub fn collect(wal_dir: &Path, client_threads: usize, connections: usize) -> Provenance {
        let nproc = nproc();
        assert!(
            client_threads <= nproc && connections <= nproc,
            "driver uses {client_threads} threads / {connections} connections on {nproc} CPUs"
        );
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Provenance {
            commit: commit(),
            nproc,
            cpu_model,
            kernel,
            wal_fs: filesystem_of(wal_dir),
            client_threads,
            connections,
        }
    }

    /// One `key=value` line per field, for the human-readable report.
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("commit={}", self.commit),
            format!("nproc={}", self.nproc),
            format!("cpu_model={}", self.cpu_model),
            format!("kernel={}", self.kernel),
            format!("wal_fs={}", self.wal_fs),
            format!("client_threads={}", self.client_threads),
            format!("connections={}", self.connections),
        ]
    }

    /// The provenance as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"commit\":{},\"nproc\":{},\"cpu_model\":{},\"kernel\":{},\"wal_fs\":{},\
             \"client_threads\":{},\"connections\":{}}}",
            json_str(&self.commit),
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.kernel),
            json_str(&self.wal_fs),
            self.client_threads,
            self.connections
        )
    }
}

/// The commit of the checkout, read from `.git` in the working directory
/// without running git (the benchmark may run from a plain file tree).
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (no .git in the working directory)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// File-system type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mountinfo`).
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
