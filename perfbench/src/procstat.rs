//! Host-contention diagnostics from `/proc`, so a slow run can be told
//! apart from a slow program: CPU time of the whole process (exited worker
//! threads included), run-queue wait of the driver thread, load average
//! and peak resident memory.

use std::io;
use std::time::{Duration, Instant};

/// `/proc` reports CPU times in USER_HZ ticks, which Linux fixes at 100
/// per second for every architecture.
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    pub at: Instant,
    /// User CPU time of every thread the process has run, in ms.
    pub user_ms: f64,
    /// System CPU time of every thread the process has run, in ms.
    pub sys_ms: f64,
    /// Time the driver thread spent runnable but waiting for a CPU, in ms.
    pub runq_wait_ms: f64,
}

/// Difference of two samples over the interval between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    pub wall_ms: f64,
    pub user_ms: f64,
    pub sys_ms: f64,
    pub runq_wait_ms: f64,
}

impl ProcDelta {
    /// This interval with `other`, a part of it, taken out.
    pub fn minus(&self, other: &ProcDelta) -> ProcDelta {
        ProcDelta {
            wall_ms: self.wall_ms - other.wall_ms,
            user_ms: self.user_ms - other.user_ms,
            sys_ms: self.sys_ms - other.sys_ms,
            runq_wait_ms: self.runq_wait_ms - other.runq_wait_ms,
        }
    }

    pub fn plus(&self, other: &ProcDelta) -> ProcDelta {
        ProcDelta {
            wall_ms: self.wall_ms + other.wall_ms,
            user_ms: self.user_ms + other.user_ms,
            sys_ms: self.sys_ms + other.sys_ms,
            runq_wait_ms: self.runq_wait_ms + other.runq_wait_ms,
        }
    }

    /// Share of the interval the driver thread waited for a CPU.
    pub fn runq_wait_frac(&self) -> f64 {
        self.runq_wait_ms / self.wall_ms
    }
}

impl ProcSample {
    pub fn now() -> io::Result<ProcSample> {
        let stat = std::fs::read_to_string("/proc/self/stat")?;
        // The command name may hold spaces; the fixed fields follow the
        // last ')'. utime and stime are fields 14 and 15 of the line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| bad("/proc/self/stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| bad("/proc/self/stat"))
        };
        let (utime, stime) = (field(11)?, field(12)?);
        let sched = std::fs::read_to_string("/proc/self/schedstat")?;
        let runq_ns: f64 = sched
            .split_whitespace()
            .nth(1)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("/proc/self/schedstat"))?;
        Ok(ProcSample {
            at: Instant::now(),
            user_ms: utime / TICKS_PER_S * 1e3,
            sys_ms: stime / TICKS_PER_S * 1e3,
            runq_wait_ms: runq_ns * 1e-6,
        })
    }

    pub fn since(&self, earlier: &ProcSample) -> ProcDelta {
        ProcDelta {
            wall_ms: (self.at - earlier.at).as_secs_f64() * 1e3,
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            runq_wait_ms: self.runq_wait_ms - earlier.runq_wait_ms,
        }
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {what}"))
}

/// The 1, 5 and 15 minute load averages.
pub fn loadavg() -> io::Result<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg")?;
    let mut out = [0.0; 3];
    for (slot, f) in out.iter_mut().zip(text.split_whitespace()) {
        *slot = f.parse().map_err(|_| bad("/proc/loadavg"))?;
    }
    Ok(out)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad("/proc/self/status"))?;
    Ok(kb / 1024.0)
}

extern "C" {
    /// glibc: return the free memory of every malloc arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap memory to the system, then reset this process's
/// peak resident set size (VmHWM) to its current resident size, so the
/// next [`peak_rss_mb`] reads the peak of the interval since over what
/// is live now. Without the trim, the peak would also hold whatever
/// freed memory the allocator happened to keep from earlier work.
pub fn reset_peak_rss() -> io::Result<()> {
    // SAFETY: malloc_trim takes no pointers and is thread-safe.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// A fixed piece of arithmetic that uses no code of the program: 32×32
/// matrix products on local buffers. Its time follows the speed of the
/// core it runs on.
pub fn host_reference_us() -> f64 {
    const N: usize = 32;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.25 - 0.5).collect();
    let mut c = vec![0.0f64; N * N];
    let product = |c: &mut [f64]| {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * a[k * N + j];
                }
            }
        }
        std::hint::black_box(&mut *c);
    };
    // One untimed pass first: the workload between samples evicts these
    // buffers, and the reference should time the core, not the refill.
    product(&mut c);
    let t = Instant::now();
    for _ in 0..4 {
        product(&mut c);
    }
    t.elapsed().as_secs_f64() * 1e6
}

/// Bytes the memory reference reads: four times the 4 MiB per-core L2,
/// so it is served by the shared L3 and memory, which other tenants of
/// the host contend for.
const MEM_REF_BYTES: usize = 16 << 20;

/// One read of every cache line of `buf`, in GB/s.
fn memory_reference_gbps(buf: &[f64]) -> f64 {
    let t = Instant::now();
    let sum: f64 = buf.iter().step_by(8).sum();
    std::hint::black_box(sum);
    (buf.len() * 8) as f64 / t.elapsed().as_secs_f64() * 1e-9
}

/// Host reference samples, a core one and a memory one, taken at most
/// once per `every` while a workload runs. A run that slowed while its
/// references held steady was slowed by the program; one whose references
/// slowed with it was slowed by the host.
pub struct HostReference {
    every: Duration,
    last: Option<Instant>,
    buf: Vec<f64>,
    pub core_us: Vec<f64>,
    pub memory_gbps: Vec<f64>,
}

impl HostReference {
    pub fn new(every: Duration) -> HostReference {
        HostReference {
            every,
            last: None,
            buf: (0..MEM_REF_BYTES / 8).map(|i| i as f64).collect(),
            core_us: Vec::new(),
            memory_gbps: Vec::new(),
        }
    }

    /// Resident memory the reference holds for its whole life, in MB:
    /// subtracted from the process's peak so `peak_rss_mb` is the
    /// program's.
    pub fn resident_mb(&self) -> f64 {
        (self.buf.len() * 8) as f64 / (1 << 20) as f64
    }

    /// One line for the run's notes: quartiles of both references.
    pub fn describe(&self) -> String {
        if self.core_us.len() < 2 {
            return format!("host reference: {} sample(s)", self.core_us.len());
        }
        let [c1, c2, c3] = crate::stats::quartiles(&self.core_us);
        let [m1, m2, m3] = crate::stats::quartiles(&self.memory_gbps);
        format!(
            "host reference: {} samples, core quartiles {c1:.1}/{c2:.1}/{c3:.1} us, \
             memory quartiles {m1:.2}/{m2:.2}/{m3:.2} GB/s",
            self.core_us.len()
        )
    }

    /// Take a sample if the last one is older than the interval.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= self.every) {
            self.core_us.push(host_reference_us());
            self.memory_gbps.push(memory_reference_gbps(&self.buf));
            self.last = Some(Instant::now());
        }
    }
}
