//! The host: a reference kernel that tells a slow host from a slow
//! program, host-normalised timing, memory and CPU readings, and the
//! fingerprint every result row carries.
//!
//! # Why timings are normalised
//!
//! The sandbox this benchmark was written on runs the same code at
//! speeds up to 30 % apart, in regimes that last seconds to minutes.
//! A raw p50 therefore spreads 12–16 % between runs of unchanged code,
//! wider than any bound worth enforcing. Every timed region is
//! bracketed by the reference kernel below, and a timing is reported as
//! `raw * REF_NOMINAL_NS / ref_ns`: microseconds on a host where the
//! kernel takes exactly [`REF_NOMINAL_NS`]. The raw numbers are kept in
//! the result file beside the normalised ones.

use crate::stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The reference kernel's time on the nominal host (about the fast
/// regime of the 2-core sandbox the baseline was measured on).
pub const REF_NOMINAL_NS: f64 = 70_000.0;
/// Operations between two readings of the reference kernel.
pub const CHUNK: usize = 25;
const REF_REPS: usize = 6;
const REF_ROWS: usize = 72;
const REF_DIM: usize = 32;

/// A fixed f32 kernel shaped like one encoder step — a fresh `Vec`, a
/// naive 72x32 by 32x32 matmul and a row softmax, four times — so it
/// slows down with the host the way the program's hot path does. It
/// shares no code with the program, so no change to the program moves it.
pub struct RefKernel {
    x: Vec<f32>,
    w: Vec<f32>,
}

impl RefKernel {
    pub fn new() -> Self {
        RefKernel {
            x: (0..REF_ROWS * REF_DIM)
                .map(|i| (i as f32 * 0.37).sin())
                .collect(),
            w: (0..REF_DIM * REF_DIM)
                .map(|i| (i as f32 * 0.11).cos() * 0.2)
                .collect(),
        }
    }

    fn step(&self) -> f32 {
        let mut acc = 0.0f32;
        for rep in 0..4 {
            let mut out = vec![0.0f32; REF_ROWS * REF_DIM];
            for (row, o) in self.x.chunks(REF_DIM).zip(out.chunks_mut(REF_DIM)) {
                for (&x, wr) in row.iter().zip(self.w.chunks(REF_DIM)) {
                    for (oj, &wj) in o.iter_mut().zip(wr) {
                        *oj += x * wj;
                    }
                }
            }
            for r in out.chunks_mut(REF_DIM) {
                let m = r.iter().copied().fold(f32::MIN, f32::max);
                let mut z = 0.0;
                for v in r.iter_mut() {
                    *v = (*v - m).exp();
                    z += *v;
                }
                for v in r.iter_mut() {
                    *v /= z;
                }
            }
            acc += out[rep * 7] + out[out.len() - 1 - rep];
            std::hint::black_box(&out);
        }
        acc
    }

    /// Mean nanoseconds of one kernel step over [`REF_REPS`] steps.
    pub fn measure_ns(&self) -> f64 {
        let t = Instant::now();
        for _ in 0..REF_REPS {
            std::hint::black_box(std::hint::black_box(self).step());
        }
        t.elapsed().as_nanos() as f64 / REF_REPS as f64
    }
}

/// Pause between two readings of the sampler thread: about 2 % of one
/// core while it runs.
const SAMPLE_EVERY: std::time::Duration = std::time::Duration::from_millis(20);

/// Runs `f` while a second thread reads the reference kernel every
/// [`SAMPLE_EVERY`], and returns the readings with the instant each was
/// taken. A long call cannot be chunked from outside, and the host's
/// speed changes while it runs; readings taken before and after it miss
/// that, and miss what the cores do when the call keeps all of them busy.
pub fn sampled<R>(f: impl FnOnce() -> R) -> (R, Vec<(Instant, f64)>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let kernel = RefKernel::new();
            let mut readings = Vec::new();
            loop {
                readings.push((Instant::now(), kernel.measure_ns()));
                if stop.load(Ordering::Relaxed) {
                    return readings;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        let r = f();
        stop.store(true, Ordering::Relaxed);
        (r, sampler.join().expect("reference sampler panicked"))
    })
}

/// One timed operation: what kind it was, its wall time, and the same
/// time on the nominal host.
#[derive(Clone, Copy)]
pub struct Sample {
    pub tag: usize,
    pub raw_ns: f64,
    pub norm_ns: f64,
}

/// Times operations of one thread in chunks bracketed by the reference
/// kernel. A chunk's samples are scaled by the mean of the readings on
/// either side of it.
pub struct Pacer {
    kernel: RefKernel,
    last_ref_ns: f64,
    chunk_cpu_start_ns: Option<f64>,
    pending: Vec<(usize, f64)>,
    pub samples: Vec<Sample>,
    /// Every reading of the reference kernel, in nanoseconds.
    pub refs: Vec<f64>,
    /// On-CPU nanoseconds of this thread inside chunks, raw and normalised.
    pub cpu_raw_ns: f64,
    pub cpu_norm_ns: f64,
}

impl Pacer {
    pub fn new() -> Self {
        let kernel = RefKernel::new();
        kernel.measure_ns(); // first call pays page faults for `out`
        let first = kernel.measure_ns();
        Pacer {
            kernel,
            last_ref_ns: first,
            chunk_cpu_start_ns: thread_cpu_ns(),
            pending: Vec::new(),
            samples: Vec::new(),
            refs: vec![first],
            cpu_raw_ns: 0.0,
            cpu_norm_ns: 0.0,
        }
    }

    /// Adds one operation to the open chunk.
    pub fn record(&mut self, tag: usize, raw_ns: f64) {
        self.pending.push((tag, raw_ns));
    }

    /// Times `f` as one operation of the open chunk.
    pub fn op<R>(&mut self, tag: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(tag, t.elapsed().as_nanos() as f64);
        r
    }

    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Closes the chunk: reads the reference, scales the chunk's samples.
    /// Call [`Pacer::resume`] first after untimed work in between.
    pub fn close_chunk(&mut self) {
        let cpu_end = thread_cpu_ns();
        let now = self.kernel.measure_ns();
        let scale = REF_NOMINAL_NS / (0.5 * (self.last_ref_ns + now));
        for (tag, raw_ns) in self.pending.drain(..) {
            self.samples.push(Sample {
                tag,
                raw_ns,
                norm_ns: raw_ns * scale,
            });
        }
        if let (Some(a), Some(b)) = (self.chunk_cpu_start_ns, cpu_end) {
            self.cpu_raw_ns += b - a;
            self.cpu_norm_ns += (b - a) * scale;
        }
        self.refs.push(now);
        self.last_ref_ns = now;
        self.chunk_cpu_start_ns = thread_cpu_ns();
    }

    /// Re-reads the reference after untimed work (an oracle check, a
    /// set-up step), so the next chunk is not scaled by a stale reading
    /// and its CPU time does not include the untimed work.
    pub fn resume(&mut self) {
        debug_assert!(self.pending.is_empty(), "resume inside an open chunk");
        self.last_ref_ns = self.kernel.measure_ns();
        self.refs.push(self.last_ref_ns);
        self.chunk_cpu_start_ns = thread_cpu_ns();
    }

    /// Times one long call (an epoch, a bulk encode, an index build)
    /// against the readings a sampler thread takes while it runs:
    /// `(result, raw s, normalised s)`.
    pub fn long<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let t = Instant::now();
        let (r, readings) = sampled(f);
        let raw = t.elapsed().as_secs_f64();
        let readings: Vec<f64> = readings.into_iter().map(|(_, ns)| ns).collect();
        let scale = REF_NOMINAL_NS / stats::mean(&readings);
        self.refs.extend(readings);
        self.resume();
        (r, raw, raw * scale)
    }

    /// Reads the reference and returns the scale for work done since the
    /// previous reading.
    pub fn scale_since_last(&mut self) -> f64 {
        let now = self.kernel.measure_ns();
        let scale = REF_NOMINAL_NS / (0.5 * (self.last_ref_ns + now));
        self.refs.push(now);
        self.last_ref_ns = now;
        self.chunk_cpu_start_ns = thread_cpu_ns();
        scale
    }

    /// Normalised microseconds of every sample with `tag`.
    pub fn norm_us(&self, tag: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.tag == tag)
            .map(|s| s.norm_ns / 1e3)
            .collect()
    }

    pub fn raw_us(&self, tag: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.tag == tag)
            .map(|s| s.raw_ns / 1e3)
            .collect()
    }
}

/// Runs `f` in a loop for about `budget_ms` (at least `min_iters`) and
/// returns normalised nanoseconds per call, median over chunks.
pub fn micro(pacer: &mut Pacer, budget_ms: f64, min_iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm
    let probe = Instant::now();
    f();
    let one_ns = (probe.elapsed().as_nanos() as f64).max(20.0);
    let per_chunk = ((1.0e6 / one_ns) as usize).clamp(1, 100_000); // about 1 ms per chunk
    let chunks = (((budget_ms * 1e6 / one_ns) as usize).max(min_iters) / per_chunk).clamp(3, 200);
    let mut per_call = Vec::with_capacity(chunks);
    pacer.resume();
    for _ in 0..chunks {
        let t = Instant::now();
        for _ in 0..per_chunk {
            f();
        }
        let raw = t.elapsed().as_nanos() as f64 / per_chunk as f64;
        per_call.push(raw * pacer.scale_since_last());
    }
    stats::median(&per_call)
}

// ---- /proc readings ----------------------------------------------------

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .unwrap_or(f64::NAN)
}

/// Resident set size now, MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Peak resident set size of the process so far (VmHWM), MiB.
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// On-CPU nanoseconds of the calling thread (schedstat, ns resolution);
/// `None` where the kernel does not account it.
pub fn thread_cpu_ns() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = s.split_whitespace().next()?.parse().ok()?;
    (ns > 0.0).then_some(ns)
}

/// utime + stime of the whole process in seconds (10 ms ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = after_comm.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---- fingerprint ---------------------------------------------------------

pub struct Fingerprint {
    pub cores: usize,
    pub rustc: String,
    pub commit: String,
    pub profile: &'static str,
}

fn command_line(program: &str, arg: &str) -> Option<String> {
    let out = std::process::Command::new(program).arg(arg).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// HEAD of the checkout the benchmark runs in, read from `.git` without
/// leaving the directory; a driver checkout is not a repository.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

pub fn fingerprint() -> Fingerprint {
    Fingerprint {
        cores: cores(),
        rustc: command_line("rustc", "--version").unwrap_or_else(|| "unknown".into()),
        commit: git_commit().unwrap_or_else(|| "unknown".into()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    }
}
