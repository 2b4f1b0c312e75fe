//! Durable atomic file writes with a deterministic fault-injection
//! seam.
//!
//! Every artifact this workspace persists — trainer checkpoints
//! (`T2HCKPT1`) and engine snapshots (`T2HSNAP1`) — goes through
//! [`durable_write`]. The function implements the full crash-safe
//! discipline the ad-hoc `fs::write` + `rename` pair silently skipped:
//!
//! 1. encode to a **unique tmp sibling** (`name.<pid>.<counter>.tmp`),
//!    so two writers targeting the same path can never clobber each
//!    other's in-flight bytes;
//! 2. **fsync the tmp file** (`File::sync_all`) before the rename — a
//!    crash immediately after "successful" save can otherwise leave a
//!    zero-length file under the real name once the rename metadata
//!    outruns the data blocks;
//! 3. atomically **rename** over the target;
//! 4. **fsync the parent directory** (unix), so the rename itself is
//!    durable.
//!
//! ## Fault injection
//!
//! Robustness code that is never executed is decoration. Tests
//! (`tests/fault_tolerance.rs`, `tests/torn_writes.rs` and the
//! refresh-under-faults loop in `tests/soak_e2e.rs`) install a
//! [`FaultPlan`] for the current thread via [`with_fault_plan`]; every
//! durable write then consults the plan and may be failed outright,
//! torn (a prefix of the bytes lands in the tmp file before the error),
//! or slowed. Plans are deterministic — rules match on the plan's own
//! write-attempt counter — so the same sequence of writes meets the
//! same faults every time. The seam is thread-local (like `traj_obs`'s
//! local recorder) so parallel tests never see each other's faults.
//!
//! ## Retries
//!
//! Transient IO failures should not kill a serving loop, and unbounded
//! retries should not wedge it. [`durable_write_retry`] wraps
//! [`durable_write`] in a bounded retry loop with deterministic
//! exponential backoff and reports what happened in a [`WriteReceipt`];
//! callers decide what a final failure means (a refresh keeps the old
//! generation serving and tries again later).

use std::cell::RefCell;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Distinguishes the tmp files of concurrent writers; unique per write
/// within a process. `Relaxed`: uniqueness needs atomicity, not ordering.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// What a [`FaultPlan`] rule does to a matched write attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteFault {
    /// The write fails before any byte reaches the filesystem.
    FailWrite,
    /// A torn write: only `keep_fraction` of the bytes land in the tmp
    /// file (never renamed over the target) before the error surfaces —
    /// the on-disk shape of a crash mid-write.
    TornWrite {
        /// Fraction of the payload that lands on disk, clamped to
        /// `[0, 1)`.
        keep_fraction: f64,
    },
    /// The write succeeds after an injected stall of `millis` — models
    /// a saturated disk; visible in the write-latency histograms.
    SlowWrite {
        /// Injected stall, in milliseconds.
        millis: u64,
    },
}

impl WriteFault {
    /// Short taxonomy label for telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            WriteFault::FailWrite => "fail_write",
            WriteFault::TornWrite { .. } => "torn_write",
            WriteFault::SlowWrite { .. } => "slow_write",
        }
    }
}

/// When a [`FaultPlan`] rule fires, in terms of the plan's write-attempt
/// counter (0-based, incremented on every durable write attempt made
/// while the plan is installed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWhen {
    /// Exactly the `n`-th attempt.
    Nth(u64),
    /// Every attempt whose index is a positive multiple of `n`
    /// (attempt 0 is spared so the first write of a run can land).
    EveryNth(u64),
    /// Every attempt in `[from, to)`.
    Range(u64, u64),
}

impl FaultWhen {
    fn matches(&self, attempt: u64) -> bool {
        match *self {
            FaultWhen::Nth(n) => attempt == n,
            FaultWhen::EveryNth(n) => n > 0 && attempt > 0 && attempt.is_multiple_of(n),
            FaultWhen::Range(from, to) => attempt >= from && attempt < to,
        }
    }
}

/// One injection rule: a trigger plus the fault it injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Which write attempts this rule matches.
    pub when: FaultWhen,
    /// What happens to a matched attempt.
    pub fault: WriteFault,
}

/// A deterministic fault-injection plan over durable write attempts.
///
/// The plan owns its attempt counter, so the same plan installed over
/// the same code path always injects the same faults. The first
/// matching rule wins.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Write attempts and injected faults: `Relaxed` counters, since
    /// each attempt needs a unique index and nothing else is published.
    attempts: AtomicU64,
    injected: AtomicU64,
}

impl FaultPlan {
    /// A plan with no rules (counts attempts, injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from explicit rules.
    pub fn new(rules: Vec<FaultRule>) -> Self {
        FaultPlan { rules, ..FaultPlan::default() }
    }

    /// Durable write attempts observed so far.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consumes one attempt index and returns the fault to inject, if
    /// any.
    fn next_fault(&self) -> Option<WriteFault> {
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        let hit = self.rules.iter().find(|r| r.when.matches(attempt)).map(|r| r.fault);
        if hit.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

thread_local! {
    static PLAN: RefCell<Option<Arc<FaultPlan>>> = const { RefCell::new(None) };
}

/// Runs `f` with `plan` governing every [`durable_write`] on this
/// thread, restoring the previous plan (usually none) afterwards —
/// panic-safe via a drop guard, mirroring
/// `traj_obs::with_local_recorder`.
pub fn with_fault_plan<R>(plan: Arc<FaultPlan>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<FaultPlan>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PLAN.with(|p| *p.borrow_mut() = self.0.take());
        }
    }
    let prev = PLAN.with(|p| p.borrow_mut().replace(plan));
    let _restore = Restore(prev);
    f()
}

fn current_fault() -> Option<WriteFault> {
    PLAN.with(|p| p.borrow().as_ref().map(|plan| plan.next_fault()))?
}

/// How a write (or a whole retry loop) ultimately fared.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriteReceipt {
    /// Write attempts performed (at least 1).
    pub attempts: u32,
    /// Faults observed across those attempts, by taxonomy label.
    pub faults_hit: Vec<&'static str>,
    /// Total injected stall from `SlowWrite` faults, milliseconds.
    pub slow_millis: u64,
}

/// Bounded retry with deterministic exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = single attempt).
    pub max_retries: u32,
    /// Backoff before retry `i` (1-based) is `base_backoff_ms << (i-1)`,
    /// capped at [`RetryPolicy::max_backoff_ms`].
    pub base_backoff_ms: u64,
    /// Upper bound on a single backoff sleep.
    pub max_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, base_backoff_ms: 2, max_backoff_ms: 50 }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, no sleeping.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0, base_backoff_ms: 0, max_backoff_ms: 0 }
    }

    /// The backoff before 1-based retry `i`.
    pub fn backoff_ms(&self, i: u32) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        self.base_backoff_ms
            .saturating_mul(1u64 << (i - 1).min(16))
            .min(self.max_backoff_ms)
    }
}

/// The unique tmp sibling for `path` this write will stage into.
fn tmp_sibling(path: &Path) -> PathBuf {
    let file = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let unique = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!("{file}.{}.{unique}.tmp", std::process::id()))
}

/// True when `name` looks like a stale staging file for `target_file`:
/// `target_file.<pid>.<counter>.tmp`.
fn is_tmp_of(name: &str, target_file: &str) -> bool {
    let Some(rest) = name.strip_prefix(target_file) else { return false };
    let Some(mid) = rest.strip_prefix('.').and_then(|r| r.strip_suffix(".tmp")) else {
        return false;
    };
    let mut parts = mid.split('.');
    let pid_ok = parts.next().is_some_and(|p| p.parse::<u64>().is_ok());
    let ctr_ok = parts.next().is_some_and(|c| c.parse::<u64>().is_ok());
    pid_ok && ctr_ok && parts.next().is_none()
}

/// Extracts the pid component of a `target.<pid>.<counter>.tmp` name.
fn tmp_pid(name: &str) -> Option<u64> {
    let mid = name.strip_suffix(".tmp")?;
    let mut rev = mid.rsplit('.');
    let _counter = rev.next()?.parse::<u64>().ok()?;
    rev.next()?.parse::<u64>().ok()
}

/// Removes stale staging leftovers for `target` — tmp siblings written
/// by *other* processes that crashed mid-save (this process's own
/// in-flight tmps are left alone, so concurrent same-process writers
/// are safe). Returns how many files were removed; IO errors while
/// scanning are swallowed (cleanup is best-effort by design).
pub fn clean_stale_tmps(target: &Path) -> usize {
    let Some(dir) = target.parent().filter(|d| !d.as_os_str().is_empty()) else { return 0 };
    let Some(target_file) = target.file_name().map(|n| n.to_string_lossy().into_owned()) else {
        return 0;
    };
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let me = std::process::id() as u64;
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !is_tmp_of(&name, &target_file) {
            continue;
        }
        if tmp_pid(&name) == Some(me) {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    if removed > 0 && traj_obs::enabled() {
        traj_obs::counter("io.tmp_cleaned", removed as u64);
    }
    removed
}

fn fsync_parent(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            File::open(dir)?.sync_all()?;
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

fn injected_err(fault: WriteFault) -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, format!("injected fault: {}", fault.name()))
}

/// One crash-safe write attempt of `bytes` to `path`: unique tmp,
/// write, `sync_all`, rename, parent-dir fsync. Consults the
/// thread-local [`FaultPlan`], if any. On failure the tmp file is
/// removed best-effort (a genuine crash would leave it; see
/// [`clean_stale_tmps`]).
pub fn durable_write(path: &Path, bytes: &[u8]) -> io::Result<WriteReceipt> {
    let mut receipt = WriteReceipt { attempts: 1, ..WriteReceipt::default() };
    let fault = current_fault();
    if let Some(f) = fault {
        receipt.faults_hit.push(f.name());
        if traj_obs::enabled() {
            traj_obs::counter("io.faults_injected", 1);
            traj_obs::event(
                "io.fault",
                &[("kind", f.name().into()), ("path", path.to_string_lossy().as_ref().into())],
            );
        }
    }
    match fault {
        Some(WriteFault::FailWrite) => return Err(injected_err(WriteFault::FailWrite)),
        Some(f @ WriteFault::TornWrite { keep_fraction }) => {
            // Leave a realistic torn prefix in a tmp file, then fail.
            // The target is never touched — exactly what the atomic
            // protocol guarantees about a crash mid-write.
            let keep = if keep_fraction.is_finite() { keep_fraction.clamp(0.0, 1.0) } else { 0.0 };
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "keep is clamped to [0, 1], so the product is within [0, len]"
            )]
            let cut = ((bytes.len() as f64) * keep) as usize;
            let tmp = tmp_sibling(path);
            let _ = std::fs::write(&tmp, &bytes[..cut.min(bytes.len())]);
            return Err(injected_err(f));
        }
        Some(WriteFault::SlowWrite { millis }) => {
            receipt.slow_millis = millis;
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
        None => {}
    }
    let tmp = tmp_sibling(path);
    let write_all = |tmp: &Path| -> io::Result<()> {
        let mut f = File::create(tmp)?;
        f.write_all(bytes)?;
        // Data blocks must be on stable storage before the rename can
        // make the file visible under the real name.
        f.sync_all()
    };
    if let Err(e) = write_all(&tmp) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    fsync_parent(path)?;
    Ok(receipt)
}

/// [`durable_write`] under a bounded retry loop with deterministic
/// exponential backoff. Returns the merged [`WriteReceipt`] on success;
/// on exhaustion, the last error (the receipt's story so far is
/// reported through obs counters).
pub fn durable_write_retry(
    path: &Path,
    bytes: &[u8],
    policy: &RetryPolicy,
) -> io::Result<WriteReceipt> {
    let mut merged = WriteReceipt::default();
    let mut last_err = None;
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            let backoff = policy.backoff_ms(attempt);
            if backoff > 0 {
                std::thread::sleep(std::time::Duration::from_millis(backoff));
            }
            if traj_obs::enabled() {
                traj_obs::counter("io.write_retries", 1);
            }
        }
        match durable_write(path, bytes) {
            Ok(r) => {
                merged.attempts += r.attempts;
                merged.faults_hit.extend(r.faults_hit);
                merged.slow_millis += r.slow_millis;
                return Ok(merged);
            }
            Err(e) => {
                merged.attempts += 1;
                if let Some(msg) = e.to_string().strip_prefix("injected fault: ") {
                    merged.faults_hit.push(match msg {
                        "fail_write" => "fail_write",
                        "torn_write" => "torn_write",
                        _ => "slow_write",
                    });
                }
                last_err = Some(e);
            }
        }
    }
    if traj_obs::enabled() {
        traj_obs::counter("io.write_gave_up", 1);
    }
    #[expect(clippy::unwrap_used, reason = "the loop body ran at least once, so last_err is Some")]
    Err(last_err.unwrap())
}

impl fmt::Display for WriteReceipt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} attempt(s)", self.attempts)?;
        if !self.faults_hit.is_empty() {
            write!(f, ", faults: {}", self.faults_hit.join("+"))?;
        }
        if self.slow_millis > 0 {
            write!(f, ", {}ms injected stall", self.slow_millis)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("traj2hash_iofault_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tmp_leftovers(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect()
    }

    #[test]
    fn plain_write_lands_and_leaves_no_tmp() {
        let dir = tdir("plain");
        let path = dir.join("blob.bin");
        let r = durable_write(&path, b"hello").unwrap();
        assert_eq!(r.attempts, 1);
        assert!(r.faults_hit.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        assert!(tmp_leftovers(&dir).is_empty(), "tmp left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fail_write_fault_leaves_previous_content_intact() {
        let dir = tdir("fail");
        let path = dir.join("blob.bin");
        durable_write(&path, b"generation-1").unwrap();
        let plan = Arc::new(FaultPlan::new(vec![FaultRule {
            when: FaultWhen::Nth(0),
            fault: WriteFault::FailWrite,
        }]));
        let err = with_fault_plan(plan.clone(), || durable_write(&path, b"generation-2"));
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"generation-1");
        assert_eq!(plan.attempts(), 1);
        assert_eq!(plan.injected(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_never_touches_the_target() {
        let dir = tdir("torn");
        let path = dir.join("blob.bin");
        durable_write(&path, b"generation-1").unwrap();
        let plan = Arc::new(FaultPlan::new(vec![FaultRule {
            when: FaultWhen::Nth(0),
            fault: WriteFault::TornWrite { keep_fraction: 0.5 },
        }]));
        let err = with_fault_plan(plan, || durable_write(&path, b"generation-2-much-longer"));
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"generation-1");
        // The torn prefix is visible as a tmp leftover — the realistic
        // crash residue clean_stale_tmps exists for.
        assert_eq!(tmp_leftovers(&dir).len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let dir = tdir("retry");
        let path = dir.join("blob.bin");
        let plan = Arc::new(FaultPlan::new(vec![FaultRule {
            when: FaultWhen::Range(0, 2),
            fault: WriteFault::FailWrite,
        }]));
        let policy = RetryPolicy { max_retries: 3, base_backoff_ms: 0, max_backoff_ms: 0 };
        let receipt =
            with_fault_plan(plan, || durable_write_retry(&path, b"payload", &policy)).unwrap();
        assert_eq!(receipt.attempts, 3);
        assert_eq!(receipt.faults_hit, vec!["fail_write", "fail_write"]);
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let dir = tdir("giveup");
        let path = dir.join("blob.bin");
        let plan = Arc::new(FaultPlan::new(vec![FaultRule {
            when: FaultWhen::Range(0, 100),
            fault: WriteFault::FailWrite,
        }]));
        let policy = RetryPolicy { max_retries: 2, base_backoff_ms: 0, max_backoff_ms: 0 };
        let err = with_fault_plan(plan, || durable_write_retry(&path, b"payload", &policy));
        assert!(err.is_err());
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_write_succeeds_and_reports_stall() {
        let dir = tdir("slow");
        let path = dir.join("blob.bin");
        let plan = Arc::new(FaultPlan::new(vec![FaultRule {
            when: FaultWhen::Nth(0),
            fault: WriteFault::SlowWrite { millis: 1 },
        }]));
        let r = with_fault_plan(plan, || durable_write(&path, b"slow")).unwrap();
        assert_eq!(r.slow_millis, 1);
        assert_eq!(std::fs::read(&path).unwrap(), b"slow");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_tmp_cleanup_spares_own_pid_and_other_targets() {
        let dir = tdir("stale");
        let path = dir.join("model.ckpt");
        // A dead process's leftover, our own in-flight tmp, and an
        // unrelated file.
        std::fs::write(dir.join("model.ckpt.999999.3.tmp"), b"torn").unwrap();
        let mine = format!("model.ckpt.{}.7.tmp", std::process::id());
        std::fs::write(dir.join(&mine), b"inflight").unwrap();
        std::fs::write(dir.join("other.ckpt.999999.1.tmp"), b"x").unwrap();
        std::fs::write(dir.join("model.ckpt.nonsense.tmp"), b"x").unwrap();
        let removed = clean_stale_tmps(&path);
        assert_eq!(removed, 1);
        assert!(!dir.join("model.ckpt.999999.3.tmp").exists());
        assert!(dir.join(&mine).exists());
        assert!(dir.join("other.ckpt.999999.1.tmp").exists());
        assert!(dir.join("model.ckpt.nonsense.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_sequence_is_deterministic() {
        let rules = vec![
            FaultRule { when: FaultWhen::EveryNth(3), fault: WriteFault::FailWrite },
            FaultRule { when: FaultWhen::Nth(1), fault: WriteFault::SlowWrite { millis: 0 } },
        ];
        let fire = |plan: &FaultPlan| -> Vec<Option<&'static str>> {
            (0..8).map(|_| plan.next_fault().map(|f| f.name())).collect()
        };
        let a = fire(&FaultPlan::new(rules.clone()));
        let b = fire(&FaultPlan::new(rules));
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                None,
                Some("slow_write"),
                None,
                Some("fail_write"),
                None,
                None,
                Some("fail_write"),
                None
            ]
        );
    }

    #[test]
    fn concurrent_writers_to_one_path_never_clobber() {
        let dir = tdir("concurrent");
        let path = dir.join("shared.bin");
        std::thread::scope(|s| {
            for w in 0..4u8 {
                let path = path.clone();
                s.spawn(move || {
                    let payload = vec![w; 1024];
                    for _ in 0..20 {
                        durable_write(&path, &payload).unwrap();
                    }
                });
            }
        });
        // Whatever write won, the file is exactly one writer's payload,
        // never interleaved bytes.
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), 1024);
        assert!(got.iter().all(|&b| b == got[0]), "interleaved write detected");
        assert!(tmp_leftovers(&dir).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
