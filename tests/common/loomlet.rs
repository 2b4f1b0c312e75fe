//! loomlet — a deterministic interleaving enumerator for the publish
//! protocol.
//!
//! A miniature, zero-dependency cousin of the `loom` model checker:
//! instead of instrumenting real atomics, it models each logical thread
//! as a sequence of *atomic steps* (closures over a shared state) and
//! executes **every** interleaving of those steps, checking an
//! invariant after each one. That is exact — not sampled — coverage of
//! the schedule space, and it covers real executions whenever each step
//! has a single linearisation point: the engine publishes everything
//! through one cell, so a read is one [`traj_engine::PublishCell::pin`]
//! and a write one [`publish`](traj_engine::PublishCell::publish), and
//! any concurrent execution of engine calls is equivalent to *some*
//! sequential interleaving of the calls.
//!
//! The step count is the multinomial coefficient
//! `(Σ lens)! / Π lens!` ([`interleaving_count`]); tests assert the
//! exact value so nobody can silently shrink the explored space.
//!
//! Used by the `loomlet_publish` suite (which `mod`-includes this file;
//! the enumerator is test tooling, not part of `traj-engine`'s API) over
//! a real `ShardedEngine` + `ShardReader` and over the flight
//! recorder's ring.

use std::fmt;

/// An invariant violation, carrying the exact schedule that produced
/// it so the failure replays deterministically.
#[derive(Debug)]
pub struct Violation {
    /// The interleaving as a sequence of thread indices, one per step
    /// executed, in order.
    pub schedule: Vec<usize>,
    /// How many steps of `schedule` had executed when the invariant
    /// tripped (the violation surfaced after step `executed - 1`).
    pub executed: usize,
    /// The invariant's message.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated after step {} of schedule {:?}: {}",
            self.executed, self.schedule, self.message
        )
    }
}

impl std::error::Error for Violation {}

/// The number of distinct interleavings of threads with the given step
/// counts: the multinomial `(Σ lens)! / Π lens!`, computed without
/// overflow by incremental binomials.
pub fn interleaving_count(lens: &[usize]) -> u64 {
    let mut total: u64 = 0;
    let mut count: u64 = 1;
    for &len in lens {
        for i in 1..=len as u64 {
            total += 1;
            // count *= C(total, i) incrementally: multiply then divide
            // stays exact because count * total is always divisible.
            count = count * total / i;
        }
    }
    count
}

fn enumerate(lens: &[usize], done: &[usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if prefix.len() == lens.iter().sum::<usize>() {
        out.push(prefix.clone());
        return;
    }
    for t in 0..lens.len() {
        if done[t] < lens[t] {
            let mut next = done.to_vec();
            next[t] += 1;
            prefix.push(t);
            enumerate(lens, &next, prefix, out);
            prefix.pop();
        }
    }
}

/// All interleavings of threads with the given step counts, each as a
/// sequence of thread indices. Exhaustive and deterministic (threads
/// explored in index order at every branch).
pub fn interleavings(lens: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    enumerate(lens, &vec![0; lens.len()], &mut Vec::new(), &mut out);
    out
}

/// One atomic step of a model-checked thread: a boxed mutation of the
/// shared state `S`.
pub type Step<S> = Box<dyn Fn(&mut S)>;

/// Executes every interleaving of `threads` (each a list of atomic
/// steps over a fresh state from `mk_state`), running `invariant`
/// after every step. Returns the number of interleavings explored —
/// assert it against [`interleaving_count`] so the schedule space can
/// never silently shrink — or the first [`Violation`] with its full
/// schedule.
///
/// Steps must be pure functions of the state (no ambient randomness or
/// time), so a reported schedule replays exactly.
pub fn explore<S>(
    mk_state: impl Fn() -> S,
    threads: &[Vec<Step<S>>],
    invariant: impl Fn(&S) -> Result<(), String>,
) -> Result<u64, Violation> {
    let lens: Vec<usize> = threads.iter().map(|t| t.len()).collect();
    let mut explored = 0u64;
    for schedule in interleavings(&lens) {
        let mut state = mk_state();
        let mut pcs = vec![0usize; threads.len()];
        for (step_no, &t) in schedule.iter().enumerate() {
            threads[t][pcs[t]](&mut state);
            pcs[t] += 1;
            if let Err(message) = invariant(&state) {
                return Err(Violation { schedule, executed: step_no + 1, message });
            }
        }
        explored += 1;
    }
    Ok(explored)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multinomial_counts_are_exact() {
        assert_eq!(interleaving_count(&[]), 1);
        assert_eq!(interleaving_count(&[3]), 1);
        assert_eq!(interleaving_count(&[1, 1]), 2);
        assert_eq!(interleaving_count(&[2, 2]), 6);
        assert_eq!(interleaving_count(&[3, 2, 3]), 560);
        assert_eq!(interleaving_count(&[4, 4]), 70);
    }

    #[test]
    fn interleavings_match_the_count_and_preserve_program_order() {
        let lens = [2, 3];
        let all = interleavings(&lens);
        assert_eq!(all.len() as u64, interleaving_count(&lens));
        let mut seen = std::collections::HashSet::new();
        for s in &all {
            assert_eq!(s.iter().filter(|&&t| t == 0).count(), 2);
            assert_eq!(s.iter().filter(|&&t| t == 1).count(), 3);
            assert!(seen.insert(s.clone()), "duplicate schedule {s:?}");
        }
    }

    #[test]
    fn explore_runs_every_schedule_and_reports_violations_exactly() {
        // Two writers each appending their id: every interleaving of
        // (2,2) steps, 6 total.
        let threads: Vec<Vec<Step<Vec<usize>>>> = vec![
            vec![Box::new(|s: &mut Vec<usize>| s.push(0)), Box::new(|s: &mut Vec<usize>| s.push(0))],
            vec![Box::new(|s: &mut Vec<usize>| s.push(1)), Box::new(|s: &mut Vec<usize>| s.push(1))],
        ];
        let explored = explore(Vec::new, &threads, |_| Ok(())).expect("no invariant set");
        assert_eq!(explored, interleaving_count(&[2, 2]));

        // An invariant that rejects thread 1 moving first trips on the
        // first schedule that starts with 1, with the schedule attached.
        let err = explore(Vec::new, &threads, |s: &Vec<usize>| {
            if s.first() == Some(&1) {
                Err("thread 1 moved first".into())
            } else {
                Ok(())
            }
        })
        .expect_err("must violate");
        assert_eq!(err.schedule[0], 1);
        assert_eq!(err.executed, 1);
        assert!(err.to_string().contains("thread 1 moved first"));
    }
}
