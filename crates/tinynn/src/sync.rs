//! Sanctioned lock helpers for the positional-encoding table.
//!
//! [`cread`] / [`cwrite`] are the acquisition points for the one
//! insert-only cache of *pure* values, the positional-encoding table
//! (`layers::positional_encoding_cached`, bounded by the distinct
//! `(length, dim)` pairs seen; read by the training forward only —
//! inference takes no process-wide lock). They recover from poisoning
//! instead of propagating it: every entry is an `Arc` of an immutable value
//! inserted wholesale, so a panicked holder can at most have completed
//! an insertion of a correct entry — there is no half-mutated state a
//! poisoned guard could expose, and a poisoned cache must not take down
//! training forwards on every other thread.
//!
//! `clippy.toml` disallows direct `.read()` / `.write()` calls; each
//! helper's body is the one place that carries the exception.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Poison-proof read of a compute-cache `RwLock`. See the module docs
/// for why recovery is sound.
#[expect(clippy::disallowed_methods, reason = "the positional table's one read point")]
pub fn cread<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Poison-proof write of a compute-cache `RwLock`. See the module docs
/// for why recovery is sound.
#[expect(clippy::disallowed_methods, reason = "the positional table's one write point")]
pub fn cwrite<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_cache_still_serves_reads_and_writes() {
        let cache = Arc::new(RwLock::new(vec![1u32]));
        let c2 = Arc::clone(&cache);
        let joined = std::thread::spawn(move || {
            #[expect(clippy::disallowed_methods, reason = "poisons the lock on purpose")]
            let _g = c2.write().unwrap();
            panic!("holder dies with the write lock");
        })
        .join();
        assert!(joined.is_err());

        assert_eq!(*cread(&cache), vec![1], "read recovers the intact value");
        cwrite(&cache).push(2);
        assert_eq!(*cread(&cache), vec![1, 2], "write recovers too");
    }
}
