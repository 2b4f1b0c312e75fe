//! The publish cell: the one synchronization point of the concurrent
//! serving stack.
//!
//! A [`PublishCell`] holds an `Arc<T>` and a sequence counter behind one
//! `RwLock` — readers [`pin`] the current value by cloning the `Arc`
//! under a brief read lock, the writer [`publish`]es a replacement under
//! the write lock. The cell owns the counter and hands each publish the
//! strictly increasing sequence it is about to stamp, so the value can
//! record it. [`crate::ShardedEngine`] has exactly one cell: the view
//! (model blueprint + every shard state) its readers pin.
//!
//! ## Poison policy
//!
//! The private poison-proof helpers `rread` / `rwrite` are this crate's
//! two `RwLock` acquisition points (`clippy.toml` disallows bare
//! `.read()`/`.write()` everywhere else). Being private, they also keep
//! every guard inside this file, which calls nothing that computes: a
//! guard cannot be held across a search, an encode or a rebuild.
//! Recovery is sound *here* because of what the lock protects:
//! the slot is only ever replaced wholesale, so even if a writer panics
//! mid-[`publish`] it still holds the previous, fully published value
//! and its sequence — there is no partially-mutated state a poisoned
//! guard could expose.
//!
//! [`pin`]: PublishCell::pin
//! [`publish`]: PublishCell::publish

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Poison-proof read of an `RwLock`: a panicked writer must not wedge
/// readers. See the module docs for why recovery is sound for publish
/// cells.
#[expect(clippy::disallowed_methods, reason = "the publish cell's one read point")]
fn rread<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match l.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Poison-proof write of an `RwLock`: the next writer may replace a
/// value a panicked predecessor left behind (always the previous fully
/// published one).
#[expect(clippy::disallowed_methods, reason = "the publish cell's one write point")]
fn rwrite<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match l.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One atomic publish point: readers pin the current value, the writer
/// swaps in the next. See the module docs.
pub struct PublishCell<T> {
    /// The sequence of the published value, and the value.
    slot: RwLock<(u64, Arc<T>)>,
}

impl<T> PublishCell<T> {
    /// A cell initially holding `value`, at sequence 0.
    pub fn new(value: T) -> PublishCell<T> {
        PublishCell { slot: RwLock::new((0, Arc::new(value))) }
    }

    /// Pins the current value: a brief read lock to clone the `Arc`,
    /// after which the holder's view is immutable for as long as it
    /// pleases and entirely off the lock.
    pub fn pin(&self) -> Arc<T> {
        Arc::clone(&rread(&self.slot).1)
    }

    /// Publishes the value `next` makes of the sequence it is handed —
    /// the successor of the current one — and returns that value as
    /// pinned. `next` runs under the write lock: keep it to assembling
    /// parts built off-lock. Readers pinned to the previous value are
    /// unaffected; new pins observe the returned one.
    pub fn publish(&self, next: impl FnOnce(u64) -> T) -> Arc<T> {
        let mut guard = rwrite(&self.slot);
        let seq = guard.0 + 1;
        let value = Arc::new(next(seq));
        *guard = (seq, Arc::clone(&value));
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(payload, stamped sequence)`.
    type V = (u64, u64);

    #[test]
    fn publish_hands_out_strictly_increasing_sequences() {
        let c: PublishCell<V> = PublishCell::new((10, 0));
        assert_eq!(*c.publish(|seq| (11, seq)), (11, 1));
        assert_eq!(*c.publish(|seq| (12, seq)), (12, 2));
        assert_eq!(*c.pin(), (12, 2));
    }

    #[test]
    fn pinned_readers_keep_their_generation_across_publishes() {
        let c: PublishCell<V> = PublishCell::new((1, 0));
        let old = c.pin();
        let new = c.publish(|seq| (2, seq));
        assert_eq!(old.0, 1, "pin must be immune to later publishes");
        assert!(Arc::ptr_eq(&new, &c.pin()), "publish returns the value as pinned");
    }

    /// A writer that panics while holding the cell's write lock must
    /// not wedge subsequent `rread`/`rwrite` callers — the poison-proof
    /// helpers recover, readers still pin and serve, and the next
    /// publish proceeds with the next sequence.
    #[test]
    fn poisoned_cell_still_pins_and_publishes() {
        let c: Arc<PublishCell<V>> = Arc::new(PublishCell::new((7, 0)));
        c.publish(|seq| (8, seq));

        let c2 = Arc::clone(&c);
        let result = std::thread::spawn(move || {
            c2.publish(|_| panic!("writer dies while holding the write lock"))
        })
        .join();
        assert!(result.is_err(), "the writer thread must have panicked");

        // Readers recover the last published value through the poison.
        assert_eq!(*c.pin(), (8, 1), "last published value survives");
        // The next writer recovers too; the failed publish took no sequence.
        assert_eq!(*c.publish(|seq| (9, seq)), (9, 2));
        assert_eq!(*c.pin(), (9, 2));
    }
}
