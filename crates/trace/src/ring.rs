//! Bounded lock-free MPSC ring buffer: the workspace's one lock-free queue.
//!
//! Layout follows the bounded-queue design of Vyukov: each slot carries its
//! own sequence number, so producers and the consumer coordinate entirely
//! through per-slot atomics plus two cursors — no mutex, no condvar, no
//! allocation after construction. Restricted here to many producers / one
//! consumer: producers push ([`Producer::push`], a CAS on the head cursor),
//! exactly one thread pops ([`Consumer::pop`], a release store on the tail
//! cursor). The single-consumer constraint is enforced by the type system:
//! [`ring`] returns one non-clonable [`Consumer`] whose `pop` takes
//! `&mut self`.
//!
//! Two users push through it. The tracer gives every instrumented thread a
//! ring of its own and drains them all from the collector; the HTTP
//! front-end (`hidet_server::ring`, a re-export) gives every lane one,
//! shared by the acceptor threads.
//!
//! A full ring fails the push immediately, hands the value back and counts
//! the refusal ([`Consumer::refused`]) — that *is* the backpressure signal:
//! the acceptor sheds the connection with `429` instead of blocking behind a
//! slow lane, and the tracer sheds the event instead of stalling the thread
//! it traces (`hidet_trace_events_dropped_total`).
//!
//! ```
//! use hidet_trace::ring::ring;
//! let (tx, mut rx) = ring::<u32>(4);
//! assert!(tx.push(7).is_ok());
//! assert_eq!(rx.pop(), Some(7));
//! assert_eq!(rx.pop(), None);
//! ```

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads the cursors to their own cache lines so producer CAS traffic on the
/// head does not false-share with the consumer's tail stores.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    /// Slot state, Vyukov-style: `pos` means free for the producer claiming
    /// ticket `pos`; `pos + 1` means occupied and readable when the consumer
    /// reaches ticket `pos`; `pos + capacity` means drained and free for the
    /// producer one lap later.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Shared<T> {
    slots: Box<[Slot<T>]>,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
    /// Next ticket producers claim (CAS).
    head: CachePadded<AtomicUsize>,
    /// Next ticket the single consumer drains (plain store, Release).
    tail: CachePadded<AtomicUsize>,
    /// Failed head CAS attempts — the contention gauge surfaced in ingress
    /// stats. A retry loops straight back to another CAS; nothing blocks.
    cas_retries: AtomicUsize,
    /// Pushes refused because the ring was full.
    refused: AtomicU64,
}

// SAFETY: every field but the slots' `UnsafeCell`s is an atomic or
// immutable after construction. A slot's value is touched by one thread at a
// time, handed over through its `seq` (see `push` and `pop`), so the ring
// moves `T` values across threads exactly like a channel: `T: Send` is the
// only requirement.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Drain still-enqueued values so their destructors run. `&mut self`
        // guarantees no concurrent producer or consumer remains.
        let mut pos = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        while pos != head {
            let slot = &self.slots[pos & self.mask];
            if slot.seq.load(Ordering::Acquire) == pos.wrapping_add(1) {
                // SAFETY: published and never popped, so initialised.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
            pos = pos.wrapping_add(1);
        }
    }
}

/// A new ring holding at least `capacity` items (rounded up to a power of
/// two, minimum 2, so index arithmetic is a mask). The [`Producer`] clones
/// freely across producer threads; the single [`Consumer`] belongs to one
/// thread at a time.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(2).next_power_of_two();
    let slots = (0..capacity)
        .map(|i| Slot {
            seq: AtomicUsize::new(i),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    let shared = Arc::new(Shared {
        slots,
        mask: capacity - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        cas_retries: AtomicUsize::new(0),
        refused: AtomicU64::new(0),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

/// The producer side: clonable, shared by every producer thread.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Producer<T> {
    fn clone(&self) -> Producer<T> {
        Producer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Producer<T> {
    /// Enqueues `value` from any producer thread. On a full ring the value
    /// comes straight back as `Err`, and the refusal is counted — the caller
    /// sheds instead of waiting.
    ///
    /// Lock-free: the only loop is CAS arbitration between producers, and a
    /// failed CAS means another producer made progress.
    pub fn push(&self, value: T) -> Result<(), T> {
        let shared = &*self.shared;
        let mut pos = shared.head.0.load(Ordering::Relaxed);
        loop {
            let slot = &shared.slots[pos & shared.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Slot free for this ticket: claim it.
                match shared.head.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning ticket `pos` makes this producer the
                        // slot's sole owner until the seq store below
                        // publishes it to the consumer.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => {
                        shared.cas_retries.fetch_add(1, Ordering::Relaxed);
                        pos = current;
                    }
                }
            } else if (seq.wrapping_sub(pos) as isize) < 0 {
                // The slot still holds an undrained value from one lap ago:
                // the ring is full.
                shared.refused.fetch_add(1, Ordering::Relaxed);
                return Err(value);
            } else {
                // Another producer claimed this ticket; chase the head.
                pos = shared.head.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Number of items currently enqueued (racy by nature; a gauge).
    pub fn depth(&self) -> usize {
        let head = self.shared.head.0.load(Ordering::Relaxed);
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        head.wrapping_sub(tail)
    }

    /// The ring's capacity (post power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Failed producer CAS attempts so far (contention gauge).
    pub fn cas_retries(&self) -> usize {
        self.shared.cas_retries.load(Ordering::Relaxed)
    }

    /// Pushes refused so far because the ring was full.
    pub fn refused(&self) -> u64 {
        self.shared.refused.load(Ordering::Relaxed)
    }
}

/// The consumer side: exactly one per ring. Not clonable;
/// [`Consumer::pop`] takes `&mut self`, so concurrent popping is ruled out
/// at compile time.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Consumer<T> {
    /// Dequeues the next value, or `None` when the ring is empty (including
    /// when a producer has claimed a slot but not yet published it).
    pub fn pop(&mut self) -> Option<T> {
        let shared = &*self.shared;
        let pos = shared.tail.0.load(Ordering::Relaxed);
        let slot = &shared.slots[pos & shared.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == pos.wrapping_add(1) {
            // SAFETY: occupied and published, and the single consumer owns
            // the slot until the seq store below frees it.
            let value = unsafe { (*slot.value.get()).assume_init_read() };
            // Free the slot for the producer one full lap later.
            slot.seq
                .store(pos.wrapping_add(shared.mask + 1), Ordering::Release);
            shared.tail.0.store(pos.wrapping_add(1), Ordering::Release);
            Some(value)
        } else {
            None
        }
    }

    /// Pushes refused so far because the ring was full.
    pub fn refused(&self) -> u64 {
        self.shared.refused.load(Ordering::Relaxed)
    }

    /// True once every [`Producer`] has been dropped. Nothing can arrive
    /// after that, and every value pushed before the drops is visible to the
    /// following `pop`s.
    pub fn is_abandoned(&self) -> bool {
        let abandoned = Arc::strong_count(&self.shared) == 1;
        if abandoned {
            // Pairs with the Release decrement of each dropped producer's
            // `Arc`, which follows that producer's last push.
            fence(Ordering::Acquire);
        }
        abandoned
    }
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ring::Producer")
            .field("depth", &self.depth())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ring::Consumer")
            .field("refused", &self.refused())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_ring_drops_and_counts_without_blocking() {
        let (tx, mut rx) = ring::<u64>(4);
        for i in 0..4 {
            assert!(tx.push(i).is_ok());
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(tx.push(100), Err(100));
        assert_eq!(tx.refused(), 2);
        // The queued values survive; the refused ones are simply absent.
        let drained: Vec<u64> = std::iter::from_fn(|| rx.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
        assert_eq!(rx.refused(), 2);
        // Freed slots accept new pushes.
        assert!(tx.push(7).is_ok());
        assert_eq!(rx.pop(), Some(7));
    }

    #[test]
    fn dropping_a_nonempty_ring_runs_destructors() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tx, mut rx) = ring::<Counted>(4);
        for _ in 0..3 {
            assert!(tx.push(Counted).is_ok());
        }
        drop(rx.pop()); // one drained normally
        assert!(!rx.is_abandoned());
        drop(tx);
        assert!(rx.is_abandoned());
        drop(rx);
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }
}
