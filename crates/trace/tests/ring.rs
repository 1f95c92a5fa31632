//! The ring's contract: bounded, lock-free, exactly-once FIFO per producer,
//! every refused push counted. The source-level guarantee that the hot path
//! has no mutex to acquire is enforced by `hidet-lint` rule HA101
//! (`hidet-analysis`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use hidet_trace::ring::ring;
use proptest::prelude::*;

#[test]
fn capacity_rounds_up_to_a_power_of_two() {
    let (tx, _rx) = ring::<u8>(0);
    assert_eq!(tx.capacity(), 2);
    let (tx, _rx) = ring::<u8>(5);
    assert_eq!(tx.capacity(), 8);
    let (tx, _rx) = ring::<u8>(64);
    assert_eq!(tx.capacity(), 64);
}

#[test]
fn full_and_empty_boundaries() {
    let (tx, mut rx) = ring::<u32>(4);
    assert_eq!(rx.pop(), None, "fresh ring is empty");

    for i in 0..4 {
        assert!(tx.push(i).is_ok());
    }
    assert_eq!(tx.depth(), 4);
    // A full ring hands the value straight back.
    assert_eq!(tx.push(99), Err(99));
    assert_eq!(tx.depth(), 4, "failed push leaves the ring untouched");

    // One pop frees exactly one slot.
    assert_eq!(rx.pop(), Some(0));
    assert!(tx.push(4).is_ok());
    assert_eq!(tx.push(99), Err(99));

    for expected in [1, 2, 3, 4] {
        assert_eq!(rx.pop(), Some(expected));
    }
    assert_eq!(rx.pop(), None, "drained ring is empty again");
}

#[test]
fn wraparound_preserves_fifo_across_many_laps() {
    let (tx, mut rx) = ring::<usize>(4);
    // 10 laps of a capacity-4 ring: the cursors wrap the slot array many
    // times and every value still comes out in order.
    for i in 0..40 {
        assert!(tx.push(i).is_ok());
        if i % 2 == 1 {
            assert_eq!(rx.pop(), Some(i - 1));
            assert_eq!(rx.pop(), Some(i));
        }
    }
    assert_eq!(rx.pop(), None);
}

#[test]
fn dropping_the_ring_drops_queued_values() {
    let flag = Arc::new(AtomicBool::new(false));
    struct SetOnDrop(Arc<AtomicBool>);
    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let (tx, rx) = ring::<SetOnDrop>(4);
    tx.push(SetOnDrop(Arc::clone(&flag))).ok();
    drop(tx);
    assert!(!flag.load(Ordering::SeqCst), "value still queued");
    drop(rx);
    assert!(
        flag.load(Ordering::SeqCst),
        "queued value dropped with ring"
    );
}

/// Many producer threads hammer a small ring while the consumer drains it:
/// every pushed value arrives exactly once, and each producer's values
/// arrive in its own push order.
#[test]
fn multi_producer_contention_is_exactly_once_fifo() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 5_000;

    let (tx, mut rx) = ring::<(usize, usize)>(8);
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|producer| {
            let tx = tx.clone();
            thread::spawn(move || {
                for seq in 0..PER_PRODUCER {
                    let mut value = (producer, seq);
                    // Spin on a full ring: this test wants every value
                    // through (the server sheds instead of spinning).
                    while let Err(back) = tx.push(value) {
                        value = back;
                        std::hint::spin_loop();
                    }
                }
            })
        })
        .collect();

    let mut received: Vec<(usize, usize)> = Vec::with_capacity(PRODUCERS * PER_PRODUCER);
    while received.len() < PRODUCERS * PER_PRODUCER {
        match rx.pop() {
            Some(value) => received.push(value),
            None => std::hint::spin_loop(),
        }
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(rx.pop(), None, "nothing left after the count is met");

    let mut next_expected = [0usize; PRODUCERS];
    for (producer, seq) in received {
        assert_eq!(
            seq, next_expected[producer],
            "producer {producer} values must arrive in push order"
        );
        next_expected[producer] += 1;
    }
    assert!(next_expected.iter().all(|&n| n == PER_PRODUCER));
}

proptest! {
    // Thread-spawning cases are expensive; 32 distinct shapes is plenty on
    // top of the deterministic contention test above.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of pushes (from several threads) and pops delivers
    /// each enqueued item exactly once, FIFO per producer, and the ring
    /// counts exactly the pushes it refused.
    #[test]
    fn enqueued_items_dequeue_exactly_once_in_producer_order(
        capacity in 1usize..16,
        counts in proptest::collection::vec(1usize..200, 1..4),
    ) {
        let (tx, mut rx) = ring::<(usize, usize)>(capacity);
        let total: usize = counts.iter().sum();
        let handles: Vec<_> = counts
            .iter()
            .enumerate()
            .map(|(producer, &count)| {
                let tx = tx.clone();
                thread::spawn(move || {
                    let mut refused = 0u64;
                    for seq in 0..count {
                        let mut value = (producer, seq);
                        while let Err(back) = tx.push(value) {
                            refused += 1;
                            value = back;
                            thread::yield_now();
                        }
                    }
                    refused
                })
            })
            .collect();

        let mut per_producer: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut seen = 0usize;
        while seen < total {
            if let Some((producer, seq)) = rx.pop() {
                per_producer.entry(producer).or_default().push(seq);
                seen += 1;
            } else {
                thread::yield_now();
            }
        }
        let refused: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        prop_assert_eq!(rx.pop(), None);
        prop_assert_eq!(rx.refused(), refused);
        prop_assert_eq!(tx.refused(), refused);

        for (producer, &count) in counts.iter().enumerate() {
            let got = per_producer.remove(&producer).unwrap_or_default();
            let expected: Vec<usize> = (0..count).collect();
            prop_assert_eq!(got, expected, "producer {} order", producer);
        }
        prop_assert!(per_producer.is_empty(), "no phantom producers");
    }
}
