//! Shard placement scoring for the multi-device decode engine (DESIGN.md
//! §11): [`placement_score`] folds a shard's estimated queue delay and its
//! KV-block headroom into one comparable number. Pure, so the policy is
//! unit-testable without an engine; the engine feeds it from per-shard
//! gauges at submission time.

/// Joint placement score of one shard for one incoming sequence: the
/// estimated queue delay a new arrival would see, plus a KV-headroom
/// penalty when the sequence's worst-case block need exceeds the shard's
/// free blocks. The penalty prices the displacement in recompute time —
/// evicting `needed - free` blocks forces that many block-tokens to be
/// re-fed, one decode-step estimate each — so a crowded-but-fast shard and
/// an idle-but-full one compare in the same unit (simulated seconds).
/// Infinity when the arena could not hold the sequence even alone (such a
/// shard must never be chosen while a feasible one exists).
pub(crate) fn placement_score(
    queue_delay: f64,
    step_estimate: f64,
    needed_blocks: usize,
    free_blocks: usize,
    capacity_blocks: usize,
    block_tokens: usize,
) -> f64 {
    if needed_blocks > capacity_blocks {
        return f64::INFINITY;
    }
    let kv_penalty = if needed_blocks > free_blocks {
        ((needed_blocks - free_blocks) * block_tokens) as f64 * step_estimate
    } else {
        0.0
    };
    queue_delay + kv_penalty
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_prefers_short_queues_then_charges_for_evictions() {
        // Same headroom: the shorter queue wins.
        let idle = placement_score(0.0, 1e-5, 2, 8, 8, 16);
        let busy = placement_score(3e-5, 1e-5, 2, 8, 8, 16);
        assert!(idle < busy);
        // Fits in free blocks: no penalty regardless of margin.
        assert_eq!(placement_score(0.0, 1e-5, 8, 8, 8, 16), 0.0);
        // Over free but under capacity: displaced block-tokens priced in
        // step estimates (2 blocks * 16 tokens * 1e-5).
        let crowded = placement_score(0.0, 1e-5, 6, 4, 8, 16);
        assert!((crowded - 32.0e-5).abs() < 1e-12);
        // A busy-but-roomy shard can still beat an idle-but-full one.
        assert!(busy < crowded);
        // Infeasible arena: never chosen while an alternative exists.
        assert_eq!(placement_score(0.0, 1e-5, 9, 0, 8, 16), f64::INFINITY);
    }
}
