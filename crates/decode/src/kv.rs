//! Block-granular KV-cache allocation over one flat arena.
//!
//! Autoregressive decoding is stateful: every sequence carries per-layer
//! key/value caches that grow by one token per step and must survive
//! *between* steps. The allocator owns one `f32` arena carved into
//! **fixed-size blocks** and indexed by block id, as in a paged-attention
//! block pool; sequences hold chains of block ids:
//!
//! * a block stores [`KvLayout::block_tokens`] tokens; each token slot holds
//!   the token's K and V rows for *every* layer (`layers × 2 × hidden`
//!   elements), so one append touches one block;
//! * blocks are allocated lazily as a sequence crosses a block boundary and
//!   freed as a set when the sequence completes ([`KvAllocator::release`]) —
//!   no per-token allocator traffic, no fragmentation beyond one partial
//!   block per live sequence;
//! * under memory pressure ([`KvError::Exhausted`]) the *scheduler* picks a
//!   victim, releases its chain and later rebuilds it by re-feeding tokens
//!   (eviction + recompute — the allocator itself stays policy-free);
//! * a pass gathers cached lanes through [`KvAllocator::lane`] and writes a
//!   new token's rows through [`KvAllocator::lane_mut`]; both are plain
//!   offset arithmetic into the arena.

use std::fmt;

/// Shape of one model's KV cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvLayout {
    /// Transformer layers (one K and one V stream each).
    pub layers: usize,
    /// Model width: elements per K (or V) row per token per layer.
    pub hidden: usize,
    /// Tokens per block — the allocation granularity.
    pub block_tokens: usize,
}

impl KvLayout {
    /// Elements one token occupies across all layers and both streams.
    pub fn token_elems(&self) -> usize {
        self.layers * 2 * self.hidden
    }

    /// Elements per block.
    pub fn block_elems(&self) -> usize {
        self.block_tokens * self.token_elems()
    }

    /// Blocks a sequence of `tokens` cached tokens occupies.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }
}

/// One sequence's cache: a chain of block indices plus its token count.
/// Created empty; grown by [`KvAllocator::append`]; must be given back via
/// [`KvAllocator::release`] (dropping a non-empty cache leaks its blocks
/// until the allocator itself is dropped — the engine's session teardown
/// releases every path, tested by the no-leak suite). Deliberately **not**
/// `Clone`: releasing two handles to one block chain would double-free the
/// blocks and alias two sequences' caches.
#[derive(Debug, Default)]
pub struct KvCache {
    blocks: Vec<usize>,
    tokens: usize,
}

impl KvCache {
    /// An empty cache.
    pub fn new() -> KvCache {
        KvCache::default()
    }

    /// Cached tokens.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Blocks currently held.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }
}

/// Write coordinates of a freshly appended token, consumed by
/// [`KvAllocator::lane_mut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSlot {
    /// Arena block index.
    pub block: usize,
    /// Token slot within the block.
    pub slot: usize,
}

/// KV allocation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// No free block: the scheduler must evict a sequence (or fail the
    /// requester) before the append can proceed.
    Exhausted,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::Exhausted => f.write_str("no free KV block"),
        }
    }
}

impl std::error::Error for KvError {}

/// The block allocator: one arena, a free list, and the offset arithmetic
/// mapping `(block, slot, layer, stream)` to arena lanes. See the
/// [module docs](self).
#[derive(Debug)]
pub struct KvAllocator {
    layout: KvLayout,
    total_blocks: usize,
    /// Every block's elements, block after block.
    arena: Vec<f32>,
    free: Vec<usize>,
}

impl KvAllocator {
    /// An allocator with `total_blocks` blocks of `layout` geometry. The
    /// whole arena is reserved up front, so steady-state appends perform
    /// **zero heap allocations**.
    pub fn new(layout: KvLayout, total_blocks: usize) -> KvAllocator {
        assert!(layout.layers >= 1 && layout.hidden >= 1 && layout.block_tokens >= 1);
        assert!(total_blocks >= 1, "allocator needs at least one block");
        // Pop order low-to-high keeps block ids deterministic for tests.
        let free: Vec<usize> = (0..total_blocks).rev().collect();
        KvAllocator {
            layout,
            total_blocks,
            arena: vec![0.0; total_blocks * layout.block_elems()],
            free,
        }
    }

    /// The allocator's geometry.
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    /// Total blocks in the arena.
    pub fn capacity(&self) -> usize {
        self.total_blocks
    }

    /// Blocks currently allocated to sequences.
    pub fn blocks_in_use(&self) -> usize {
        self.total_blocks - self.free.len()
    }

    /// Reserves the next token slot of `cache`, allocating a block when the
    /// chain crosses a block boundary. The slot's lanes hold stale elements
    /// until written ([`KvAllocator::lane_mut`]).
    ///
    /// # Errors
    /// [`KvError::Exhausted`] when a new block is needed and none is free —
    /// the cache is left unchanged.
    pub fn append(&mut self, cache: &mut KvCache) -> Result<KvSlot, KvError> {
        let slot = cache.tokens % self.layout.block_tokens;
        if slot == 0 {
            let block = self.free.pop().ok_or(KvError::Exhausted)?;
            cache.blocks.push(block);
        }
        let block = *cache.blocks.last().expect("append allocated a block");
        cache.tokens += 1;
        Ok(KvSlot { block, slot })
    }

    /// Returns every block of `cache` to the free list and empties it —
    /// session completion and scheduler eviction both funnel through here.
    pub fn release(&mut self, cache: &mut KvCache) {
        self.free.append(&mut cache.blocks);
        cache.tokens = 0;
    }

    /// Read access to one cached lane: token `token`'s K (`stream == 0`) or
    /// V (`stream == 1`) row of `layer` — `hidden` elements, ordered by head.
    ///
    /// # Panics
    /// Panics when `token >= cache.tokens()` or the layer/stream is out of
    /// range.
    pub fn lane(&self, cache: &KvCache, token: usize, layer: usize, stream: usize) -> &[f32] {
        assert!(token < cache.tokens, "token {token} >= {}", cache.tokens);
        let slot = KvSlot {
            block: cache.blocks[token / self.layout.block_tokens],
            slot: token % self.layout.block_tokens,
        };
        let start = self.lane_start(slot, layer, stream);
        &self.arena[start..start + self.layout.hidden]
    }

    /// Write access to one lane of a freshly appended token `slot` (see
    /// [`KvAllocator::lane`] for the lane layout).
    ///
    /// # Panics
    /// Panics when the layer/stream is out of range.
    pub fn lane_mut(&mut self, slot: KvSlot, layer: usize, stream: usize) -> &mut [f32] {
        let start = self.lane_start(slot, layer, stream);
        &mut self.arena[start..start + self.layout.hidden]
    }

    /// Arena offset of `(slot, layer, stream)`'s lane.
    fn lane_start(&self, slot: KvSlot, layer: usize, stream: usize) -> usize {
        assert!(layer < self.layout.layers, "layer {layer} out of range");
        assert!(stream < 2, "stream must be 0 (K) or 1 (V)");
        slot.block * self.layout.block_elems()
            + slot.slot * self.layout.token_elems()
            + (2 * layer + stream) * self.layout.hidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> KvLayout {
        KvLayout {
            layers: 2,
            hidden: 4,
            block_tokens: 3,
        }
    }

    #[test]
    fn layout_arithmetic() {
        let l = layout();
        assert_eq!(l.token_elems(), 16);
        assert_eq!(l.block_elems(), 48);
        assert_eq!(l.blocks_for(0), 0);
        assert_eq!(l.blocks_for(3), 1);
        assert_eq!(l.blocks_for(4), 2);
    }

    #[test]
    fn append_allocates_blocks_at_boundaries() {
        let mut kv = KvAllocator::new(layout(), 4);
        let mut cache = KvCache::new();
        assert_eq!(kv.blocks_in_use(), 0);
        for t in 0..7 {
            let slot = kv.append(&mut cache).unwrap();
            assert_eq!(slot.slot, t % 3);
            assert_eq!(cache.tokens(), t + 1);
        }
        assert_eq!(cache.blocks(), 3); // ceil(7 / 3)
        assert_eq!(kv.blocks_in_use(), 3);
    }

    #[test]
    fn lanes_round_trip_and_never_alias() {
        // Two caches whose appends interleave, so their blocks alternate in
        // the arena: a takes blocks 0 and 2, b blocks 1 and 3.
        let mut kv = KvAllocator::new(layout(), 4);
        let mut caches = [KvCache::new(), KvCache::new()];
        let tag = |c: usize, t: usize, layer: usize, stream: usize| {
            (c * 1000 + t * 100 + layer * 10 + stream) as f32
        };
        // Write a distinct signature into every lane of 5 tokens of each.
        for t in 0..5usize {
            for (c, cache) in caches.iter_mut().enumerate() {
                let slot = kv.append(cache).unwrap();
                assert_eq!(slot.block, 2 * (t / 3) + c, "c{c} t{t}");
                for layer in 0..2 {
                    for stream in 0..2 {
                        kv.lane_mut(slot, layer, stream)
                            .fill(tag(c, t, layer, stream));
                    }
                }
            }
        }
        for (c, cache) in caches.iter().enumerate() {
            for t in 0..5usize {
                for layer in 0..2 {
                    for stream in 0..2 {
                        assert_eq!(
                            kv.lane(cache, t, layer, stream),
                            &[tag(c, t, layer, stream); 4],
                            "c{c} t{t} l{layer} s{stream}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustion_leaves_cache_unchanged_and_release_recovers() {
        let mut kv = KvAllocator::new(layout(), 2);
        let mut a = KvCache::new();
        let mut b = KvCache::new();
        for _ in 0..3 {
            kv.append(&mut a).unwrap(); // a takes block 0
        }
        kv.append(&mut b).unwrap(); // b takes block 1
                                    // a needs a 2nd block for token 4 — none free.
        let before = (a.tokens(), a.blocks());
        assert_eq!(kv.append(&mut a), Err(KvError::Exhausted));
        assert_eq!(
            (a.tokens(), a.blocks()),
            before,
            "failed append must not mutate"
        );
        // Releasing b (the scheduler's eviction) unblocks a.
        kv.release(&mut b);
        assert_eq!(b.tokens(), 0);
        assert_eq!(b.blocks(), 0);
        assert!(kv.append(&mut a).is_ok());
        assert_eq!(kv.blocks_in_use(), 2);
    }

    #[test]
    fn release_returns_every_block() {
        let mut kv = KvAllocator::new(layout(), 3);
        let mut cache = KvCache::new();
        for _ in 0..9 {
            kv.append(&mut cache).unwrap();
        }
        assert_eq!(kv.blocks_in_use(), 3);
        kv.release(&mut cache);
        assert_eq!(kv.blocks_in_use(), 0, "no block may leak");
        // The freed blocks are reusable by a fresh sequence.
        let mut fresh = KvCache::new();
        for _ in 0..9 {
            kv.append(&mut fresh).unwrap();
        }
        assert_eq!(kv.blocks_in_use(), 3);
    }

    #[test]
    fn steady_state_appends_do_not_allocate() {
        let mut kv = KvAllocator::new(layout(), 2);
        let arena = kv.arena.len();
        assert_eq!(arena, 2 * layout().block_elems());
        let mut cache = KvCache::new();
        for _ in 0..6 {
            kv.append(&mut cache).unwrap();
        }
        kv.release(&mut cache);
        assert_eq!(kv.arena.len(), arena, "arena is fixed at construction");
    }
}
