//! Block-granular KV-cache allocation over persistent device memory.
//!
//! Autoregressive decoding is stateful: every sequence carries per-layer
//! key/value caches that grow by one token per step and must survive
//! *between* steps. Keeping them in host vectors would round-trip the
//! dominant data structure of the workload through the host on every step;
//! instead the allocator owns one [`DeviceMemory`] arena (the PR-4 arena
//! machinery) carved into **fixed-size blocks**, and sequences hold chains of
//! block indices:
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
//! * step kernels read cache lanes via [`KvAllocator::lane`] and new rows are
//!   copied in device-to-device ([`KvAllocator::copy_into_lane`], backed by
//!   [`DeviceMemory::copy_from`]).

use std::fmt;

use hidet_sim::DeviceMemory;

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
/// [`KvAllocator::copy_into_lane`].
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

/// The block allocator: one device arena, a free list, and the offset
/// arithmetic mapping `(token, layer, stream)` to arena lanes. See the
/// [module docs](self).
#[derive(Debug)]
pub struct KvAllocator {
    layout: KvLayout,
    total_blocks: usize,
    mem: DeviceMemory,
    free: Vec<usize>,
    /// Per-block buffer names, precomputed so the per-token hot path
    /// (lane gathers, lane writes) never allocates.
    names: Vec<String>,
}

impl KvAllocator {
    /// An allocator with `total_blocks` blocks of `layout` geometry. The
    /// whole arena is reserved (and every block view bound) up front, so
    /// steady-state appends perform **zero heap allocations**.
    pub fn new(layout: KvLayout, total_blocks: usize) -> KvAllocator {
        assert!(layout.layers >= 1 && layout.hidden >= 1 && layout.block_tokens >= 1);
        assert!(total_blocks >= 1, "allocator needs at least one block");
        let mut mem = DeviceMemory::new();
        mem.reserve_arena(total_blocks * layout.block_elems());
        let names: Vec<String> = (0..total_blocks).map(|b| format!("kv_blk{b}")).collect();
        for (b, name) in names.iter().enumerate() {
            mem.bind_view(name, b * layout.block_elems(), layout.block_elems());
        }
        // Pop order low-to-high keeps block ids deterministic for tests.
        let free: Vec<usize> = (0..total_blocks).rev().collect();
        KvAllocator {
            layout,
            total_blocks,
            mem,
            free,
            names,
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

    /// The backing device memory (read access for gathers and tests).
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Reserves the next token slot of `cache`, allocating a block when the
    /// chain crosses a block boundary. The slot's lanes hold stale bytes
    /// until written ([`KvAllocator::copy_into_lane`]).
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
        let block = cache.blocks[token / self.layout.block_tokens];
        let offset = self.lane_offset(token % self.layout.block_tokens, layer, stream);
        &self.mem.read(&self.names[block])[offset..offset + self.layout.hidden]
    }

    /// Writes `len` elements of a freshly appended token's lane, from lane
    /// position `lane_offset` on, by **device-to-device** copy from
    /// `src_mem`'s buffer `src` (e.g. a decode step's `new_k` output living
    /// in a workspace arena, strided per attention head) — the cache never
    /// round-trips through host vectors.
    ///
    /// # Panics
    /// Panics when `lane_offset + len` exceeds the lane width.
    #[allow(clippy::too_many_arguments)]
    pub fn copy_into_lane(
        &mut self,
        slot: KvSlot,
        layer: usize,
        stream: usize,
        lane_offset: usize,
        src_mem: &DeviceMemory,
        src: &str,
        src_offset: usize,
        len: usize,
    ) {
        assert!(
            lane_offset + len <= self.layout.hidden,
            "lane write [{lane_offset}, {}) exceeds width {}",
            lane_offset + len,
            self.layout.hidden
        );
        let offset = self.lane_offset(slot.slot, layer, stream) + lane_offset;
        self.mem.copy_from(
            &self.names[slot.block],
            offset,
            src_mem,
            src,
            src_offset,
            len,
        );
    }

    /// Offset of `(slot, layer, stream)` within a block buffer.
    fn lane_offset(&self, slot: usize, layer: usize, stream: usize) -> usize {
        assert!(layer < self.layout.layers, "layer {layer} out of range");
        assert!(stream < 2, "stream must be 0 (K) or 1 (V)");
        slot * self.layout.token_elems() + (layer * 2 + stream) * self.layout.hidden
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
        let mut kv = KvAllocator::new(layout(), 4);
        let mut cache = KvCache::new();
        // Copy a distinct signature into every lane of 5 tokens.
        let mut src = DeviceMemory::new();
        for t in 0..5usize {
            let slot = kv.append(&mut cache).unwrap();
            for layer in 0..2 {
                for stream in 0..2 {
                    let tag = (t * 100 + layer * 10 + stream) as f32;
                    src.alloc("tag", &[tag; 4]);
                    kv.copy_into_lane(slot, layer, stream, 0, &src, "tag", 0, 4);
                }
            }
        }
        for t in 0..5usize {
            for layer in 0..2 {
                for stream in 0..2 {
                    let tag = (t * 100 + layer * 10 + stream) as f32;
                    assert_eq!(
                        kv.lane(&cache, t, layer, stream),
                        &[tag; 4],
                        "t{t} l{layer} s{stream}"
                    );
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
    fn copy_into_lane_is_device_to_device() {
        let mut kv = KvAllocator::new(layout(), 2);
        let mut cache = KvCache::new();
        let slot = kv.append(&mut cache).unwrap();
        let mut src = DeviceMemory::new();
        src.alloc("out", &[9.0, 8.0, 7.0, 6.0, 5.0, 4.0]);
        kv.copy_into_lane(slot, 1, 0, 0, &src, "out", 2, 4);
        assert_eq!(kv.lane(&cache, 0, 1, 0), &[7.0, 6.0, 5.0, 4.0]);
    }

    #[test]
    fn steady_state_appends_do_not_allocate() {
        let mut kv = KvAllocator::new(layout(), 2);
        let resident = kv.memory().total_bytes();
        let mut cache = KvCache::new();
        for _ in 0..6 {
            kv.append(&mut cache).unwrap();
        }
        kv.release(&mut cache);
        assert_eq!(
            kv.memory().total_bytes(),
            resident,
            "arena is fixed at construction"
        );
    }
}
