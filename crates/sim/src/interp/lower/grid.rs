//! Blocks side by side: where the blocks of a grid provably stay apart, a
//! pass over the grid runs the threads of several blocks as the lanes of
//! one wide pass. Decided once, from what the lowering proved of one block,
//! and laid out here for the executor.

use super::linear::Atom;
use super::verdict::{meet, one_function, reach};
use super::{Stretch, Touch, BLOCK, INDEX, SPACE_SHIFT};
use crate::interp::exec::block_values;
use crate::interp::program::{
    LaneTable, Node, Program, Reg, Verdict, COLUMN, FILE_SHIFT, INT, MEM, SCALAR,
};

/// Lanes one pass runs at most: 32 blocks of 32 threads. A bound of the
/// lowering's own, not an option.
const LANES: usize = 1024;

/// Threads a block may have and still run side by side with others. A
/// wider block already spreads each dispatch over its own lanes: side by
/// side, blocks of 32 threads ran 1.2–1.3× faster, blocks of 128 between
/// 0.92× and 1.06× (not worth the grid proof's lowering), and blocks of 256
/// 9–14% slower (register columns four times as long, block-level values
/// read per lane).
const WIDEST: usize = 32;

/// Elements the proof that blocks stay apart enumerates for one buffer,
/// over the whole grid, before it gives up.
const GRID_CAP: usize = 1 << 17;

/// How many blocks a pass over the grid of the finished program `p` runs
/// side by side: 1 unless its blocks are at most [`WIDEST`] threads and
/// provably stay apart. They do when
///
/// * every range is [`Verdict::Wide`] — its threads commute and none can
///   fault, so neither can the same threads of many blocks;
/// * every loop extent — and every branch condition around a barrier — is
///   proven the same in every block, so the blocks of a pass walk the
///   skeleton as one, and a wide loop counts the same trips in every lane;
/// * no element of a global buffer some range stores to is touched by two
///   blocks, one of them storing it, over all ranges of the kernel — the
///   footprint rule of a range (`verdict.rs`) with `blockIdx` in place of
///   `threadIdx`, decided by the same [`meet`], which also keeps a block
///   from reading in an early range what another stores in a later one.
///
/// Shared memory stays the block's own, so it needs no proof. `global`
/// tells a global buffer's element count; `lanes` is what lane code
/// computed, every register of it (`None` if it could not run).
pub(super) fn side_by_side(
    p: &Program,
    stretches: &[Stretch],
    global: impl Fn(u32) -> Option<usize>,
    lanes: Option<&LaneTable>,
) -> usize {
    let most = match p.block_dim {
        threads @ 1..=WIDEST => (LANES / threads).min(p.grid_dim),
        _ => 1,
    };
    let wide = p.ranges.iter().all(|r| r.verdict == Verdict::Wide)
        && !stretches.iter().any(|s| s.by_block);
    let controls = p.nodes.iter().all(|node| match node {
        Node::For { extent: c, .. } | Node::If { cond: c, .. } => c.grid_uniform,
        Node::Seq { .. } | Node::Thread { .. } => true,
    });
    let apart = |lanes| blocks_apart(p, stretches, global, lanes);
    if most < 2 || !wide || !controls || !lanes.is_some_and(apart) {
        return 1;
    }
    // As few passes as `most` allows, as even as they can be.
    let passes = p.grid_dim.div_ceil(most);
    p.grid_dim.div_ceil(passes)
}

/// Whether no element of a global buffer that a range stores to is touched
/// by two blocks, one of them storing it. Each access reaches, in every
/// block, the elements it reaches in one (enumerated once, per block) plus
/// what its block-level terms add there (block code run for every block).
/// An element outside the buffer, or a sum outside the interval its chain
/// was proven one-to-one over, is left out: no block reaches it, since
/// every access of a wide range is proven in bounds. [`meet`] then decides
/// on the elements of each buffer with blocks as workers, as the range
/// proof does with threads.
fn blocks_apart(
    p: &Program,
    stretches: &[Stretch],
    global: impl Fn(u32) -> Option<usize>,
    lanes: &LaneTable,
) -> bool {
    let touches = || stretches.iter().flat_map(|s| &s.touches);
    let stores = touches().filter(|t| t.store && global(t.buffer).is_some());
    let mut stored: Vec<u32> = stores.map(|t| t.buffer).collect();
    stored.sort_unstable();
    stored.dedup();
    // What each access to them reaches in one block — the work done once,
    // per block — within a budget for the whole grid, before any block's
    // values are computed.
    let mut reaching = Vec::with_capacity(stored.len());
    for &buffer in &stored {
        let touches: Vec<&Touch> = touches().filter(|t| t.buffer == buffer).collect();
        if !one_function(&touches) {
            return false;
        }
        let mut room = GRID_CAP / p.grid_dim;
        let mut owns = Vec::with_capacity(touches.len());
        for touch in touches {
            let mut own = Vec::new();
            if reach(p, touch, lanes, GRID_CAP, |at, _| own.push(at)).is_none() {
                return false;
            }
            own.sort_unstable();
            own.dedup();
            let Some(left) = room.checked_sub(own.len()) else {
                return false;
            };
            room = left;
            owns.push((touch, own));
        }
        reaching.push((buffer, owns));
    }
    // The block-level registers those addresses add, by scalar index.
    let mut fixed = Vec::new();
    let addresses = reaching.iter().flat_map(|(_, owns)| owns);
    for address in addresses.filter_map(|(touch, _)| touch.address.as_ref()) {
        for &(atom, _) in address.terms() {
            match atom {
                Atom::Fixed(r) if r >> SPACE_SHIFT == BLOCK => fixed.push(r & INDEX),
                // Fixed by a loop around a barrier: not one value per block.
                Atom::Fixed(_) => return false,
                Atom::Lane(_) | Atom::Var { .. } => {}
            }
        }
    }
    fixed.sort_unstable();
    fixed.dedup();
    let Ok(values) = block_values(p, &fixed) else {
        return false;
    };
    let value = |block: usize, r: Reg| {
        let at = fixed.binary_search(&(r & INDEX)).ok()?;
        values[block * fixed.len() + at].as_i64()
    };
    for (buffer, owns) in reaching {
        let len = global(buffer).unwrap_or(0) as i64;
        // Each access, where each block moves it and the interval its
        // elements can take.
        let mut moved = Vec::with_capacity(owns.len());
        for (touch, own) in owns {
            let Some(address) = &touch.address else {
                return false;
            };
            let base = |block: usize| {
                let mut terms = address.terms().iter();
                let base = terms.try_fold(0i64, |base, &(atom, by)| match atom {
                    Atom::Fixed(r) => Some(base.wrapping_add(value(block, r)?.wrapping_mul(by))),
                    Atom::Lane(_) | Atom::Var { .. } => Some(base),
                })?;
                Some((base, u32::try_from(block).ok()?))
            };
            let Some(bases): Option<Vec<_>> = (0..p.grid_dim).map(base).collect() else {
                return false;
            };
            let within = match touch.through {
                Some((_, (least, most))) => least..=most,
                None => 0..=len - 1,
            };
            moved.push((own, bases, within, touch.store));
        }
        // (element, block, stores it)
        let elements = moved.iter().flat_map(|(own, bases, within, store)| {
            bases.iter().flat_map(move |&(base, block)| {
                let at = own.iter().map(move |at| at.wrapping_add(base));
                let at = at.filter(move |at| within.contains(at));
                at.map(move |at| (at, block, *store))
            })
        });
        if meet(elements) != Some(None) {
            return false;
        }
    }
    true
}

/// Lays `p` out for `side` blocks a pass: every column of a lane file
/// `side` times as long, and the block-level registers — `block`, each a
/// scalar index and the lane file (counted from `INT`) of its type,
/// `blockIdx` among them — columns after every other of their file. Lane
/// code and `thread_idx` keep the layout they ran in at lowering, of one
/// block: nothing runs them again.
pub(super) fn spread(p: &mut Program, side: usize, block: &[(u32, usize)]) {
    let (threads, lanes) = (p.block_dim as u32, (side * p.block_dim) as u32);
    let mut moved = vec![None; p.block_init.len()];
    for &(index, file) in block {
        let column = p.columns[file] as u32 * lanes;
        debug_assert!(column <= COLUMN);
        moved[index as usize] = Some(((file as u32 + INT) << FILE_SHIFT) | column);
        p.columns[file] += 1;
    }
    let remap = |r: &mut Reg| {
        if *r & MEM != 0 {
            return;
        }
        let (file, at) = (*r >> FILE_SHIFT, *r & COLUMN);
        match file {
            SCALAR => *r = moved[at as usize].unwrap_or(*r),
            _ => *r = (file << FILE_SHIFT) | (at / threads * lanes),
        }
    };
    for op in p.block_code.iter_mut().chain(&mut p.code) {
        op.for_each_reg(remap);
    }
    p.dims.iter_mut().for_each(|dim| remap(&mut dim.idx));
    for node in &mut p.nodes {
        match node {
            Node::For { extent, var, .. } => {
                remap(&mut extent.reg);
                remap(var);
            }
            Node::If { cond, .. } => remap(&mut cond.reg),
            Node::Seq { .. } | Node::Thread { .. } => {}
        }
    }
    remap(&mut p.block_idx);
    p.side_by_side = side;
}
