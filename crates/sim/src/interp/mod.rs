//! Functional interpreter for `hidet-ir` kernels: lower once, run flat.
//!
//! A kernel definition is lowered **once** into a [`Program`]
//! ([`Program::lower`]) and the program is what runs, any number of times,
//! as any kernel of the definition. Lowering resolves everything a tree
//! walk would look up by name on every access, and keeps no name a kernel
//! goes by — a launch takes those from the kernel it runs as:
//!
//! * variables become registers — and every register a *column*: the
//!   `block_dim` values it holds, one per thread, side by side in the file
//!   of its static type (`i64`, `f32`, `bool`; a value whose type differs by
//!   path keeps a tagged column), block-level values one scalar each;
//! * parameters become positions, and buffers indices into flat storage
//!   (device memory by dense [`crate::BufferId`], one shared array per
//!   block, the threads' register arrays laid out like a register file, an
//!   element a column) with row-major strides precomputed per access;
//! * "does this subtree contain a barrier" becomes structure: the statements
//!   that do form a small *lockstep skeleton*, everything between them is a
//!   straight instruction array;
//! * literals are folded;
//! * a barrier-free loop whose extent folds to a constant is **unrolled**
//!   when its copies fit a budget, its variable a literal in every copy of
//!   the body (see below for what that buys and what bounds it).
//!
//! # The place lattice
//!
//! Every expression is classified by the coarsest level its value is fixed
//! at — its *place* — and an expression that **cannot fault** is computed
//! there instead of where it is written, into a register that lasts as long
//! as the level does, shared with every identical expression of that level:
//!
//! | place | fixed by | its code runs |
//! |---|---|---|
//! | constant | literals | at lowering (folded) |
//! | **lane** | `threadIdx` and constants | once per thread **per program**: the lowering runs it and keeps the columns other code reads, and a block's lane columns start as a copy of them |
//! | **block** | `blockIdx` and constants (the tile coordinates `blockIdx / tiles_n % tiles_m` of every schedule) | once per block |
//! | **thread** | `threadIdx` and `blockIdx` both | once per thread per block |
//! | **loop *n*** | the variable of the *n*-th enclosing loop that stayed a loop, and anything coarser | at the top of every iteration of that loop, in its *prologue*: for a loop around a barrier, every thread runs it when the skeleton sets the variable; for a loop inside a leaf it sits between `LoopEnter` and the body, and `LoopNext` jumps back to it |
//! | body | memory, or anything that can fault | in place, every time |
//!
//! An operation lives at the join of its operands' places: the finer of the
//! two, except that lane and block are incomparable and join at thread. In a
//! grid of one block `blockIdx` is the constant 0, so nothing is block- or
//! thread-level there and the thread stream is empty.
//!
//! The lattice is the paradigm this repository reproduces, read as a
//! schedule for the interpreter: a task mapping makes every worker → task
//! index a *static* function of `threadIdx`, `blockIdx` and the loop nest
//! (`threadIdx / 8`, `threadIdx % 32 / 8`, `SmemA[k0 % 2, …]`, the epilogue
//! index trees of the fused matmul kernels), so each term of each index is
//! fixed at one of these levels and the body of a hot loop is left with
//! loads, stores and multiply-adds.
//!
//! Only expressions that cannot fault move: a prologue runs before the
//! guards its instructions were written under (an `if`, the untaken side of
//! a select, an inner loop that may run zero times), and the lane table is
//! filled whether or not any launch gets to the code that reads it. Evaluating
//! a pure, total operation early and perhaps needlessly cannot be observed;
//! a division that might be by zero stays under its guard. A zero-trip loop
//! runs neither its body nor its prologue.
//!
//! # What task mappings guarantee, and the lowering uses
//!
//! The hardware-centric schedule space makes every tile extent a
//! compile-time constant (`repeat(4, 4) · spatial(…)`), so the loops over a
//! thread's own tile have literal extents. Such a loop — barrier-free, extent
//! folding to a constant — is unrolled, innermost first, for as long as its
//! copies stay within a budget of 512 instructions or three times the
//! kernel's IR nodes, whichever is fewer (hoisted ones included, whatever
//! stream they went to). An attempt gives up as soon as the growth of its
//! last copy, times the trips left, shows the rest cannot fit; a loop over
//! the budget or with an extent only known at run time lowers as a loop.
//! The budget is private to the lowering, not an option. Unrolling needs no
//! analysis of its own: the loop
//! variable is a literal, so the folding and the places above turn
//! `ty * 4 + i` into a shared lane register and `acc[i, j]` into a constant
//! address.
//!
//! An access whose every index is **proven** in bounds (of a buffer that
//! exists and is large enough) is addressed as `offset + register`. The
//! intervals behind a proof read the guards an access sits under: inside a
//! barrier-free `if c`, and on the taken side of `c ? a : b`, each `&&`-ed
//! comparison `x < y` / `x <= y` of `c` bounds either side by the other's
//! interval, and whatever is computed from `x` there is bounded with it — so
//! the store a partial tile guards with `row < m && col < n` is proven, and
//! a `then` side whose guard cannot hold over those intervals is dropped. Of
//! a proven access, the constant indices are folded into the offset, the
//! others — each fixed at some level — summed into one register at the
//! finest of their levels, and none is checked again; the storage slice's
//! own bounds check stays behind as the memory-safety backstop. Every other
//! access keeps the walker's per-dimension checks and fault order. When the
//! offset is all there is and the buffer is one of the thread's register
//! arrays, the element is a register on the device and an **operand** here:
//! the instruction names it, and no access is recorded at all (a write only
//! where the array's element type stores as `f32`, the one conversion every
//! register gets; an `i32` array keeps its access and its truncation). And
//! `acc[i] = acc[i] + a * b` on a proven access, with a product that cannot
//! fault, is one multiply-add instruction — both roundings still through
//! [`crate::Value::binary`], in the order the IR spells.
//!
//! # The trap rule
//!
//! Lowering never fails. A fault it can already see — an unbound variable,
//! an access with the wrong number of indices — becomes a *trap*
//! instruction at the point the tree walk would have raised it, and is
//! raised only if execution gets there: a kernel whose fault sits in an
//! untaken branch or a zero-trip loop runs clean. For the same reason only
//! expressions that cannot fault are hoisted or folded (`x / 0` stays where
//! it is written), and "cannot fault" is decided from static operand types
//! by probing [`crate::Value::binary`] / [`crate::Value::unary`] themselves, which remain
//! the only definition of arithmetic.
//!
//! # Wide ranges
//!
//! The skeleton runs three kinds of code for the whole block: the thread
//! stream, the prologue of a loop around a barrier, and a barrier-free leaf.
//! The tree walker ran such a *range* thread by thread. The lowering gives
//! each a [`Verdict`], once, and the executor runs a [`Verdict::Wide`] range
//! **once per block, each instruction across all lanes** — a loop over
//! columns instead of `block_dim` dispatches — and every other range as the
//! walker did: every thread to completion, in thread order. Both loops run
//! over the same columns, so going from one kind of range to the other
//! converts nothing. Two rules decide, both conservative:
//!
//! 1. **Structure.** Nothing in the range can fault (the lowering's fault
//!    flag is exact: a store, update or multiply-add on a proven, declared
//!    access of a numeric value cannot); every register it touches has a
//!    static type; every loop extent in it is proven the same for the whole
//!    block (a loop inside a leaf then counts the same iterations in every
//!    thread); and it writes only its threads' own registers and register
//!    arrays. Threads of such a range share no written state: any
//!    interleaving is the thread-order result. A branch the threads take
//!    differently — the `if row < m && col < n` of a predicated partial
//!    tile, the `cond ? load : 0` of its fill — is no obstacle: the wide
//!    loop runs each side under a **lane mask**, a `bool` column per side
//!    and level of nesting, and a lane the mask has off neither writes a
//!    register nor loads, stores or faults (a `Select` loads each source
//!    only for the lanes that choose it). A side only a few lanes take is
//!    stepped lane by lane instead — the threads commute, so that order is
//!    theirs too.
//! 2. **Footprint.** A range that passes all of that but stores to shared or
//!    global memory is wide when its threads provably stay apart there — the
//!    paper's argument that a `spatial` / `repeat` composition partitions
//!    its tile among the workers, re-established on the addresses instead of
//!    trusted. Beside the one register an access's index is summed into, the
//!    lowering keeps the sum: a constant, lane registers (a function of
//!    `threadIdx`: their values for every thread are the lane table), values
//!    the whole block shares for as long as the range runs (block-level, or
//!    fixed by a loop around a barrier), and the variables of loops inside
//!    the leaf with their trip counts. Per buffer the range stores to, with
//!    every access of the range to it — loads too — sharing the same
//!    block-wide part, each thread's elements relative to that part are
//!    enumerated over all iterations, and no element may be touched by two
//!    threads if either touch is a store. An index that is no such sum,
//!    block-wide parts that differ, more than 2¹⁵ elements: unproven, and
//!    unproven runs per thread ([`Reason`] says which; two threads that *do*
//!    meet are named). A thread a guard decided by a lane register keeps
//!    away from an access is left out of its footprint, which only ever
//!    shrinks it (`if lane < 16 { R[lane] += R[lane + 16] }` is apart). An
//!    address that is no sum but one function of one — `/ % min max * +`
//!    by constants, the NCHW scatter of a conv epilogue — is apart where
//!    the sums are and the function is one-to-one over every value the sum
//!    can take. That is decided from the function's constants, not by
//!    evaluating it: the sum is split into the mixed-radix digits its `/`
//!    and `%` take apart, and the address, a weighted sum of those digits,
//!    is one-to-one when each weight exceeds what the smaller ones add up
//!    to (a function the rule cannot follow stays unproven). Distinct
//!    buffers are taken to be distinct storage, which the memory planner
//!    guarantees for buffers that are live together; a launch handed
//!    aliasing buffers runs every range per thread.
//!
//! A wide range cannot fault, so there is no fault to replay: whatever can
//! fault keeps the walker's thread order, variant and payload by
//! construction. [`Program::ranges`] reports every range with its verdict.
//!
//! # Blocks side by side
//!
//! The same argument one level up: a task mapping makes a grid's blocks
//! independent workers, so where the lowering can show they are, a launch
//! runs the threads of several blocks — up to a private cap of 1,024 lanes,
//! of blocks of at most 32 threads (a wider block fills a wide pass on its
//! own) — as the lanes of one wide pass, and one dispatch per instruction
//! serves them all. The blocks of a grid are apart when
//!
//! * every range is [`Verdict::Wide`]: its threads commute and none can
//!   fault, and neither can the same threads of other blocks;
//! * every loop extent, and every branch condition around a barrier, is
//!   proven the same in every block: the blocks of a pass walk the skeleton
//!   as one, and a wide loop takes the same trips in all their lanes;
//! * no element of a global buffer is touched by two blocks where either
//!   touch is a store, counting every range of the kernel: the footprint
//!   rule above with `blockIdx` in place of `threadIdx`. What an access
//!   reaches in one block is enumerated once; block code, run for every
//!   block at lowering, says where each block moves it. One function
//!   decides both rules: it sorts `(element, worker, store)` touches, the
//!   workers a range's threads or a grid's blocks, and finds an element
//!   two workers meet at, one storing it. Counting all ranges together
//!   also keeps a block from reading in an early range what another stores
//!   in a later one, which the blocks would see in the other order side by
//!   side.
//!
//! Such a program is laid out once for it ([`Program::side_by_side`]):
//! every register column holds the lanes of all blocks of a pass,
//! `blockIdx` and the block-level registers become columns, and block code
//! runs wide. Shared memory stays each block's own, and the shared-memory
//! and threads-per-block checks keep their per-block meaning. Every other
//! program runs block by block, and so does any launch handed aliasing
//! buffers.
//!
//! # What "bit-identical" covers
//!
//! Blocks run in grid order, or side by side where the blocks are apart as
//! above; a barrier-free statement is run by every thread
//! to completion in thread order unless proven to commute, and a proven
//! range is order-free and cannot fault; statements around barriers run in
//! lockstep with loop extents and branch conditions required to agree across
//! the block; every `f32` operation of a thread happens in the order the IR
//! spells, through the same `Value` functions. Device memory after a launch
//! is therefore equal bit for bit to what the tree-walking interpreter this
//! replaced produced, and every fault it reported is reported with the same
//! [`SimError`] variant and payload (`tests/interp_differential.rs` holds
//! both to that, against the walker kept as a test-only oracle — kernels
//! whose threads race included, which is what holds the verdicts). Three
//! deliberate differences, all on ill-formed IR the builders cannot produce:
//! an access whose index count differs from its buffer's rank is a
//! `TypeError` when reached (the walker silently dropped the surplus); an
//! access whose own shape reaches past its buffer's declaration is a
//! `TypeError` (the walker panicked); and a name bound by a `Let` that is
//! not a statement of a sequence — an `If` branch, a loop body — is
//! unbound afterwards (the walker kept it for the paths that ran it).
//! `i64` arithmetic wraps on overflow, as the device's two's-complement
//! integers do, identically in debug and release builds and whether an
//! expression is folded at lowering time or evaluated at run time. (Which
//! payload the sum of two *different* NaNs carries is the instruction
//! selector's choice, here as in the walker.)

mod exec;
mod lower;
mod program;
mod wide;

use std::fmt;

pub(crate) use exec::launch;
pub use program::{CodeRange, Program, RangeKind, Reason, Verdict};

/// Errors produced by the simulator (interpreter and cost model).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A kernel parameter has no corresponding buffer in device memory.
    MissingBuffer(String),
    /// A device buffer has the wrong number of elements for its parameter.
    BufferSizeMismatch {
        /// Buffer name.
        name: String,
        /// Elements the kernel expects.
        expected: usize,
        /// Elements actually allocated.
        actual: usize,
    },
    /// An access index fell outside a buffer dimension.
    OutOfBounds {
        /// Buffer name.
        buffer: String,
        /// Dimension of the offending index.
        dim: usize,
        /// The index value.
        index: i64,
        /// The dimension extent.
        extent: i64,
    },
    /// Integer division or modulo by zero.
    DivByZero,
    /// An unbound variable was referenced.
    UnboundVar(String),
    /// A type error (e.g. boolean used as an index).
    TypeError(String),
    /// Threads disagreed on a loop extent or branch condition that encloses a
    /// barrier — undefined behaviour on real hardware, an error here.
    NonUniformControl(String),
    /// The kernel exceeds a device resource limit and cannot launch.
    ResourceLimit(String),
    /// A loop extent is not a compile-time constant where one is required.
    NonConstExtent(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingBuffer(name) => write!(f, "no device buffer named {name}"),
            SimError::BufferSizeMismatch { name, expected, actual } => write!(
                f,
                "buffer {name} has {actual} elements but the kernel expects {expected}"
            ),
            SimError::OutOfBounds { buffer, dim, index, extent } => write!(
                f,
                "index {index} out of bounds for dimension {dim} (extent {extent}) of buffer {buffer}"
            ),
            SimError::DivByZero => f.write_str("integer division by zero"),
            SimError::UnboundVar(name) => write!(f, "unbound variable {name}"),
            SimError::TypeError(msg) => write!(f, "type error: {msg}"),
            SimError::NonUniformControl(msg) => {
                write!(f, "non-uniform control flow around a barrier: {msg}")
            }
            SimError::ResourceLimit(msg) => write!(f, "resource limit exceeded: {msg}"),
            SimError::NonConstExtent(msg) => write!(f, "non-constant loop extent: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests;
