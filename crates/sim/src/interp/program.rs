//! The lowered form of a kernel: flat tables the executor indexes, with every
//! name already resolved. Built by [`Program::lower`] (`lower.rs`), run by
//! `exec.rs`.

use std::sync::OnceLock;

use hidet_ir::{BinOp, DType, UnOp};

use super::SimError;
use crate::value::Value;

/// Index into a thread's register file.
pub(crate) type Reg = u32;

/// Set in an operand that names memory instead of a register: the element is
/// loaded as a source operand is read, written as a destination. The rest of
/// the operand is the id of an [`Access`] — or, with [`ELEMENT`] set as well,
/// the element itself.
pub(crate) const MEM: u32 = 1 << 31;

/// Set beside [`MEM`] in an operand that is one element of the thread's
/// register arrays at an address the lowering knows: the rest of the operand
/// is its offset in the thread's register-array storage. Such an element is
/// a register on the device, and is addressed like one here — no [`Access`],
/// no index arithmetic, no look-up of its storage.
pub(crate) const ELEMENT: u32 = 1 << 30;

/// One instruction. Destinations, conditions and indices are registers of
/// the executing thread's file; a *source* (`a`, `b`, `src`) is a register
/// or a [`MEM`] operand, and what a `Store` / `Update` / `MulAdd` writes
/// (`to`) is a [`MEM`] operand. Jumps are relative to the instruction itself,
/// so code fragments can be spliced anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    /// `dst = Value::binary(op, a, b)`, `DivByZero` when that is `None`.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = Value::unary(op, a)`.
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst = a.cast(dtype)`.
    Cast { dtype: DType, dst: Reg, a: Reg },
    /// `dst = if cond { a } else { b }`; only the chosen source is read.
    Select { dst: Reg, cond: Reg, a: Reg, b: Reg },
    /// `dst = src` — a load, when `src` is a memory operand.
    Mov { dst: Reg, src: Reg },
    /// Bounds-checks dimension `dim` of `access` ahead of the instruction
    /// that performs it, where code in between could fault first.
    Check { access: u32, dim: u32 },
    /// `buffer[indices] = src` converted to the buffer's element type.
    Store { to: u32, src: Reg },
    /// `buffer[indices] = Value::binary(op, buffer[indices], src)`.
    Update { op: BinOp, to: u32, src: Reg },
    /// `buffer[indices] = buffer[indices] + a * b`, the product rounded
    /// before the sum: one multiply-accumulate of a register tile. Only on a
    /// proven access, with a product that cannot fault.
    MulAdd { to: u32, a: Reg, b: Reg },
    /// Skips the next `skip` instructions.
    Jump { skip: u32 },
    /// Skips the next `skip` instructions when `cond` is false.
    Branch { cond: Reg, skip: u32, select: bool },
    /// Loop entry: `count = extent`, `var = 0`; skips the loop's iteration
    /// prologue, its body and its `LoopNext` (`skip` instructions) when the
    /// count is not positive.
    LoopEnter {
        var: Reg,
        count: Reg,
        extent: Reg,
        skip: u32,
    },
    /// Loop epilogue: `var += 1`; jumps `back` instructions — to the start
    /// of the iteration prologue — while `var < count`.
    LoopNext { var: Reg, count: Reg, back: u32 },
    /// Raises `traps[id]`: a fault the lowering already knows this point of
    /// the kernel has, should execution ever reach it.
    Trap { id: u32 },
}

/// Where a buffer's elements live while a block runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Space {
    /// The launch's `n`-th global buffer (device memory).
    Global(u32),
    /// The block's shared storage, from `base`.
    Shared,
    /// The thread's register-array storage, from `base`.
    Local,
    /// Named by the body but declared nowhere: `MissingBuffer` on access.
    Missing,
}

/// One term of one access: `flat += regs[idx] * stride`. On an unproven
/// access that is one dimension, with `0 <= regs[idx] < extent` enforced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dim {
    pub idx: Reg,
    pub extent: i64,
    pub stride: usize,
}

/// One `Load` / `Store` site, with what it needs of its buffer copied in.
///
/// The element addressed is `offset + Σ regs[idx] × stride` over
/// `dims[first_dim..first_dim + rank]`, within the whole storage of `space`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    pub space: Space,
    /// The lowering proved every index in bounds of a buffer that exists and
    /// is large enough. `dims` then holds only the terms that are not
    /// constants — those are folded into `offset`, the ones fixed at some
    /// level above the body summed into one hoisted register — and none is
    /// checked. Otherwise `dims` holds every dimension, each checked in
    /// order, and their sum is checked against `limit`.
    pub proven: bool,
    /// First element of the buffer within shared / per-thread storage, plus
    /// the constant part of a proven access's index.
    pub offset: usize,
    /// Declared element count of the buffer. The access's own shape decides
    /// the flat index (as in the tree walker); this bounds it when the two
    /// disagree.
    pub limit: usize,
    /// Index into `buffer_names`.
    pub buffer: u32,
    pub first_dim: u32,
    pub rank: u32,
    /// Element type stores convert to.
    pub dtype: DType,
}

/// A global buffer the launch must be handed.
#[derive(Debug, Clone)]
pub(crate) struct Global {
    pub name: String,
    /// `Some(elements)` for a kernel parameter (checked at launch); `None`
    /// for a buffer the body names without declaring it, which only has to
    /// exist if an access to it is reached.
    pub expect: Option<usize>,
}

/// A loop extent or branch condition that encloses a barrier.
#[derive(Debug, Clone)]
pub(crate) struct Control {
    /// Code computing `reg` (may be empty).
    pub start: u32,
    pub end: u32,
    pub reg: Reg,
    /// Proven equal across the block and unable to fault: evaluated for
    /// thread 0 only.
    pub uniform: bool,
    /// The `NonUniformControl` message, should threads disagree.
    pub message: String,
}

/// A node of the lockstep skeleton: the statements whose subtree contains a
/// barrier, plus the barrier-free leaves between them.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Children `children[first..first + len]`, one after another.
    Seq { first: u32, len: u32 },
    /// Uniform-extent loop around a barrier. `code[prologue.0..prologue.1]`
    /// is its iteration prologue: what the body computes from the loop
    /// variable alone, run by every thread once `var` is set.
    For {
        extent: Control,
        var: Reg,
        prologue: (u32, u32),
        body: u32,
    },
    /// Uniform-condition branch around a barrier.
    If {
        cond: Control,
        then_node: u32,
        else_node: Option<u32>,
    },
    /// Barrier-free code `code[start..end]`: every thread runs it to
    /// completion, in thread order.
    Thread { start: u32, end: u32 },
}

/// A kernel lowered for the flat executor: variables are register slots,
/// buffers are indices into flat storage with precomputed strides, barriers
/// are structure, and every expression that provably cannot fault has been
/// moved to the coarsest level it is constant at (see the
/// [module docs](super)).
///
/// Lowering never fails: a fault the lowering can already see becomes a trap
/// instruction that is raised if and when execution reaches it. It unrolls
/// barrier-free loops of at most eight constant trips, innermost first and
/// only while the copies of one loop stay within 512 instructions — fixed
/// bounds, not options — so the program stays within a small multiple of its
/// kernel's IR node count ([`Program::op_count`]; at most 4× on every kernel
/// of the serving stack, held by `tests/interp_differential.rs`).
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) name: String,
    pub(crate) grid_dim: usize,
    pub(crate) block_dim: usize,
    pub(crate) shared_bytes: u64,
    /// Parameters first, in declaration order.
    pub(crate) globals: Vec<Global>,
    /// Names of the buffers accesses refer to, for fault reports.
    pub(crate) buffer_names: Vec<String>,
    pub(crate) accesses: Vec<Access>,
    pub(crate) dims: Vec<Dim>,
    /// Elements of shared storage per block / of register arrays per thread.
    pub(crate) shared_len: usize,
    pub(crate) local_len: usize,
    /// Register file layout: `[constants and block-uniform values | the
    /// thread's row of lane values | thread-invariant values |
    /// loop-iteration values | variables and temporaries]`. `block_init` is
    /// the first part as it stands before `block_code` runs.
    pub(crate) block_init: Vec<Value>,
    pub(crate) block_idx: Reg,
    /// A lane register (in the row only if other code reads it).
    pub(crate) thread_idx: Reg,
    pub(crate) n_regs: usize,
    /// Computes the block-uniform registers; run once per block.
    pub(crate) block_code: Vec<Op>,
    /// Computes the lane registers from `threadIdx` and constants, over a
    /// file of its own: `[constants | all n_lane lane registers]`, of which
    /// the first `lane_row` are the ones other code reads. Run once per
    /// thread **per program**, into `lanes`.
    pub(crate) lane_code: Vec<Op>,
    pub(crate) n_lane: usize,
    pub(crate) lane_row: usize,
    /// `block_dim` rows of `lane_row` values. Filled by the first launch; a
    /// thread entering a block copies its row.
    pub(crate) lanes: OnceLock<Vec<Value>>,
    /// `code[..thread_code_end]` computes the thread-invariant registers;
    /// run once per thread per block. The rest is the body's fragments and
    /// the iteration prologues of its loops.
    pub(crate) code: Vec<Op>,
    pub(crate) thread_code_end: u32,
    pub(crate) nodes: Vec<Node>,
    pub(crate) children: Vec<u32>,
    pub(crate) root: u32,
    /// Whether the body contains a barrier (threads then need a register
    /// file each; otherwise they take turns on one).
    pub(crate) lockstep: bool,
    pub(crate) traps: Vec<SimError>,
}

impl Program {
    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instructions — of every stream, loop prologues and lane code
    /// included — plus skeleton nodes: the program's size, for comparison
    /// with the kernel's IR node count.
    pub fn op_count(&self) -> usize {
        self.block_code.len() + self.lane_code.len() + self.code.len() + self.nodes.len()
    }

    /// Resolves the global buffers this program addresses to their ids in
    /// `memory`, in the order [`crate::Gpu::launch`] expects them. A buffer
    /// that does not exist resolves to `None` and is reported by the launch
    /// (a missing parameter) or the access that needs it.
    pub fn resolve(&self, memory: &crate::DeviceMemory) -> Vec<Option<crate::BufferId>> {
        self.globals.iter().map(|g| memory.id(&g.name)).collect()
    }
}
