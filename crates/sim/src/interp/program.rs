//! The lowered form of a kernel: flat tables the executor indexes, with every
//! name already resolved. Built by [`Program::lower`] (`lower.rs`), run by
//! `exec.rs`.

use hidet_ir::{BinOp, DType, UnOp};

use super::SimError;
use crate::value::Value;

/// Index into a thread's register file.
pub(crate) type Reg = u32;

/// Set in a source operand that names an access instead of a register: the
/// element is loaded as the operand is read.
pub(crate) const MEM: u32 = 1 << 31;

/// One instruction. Destinations, conditions and indices are registers of
/// the executing thread's file; a *source* (`a`, `b`, `src`) is a register
/// or a [`MEM`] operand. Jumps are relative to the instruction itself, so
/// code fragments can be spliced anywhere.
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
    Store { access: u32, src: Reg },
    /// `buffer[indices] = Value::binary(op, buffer[indices], src)`.
    Update { op: BinOp, access: u32, src: Reg },
    /// `buffer[indices] = buffer[indices] + a * b`, the product rounded
    /// before the sum: one multiply-accumulate of a register tile. Only on a
    /// proven access, with a product that cannot fault.
    MulAdd { access: u32, a: Reg, b: Reg },
    /// Skips the next `skip` instructions.
    Jump { skip: u32 },
    /// Skips the next `skip` instructions when `cond` is false.
    Branch { cond: Reg, skip: u32, select: bool },
    /// Loop prologue: `count = extent`, `var = 0`; skips the body and its
    /// `LoopNext` (`skip` instructions) when the count is not positive.
    LoopEnter {
        var: Reg,
        count: Reg,
        extent: Reg,
        skip: u32,
    },
    /// Loop epilogue: `var += 1`; jumps `back` instructions while
    /// `var < count`.
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
    /// constants — those are folded into `offset`, the block- and
    /// thread-invariant ones collapsed into one hoisted register — and none
    /// is checked. Otherwise `dims` holds every dimension, each checked in
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
    /// Uniform-extent loop around a barrier.
    For {
        extent: Control,
        var: Reg,
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
    /// Register file layout: `[constants and block-uniform values |
    /// thread-invariant values | variables and temporaries]`. `block_init`
    /// is the first part as it stands before `block_code` runs.
    pub(crate) block_init: Vec<Value>,
    pub(crate) block_idx: Reg,
    pub(crate) thread_idx: Reg,
    pub(crate) n_regs: usize,
    /// Computes the block-uniform registers; run once per block.
    pub(crate) block_code: Vec<Op>,
    /// `code[..thread_code_end]` computes the thread-invariant registers;
    /// run once per thread per block. The rest is the body's fragments.
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

    /// Instructions plus skeleton nodes: the program's size, for comparison
    /// with the kernel's IR node count.
    pub fn op_count(&self) -> usize {
        self.block_code.len() + self.code.len() + self.nodes.len()
    }

    /// Resolves the global buffers this program addresses to their ids in
    /// `memory`, in the order [`crate::Gpu::launch`] expects them. A buffer
    /// that does not exist resolves to `None` and is reported by the launch
    /// (a missing parameter) or the access that needs it.
    pub fn resolve(&self, memory: &crate::DeviceMemory) -> Vec<Option<crate::BufferId>> {
        self.globals.iter().map(|g| memory.id(&g.name)).collect()
    }
}
