//! The lowered form of a kernel definition: flat tables the executor indexes,
//! every name resolved and none a kernel goes by kept. Built by
//! [`Program::lower`] (`lower/`), run by `exec.rs`.

use hidet_ir::{BinOp, BufferRef, DType, Kernel, UnOp};

use super::SimError;
use crate::{BufferId, DeviceMemory, Value};

/// A register operand: which file of the block's registers it is in
/// (`operand >> FILE_SHIFT`) and where in that file (`operand & COLUMN`).
/// The lowering knows the type of every value, so an operand names the file
/// of its type; [`SCALAR`] holds the block-level values, one each for the
/// whole block, and the others one *column* of lanes per register, back to
/// back — `block_dim` lanes, or `side_by_side × block_dim` where blocks run
/// side by side: there the operand carries where its column starts, that
/// many lanes times its number.
pub(crate) type Reg = u32;

pub(crate) const FILE_SHIFT: u32 = 28;
pub(crate) const COLUMN: u32 = (1 << FILE_SHIFT) - 1;
/// Constants and block-level values: tagged, one per block.
pub(crate) const SCALAR: u32 = 0;
pub(crate) const INT: u32 = 1;
pub(crate) const FLOAT: u32 = 2;
pub(crate) const BOOL: u32 = 3;
/// Registers whose type differs by path: tagged values. A range that touches
/// one runs per thread.
pub(crate) const DYN: u32 = 4;

/// A count per lane file: `[INT, FLOAT, BOOL, DYN]`.
pub(crate) type Columns = [usize; 4];

/// Lane registers for every thread of a block, lane-major. [`Program::lanes`]
/// holds the ones that code outside `lane_code` reads: the first columns of
/// each file.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneTable {
    pub ints: Vec<i64>,
    pub floats: Vec<f32>,
    pub bools: Vec<bool>,
    pub dyns: Vec<Value>,
}

impl LaneTable {
    /// Keeps the first `lanes` values of each file, and no more memory.
    pub(crate) fn keep(&mut self, [ints, floats, bools, dyns]: Columns) {
        fn keep<T>(file: &mut Vec<T>, lanes: usize) {
            file.truncate(lanes);
            file.shrink_to_fit();
        }
        keep(&mut self.ints, ints);
        keep(&mut self.floats, floats);
        keep(&mut self.bools, bools);
        keep(&mut self.dyns, dyns);
    }
}

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

/// One instruction. Destinations, conditions and indices are registers —
/// the executing thread's lane of their column; a *source* (`a`, `b`, `src`)
/// is a register or a [`MEM`] operand, and what a `Store` / `Update` /
/// `MulAdd` writes (`to`) is a [`MEM`] operand. Jumps are relative to the
/// instruction itself, so code fragments can be spliced anywhere.
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
    /// Skips the next `skip` instructions — its *then* side — when `cond`
    /// is false. A branch with an *else* side ends its then side with the
    /// `Jump` over it ([`sides`]).
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

/// The sides of the `Branch { skip, .. }` that ends at `code[..at]`: the
/// end of its then side (less the `Jump` over the else side, if there is
/// one) and of its else side. A side is a whole fragment: no jump leaves it.
pub(crate) fn sides(code: &[Op], at: usize, skip: u32) -> (usize, usize) {
    let end = at + skip as usize;
    match code[at..end].last() {
        Some(&Op::Jump { skip }) => (end - 1, end + skip as usize),
        _ => (end, end),
    }
}

/// How deep the sides of `Branch`es nest in `code`: the lane masks a wide
/// run of it may hold at once.
pub(crate) fn nesting(code: &[Op]) -> usize {
    let (mut open, mut deepest) = (Vec::new(), 0);
    for (pc, op) in code.iter().enumerate() {
        open.retain(|&end| end > pc);
        if let Op::Branch { skip, .. } = *op {
            open.push(sides(code, pc + 1, skip).1);
            deepest = deepest.max(open.len());
        }
    }
    deepest
}

/// Where a buffer's elements live while a block runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Space {
    /// The launch's `n`-th global buffer (device memory): the kernel's
    /// parameters first, then the buffers the body names undeclared.
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
    /// Index into `buffer_names`: kernel parameter `buffer`, when it is one.
    pub buffer: u32,
    pub first_dim: u32,
    pub rank: u32,
    /// Element type stores convert to.
    pub dtype: DType,
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
    /// Proven the same in every block of the grid, too.
    pub grid_uniform: bool,
    /// The `NonUniformControl` message, less the kernel's name the launch adds.
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
    /// completion, in thread order — or, when its [`CodeRange`] is
    /// [`Verdict::Wide`], the whole block runs it one instruction at a time.
    Thread { start: u32, end: u32 },
}

/// What a [`CodeRange`] is to the skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeKind {
    /// The thread stream: what is fixed per thread per block, computed by
    /// every thread on entering a block.
    ThreadStream,
    /// The iteration prologue of a loop around a barrier.
    Prologue,
    /// A barrier-free leaf of the skeleton.
    Leaf,
}

/// Why a range runs per thread, in thread order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// Something in it can fault, and which thread faults first — at which
    /// instruction, with what payload — is the tree walker's to say.
    CanFault,
    /// It touches a register whose type differs by path.
    Untyped,
    /// A loop in it is not proven to take as many trips in every thread of
    /// the block. (A branch its threads take differently is no reason: a
    /// wide range runs each side under a lane mask.)
    DivergentLoop,
    /// It stores to a shared or global buffer, and its threads could not be
    /// shown to stay apart there: an index that is neither a sum of lane,
    /// block-wide and loop parts nor one function of such a sum that is
    /// one-to-one, accesses whose block-wide parts (or functions) differ, or
    /// more elements than the proof enumerates.
    UnprovenFootprint,
    /// Two of its threads touch one element of a buffer, and one of them
    /// stores it: thread order decides what ends up there.
    Overlap {
        /// The buffer's name in the definition: a kernel parameter's is
        /// `$<position>` ([`hidet_ir::Buffer::name`]).
        buffer: String,
        /// The element, counted from the part of the address that is the
        /// same for the whole block — or, for an address that is a function
        /// of a sum, the value of that sum so counted.
        element: i64,
        /// The two threads, lower first.
        threads: (u32, u32),
    },
}

/// How the executor runs a [`CodeRange`]; decided once, by the lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Its threads provably commute and none can fault: each instruction
    /// runs once, for all lanes of the block — under a lane mask, inside a
    /// branch the lanes take differently.
    Wide,
    /// Every thread runs it to completion, in thread order.
    PerThread(Reason),
}

/// One stretch of `code` the skeleton runs for the whole block, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeRange {
    /// What the range is.
    pub kind: RangeKind,
    /// Instructions in it (each runs once per thread, or once per block
    /// when the range is wide).
    pub instructions: usize,
    /// How it runs.
    pub verdict: Verdict,
}

/// A kernel definition lowered for the flat executor: variables are registers,
/// buffers are indices into flat storage with precomputed strides, barriers
/// are structure, and every expression that provably cannot fault has been
/// moved to the coarsest level it is constant at (see the
/// [module docs](super)).
///
/// Lowering never fails: a fault the lowering can already see becomes a trap
/// instruction that is raised if and when execution reaches it. It unrolls
/// barrier-free loops of constant trips, innermost first and only while the
/// copies of one loop stay within 512 instructions and three times the
/// kernel's IR nodes — fixed bounds, not options — so the program stays
/// within a small multiple of its kernel's IR node count
/// ([`Program::op_count`]; at most 4× on every kernel of the serving stack,
/// held by `tests/interp_differential.rs`, and of the model zoo, held by
/// `verify_sweep`).
///
/// It holds no name a kernel goes by: a launch takes those from the
/// [`Kernel`] it runs as, any kernel of the definition ([`Kernel::definition`]).
/// (The `Default` program is empty: it runs no block.)
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub(crate) grid_dim: usize,
    pub(crate) block_dim: usize,
    /// Blocks one pass over the grid runs side by side, as the lanes of one
    /// wide pass: more than one only where the lowering proved the blocks
    /// apart. Every lane file's column then holds `side_by_side ×
    /// block_dim` lanes, and `blockIdx` and the block-level registers are
    /// columns, computed by `block_code` run wide.
    pub(crate) side_by_side: usize,
    pub(crate) shared_bytes: u64,
    /// Global buffers the body names undeclared, which only have to exist
    /// if an access to one is reached; the launch's after the parameters.
    pub(crate) undeclared: Vec<String>,
    /// Names of the buffers accesses refer to, for fault reports: the
    /// parameters first, as `$<position>` ([`Program::buffer_name`]).
    pub(crate) buffer_names: Vec<String>,
    pub(crate) accesses: Vec<Access>,
    pub(crate) dims: Vec<Dim>,
    /// Elements of shared storage per block / of register arrays per thread.
    pub(crate) shared_len: usize,
    pub(crate) local_len: usize,
    /// The [`SCALAR`] file — constants and block-uniform values — as it
    /// stands before `block_code` runs.
    pub(crate) block_init: Vec<Value>,
    pub(crate) block_idx: Reg,
    /// A lane register (in the table only if other code reads it).
    pub(crate) thread_idx: Reg,
    /// Columns of each lane file, laid out `[lane values | thread-invariant
    /// values | loop-iteration values | variables and temporaries]`.
    pub(crate) columns: Columns,
    /// Computes the block-uniform registers; run once per block.
    pub(crate) block_code: Vec<Op>,
    /// Computes the lane registers from `threadIdx` and constants, over
    /// files of their own, of which the first `lane_columns` of each file
    /// are the ones other code reads. Run once per thread **per program**,
    /// by the lowering, into `lanes`.
    pub(crate) lane_code: Vec<Op>,
    pub(crate) lane_columns: Columns,
    /// Columns of each file while lane code runs: every lane register.
    pub(crate) lane_file: Columns,
    /// What lane code computes, run once by the lowering — or how it failed,
    /// which every launch then reports. Entering a block copies the table to
    /// the front of each file.
    pub(crate) lanes: LaneTable,
    pub(crate) lane_fault: Option<SimError>,
    /// `code[..thread_code_end]` computes the thread-invariant registers;
    /// run once per thread per block. The rest is the body's fragments and
    /// the iteration prologues of its loops.
    pub(crate) code: Vec<Op>,
    pub(crate) thread_code_end: u32,
    pub(crate) nodes: Vec<Node>,
    pub(crate) children: Vec<u32>,
    pub(crate) root: u32,
    /// The thread stream first; then, in lowering order, the leaves and the
    /// prologues of the skeleton.
    pub(crate) ranges: Vec<CodeRange>,
    /// Parallel to `nodes`: the range of a `Thread` node's code or a `For`
    /// node's prologue.
    pub(crate) node_range: Vec<u32>,
    pub(crate) traps: Vec<SimError>,
    /// How deep lane masks nest in any range ([`nesting`]).
    pub(crate) mask_depth: usize,
}

impl Program {
    /// Threads per block.
    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// Blocks of the grid one pass runs side by side, as the lanes of one
    /// wide pass: more than 1 only for blocks of at most 32 threads that
    /// the lowering proved apart — every range wide, every control around a
    /// barrier the same in every block, no global element touched by two
    /// blocks where either touch is a store. A launch handed aliasing
    /// buffers runs its blocks one by one all the same.
    pub fn side_by_side(&self) -> usize {
        self.side_by_side
    }

    /// Every stretch of code the skeleton runs for the whole block — the
    /// thread stream, the prologues of loops around barriers, the
    /// barrier-free leaves — with the lowering's verdict on how: once per
    /// block across all lanes, or per thread in thread order, and why.
    pub fn ranges(&self) -> &[CodeRange] {
        &self.ranges
    }

    /// Instructions — of every stream, loop prologues and lane code
    /// included — plus skeleton nodes: the program's size, for comparison
    /// with the kernel's IR node count.
    pub fn op_count(&self) -> usize {
        self.block_code.len() + self.lane_code.len() + self.code.len() + self.nodes.len()
    }

    /// Barrier-free loops that stayed loops: their extent is only known at
    /// run time, or their copies would not fit the unrolling budget.
    pub fn rolled_loops(&self) -> usize {
        let rolled = |op: &&Op| matches!(op, Op::LoopEnter { .. });
        self.code.iter().filter(rolled).count()
    }

    /// Multiply-adds that accumulate through a memory access rather than
    /// into a register-array element the lowering could address as a
    /// register: what a register tile left behind a rolled loop costs.
    pub fn memory_multiply_adds(&self) -> usize {
        let through_memory = |op: &&Op| matches!(op, Op::MulAdd { to, .. } if to & ELEMENT == 0);
        self.code.iter().filter(through_memory).count()
    }

    /// Resolves the global buffers this program addresses, run as `kernel`
    /// (of the definition it was lowered from), to their ids in `memory`, in
    /// the order [`crate::Gpu::launch`] expects them. A buffer that does not
    /// exist resolves to `None`, reported by the launch or the access.
    pub fn resolve(&self, kernel: &Kernel, memory: &DeviceMemory) -> Vec<Option<BufferId>> {
        let params = kernel.params().iter().map(|p| p.name());
        let names = params.chain(self.undeclared.iter().map(String::as_str));
        names.map(|name| memory.id(name)).collect()
    }

    /// What fault reports call buffer `id` of a launch as a kernel with
    /// these `params`: a parameter its name there, any other buffer its own.
    pub(crate) fn buffer_name<'a>(&'a self, params: &'a [BufferRef], id: u32) -> &'a str {
        match params.get(id as usize) {
            Some(param) => param.name(),
            None => &self.buffer_names[id as usize],
        }
    }
}
