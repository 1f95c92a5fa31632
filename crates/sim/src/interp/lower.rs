//! `Kernel` → [`Program`]: the one-time lowering.
//!
//! One pass over the IR. Every expression node is lowered to at most one
//! instruction and tagged with a static type, a [`Place`] (the coarsest
//! level its value is constant at) and whether it can fault; an instruction
//! that cannot fault is emitted into the stream of its place — folded into a
//! constant, computed once per program and lane, once per block, once per
//! thread, once per iteration of an enclosing loop, or left in the body —
//! and everything else stays exactly where the tree walker would have
//! evaluated it, so faults are raised in the walker's order or not at all.
//!
//! Integer values also carry an interval. An access whose indices provably
//! stay inside its buffer cannot fault either, so its load need not happen
//! at a fixed point: it becomes a *memory operand* of the instruction that
//! consumes it, `b[i] = b[i] + x` becomes one read-modify-write (one
//! multiply-add when `x` is a product), and its address is a folded
//! constant plus one register summing the terms that are not constants,
//! unchecked. When nothing is left but the constant and the buffer is a
//! register array, the operand is the element itself ([`ELEMENT`]).
//!
//! A barrier-free loop with a small constant extent is lowered as copies of
//! its body with the loop variable a literal ([`Lowerer::unroll`]), within a
//! fixed budget. Nothing else changes for it: the folding and the places
//! above do the rest, and a loop outside the budget lowers as a loop.

use std::collections::HashMap;
use std::sync::OnceLock;

use hidet_ir::{BinOp, BufferRef, DType, Expr, Kernel, MemScope, Stmt, UnOp};

use super::program::{Access, Control, Dim, Global, Node, Op, Program, Reg, Space, ELEMENT, MEM};
use super::SimError;
use crate::value::Value;

/// The coarsest level at which an expression's value is fixed — which is
/// where its instruction runs. An operation lives at the [`Place::join`] of
/// its operands' places, and at `Body` whenever it can fault. The derived
/// order is the lattice's, except that `Lane` and `Block` are incomparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Place {
    /// A literal or a fold of literals.
    Const,
    /// A function of `threadIdx` and constants: once per thread per
    /// *program*, whatever the block and the launch. Task mappings put most
    /// index arithmetic here.
    Lane,
    /// A function of `blockIdx` and constants: once per block.
    Block,
    /// A function of `threadIdx` and `blockIdx` both: once per thread per
    /// block.
    Thread,
    /// Reads the variable of the `n`-th enclosing loop that stayed a loop
    /// (the outermost is 1) and of none further in: once per iteration of
    /// that loop, in its prologue.
    Loop(u32),
    /// Depends on memory, or can fault: evaluated in place, every time.
    Body,
}

impl Place {
    /// The coarsest place at which values of both places are fixed.
    fn join(self, other: Place) -> Place {
        match (self, other) {
            (Place::Lane, Place::Block) | (Place::Block, Place::Lane) => Place::Thread,
            _ => self.max(other),
        }
    }
}

/// Static type of a value, as far as it is known. `Value`'s operators fault
/// or not, and pick their result type, by operand type alone (integer
/// division aside), so knowing the types is knowing whether an operation can
/// fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    F32,
    I64,
    Bool,
    /// Differs by path (a `Select` over unlike branches, a trap's result).
    Dyn,
}

impl Ty {
    fn of(v: Value) -> Ty {
        match v {
            Value::F32(_) => Ty::F32,
            Value::I64(_) => Ty::I64,
            Value::Bool(_) => Ty::Bool,
        }
    }

    /// A value of this type to probe `Value`'s operators with.
    fn sample(self) -> Option<Value> {
        match self {
            Ty::F32 => Some(Value::F32(1.0)),
            Ty::I64 => Some(Value::I64(1)),
            Ty::Bool => Some(Value::Bool(true)),
            Ty::Dyn => None,
        }
    }
}

/// Inclusive bounds of an integer value, where known.
type Range = Option<(i64, i64)>;

/// A lowered expression: where its value is, and what is known about it.
#[derive(Debug, Clone, Copy)]
struct Val {
    /// The register holding it — or, tagged [`MEM`], the access or
    /// register-array element it is: a load that cannot fault, left to its
    /// consumer.
    reg: Reg,
    ty: Ty,
    place: Place,
    /// Proven equal across the threads of a block at any one time.
    uniform: bool,
    range: Range,
}

impl Val {
    /// A value computed in place, about which nothing else is known.
    fn body(reg: Reg, ty: Ty) -> Val {
        Val {
            reg,
            ty,
            place: Place::Body,
            uniform: false,
            range: None,
        }
    }
}

// Registers are numbered per space while lowering and laid out
// `[block | lane | thread | loop | temp]` once the space sizes are known.
// Bit 31 is `MEM`, and such an operand is not a register.
const SPACE_SHIFT: u32 = 28;
const INDEX: u32 = (1 << SPACE_SHIFT) - 1;
const BLOCK: u32 = 0;
const LANE: u32 = 1;
const THREAD: u32 = 2;
const LOOP: u32 = 3;
const TEMP: u32 = 4;

fn reg(space: u32, index: u32) -> Reg {
    debug_assert!(index <= INDEX);
    space << SPACE_SHIFT | index
}

/// A loop that stayed a loop, while its body is being lowered.
#[derive(Default)]
struct OpenLoop {
    /// What the body computes from this loop's variable (and coarser values)
    /// alone, into loop-space registers: run at the top of every iteration.
    prologue: Vec<Op>,
    /// The prologue's instructions by (operation, operands), shared like
    /// [`Lowerer::hoisted`].
    hoisted: HashMap<Op, Reg>,
}

impl Op {
    /// Visits every operand: registers and memory operands alike.
    fn for_each_reg(&mut self, mut f: impl FnMut(&mut Reg)) {
        match self {
            Op::Bin { dst, a, b, .. } => [dst, a, b].into_iter().for_each(f),
            Op::Un { dst, a, .. } | Op::Cast { dst, a, .. } => [dst, a].into_iter().for_each(f),
            Op::Select { dst, cond, a, b } => [dst, cond, a, b].into_iter().for_each(f),
            Op::Mov { dst, src } => [dst, src].into_iter().for_each(f),
            Op::Store { to, src } | Op::Update { to, src, .. } => [to, src].into_iter().for_each(f),
            Op::MulAdd { to, a, b } => [to, a, b].into_iter().for_each(f),
            Op::Branch { cond, .. } => f(cond),
            Op::LoopEnter {
                var, count, extent, ..
            } => [var, count, extent].into_iter().for_each(f),
            Op::LoopNext { var, count, .. } => [var, count].into_iter().for_each(f),
            Op::Check { .. } | Op::Jump { .. } | Op::Trap { .. } => {}
        }
    }

    /// This value-producing instruction, writing to `dst`.
    fn with_dst(mut self, to: Reg) -> Op {
        if let Op::Bin { dst, .. }
        | Op::Un { dst, .. }
        | Op::Cast { dst, .. }
        | Op::Select { dst, .. }
        | Op::Mov { dst, .. } = &mut self
        {
            *dst = to;
        }
        self
    }
}

/// A loop whose extent folds to a constant of at most `UNROLL_TRIPS` is
/// unrolled when that emits at most `UNROLL_OPS` instructions, hoisted ones
/// included — innermost loops first, so a nest unrolls from the inside out
/// for as long as it fits. Bounds how far a program can outgrow its kernel.
const UNROLL_TRIPS: i64 = 8;
const UNROLL_OPS: usize = 512;

/// How much of the program existed at some point of the lowering.
struct Checkpoint {
    accesses: usize,
    dims: usize,
    traps: usize,
    block_regs: usize,
    block_code: usize,
    lane_regs: u32,
    lane_code: usize,
    thread_regs: u32,
    thread_code: usize,
    loop_regs: u32,
    /// Per open loop, outermost first.
    prologues: Vec<usize>,
    hoisted_ops: usize,
}

/// The interval of `op` over two integer intervals, where one follows.
fn binary_range(op: BinOp, a: Range, b: Range) -> Range {
    let ((alo, ahi), (blo, bhi)) = (a?, b?);
    match op {
        BinOp::Add => Some((alo.checked_add(blo)?, ahi.checked_add(bhi)?)),
        BinOp::Sub => Some((alo.checked_sub(bhi)?, ahi.checked_sub(blo)?)),
        BinOp::Mul => {
            let ends = [
                alo.checked_mul(blo)?,
                alo.checked_mul(bhi)?,
                ahi.checked_mul(blo)?,
                ahi.checked_mul(bhi)?,
            ];
            Some((*ends.iter().min()?, *ends.iter().max()?))
        }
        // By a positive constant: truncating division is monotone, and the
        // remainder of a non-negative value stays below the divisor.
        BinOp::Div if blo == bhi && blo > 0 => Some((alo / blo, ahi / blo)),
        BinOp::Mod if blo == bhi && blo > 0 && alo >= 0 => Some((0, ahi.min(blo - 1))),
        BinOp::Min => Some((alo.min(blo), ahi.min(bhi))),
        BinOp::Max => Some((alo.max(blo), ahi.max(bhi))),
        _ => None,
    }
}

/// Result type of `op` over operand types, and whether it can fault.
/// Probes `Value::binary` itself, so the typing rules live in one place.
fn binary_rule(op: BinOp, a: Ty, b: Ty, divisor: Option<Value>) -> (Ty, bool) {
    let (Some(x), Some(y)) = (a.sample(), b.sample()) else {
        return (Ty::Dyn, true);
    };
    match Value::binary(op, x, y) {
        None => (Ty::Dyn, true),
        Some(v) => {
            // `checked_div` / `checked_rem` fail on a zero divisor and on
            // `i64::MIN / -1`.
            let int_division = matches!(op, BinOp::Div | BinOp::Mod) && matches!(v, Value::I64(_));
            let safe = matches!(divisor, Some(Value::I64(d)) if d != 0 && d != -1);
            (Ty::of(v), int_division && !safe)
        }
    }
}

fn unary_rule(op: UnOp, a: Ty) -> (Ty, bool) {
    match a.sample().and_then(|x| Value::unary(op, x)) {
        Some(v) => (Ty::of(v), false),
        None => (Ty::Dyn, true),
    }
}

/// Names a statement leaves bound after it ran although it is not a
/// sequence: a `Let` that is an `If` branch or a loop body. The tree walker
/// kept such a binding alive until the enclosing scope ended — on the paths
/// that executed it. Here the name is poisoned for that long instead
/// (`None` in the environment): a reference raises `UnboundVar`.
fn leaked<'s>(s: &'s Stmt, out: &mut Vec<&'s str>) {
    match s {
        Stmt::Let { var, .. } => out.push(var.name()),
        Stmt::If {
            then_body,
            else_body,
            ..
        } => {
            leaked(then_body, out);
            if let Some(e) = else_body {
                leaked(e, out);
            }
        }
        _ => {}
    }
}

/// One lowered `Load` / `Store` site.
struct Site {
    /// The memory operand naming it: an [`Access`], or the [`ELEMENT`].
    operand: u32,
    /// Unable to fault.
    proven: bool,
    /// Its buffer is sure to exist when a launch runs.
    declared: bool,
}

/// A buffer the kernel declares or the body names, keyed by (scope, name).
struct BufferSlot {
    space: Space,
    /// First element within the shared / per-thread storage.
    base: usize,
    /// Declared element count (unbounded for a buffer declared nowhere).
    len: usize,
}

struct Lowerer<'k> {
    kernel: &'k Kernel,
    /// The program under construction. Registers in it are numbered per
    /// space, and code offsets are relative to `main`, until `finish`.
    p: Program,
    consts: HashMap<(u8, u64), Reg>,
    n_lane: u32,
    n_thread: u32,
    n_loop: u32,
    temp_top: u32,
    temp_max: u32,
    /// Computes the lane registers; ends up as `p.lane_code`.
    lane_code: Vec<Op>,
    /// Computes the thread-invariant registers; ends up at the front of
    /// `p.code`.
    thread_code: Vec<Op>,
    /// Block-, lane- and thread-level instructions by (operation, operands):
    /// task-mapping index trees repeat `threadIdx / 8`-style terms many
    /// times over.
    hoisted: HashMap<Op, Reg>,
    /// The loops around the statement being lowered, outermost first:
    /// `Place::Loop(n)` is `loops[n - 1]`.
    loops: Vec<OpenLoop>,
    /// The body fragment being emitted, and whether anything in it can fault.
    code: Vec<Op>,
    may_fault: bool,
    /// Finished body fragments.
    main: Vec<Op>,
    /// Innermost binding last; `None` marks a poisoned name (see [`leaked`]).
    env: Vec<(&'k str, Option<Val>)>,
    /// Parallel to `p.buffer_names`.
    slots: Vec<BufferSlot>,
    buffer_ids: HashMap<(MemScope, &'k str), u32>,
}

impl<'k> Lowerer<'k> {
    fn new(kernel: &'k Kernel) -> Lowerer<'k> {
        let elements = |bufs: &[BufferRef]| bufs.iter().map(|b| b.num_elements() as usize).sum();
        let program = Program {
            name: kernel.name().to_string(),
            grid_dim: kernel.launch().grid_dim as usize,
            block_dim: kernel.launch().block_dim as usize,
            shared_bytes: kernel.shared_bytes(),
            globals: Vec::new(),
            buffer_names: Vec::new(),
            accesses: Vec::new(),
            dims: Vec::new(),
            shared_len: elements(kernel.shared_buffers()),
            local_len: elements(kernel.local_buffers()),
            // Register 0 of the block space is `blockIdx`, of the lane space
            // `threadIdx`.
            block_init: vec![Value::I64(0)],
            block_idx: reg(BLOCK, 0),
            thread_idx: reg(LANE, 0),
            n_regs: 0,
            block_code: Vec::new(),
            lane_code: Vec::new(),
            n_lane: 0,
            lane_row: 0,
            lanes: OnceLock::new(),
            code: Vec::new(),
            thread_code_end: 0,
            nodes: Vec::new(),
            children: Vec::new(),
            root: 0,
            lockstep: kernel.body().contains_sync(),
            traps: Vec::new(),
        };
        let mut l = Lowerer {
            kernel,
            p: program,
            consts: HashMap::new(),
            n_lane: 1,
            n_thread: 0,
            n_loop: 0,
            temp_top: 0,
            temp_max: 0,
            lane_code: Vec::new(),
            thread_code: Vec::new(),
            hoisted: HashMap::new(),
            loops: Vec::new(),
            code: Vec::new(),
            may_fault: false,
            main: Vec::new(),
            env: Vec::new(),
            slots: Vec::new(),
            buffer_ids: HashMap::new(),
        };
        for (i, b) in kernel.params().iter().enumerate() {
            let len = b.num_elements() as usize;
            l.p.globals.push(Global {
                name: b.name().to_string(),
                expect: Some(len),
            });
            l.declare(b, Space::Global(i as u32), 0, len);
        }
        let mut base = 0;
        for b in kernel.shared_buffers() {
            let len = b.num_elements() as usize;
            l.declare(b, Space::Shared, base, len);
            base += len;
        }
        let mut base = 0;
        for b in kernel.local_buffers() {
            let len = b.num_elements() as usize;
            l.declare(b, Space::Local, base, len);
            base += len;
        }
        l
    }

    fn declare(&mut self, b: &'k BufferRef, space: Space, base: usize, len: usize) -> u32 {
        let id = self.slots.len() as u32;
        self.p.buffer_names.push(b.name().to_string());
        self.slots.push(BufferSlot { space, base, len });
        self.buffer_ids.insert((b.scope(), b.name()), id);
        id
    }

    /// The slot of the buffer an access names, looked up the way the tree
    /// walker did: by the *access's* scope and name. Undeclared global names
    /// are looked for in device memory at launch; undeclared shared and
    /// register names do not exist.
    fn buffer(&mut self, b: &'k BufferRef) -> u32 {
        if let Some(&id) = self.buffer_ids.get(&(b.scope(), b.name())) {
            return id;
        }
        let space = match b.scope() {
            MemScope::Global => {
                self.p.globals.push(Global {
                    name: b.name().to_string(),
                    expect: None,
                });
                Space::Global(self.p.globals.len() as u32 - 1)
            }
            MemScope::Shared | MemScope::Register => Space::Missing,
        };
        self.declare(b, space, 0, usize::MAX)
    }

    // ---- registers -------------------------------------------------------

    fn temp(&mut self) -> Reg {
        let r = reg(TEMP, self.temp_top);
        self.temp_top += 1;
        self.temp_max = self.temp_max.max(self.temp_top);
        r
    }

    fn konst(&mut self, v: Value) -> Val {
        let key = match v {
            Value::F32(x) => (0, x.to_bits() as u64),
            Value::I64(x) => (1, x as u64),
            Value::Bool(x) => (2, x as u64),
        };
        let next = reg(BLOCK, self.p.block_init.len() as u32);
        let r = *self.consts.entry(key).or_insert(next);
        if r == next {
            self.p.block_init.push(v);
        }
        Val {
            reg: r,
            ty: Ty::of(v),
            place: Place::Const,
            uniform: true,
            range: match v {
                Value::I64(x) => Some((x, x)),
                _ => None,
            },
        }
    }

    fn const_value(&self, v: Val) -> Option<Value> {
        (v.place == Place::Const).then(|| self.p.block_init[(v.reg & INDEX) as usize])
    }

    // ---- emission --------------------------------------------------------

    /// The instruction stream of a place other than the body, and the map
    /// that shares its instructions.
    fn level(&mut self, place: Place) -> (&mut Vec<Op>, &mut HashMap<Op, Reg>) {
        match place {
            Place::Loop(n) => {
                let open = &mut self.loops[n as usize - 1];
                (&mut open.prologue, &mut open.hoisted)
            }
            Place::Lane => (&mut self.lane_code, &mut self.hoisted),
            Place::Thread => (&mut self.thread_code, &mut self.hoisted),
            _ => (&mut self.p.block_code, &mut self.hoisted),
        }
    }

    /// A new register of the space the stream of `place` computes into.
    fn fresh(&mut self, place: Place) -> Reg {
        let (space, count) = match place {
            Place::Lane => (LANE, &mut self.n_lane),
            Place::Thread => (THREAD, &mut self.n_thread),
            Place::Loop(_) => (LOOP, &mut self.n_loop),
            _ => {
                self.p.block_init.push(Value::I64(0));
                return reg(BLOCK, self.p.block_init.len() as u32 - 1);
            }
        };
        *count += 1;
        reg(space, *count - 1)
    }

    /// Emits `op` — the instruction computing `val`, its destination not yet
    /// chosen — where `val.place` says it runs: into the block, lane or
    /// thread stream or the prologue of an open loop, shared with any
    /// identical instruction already there, or into the body fragment.
    /// Returns `val` with its register filled in.
    fn emit(&mut self, op: Op, val: Val, faults: bool) -> Val {
        debug_assert!(!faults || val.place == Place::Body);
        // (Constant operands that did not fold still make a block-level value.)
        let place = if val.place == Place::Const {
            Place::Block
        } else {
            val.place
        };
        if place == Place::Body {
            let reg = self.temp();
            self.code.push(op.with_dst(reg));
            self.may_fault |= faults;
            return Val { reg, place, ..val };
        }
        if let Some(&reg) = self.level(place).1.get(&op) {
            return Val { reg, place, ..val };
        }
        let reg = self.fresh(place);
        let (stream, shared) = self.level(place);
        stream.push(op.with_dst(reg));
        shared.insert(op, reg);
        Val { reg, place, ..val }
    }

    /// A fault the lowering can already see, raised if execution gets here.
    fn trap(&mut self, err: SimError) -> Val {
        let id = self.p.traps.len() as u32;
        self.p.traps.push(err);
        self.code.push(Op::Trap { id });
        self.may_fault = true;
        Val::body(self.temp(), Ty::Dyn)
    }

    /// Runs `f` with an empty body fragment and returns what it emitted.
    fn capture<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, Vec<Op>, bool) {
        let code = std::mem::take(&mut self.code);
        let may_fault = std::mem::replace(&mut self.may_fault, false);
        let out = f(self);
        let code = std::mem::replace(&mut self.code, code);
        let may_fault = std::mem::replace(&mut self.may_fault, may_fault);
        (out, code, may_fault)
    }

    fn splice(&mut self, code: Vec<Op>, may_fault: bool) {
        self.code.extend(code);
        self.may_fault |= may_fault;
    }

    /// `if cond { then_code } else { else_code }` over finished fragments.
    fn branch(&mut self, cond: Val, select: bool, mut then_code: Vec<Op>, else_code: Vec<Op>) {
        if !else_code.is_empty() {
            then_code.push(Op::Jump {
                skip: else_code.len() as u32,
            });
        }
        self.code.push(Op::Branch {
            cond: cond.reg,
            skip: then_code.len() as u32,
            select,
        });
        self.code.extend(then_code);
        self.code.extend(else_code);
        self.may_fault |= cond.ty != Ty::Bool;
    }

    /// `v` in a register: a memory operand is loaded now.
    fn in_reg(&mut self, v: Val) -> Val {
        if v.reg & MEM == 0 {
            return v;
        }
        let dst = self.temp();
        self.code.push(Op::Mov { dst, src: v.reg });
        Val { reg: dst, ..v }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self, e: &'k Expr) -> Val {
        let mark = self.temp_top;
        match e {
            Expr::Int(v) => self.konst(Value::I64(*v)),
            Expr::Float(v) => self.konst(Value::F32(*v)),
            Expr::Bool(v) => self.konst(Value::Bool(*v)),
            Expr::ThreadIdx => Val {
                reg: self.p.thread_idx,
                ty: Ty::I64,
                place: Place::Lane,
                uniform: false,
                range: Some((0, self.kernel.launch().block_dim - 1)),
            },
            // The only block of its grid: what would be block-level is
            // constant, and what would be thread-level is lane-level.
            Expr::BlockIdx if self.kernel.launch().grid_dim == 1 => self.konst(Value::I64(0)),
            Expr::BlockIdx => Val {
                reg: self.p.block_idx,
                ty: Ty::I64,
                place: Place::Block,
                uniform: true,
                range: Some((0, self.kernel.launch().grid_dim - 1)),
            },
            Expr::Var(v) => match self.env.iter().rev().find(|(n, _)| *n == v.name()) {
                Some((_, Some(val))) => *val,
                _ => self.trap(SimError::UnboundVar(v.name().to_string())),
            },
            Expr::Binary { op, lhs, rhs } => {
                let a = self.expr(lhs);
                let b = self.expr(rhs);
                self.temp_top = mark;
                self.binary(*op, a, b)
            }
            Expr::Unary { op, operand } => {
                let a = self.expr(operand);
                self.temp_top = mark;
                let (ty, faults) = unary_rule(*op, a.ty);
                if let (false, Some(x)) = (faults, self.const_value(a)) {
                    if let Some(v) = Value::unary(*op, x) {
                        return self.konst(v);
                    }
                }
                let val = Val {
                    reg: 0,
                    ty,
                    place: if faults { Place::Body } else { a.place },
                    uniform: !faults && a.uniform,
                    range: None,
                };
                let op = Op::Un {
                    op: *op,
                    dst: 0,
                    a: a.reg,
                };
                self.emit(op, val, faults)
            }
            Expr::Cast { dtype, value } => {
                let a = self.expr(value);
                self.temp_top = mark;
                if let Some(x) = self.const_value(a) {
                    return self.konst(x.cast(*dtype));
                }
                let ty = Ty::of(Value::I64(0).cast(*dtype));
                let range = if (a.ty, ty) == (Ty::I64, Ty::I64) {
                    a.range
                } else {
                    None
                };
                let op = Op::Cast {
                    dtype: *dtype,
                    dst: 0,
                    a: a.reg,
                };
                self.emit(op, Val { ty, range, ..a }, false)
            }
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => self.select(cond, then_value, else_value),
            Expr::Load { buffer, indices } => {
                let site = match self.access(buffer, indices, false) {
                    Ok(site) => site,
                    Err(trapped) => return trapped,
                };
                let load = Val::body(site.operand, Ty::F32);
                if site.proven {
                    // Left to its consumer — which reads the index registers
                    // then, so their temporaries stay allocated until it has.
                    return load;
                }
                self.temp_top = mark;
                self.may_fault = true;
                self.in_reg(load)
            }
        }
    }

    /// `a <op> b` over lowered operands: folded, hoisted or emitted in place.
    fn binary(&mut self, op: BinOp, a: Val, b: Val) -> Val {
        let (ty, faults) = binary_rule(op, a.ty, b.ty, self.const_value(b));
        if let (false, Some(x), Some(y)) = (faults, self.const_value(a), self.const_value(b)) {
            if let Some(v) = Value::binary(op, x, y) {
                return self.konst(v);
            }
        }
        let val = Val {
            reg: 0,
            ty,
            place: if faults {
                Place::Body
            } else {
                a.place.join(b.place)
            },
            uniform: !faults && a.uniform && b.uniform,
            range: match ty {
                Ty::I64 => binary_range(op, a.range, b.range),
                _ => None,
            },
        };
        let op = Op::Bin {
            op,
            dst: 0,
            a: a.reg,
            b: b.reg,
        };
        self.emit(op, val, faults)
    }

    /// `cond ? a : b` evaluates only the branch it takes. When neither
    /// branch needs code of its own that is a plain `Select`, which may be
    /// hoisted like any other operation; otherwise a branch around the two.
    fn select(&mut self, cond: &'k Expr, then_value: &'k Expr, else_value: &'k Expr) -> Val {
        let mark = self.temp_top;
        let c = self.expr(cond);
        if let Some(Value::Bool(taken)) = self.const_value(c) {
            return self.expr(if taken { then_value } else { else_value });
        }
        let c = self.in_reg(c);
        let after_cond = self.temp_top;
        let (t, t_code, t_fault) = self.capture(|l| l.expr(then_value));
        self.temp_top = after_cond;
        let (e, e_code, e_fault) = self.capture(|l| l.expr(else_value));
        self.temp_top = mark;
        let ty = if t.ty == e.ty { t.ty } else { Ty::Dyn };
        let cond_faults = c.ty != Ty::Bool;
        if t_code.is_empty() && e_code.is_empty() {
            let val = Val {
                reg: 0,
                ty,
                place: if cond_faults {
                    Place::Body
                } else {
                    c.place.join(t.place).join(e.place)
                },
                uniform: !cond_faults && c.uniform && t.uniform && e.uniform,
                range: t
                    .range
                    .zip(e.range)
                    .map(|(t, e)| (t.0.min(e.0), t.1.max(e.1))),
            };
            let op = Op::Select {
                dst: 0,
                cond: c.reg,
                a: t.reg,
                b: e.reg,
            };
            return self.emit(op, val, cond_faults);
        }
        let dst = self.temp();
        let deliver = |mut code: Vec<Op>, src: Reg| {
            if src != dst {
                code.push(Op::Mov { dst, src });
            }
            code
        };
        let else_code = deliver(e_code, e.reg);
        let then_code = deliver(t_code, t.reg);
        self.branch(c, true, then_code, else_code);
        self.may_fault |= t_fault || e_fault;
        Val::body(dst, ty)
    }

    /// Lowers the index expressions of one access — to `write` or to read —
    /// and records it. `Err` when the access is malformed: a trap has been
    /// emitted instead.
    ///
    /// The tree walker evaluated and bounds-checked one index at a time; a
    /// single fused check after all of them reports the same fault unless a
    /// later index expression can itself fault, in which case the earlier
    /// dimensions are checked ahead of it.
    fn access(
        &mut self,
        buffer: &'k BufferRef,
        indices: &'k [Expr],
        write: bool,
    ) -> Result<Site, Val> {
        if indices.len() != buffer.ndim() {
            return Err(self.trap(SimError::TypeError(format!(
                "access to {}: {} indices for rank-{} buffer",
                buffer.name(),
                indices.len(),
                buffer.ndim()
            ))));
        }
        let slot = self.buffer(buffer);
        let id = self.p.accesses.len() as u32;
        // Reserved now so early checks can name it; filled in below, once
        // nested accesses inside the index expressions have taken their dims.
        self.p.accesses.push(Access {
            space: Space::Missing,
            proven: false,
            offset: 0,
            limit: 0,
            buffer: slot,
            first_dim: 0,
            rank: 0,
            dtype: buffer.dtype(),
        });
        let shape = buffer.shape().iter().zip(buffer.strides());
        let mut dims: Vec<(Val, Dim)> = Vec::with_capacity(indices.len());
        let mut checked = 0;
        for (k, (index, (&extent, stride))) in indices.iter().zip(shape).enumerate() {
            let (v, code, fault) = self.capture(|l| {
                let v = l.expr(index);
                l.in_reg(v)
            });
            if fault {
                for dim in checked..k {
                    self.code.push(Op::Check {
                        access: id,
                        dim: dim as u32,
                    });
                }
                checked = k;
            }
            self.splice(code, fault);
            let dim = Dim {
                idx: v.reg,
                extent,
                stride: stride as usize,
            };
            dims.push((v, dim));
        }
        let in_bounds = dims.iter().all(|(v, d)| {
            v.ty == Ty::I64 && v.range.is_some_and(|(lo, hi)| lo >= 0 && hi < d.extent)
        });
        let BufferSlot { space, base, len } = self.slots[slot as usize];
        // In bounds of the access's own shape, of a buffer that exists and
        // is at least that large. (An early `Check` names a dimension by its
        // position, so an access that has one keeps them all.)
        let fits = buffer.num_elements() as usize <= len;
        let declared = self.declared(space);
        let proven = in_bounds && fits && declared && checked == 0;
        debug_assert!(id < ELEMENT);
        let mut offset = base;
        if proven {
            offset += self.fold_terms(&mut dims);
        }
        // Nothing left to add up, in the thread's own register arrays: the
        // element is the operand. A write converts to the element type, and
        // only an `f32`-stored type's conversion is the one every register
        // gets; any other keeps its access, which names the type.
        let as_f32 = matches!(buffer.dtype(), DType::F32 | DType::F16);
        if proven && space == Space::Local && dims.is_empty() && (as_f32 || !write) {
            debug_assert!(offset < ELEMENT as usize);
            if id as usize + 1 == self.p.accesses.len() {
                self.p.accesses.pop();
            }
            return Ok(Site {
                operand: MEM | ELEMENT | offset as u32,
                proven,
                declared,
            });
        }
        let first_dim = self.p.dims.len() as u32;
        self.p.dims.extend(dims.iter().map(|(_, d)| *d));
        self.p.accesses[id as usize] = Access {
            space,
            proven,
            offset,
            limit: len,
            buffer: slot,
            first_dim,
            rank: dims.len() as u32,
            dtype: buffer.dtype(),
        };
        Ok(Site {
            operand: MEM | id,
            proven,
            declared,
        })
    }

    /// Reduces the index of a proven access to the terms the executor has to
    /// add up every time: constant indices are summed into the returned
    /// offset, and two or more that are fixed at some level above the body
    /// are replaced by one hoisted register holding their `Σ index × stride`.
    fn fold_terms(&mut self, dims: &mut Vec<(Val, Dim)>) -> usize {
        let mut offset = 0;
        dims.retain(|(v, d)| match self.const_value(*v) {
            Some(Value::I64(i)) => {
                offset += i as usize * d.stride;
                false
            }
            _ => true,
        });
        let invariant = |v: &Val| v.place < Place::Body;
        if dims.iter().filter(|(v, _)| invariant(v)).count() >= 2 {
            // Coarsest first, so that partial sums stay at the coarser levels.
            let (mut fixed, varying): (Vec<_>, Vec<_>) =
                dims.drain(..).partition(|(v, _)| invariant(v));
            fixed.sort_by_key(|(v, _)| v.place);
            let mut sum: Option<Val> = None;
            for (v, d) in fixed {
                let term = if d.stride == 1 {
                    v
                } else {
                    let stride = self.konst(Value::I64(d.stride as i64));
                    self.binary(BinOp::Mul, v, stride)
                };
                sum = Some(match sum {
                    Some(sum) => self.binary(BinOp::Add, sum, term),
                    None => term,
                });
            }
            let sum = sum.expect("two or more terms");
            let base = Dim {
                idx: sum.reg,
                extent: i64::MAX,
                stride: 1,
            };
            dims.push((sum, base));
            dims.extend(varying);
        }
        offset
    }

    /// Whether a buffer in `space` is sure to exist when a launch runs.
    fn declared(&self, space: Space) -> bool {
        match space {
            Space::Global(g) => self.p.globals[g as usize].expect.is_some(),
            Space::Shared | Space::Local => true,
            Space::Missing => false,
        }
    }

    // ---- statements ------------------------------------------------------

    /// Lowers a barrier-free statement into the current body fragment.
    fn stmt(&mut self, s: &'k Stmt) {
        let mark = self.temp_top;
        let scope = self.env.len();
        match s {
            Stmt::Seq(items) => {
                for item in items {
                    self.stmt(item);
                }
                self.env.truncate(scope);
                self.temp_top = mark;
            }
            Stmt::Let { var, value } => {
                // The name aliases the value's register; a temporary stays
                // allocated until the enclosing scope resets the stack.
                let v = self.expr(value);
                let v = self.in_reg(v);
                self.env.push((var.name(), Some(v)));
            }
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                self.store(buffer, indices, value);
                self.temp_top = mark;
            }
            Stmt::For {
                var, extent, body, ..
            } => {
                let n = self.expr(extent);
                let n = self.in_reg(n);
                if let Some(Value::I64(trips)) = self.const_value(n) {
                    if trips <= UNROLL_TRIPS && self.unroll(var.name(), trips, body) {
                        self.temp_top = mark;
                        return;
                    }
                }
                let (var_reg, count) = (self.temp(), self.temp());
                self.open_loop(var.name(), var_reg, n, body, false);
                let ((), body_code, fault) = self.capture(|l| l.stmt(body));
                self.env.truncate(scope);
                let prologue = self.close_loop();
                let back = (prologue.len() + body_code.len()) as u32;
                self.code.push(Op::LoopEnter {
                    var: var_reg,
                    count,
                    extent: n.reg,
                    skip: back + 1,
                });
                self.code.extend(prologue);
                self.splice(body_code, fault || !matches!(n.ty, Ty::I64 | Ty::F32));
                self.code.push(Op::LoopNext {
                    var: var_reg,
                    count,
                    back,
                });
                self.temp_top = mark;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond);
                let c = self.in_reg(c);
                self.temp_top = mark;
                let branch = |l: &mut Self, body: Option<&'k Stmt>| {
                    let out = l.capture(|l| body.into_iter().for_each(|b| l.stmt(b)));
                    l.env.truncate(scope);
                    l.temp_top = mark;
                    out
                };
                if let Some(Value::Bool(taken)) = self.const_value(c) {
                    let ((), code, fault) = if taken {
                        branch(self, Some(then_body))
                    } else {
                        branch(self, else_body.as_deref())
                    };
                    self.splice(code, fault);
                } else {
                    let ((), then_code, then_fault) = branch(self, Some(then_body));
                    let ((), else_code, else_fault) = branch(self, else_body.as_deref());
                    self.branch(c, false, then_code, else_code);
                    self.may_fault |= then_fault || else_fault;
                }
                self.poison_leaked(s);
            }
            Stmt::SyncThreads | Stmt::Nop | Stmt::Comment(_) => {}
        }
    }

    /// `buffer[indices] = value`. The tree walker checked the indices, then
    /// evaluated the value, then wrote; the one `Store` instruction does its
    /// checking last, so where the indices are not proven in bounds and the
    /// value can fault, the dimensions are also checked ahead of the value.
    ///
    /// `b[i] = b[i] <op> x` is one read-modify-write: `b[i]` cannot change
    /// while `x` is evaluated, so reading it afterwards reads the same.
    fn store(&mut self, buffer: &'k BufferRef, indices: &'k [Expr], value: &'k Expr) {
        let Ok(Site {
            operand: to,
            proven,
            declared,
        }) = self.access(buffer, indices, true)
        else {
            return;
        };
        // (Reading a buffer that may not exist has to fail before `x` runs.)
        let (update, value) = match value {
            Expr::Binary { op, lhs, rhs } if declared => match &**lhs {
                Expr::Load {
                    buffer: from,
                    indices: at,
                } if from == buffer && at.as_slice() == indices => (Some(*op), &**rhs),
                _ => (None, value),
            },
            _ => (None, value),
        };
        let (v, mut code, fault) = self.capture(|l| l.expr(value));
        if fault && !proven {
            for dim in 0..indices.len() as u32 {
                let access = to & !MEM;
                self.code.push(Op::Check { access, dim });
            }
        }
        // `x` is a product whose instruction ends its code — computed right
        // here, every time — and cannot fault (its type is known): the
        // multiply-accumulate of a register tile.
        let product = match (value, code.last()) {
            (
                Expr::Binary { op: BinOp::Mul, .. },
                Some(&Op::Bin {
                    op: BinOp::Mul,
                    dst,
                    a,
                    b,
                }),
            ) if proven && update == Some(BinOp::Add) && dst == v.reg && v.ty != Ty::Dyn => {
                code.pop();
                Some((a, b))
            }
            _ => None,
        };
        self.splice(code, true);
        self.code.push(match (update, product) {
            (_, Some((a, b))) => Op::MulAdd { to, a, b },
            (Some(op), _) => Op::Update { op, to, src: v.reg },
            (None, _) => Op::Store { to, src: v.reg },
        });
    }

    /// Lowers a loop of `trips` iterations as that many copies of its body,
    /// the loop variable a constant in each — which makes tile-local index
    /// arithmetic (`ty * 4 + i`) lane-level and register-tile indices
    /// constants. Returns `false`, having emitted nothing, when the copies
    /// take more than [`UNROLL_OPS`] instructions.
    fn unroll(&mut self, name: &'k str, trips: i64, body: &'k Stmt) -> bool {
        let mark = self.temp_top;
        let scope = self.env.len();
        let start = self.checkpoint();
        let (fits, code, fault) = self.capture(|l| {
            for i in 0..trips {
                let var = l.konst(Value::I64(i));
                l.env.push((name, Some(var)));
                l.poison_leaked(body);
                l.stmt(body);
                l.env.truncate(scope);
                l.temp_top = mark;
                if l.emitted_since(&start) > UNROLL_OPS {
                    return false;
                }
            }
            true
        });
        if fits {
            self.splice(code, fault);
        } else {
            self.rollback(start);
        }
        fits
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            accesses: self.p.accesses.len(),
            dims: self.p.dims.len(),
            traps: self.p.traps.len(),
            block_regs: self.p.block_init.len(),
            block_code: self.p.block_code.len(),
            lane_regs: self.n_lane,
            lane_code: self.lane_code.len(),
            thread_regs: self.n_thread,
            thread_code: self.thread_code.len(),
            loop_regs: self.n_loop,
            prologues: self.loops.iter().map(|open| open.prologue.len()).collect(),
            hoisted_ops: self.hoisted_ops(),
        }
    }

    /// Instructions in every stream but the body's, open prologues included.
    fn hoisted_ops(&self) -> usize {
        let prologues: usize = self.loops.iter().map(|open| open.prologue.len()).sum();
        self.p.block_code.len() + self.lane_code.len() + self.thread_code.len() + prologues
    }

    /// Instructions emitted since `start`, hoisted ones included — into the
    /// prologues of the loops open then (and still) too.
    fn emitted_since(&self, start: &Checkpoint) -> usize {
        self.code.len() + self.hoisted_ops() - start.hoisted_ops
    }

    /// Forgets everything lowered since `start` but the buffers it named.
    fn rollback(&mut self, start: Checkpoint) {
        self.p.accesses.truncate(start.accesses);
        self.p.dims.truncate(start.dims);
        self.p.traps.truncate(start.traps);
        self.p.block_init.truncate(start.block_regs);
        self.p.block_code.truncate(start.block_code);
        self.n_lane = start.lane_regs;
        self.lane_code.truncate(start.lane_code);
        self.n_thread = start.thread_regs;
        self.thread_code.truncate(start.thread_code);
        self.n_loop = start.loop_regs;
        let live = |r: &mut Reg| {
            let index = *r & INDEX;
            match *r >> SPACE_SHIFT {
                BLOCK => (index as usize) < start.block_regs,
                LANE => index < start.lane_regs,
                THREAD => index < start.thread_regs,
                _ => index < start.loop_regs,
            }
        };
        self.consts.retain(|_, r| live(r));
        self.hoisted.retain(|_, r| live(r));
        // Whatever the attempt opened it also closed: these are the loops
        // that were open at `start`.
        for (open, &len) in self.loops.iter_mut().zip(&start.prologues) {
            open.prologue.truncate(len);
            open.hoisted.retain(|_, r| live(r));
        }
    }

    /// Opens a loop that stays a loop: binds its variable, running to
    /// `extent` and fixed for an iteration of this loop, and poisons what the
    /// body would leak from one iteration into the next.
    fn open_loop(&mut self, name: &'k str, var: Reg, extent: Val, body: &'k Stmt, uniform: bool) {
        self.loops.push(OpenLoop::default());
        let val = Val {
            reg: var,
            ty: Ty::I64,
            place: Place::Loop(self.loops.len() as u32),
            uniform,
            // The body only runs while `0 <= var < extent`.
            range: match (extent.ty, extent.range) {
                (Ty::I64, Some((_, hi))) if hi >= 1 => Some((0, hi - 1)),
                _ => None,
            },
        };
        self.env.push((name, Some(val)));
        self.poison_leaked(body);
    }

    /// Closes the innermost open loop; returns its iteration prologue.
    fn close_loop(&mut self) -> Vec<Op> {
        self.loops.pop().expect("a loop is open").prologue
    }

    fn poison_leaked(&mut self, s: &'k Stmt) {
        let mut names = Vec::new();
        leaked(s, &mut names);
        self.env.extend(names.into_iter().map(|n| (n, None)));
    }

    // ---- the lockstep skeleton -------------------------------------------

    fn push_node(&mut self, node: Node) -> u32 {
        self.p.nodes.push(node);
        self.p.nodes.len() as u32 - 1
    }

    /// Moves a finished fragment into the program; returns where it sits.
    fn place_code(&mut self, code: Vec<Op>) -> (u32, u32) {
        let start = self.main.len() as u32;
        self.main.extend(code);
        (start, self.main.len() as u32)
    }

    /// Lowers a statement executed by the whole block. A subtree with a
    /// barrier in it becomes skeleton nodes; a barrier-free one becomes one
    /// leaf that every thread runs to completion (`None` if it needs no
    /// code at all).
    fn node(&mut self, s: &'k Stmt) -> Option<u32> {
        if !s.contains_sync() {
            let ((), code, _) = self.capture(|l| l.stmt(s));
            if code.is_empty() {
                return None;
            }
            let (start, end) = self.place_code(code);
            return Some(self.push_node(Node::Thread { start, end }));
        }
        let mark = self.temp_top;
        let scope = self.env.len();
        match s {
            Stmt::Seq(items) => {
                let kids: Vec<u32> = items.iter().filter_map(|item| self.node(item)).collect();
                self.env.truncate(scope);
                self.temp_top = mark;
                Some(self.seq_node(kids))
            }
            Stmt::For {
                var, extent, body, ..
            } => {
                let (extent, n) = self.control(extent, "loop extent");
                let var_reg = self.temp();
                self.open_loop(var.name(), var_reg, n, body, true);
                let body = self.node(body);
                let body = body.unwrap_or_else(|| self.seq_node(Vec::new()));
                self.env.truncate(scope);
                self.temp_top = mark;
                let prologue = self.close_loop();
                let prologue = self.place_code(prologue);
                Some(self.push_node(Node::For {
                    extent,
                    var: var_reg,
                    prologue,
                    body,
                }))
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cond, _) = self.control(cond, "branch condition");
                self.temp_top = mark;
                let branch = |l: &mut Self, body: &'k Stmt| {
                    let node = l.node(body);
                    l.env.truncate(scope);
                    l.temp_top = mark;
                    node
                };
                let then_node = branch(self, then_body);
                let then_node = then_node.unwrap_or_else(|| self.seq_node(Vec::new()));
                let else_node = else_body.as_deref().and_then(|e| branch(self, e));
                self.poison_leaked(s);
                Some(self.push_node(Node::If {
                    cond,
                    then_node,
                    else_node,
                }))
            }
            // A barrier needs no code: the skeleton runs in lockstep. Leaves
            // never contain one, so nothing else gets here.
            _ => None,
        }
    }

    fn seq_node(&mut self, kids: Vec<u32>) -> u32 {
        let first = self.p.children.len() as u32;
        let len = kids.len() as u32;
        self.p.children.extend(kids);
        self.push_node(Node::Seq { first, len })
    }

    /// A loop extent or branch condition that encloses a barrier.
    fn control(&mut self, e: &'k Expr, what: &str) -> (Control, Val) {
        let (v, code, fault) = self.capture(|l| {
            let v = l.expr(e);
            l.in_reg(v)
        });
        let (start, end) = self.place_code(code);
        let control = Control {
            start,
            end,
            reg: v.reg,
            uniform: v.uniform && !fault,
            message: format!(
                "{what} {e} differs across threads in kernel {}",
                self.kernel.name()
            ),
        };
        (control, v)
    }

    // ---- assembly --------------------------------------------------------

    fn finish(mut self) -> Program {
        self.p.root = match self.node(self.kernel.body()) {
            Some(root) => root,
            None => self.push_node(Node::Thread { start: 0, end: 0 }),
        };

        // Lane registers that anything but lane code reads go first: they
        // are the row a thread copies on entering a block.
        let mut row = vec![false; self.n_lane as usize];
        let mut note = |r: &mut Reg| {
            if *r & MEM == 0 && *r >> SPACE_SHIFT == LANE {
                row[(*r & INDEX) as usize] = true;
            }
        };
        let mut p = self.p;
        for op in self.thread_code.iter_mut().chain(self.main.iter_mut()) {
            op.for_each_reg(&mut note);
        }
        p.dims.iter_mut().for_each(|dim| note(&mut dim.idx));
        for node in &mut p.nodes {
            if let Node::For { extent: c, .. } | Node::If { cond: c, .. } = node {
                note(&mut c.reg);
            }
        }
        let (mut kept, mut rest) = (0, row.iter().filter(|&&read| read).count() as u32);
        p.lane_row = rest as usize;
        let lane_slots: Vec<u32> = row
            .iter()
            .map(|&read| {
                let next = if read { &mut kept } else { &mut rest };
                *next += 1;
                *next - 1
            })
            .collect();

        // Lay the register spaces out back to back and the thread stream in
        // front of the body fragments. The lane registers outside the row
        // exist only in the file lane code runs over, which has nothing
        // after them: there they take the numbers of what follows the row.
        let n_block = p.block_init.len() as u32;
        let (n_lane, n_thread, n_loop) = (p.lane_row as u32, self.n_thread, self.n_loop);
        p.n_lane = self.n_lane as usize;
        p.n_regs = (n_block + n_lane + n_thread + n_loop + self.temp_max) as usize;
        let resolve = move |r: &mut Reg| {
            if *r & MEM != 0 {
                return;
            }
            let index = *r & INDEX;
            *r = match *r >> SPACE_SHIFT {
                BLOCK => index,
                LANE => n_block + lane_slots[index as usize],
                THREAD => n_block + n_lane + index,
                LOOP => n_block + n_lane + n_thread + index,
                _ => n_block + n_lane + n_thread + n_loop + index,
            };
        };
        let shift = self.thread_code.len() as u32;
        p.thread_code_end = shift;
        p.code = self.thread_code;
        p.code.append(&mut self.main);
        p.lane_code = self.lane_code;
        let streams = [&mut p.block_code, &mut p.lane_code, &mut p.code];
        for op in streams.into_iter().flatten() {
            op.for_each_reg(&resolve);
        }
        for dim in &mut p.dims {
            resolve(&mut dim.idx);
        }
        for node in &mut p.nodes {
            let place = |c: &mut Control| {
                c.start += shift;
                c.end += shift;
                resolve(&mut c.reg);
            };
            match node {
                Node::Thread { start, end } => {
                    *start += shift;
                    *end += shift;
                }
                Node::For {
                    extent,
                    var,
                    prologue,
                    ..
                } => {
                    place(extent);
                    resolve(var);
                    prologue.0 += shift;
                    prologue.1 += shift;
                }
                Node::If { cond, .. } => place(cond),
                Node::Seq { .. } => {}
            }
        }
        resolve(&mut p.block_idx);
        resolve(&mut p.thread_idx);
        p
    }
}

impl Program {
    /// Lowers `kernel` once, for any number of launches. Never fails: what
    /// is wrong with a kernel is reported by the launch that runs into it.
    pub fn lower(kernel: &Kernel) -> Program {
        Lowerer::new(kernel).finish()
    }
}
