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

mod access;
mod expr;
mod place;
mod skeleton;
mod unroll;

use std::collections::HashMap;
use std::sync::OnceLock;

use hidet_ir::{BufferRef, Kernel, MemScope, Stmt};

use self::place::{Place, Ty, Val};
use self::unroll::UNROLL_TRIPS;
use super::program::{Control, Global, Node, Op, Program, Reg, Space, MEM};
use super::SimError;
use crate::value::Value;

#[cfg(doc)]
use self::skeleton::leaked;
#[cfg(doc)]
use super::program::ELEMENT;

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
