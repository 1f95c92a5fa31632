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
//! A barrier-free loop with a constant extent is lowered as copies of its
//! body with the loop variable a literal ([`Lowerer::unroll`]) when they fit
//! an instruction budget. Nothing else changes for it: the folding and the
//! places above do the rest, and a loop outside the budget lowers as a loop.

mod access;
mod chain;
mod expr;
mod grid;
mod guard;
mod linear;
mod map;
mod place;
mod skeleton;
mod unroll;
mod verdict;

use hidet_ir::{BinOp, BufferRef, Kernel, MemScope, Stmt};

use self::chain::{Chain, Part, Root};
use self::guard::Facts;
use self::linear::{Atom, Linear};
use self::map::{Map, Set};
use self::place::{Place, Ty, Val};
use super::program::{
    nesting, CodeRange, Control, Node, Op, Program, RangeKind, Reg, Space, COLUMN, FILE_SHIFT, INT,
    MEM, SCALAR,
};
use super::SimError;
use crate::value::Value;

#[cfg(doc)]
use self::skeleton::leaked;
#[cfg(doc)]
use super::program::ELEMENT;

// Registers are numbered per space while lowering, tagged with the type of
// the value they hold, and laid out — the block space as the scalar file,
// the others `[lane | thread | loop | temp]` in the lane file of their type
// — once the space sizes are known. Bit 31 is `MEM`, and such an operand is
// not a register.
const SPACE_SHIFT: u32 = 28;
const TY_SHIFT: u32 = 26;
const INDEX: u32 = (1 << TY_SHIFT) - 1;
const BLOCK: u32 = 0;
const LANE: u32 = 1;
const THREAD: u32 = 2;
const LOOP: u32 = 3;
const TEMP: u32 = 4;

fn reg(space: u32, ty: Ty, index: u32) -> Reg {
    debug_assert!(index <= INDEX);
    space << SPACE_SHIFT | (ty.file() - INT) << TY_SHIFT | index
}

/// The lane file (counted from `INT`) a register's tag names.
fn file_of(r: Reg) -> usize {
    (r >> TY_SHIFT & 3) as usize
}

/// A body fragment under construction, and what the lowering knows about it
/// as a whole.
#[derive(Default)]
struct Fragment {
    code: Vec<Op>,
    /// Something in it can fault.
    may_fault: bool,
    /// A loop in it is not proven to run as many trips in every thread of
    /// the block. (A branch may go either way: a wide range runs its sides
    /// under lane masks.)
    divergent: bool,
    /// A loop in it is not proven to run as many trips in every block.
    by_block: bool,
    /// Its proven accesses to shared and global buffers.
    touches: Vec<Touch>,
}

/// One proven `Load` / `Store` site of a shared or global buffer.
#[derive(PartialEq)]
struct Touch {
    /// Index into `buffer_names`.
    buffer: u32,
    store: bool,
    /// The element within the buffer's space, where its index arithmetic is
    /// understood: a sum — or, with `through`, the sum the element is a
    /// function of.
    address: Option<Linear>,
    through: Option<(Chain, (i64, i64))>,
    /// Lane registers that must hold (or not) for it to happen at all.
    guard: Vec<(Reg, bool)>,
}

/// A range of `main` the skeleton runs for the whole block.
struct Stretch {
    kind: RangeKind,
    start: u32,
    end: u32,
    may_fault: bool,
    divergent: bool,
    by_block: bool,
    touches: Vec<Touch>,
}

/// A loop that stayed a loop, while its body is being lowered.
struct OpenLoop {
    /// Its variable's register, and a number no other loop has.
    var: Reg,
    id: u32,
    /// Most trips it can take, where its extent is bounded.
    trips: Option<i64>,
    /// Around a barrier: the whole block is in the same iteration, and its
    /// variable holds still for as long as a leaf of its body runs.
    skeleton: bool,
    /// What the body computes from this loop's variable (and coarser values)
    /// alone, into loop-space registers: run at the top of every iteration.
    prologue: Vec<Op>,
    /// The prologue's instructions by (operation, operands), shared like
    /// [`Lowerer::hoisted`].
    hoisted: Map<Op, Reg>,
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

    /// The register a value-producing instruction writes.
    fn dst(&self) -> Option<Reg> {
        match *self {
            Op::Bin { dst, .. }
            | Op::Un { dst, .. }
            | Op::Cast { dst, .. }
            | Op::Select { dst, .. }
            | Op::Mov { dst, .. } => Some(dst),
            _ => None,
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

/// A buffer the kernel declares or the body names.
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
    consts: Map<(u8, u64), Reg>,
    /// The type of every lane, thread and loop register: each is written by
    /// one instruction.
    lane_tys: Vec<Ty>,
    thread_tys: Vec<Ty>,
    loop_tys: Vec<Ty>,
    /// Temporaries are a stack; a slot holds values of different types over
    /// time, in the file of each. `temp_max` is the depth reached per file.
    temp_top: u32,
    temp_max: [u32; 4],
    /// Computes the lane registers; ends up as `p.lane_code`.
    lane_code: Vec<Op>,
    /// Computes the thread-invariant registers; ends up at the front of
    /// `p.code`.
    thread_code: Vec<Op>,
    /// Block-, lane- and thread-level instructions by (operation, operands):
    /// task-mapping index trees repeat `threadIdx / 8`-style terms many
    /// times over.
    hoisted: Map<Op, Reg>,
    /// The loops around the statement being lowered, outermost first:
    /// `Place::Loop(n)` is `loops[n - 1]`.
    loops: Vec<OpenLoop>,
    /// Loops opened so far.
    n_loops: u32,
    /// The sums behind block, thread and loop registers that hold index
    /// arithmetic (each is written by one instruction).
    linear_of: Map<Reg, Linear>,
    /// How the registers that are functions of one sum are computed, and
    /// the sums (with their intervals where used) that [`Val::root`] names.
    steps_of: Map<Reg, (BinOp, Part, Part)>,
    roots: Vec<Root>,
    /// Bounds the guards around the code being lowered put on registers,
    /// and the lane registers they decide it by (`guard.rs`).
    bounds: Vec<(Reg, (i64, i64))>,
    lane_guards: Vec<(Reg, bool)>,
    /// The body fragment being emitted.
    frag: Fragment,
    /// Finished body fragments, and the ranges among them: first the thread
    /// stream's (which ends up in front of `main`), then the skeleton's.
    main: Vec<Op>,
    stretches: Vec<Stretch>,
    /// Innermost binding last; `None` marks a poisoned name (see [`leaked`]).
    env: Vec<(&'k str, Option<Val>)>,
    /// Parallel to `p.buffer_names`: the kernel's parameters first.
    slots: Vec<BufferSlot>,
    /// The other buffers, by (scope, name).
    buffer_ids: Map<(MemScope, &'k str), u32>,
    /// Instructions the copies of one unrolled loop may take.
    budget: usize,
    /// Loops, by body and trips, whose copies outgrew it once.
    rolled: Set<(*const Stmt, i64)>,
}

impl<'k> Lowerer<'k> {
    fn new(kernel: &'k Kernel) -> Lowerer<'k> {
        let elements = |bufs: &[BufferRef]| bufs.iter().map(|b| b.num_elements() as usize).sum();
        let program = Program {
            grid_dim: kernel.launch().grid_dim as usize,
            block_dim: kernel.launch().block_dim as usize,
            side_by_side: 1,
            shared_bytes: kernel.shared_bytes(),
            shared_len: elements(kernel.shared_buffers()),
            local_len: elements(kernel.local_buffers()),
            // Register 0 of the block space is `blockIdx`, of the lane space
            // `threadIdx`.
            block_init: vec![Value::I64(0)],
            block_idx: reg(BLOCK, Ty::I64, 0),
            thread_idx: reg(LANE, Ty::I64, 0),
            ..Program::default()
        };
        let mut l = Lowerer {
            kernel,
            p: program,
            consts: Map::default(),
            lane_tys: vec![Ty::I64],
            thread_tys: Vec::new(),
            loop_tys: Vec::new(),
            temp_top: 0,
            temp_max: [0; 4],
            lane_code: Vec::new(),
            thread_code: Vec::new(),
            hoisted: Map::default(),
            loops: Vec::new(),
            n_loops: 0,
            linear_of: Map::default(),
            steps_of: Map::default(),
            roots: Vec::new(),
            bounds: Vec::new(),
            lane_guards: Vec::new(),
            frag: Fragment::default(),
            main: Vec::new(),
            stretches: vec![Stretch {
                kind: RangeKind::ThreadStream,
                start: 0,
                end: 0,
                may_fault: false,
                divergent: false,
                by_block: false,
                touches: Vec::new(),
            }],
            env: Vec::new(),
            slots: Vec::new(),
            buffer_ids: Map::default(),
            budget: unroll::budget(kernel),
            rolled: Set::default(),
        };
        for (i, b) in kernel.params().iter().enumerate() {
            let len = b.num_elements() as usize;
            l.p.buffer_names.push(format!("${i}"));
            l.slots.push(BufferSlot {
                space: Space::Global(i as u32),
                base: 0,
                len,
            });
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

    /// The slot of the buffer an access names: a parameter slot's is its
    /// parameter's, by position; any other is looked up the way the tree
    /// walker did, by the *access's* scope and name. Undeclared global
    /// names are looked for in device memory at launch; undeclared shared
    /// and register names do not exist.
    fn buffer(&mut self, b: &'k BufferRef) -> u32 {
        let params = self.kernel.params().len();
        if let Some(param) = b.param_index().filter(|&i| i < params) {
            return param as u32;
        }
        if let Some(&id) = self.buffer_ids.get(&(b.scope(), b.name())) {
            return id;
        }
        let space = match b.scope() {
            MemScope::Global => {
                self.p.undeclared.push(b.name().to_string());
                Space::Global((params + self.p.undeclared.len() - 1) as u32)
            }
            MemScope::Shared | MemScope::Register => Space::Missing,
        };
        self.declare(b, space, 0, usize::MAX)
    }

    // ---- registers -------------------------------------------------------

    /// A temporary for a value of type `ty`.
    fn temp(&mut self, ty: Ty) -> Reg {
        let r = reg(TEMP, ty, self.temp_top);
        self.temp_top += 1;
        let depth = &mut self.temp_max[file_of(r)];
        *depth = (*depth).max(self.temp_top);
        r
    }

    fn konst(&mut self, v: Value) -> Val {
        let key = match v {
            Value::F32(x) => (0, x.to_bits() as u64),
            Value::I64(x) => (1, x as u64),
            Value::Bool(x) => (2, x as u64),
        };
        let next = reg(BLOCK, Ty::of(v), self.p.block_init.len() as u32);
        let r = *self.consts.entry(key).or_insert(next);
        if r == next {
            self.p.block_init.push(v);
        }
        Val {
            reg: r,
            ty: Ty::of(v),
            place: Place::Const,
            uniform: true,
            by_block: false,
            range: match v {
                Value::I64(x) => Some((x, x)),
                _ => None,
            },
            root: None,
        }
    }

    fn const_value(&self, v: Val) -> Option<Value> {
        (v.place == Place::Const).then(|| self.p.block_init[(v.reg & INDEX) as usize])
    }

    /// `v` as a sum of lane, block-wide and leaf-loop parts, if it is one.
    fn linear(&self, v: Val) -> Option<Linear> {
        if v.ty != Ty::I64 {
            return None;
        }
        if let Some(Value::I64(konst)) = self.const_value(v) {
            return Some(Linear::konst(konst));
        }
        if let Some(sum) = self.linear_of.get(&v.reg) {
            return Some(*sum);
        }
        let atom = match v.place {
            Place::Lane => Atom::Lane(v.reg),
            Place::Block => Atom::Fixed(v.reg),
            Place::Loop(n) => {
                let open = &self.loops[n as usize - 1];
                match (open.skeleton, v.reg == open.var) {
                    (true, _) if v.uniform => Atom::Fixed(v.reg),
                    (false, true) if v.uniform => Atom::Var {
                        id: open.id,
                        trips: open.trips?,
                    },
                    _ => return None,
                }
            }
            _ => return None,
        };
        Some(Linear::atom(atom))
    }

    // ---- emission --------------------------------------------------------

    /// The instruction stream of a place other than the body, and the map
    /// that shares its instructions.
    fn level(&mut self, place: Place) -> (&mut Vec<Op>, &mut Map<Op, Reg>) {
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

    /// A new register, for a value of type `ty`, of the space the stream of
    /// `place` computes into.
    fn fresh(&mut self, place: Place, ty: Ty) -> Reg {
        let (space, tys) = match place {
            Place::Lane => (LANE, &mut self.lane_tys),
            Place::Thread => (THREAD, &mut self.thread_tys),
            Place::Loop(_) => (LOOP, &mut self.loop_tys),
            _ => {
                self.p.block_init.push(Value::I64(0));
                return reg(BLOCK, ty, self.p.block_init.len() as u32 - 1);
            }
        };
        tys.push(ty);
        reg(space, ty, tys.len() as u32 - 1)
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
            let reg = self.temp(val.ty);
            self.frag.code.push(op.with_dst(reg));
            self.frag.may_fault |= faults;
            return Val { reg, place, ..val };
        }
        if let Some(&reg) = self.level(place).1.get(&op) {
            return Val { reg, place, ..val };
        }
        let reg = self.fresh(place, val.ty);
        let (stream, shared) = self.level(place);
        stream.push(op.with_dst(reg));
        shared.insert(op, reg);
        Val { reg, place, ..val }
    }

    /// A fault the lowering can already see, raised if execution gets here.
    fn trap(&mut self, err: SimError) -> Val {
        let id = self.p.traps.len() as u32;
        self.p.traps.push(err);
        self.frag.code.push(Op::Trap { id });
        self.frag.may_fault = true;
        Val::body(self.temp(Ty::Dyn), Ty::Dyn)
    }

    /// Runs `f` with an empty body fragment and returns what it emitted.
    fn capture<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, Fragment) {
        let outer = std::mem::take(&mut self.frag);
        let out = f(self);
        (out, std::mem::replace(&mut self.frag, outer))
    }

    fn splice(&mut self, inner: Fragment) {
        self.frag.code.extend(inner.code);
        self.frag.may_fault |= inner.may_fault;
        self.frag.divergent |= inner.divergent;
        self.frag.by_block |= inner.by_block;
        self.frag.touches.extend(inner.touches);
    }

    /// `if cond { then_part } else { else_part }` over finished fragments.
    fn branch(&mut self, cond: Val, select: bool, mut then_part: Fragment, else_part: Fragment) {
        if !else_part.code.is_empty() {
            then_part.code.push(Op::Jump {
                skip: else_part.code.len() as u32,
            });
        }
        self.frag.code.push(Op::Branch {
            cond: cond.reg,
            skip: then_part.code.len() as u32,
            select,
        });
        self.splice(then_part);
        self.splice(else_part);
        self.frag.may_fault |= cond.ty != Ty::Bool;
    }

    /// `v` in a register: a memory operand is loaded now.
    fn in_reg(&mut self, v: Val) -> Val {
        if v.reg & MEM == 0 {
            return v;
        }
        let dst = self.temp(v.ty);
        self.frag.code.push(Op::Mov { dst, src: v.reg });
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
                    if self.unroll(var.name(), trips, body) {
                        self.temp_top = mark;
                        return;
                    }
                }
                let (var_reg, count) = (self.temp(Ty::I64), self.temp(Ty::I64));
                self.open_loop(var.name(), var_reg, n, body, false);
                let ((), mut body) = self.capture(|l| l.stmt(body));
                self.env.truncate(scope);
                let prologue = self.close_loop();
                let back = (prologue.len() + body.code.len()) as u32;
                self.frag.code.push(Op::LoopEnter {
                    var: var_reg,
                    count,
                    extent: n.reg,
                    skip: back + 1,
                });
                self.frag.code.extend(prologue);
                body.may_fault |= !matches!(n.ty, Ty::I64 | Ty::F32);
                body.divergent |= !n.uniform;
                body.by_block |= n.by_block;
                self.splice(body);
                self.frag.code.push(Op::LoopNext {
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
                let (c, facts) = self.guard(cond);
                let c = self.in_reg(c);
                self.temp_top = mark;
                let otherwise = Facts::otherwise(c);
                let branch = |l: &mut Self, body: Option<&'k Stmt>, facts: &Facts| {
                    let ((), part) = l.assuming(facts, |l| {
                        l.capture(|l| body.into_iter().for_each(|b| l.stmt(b)))
                    });
                    l.env.truncate(scope);
                    l.temp_top = mark;
                    part
                };
                if let Some(Value::Bool(taken)) = self.const_value(c) {
                    let part = if taken {
                        branch(self, Some(then_body), &Facts::default())
                    } else {
                        branch(self, else_body.as_deref(), &Facts::default())
                    };
                    self.splice(part);
                } else {
                    let then_body = (!facts.never).then_some(&**then_body);
                    let then_part = branch(self, then_body, &facts);
                    let else_part = branch(self, else_body.as_deref(), &otherwise);
                    self.branch(c, false, then_part, else_part);
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
            None => self.push_node(Node::Thread { start: 0, end: 0 }, None),
        };

        // Lane registers that anything but lane code reads go first in their
        // file: those columns are the table a block starts from.
        let mut row = vec![false; self.lane_tys.len()];
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
        for (&read, ty) in row.iter().zip(&self.lane_tys) {
            p.lane_columns[(ty.file() - INT) as usize] += read as usize;
        }
        let (mut kept, mut rest) = ([0u32; 4], p.lane_columns.map(|n| n as u32));
        let lane_slots: Vec<u32> = (row.iter().zip(&self.lane_tys))
            .map(|(&read, ty)| {
                let file = (ty.file() - INT) as usize;
                let next = if read {
                    &mut kept[file]
                } else {
                    &mut rest[file]
                };
                *next += 1;
                *next - 1
            })
            .collect();

        // Lay each file out `[lane | thread | loop | temp]` and the thread
        // stream in front of the body fragments. The lane registers outside
        // the table exist only in the files lane code runs over, which have
        // nothing after them: there they take the numbers of what follows.
        let number = |tys: &[Ty]| {
            let mut count = [0u32; 4];
            let slots: Vec<u32> = (tys.iter())
                .map(|ty| {
                    let next = &mut count[(ty.file() - INT) as usize];
                    *next += 1;
                    *next - 1
                })
                .collect();
            (slots, count)
        };
        let (thread_slots, n_thread) = number(&self.thread_tys);
        let (loop_slots, n_loop) = number(&self.loop_tys);
        let n_lane = p.lane_columns.map(|n| n as u32);
        for file in 0..4 {
            let columns = n_lane[file] + n_thread[file] + n_loop[file] + self.temp_max[file];
            p.columns[file] = columns as usize;
            p.lane_file[file] = rest[file] as usize;
        }
        let lanes = p.block_dim as u32;
        let resolve = move |r: &mut Reg| {
            if *r & MEM != 0 {
                return;
            }
            let (file, index) = (file_of(*r), *r & INDEX);
            let column = match *r >> SPACE_SHIFT {
                BLOCK => {
                    *r = SCALAR << FILE_SHIFT | index;
                    return;
                }
                LANE => lane_slots[index as usize],
                THREAD => n_lane[file] + thread_slots[index as usize],
                LOOP => n_lane[file] + n_thread[file] + loop_slots[index as usize],
                _ => n_lane[file] + n_thread[file] + n_loop[file] + index,
            };
            debug_assert!(column * lanes <= COLUMN);
            *r = ((file as u32 + INT) << FILE_SHIFT) | (column * lanes);
        };
        // The block-level registers, by scalar index and lane file: what
        // laying blocks side by side turns into columns.
        let dsts = p.block_code.iter().filter_map(Op::dst);
        let block_regs: Vec<(u32, usize)> = std::iter::once(p.block_idx)
            .chain(dsts)
            .map(|r| (r & INDEX, file_of(r)))
            .collect();
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

        // (The thread stream is range 0: it cannot fault and has no control
        // flow, as only instructions that cannot fault are hoisted.)
        self.stretches[0].end = shift;
        for stretch in &mut self.stretches[1..] {
            stretch.start += shift;
            stretch.end += shift;
            let sums = stretch.touches.iter_mut().flat_map(|t| &mut t.address);
            for (atom, _) in sums.flat_map(|sum| sum.terms_mut()) {
                if let Atom::Lane(r) = atom {
                    resolve(r);
                }
            }
            let guards = stretch.touches.iter_mut().flat_map(|t| &mut t.guard);
            guards.for_each(|(r, _)| resolve(r));
            let code = &p.code[stretch.start as usize..stretch.end as usize];
            p.mask_depth = p.mask_depth.max(nesting(code));
        }

        // Lane code runs now, once: what it computes is what a block's lane
        // columns start from, and what tells the threads of a range apart.
        let across = verdict::typed(&p, &p.lane_code);
        let lanes = super::exec::lane_registers(&p, across);
        p.ranges = (self.stretches.iter())
            .map(|s| CodeRange {
                kind: s.kind,
                instructions: (s.end - s.start) as usize,
                verdict: verdict::judge(&p, s, lanes.as_ref().ok()),
            })
            .collect();
        let slots = &self.slots;
        let global = |b: u32| match slots[b as usize].space {
            Space::Global(_) => Some(slots[b as usize].len),
            _ => None,
        };
        let side = grid::side_by_side(&p, &self.stretches, global, lanes.as_ref().ok());
        if side > 1 {
            grid::spread(&mut p, side, &block_regs);
        }
        match lanes {
            Ok(table) => p.lanes = table,
            Err(fault) => p.lane_fault = Some(fault),
        }
        p.lanes
            .keep(p.lane_columns.map(|columns| columns * p.block_dim));
        p
    }
}

impl Program {
    /// Lowers `kernel` once, for any number of launches — its own and those
    /// of every kernel of its definition: lowering reads no name the kernel
    /// or its parameters go by. Never fails: what is wrong with a kernel is
    /// reported by the launch that runs into it.
    pub fn lower(kernel: &Kernel) -> Program {
        Lowerer::new(kernel).finish()
    }
}
