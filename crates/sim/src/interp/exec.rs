//! The flat executor: runs a [`Program`] against device memory.
//!
//! A launch runs the grid in passes, in grid order. A pass is one block —
//! or, where the lowering proved the blocks apart ([`Program::side_by_side`]:
//! every range wide, every control around a barrier the same in every
//! block, no global element touched by two blocks where either touch is a
//! store), consecutive blocks side by side, their threads the lanes of one
//! wide pass, each block with shared memory of its own. A launch handed
//! aliasing buffers runs one block a pass all the same. Within a pass the
//! lockstep skeleton is walked once for all its threads: a leaf is run by
//! every thread to completion before the next node starts — which is all a
//! barrier asks for — and loop extents and branch conditions around barriers
//! must agree across the block. Inside a leaf the instructions are a
//! straight array with relative jumps.
//!
//! The registers of a pass are stored **lane-major**, in one file per
//! static type: column `c` of a file is the values register `c` holds, one
//! per thread of the pass. Every range of code the skeleton runs for the
//! whole block carries the lowering's [`Verdict`]: a per-thread range is run
//! by each thread in turn, [`Block::step`] reading and writing that thread's
//! lane of each column; a wide range is run once, [`Block::wide`] executing
//! each instruction for all lanes before the next. Both run over the same
//! storage, so moving between them converts nothing.
//!
//! Each stream of hoisted instructions runs at its level: lane code once per
//! program (into the table a launch copies into every block's lane columns),
//! block code once per block (once per pass, across the lanes of its blocks,
//! where they run side by side), thread code once per thread per block, and
//! a loop's prologue at the top of each of its iterations.

use std::cell::Cell;

use hidet_ir::{BinOp, BufferRef, DType, Kernel};

use super::program::{
    Access, Columns, Control, LaneTable, Node, Op, Program, Reg, Space, Verdict, BOOL, COLUMN,
    ELEMENT, FILE_SHIFT, FLOAT, INT, MEM, SCALAR,
};
use super::SimError;
use crate::memory::{BufferId, DeviceMemory};
use crate::spec::GpuSpec;
use crate::value::Value;

/// A fault on its way out of the interpreter loop. Boxed so that the
/// results the loop passes around on every instruction stay two words wide;
/// the allocation only happens once a launch has already failed.
pub(super) type Fault = Box<SimError>;

/// Launches `program` as `kernel` against `memory`; `buffers` are the
/// program's global buffers as [`Program::resolve`] orders them. See
/// [`crate::Gpu::launch`].
pub(crate) fn launch(
    program: &Program,
    kernel: &Kernel,
    buffers: &[Option<BufferId>],
    memory: &mut DeviceMemory,
    spec: &GpuSpec,
) -> Result<(), SimError> {
    // One span per launch; the simulated device has no request context, so
    // the span is unattributed (trace id 0). The guard closes the span on
    // every return path, validation errors included.
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::KernelSim, 0);
    let (shared, allowed) = (program.shared_bytes, spec.shared_mem_per_block);
    if shared > allowed {
        return Err(SimError::ResourceLimit(format!(
            "kernel {} needs {shared} B of shared memory; device allows {allowed} B per block",
            kernel.name()
        )));
    }
    if program.block_dim as i64 > spec.max_threads_per_sm as i64 {
        return Err(SimError::ResourceLimit(format!(
            "block of {} threads exceeds {} threads per SM",
            program.block_dim, spec.max_threads_per_sm
        )));
    }
    for (i, param) in kernel.params().iter().enumerate() {
        let name = || param.name().to_string();
        let id = buffers.get(i).copied().flatten();
        let id = id.ok_or_else(|| SimError::MissingBuffer(name()))?;
        let (expected, actual) = (param.num_elements() as usize, memory.slice(id).len());
        if actual != expected {
            return Err(SimError::BufferSizeMismatch {
                name: name(),
                expected,
                actual,
            });
        }
    }
    if let Some(fault) = &program.lane_fault {
        return Err(fault.clone());
    }
    // The lowering proved threads apart buffer by buffer, and blocks apart
    // where it laid them side by side; where two buffers are the same
    // storage, blocks run one by one and every range keeps thread order.
    let in_turn = memory.aliased(buffers);
    let (side, threads) = (program.side_by_side.max(1), program.block_dim);
    let lanes = side * threads;
    let mut machine = Machine {
        p: program,
        kernel,
        globals: buffers,
        in_turn,
        memory,
        regs: Regs::new(program, program.columns, lanes),
        shared: vec![0.0; program.shared_len * side],
        bases: match side {
            1 => Vec::new(),
            _ => (0..lanes)
                .map(|lane| lane / threads * program.shared_len)
                .collect(),
        },
    };
    machine.regs.tile(&program.lanes, threads);
    let per_pass = if in_turn { 1 } else { side };
    let mut first = 0;
    while first < program.grid_dim {
        let blocks = per_pass.min(program.grid_dim - first);
        machine.run_pass(first, blocks).map_err(|fault| *fault)?;
        first += blocks;
    }
    Ok(())
}

/// Runs `p.lane_code`: every lane register — the ones in the table first in
/// each file, then the ones only lane code reads — for every thread of a
/// block. Lane code reads `threadIdx` and constants, nothing of a launch;
/// it cannot fault and has no control flow, so it runs `across` the lanes
/// if it is typed.
pub(super) fn lane_registers(p: &Program, across: bool) -> Result<LaneTable, SimError> {
    let mut regs = Regs::new(p, p.lane_file, p.block_dim);
    let mut block = Block {
        p,
        regs: regs.lanes(),
        shared: &[],
        bases: &[],
        memory: &mut DeviceMemory::new(),
        globals: &[],
        params: &[],
    };
    let threads = 0..p.block_dim;
    let ran = (threads.clone())
        .try_for_each(|lane| block.set(p.thread_idx, lane, Value::I64(lane as i64)))
        .and_then(|()| match across {
            true => block.wide(&p.lane_code),
            false => threads
                .clone()
                .try_for_each(|lane| block.step(&p.lane_code, lane)),
        });
    ran.map_err(|fault| *fault)?;
    Ok(LaneTable {
        ints: regs.ints,
        floats: regs.floats,
        bools: regs.bools,
        dyns: regs.dyns,
    })
}

/// The block-level registers `regs` (scalar indices) of every block of the
/// grid, block after block, as block code computes them — run at lowering,
/// before the program's registers are laid out for blocks side by side.
pub(super) fn block_values(p: &Program, regs: &[u32]) -> Result<Vec<Value>, SimError> {
    let (mut file, mut memory) = (Regs::new(p, [0; 4], 0), DeviceMemory::new());
    let mut values = Vec::with_capacity(p.grid_dim * regs.len());
    for block in 0..p.grid_dim {
        file.scalars.copy_from_slice(&p.block_init);
        file.scalars[(p.block_idx & COLUMN) as usize] = Value::I64(block as i64);
        let mut run = Block {
            p,
            regs: file.lanes(),
            shared: &[],
            bases: &[],
            memory: &mut memory,
            globals: &[],
            params: &[],
        };
        run.step(&p.block_code, 0).map_err(|fault| *fault)?;
        values.extend(regs.iter().map(|&r| file.scalars[r as usize]));
    }
    Ok(values)
}

/// The registers of one pass over the grid: of one block, or of the blocks
/// a pass runs side by side. A file holds one column of `stride` lanes per
/// register, back to back, of which the pass uses the first `n`; `scalars`
/// holds the block-level values, and `locals` the threads' register arrays,
/// laid out like a file: element `e` of every thread's arrays is column `e`.
#[derive(Clone)]
pub(super) struct Regs {
    pub(super) scalars: Vec<Value>,
    pub(super) ints: Vec<i64>,
    pub(super) floats: Vec<f32>,
    pub(super) bools: Vec<bool>,
    pub(super) dyns: Vec<Value>,
    pub(super) locals: Vec<f32>,
    /// Per lane, the element an access addresses and — one column per source
    /// operand — what was loaded from it: scratch for [`Block::wide`].
    at: Vec<usize>,
    loaded: Vec<f32>,
    /// Two lane masks (a branch's then and else side) per level of nesting.
    masks: Vec<bool>,
    /// Lanes per column, and how many of them the pass runs.
    stride: usize,
    n: usize,
}

impl Regs {
    pub(super) fn new(p: &Program, [ints, floats, bools, dyns]: Columns, n: usize) -> Regs {
        Regs {
            scalars: p.block_init.clone(),
            ints: vec![0; ints * n],
            floats: vec![0.0; floats * n],
            bools: vec![false; bools * n],
            dyns: vec![Value::I64(0); dyns * n],
            locals: vec![0.0; p.local_len * n],
            at: vec![0; n],
            loaded: vec![0.0; 2 * n],
            masks: vec![false; 2 * p.mask_depth * n],
            stride: n,
            n,
        }
    }

    /// Copies the lane table, `threads` lanes a column, into the front
    /// columns of each file: once for every block a column holds. Nothing
    /// but lane code writes those columns, so a launch copies them once.
    fn tile(&mut self, table: &LaneTable, threads: usize) {
        fn tile<T: Copy>(file: &mut [T], table: &[T], threads: usize, stride: usize) {
            for (column, values) in table.chunks_exact(threads.max(1)).enumerate() {
                for block in file[column * stride..][..stride].chunks_exact_mut(threads) {
                    block.copy_from_slice(values);
                }
            }
        }
        tile(&mut self.ints, &table.ints, threads, self.stride);
        tile(&mut self.floats, &table.floats, threads, self.stride);
        tile(&mut self.bools, &table.bools, threads, self.stride);
        tile(&mut self.dyns, &table.dyns, threads, self.stride);
    }

    /// The registers as instructions see them.
    pub(super) fn lanes(&mut self) -> Lanes<'_> {
        Lanes {
            n: self.n,
            stride: self.stride,
            scalars: cells(&mut self.scalars),
            ints: cells(&mut self.ints),
            floats: cells(&mut self.floats),
            bools: cells(&mut self.bools),
            dyns: cells(&mut self.dyns),
            locals: cells(&mut self.locals),
            at: cells(&mut self.at[..self.n]),
            loaded: cells(&mut self.loaded),
            masks: cells(&mut self.masks),
        }
    }
}

/// A slice whose elements can be written through a shared reference: an
/// instruction's destination column may be one of its source columns.
fn cells<T>(slice: &mut [T]) -> &[Cell<T>] {
    Cell::from_mut(slice).as_slice_of_cells()
}

/// [`Regs`], borrowed for running instructions.
#[derive(Clone, Copy)]
pub(super) struct Lanes<'a> {
    /// Lanes the pass runs: its blocks' threads.
    pub(super) n: usize,
    /// Lanes per column.
    pub(super) stride: usize,
    pub(super) scalars: &'a [Cell<Value>],
    pub(super) ints: &'a [Cell<i64>],
    pub(super) floats: &'a [Cell<f32>],
    pub(super) bools: &'a [Cell<bool>],
    pub(super) dyns: &'a [Cell<Value>],
    pub(super) locals: &'a [Cell<f32>],
    pub(super) at: &'a [Cell<usize>],
    pub(super) loaded: &'a [Cell<f32>],
    pub(super) masks: &'a [Cell<bool>],
}

/// The column of `n` lanes that starts at `start` of a file.
#[inline(always)]
pub(super) fn column<T>(file: &[Cell<T>], start: usize, n: usize) -> &[Cell<T>] {
    &file[start..][..n]
}

/// The state of one launch: storage is allocated once and reused by every
/// pass.
struct Machine<'a> {
    p: &'a Program,
    /// The kernel the program runs as: what faults name.
    kernel: &'a Kernel,
    globals: &'a [Option<BufferId>],
    memory: &'a mut DeviceMemory,
    /// No range of this launch runs wide, and a pass runs one block.
    in_turn: bool,
    regs: Regs,
    /// The shared memory of each block of a pass, one after another.
    shared: Vec<f32>,
    /// Per lane, where its block's shared memory starts: empty where a
    /// pass is one block.
    bases: Vec<usize>,
}

impl Machine<'_> {
    /// What the block's instructions run over.
    fn block(&mut self) -> Block<'_> {
        Block {
            p: self.p,
            regs: self.regs.lanes(),
            shared: cells(&mut self.shared),
            bases: &self.bases,
            memory: self.memory,
            globals: self.globals,
            params: self.kernel.params(),
        }
    }

    /// Starts the `blocks` blocks from `first` on as one pass — their
    /// block-level registers computed, shared memory and register arrays
    /// zeroed, every thread's thread-invariant registers computed — and
    /// runs them. Where the lowering laid blocks side by side, `blockIdx`
    /// and what is computed from it are columns, one lane per thread of
    /// every block; otherwise a pass is one block and they are scalars.
    fn run_pass(&mut self, first: usize, blocks: usize) -> Result<(), Fault> {
        let p = self.p;
        self.regs.n = blocks * p.block_dim;
        self.regs.scalars.copy_from_slice(&p.block_init);
        let at = (p.block_idx & COLUMN) as usize;
        if p.block_idx >> FILE_SHIFT == SCALAR {
            self.regs.scalars[at] = Value::I64(first as i64);
            self.block().step(&p.block_code, 0)?;
        } else {
            let lanes = self.regs.ints[at..][..self.regs.n].iter_mut();
            for (lane, block) in lanes.enumerate() {
                *block = (first + lane / p.block_dim) as i64;
            }
            self.block().wide(&p.block_code)?;
        }
        self.shared[..blocks * p.shared_len].fill(0.0);
        self.regs.locals.fill(0.0);
        self.run(0, (0, p.thread_code_end))?;
        self.exec(p.root)
    }

    /// Runs range `range`, which is `code[start..end]`, for the whole pass:
    /// every instruction across all lanes, or every thread in thread order.
    fn run(&mut self, range: u32, (start, end): (u32, u32)) -> Result<(), Fault> {
        let p = self.p;
        let code = &p.code[start as usize..end as usize];
        let verdict = p.ranges.get(range as usize).map(|r| &r.verdict);
        let wide = matches!(verdict, Some(Verdict::Wide)) && !self.in_turn;
        let mut block = self.block();
        if wide {
            return block.wide(code);
        }
        (0..block.regs.n).try_for_each(|lane| block.step(code, lane))
    }

    /// Executes a skeleton node for the whole block.
    fn exec(&mut self, node: u32) -> Result<(), Fault> {
        let p = self.p;
        let range = p.node_range[node as usize];
        match &p.nodes[node as usize] {
            Node::Thread { start, end } => self.run(range, (*start, *end)),
            Node::Seq { first, len } => {
                for &child in &p.children[*first as usize..][..*len as usize] {
                    self.exec(child)?;
                }
                Ok(())
            }
            Node::For {
                extent,
                var,
                prologue,
                body,
            } => {
                let n = self.uniform(extent, Value::as_i64, "loop extent must be integer")?;
                for i in 0..n {
                    self.block().fill(*var, Value::I64(i))?;
                    self.run(range, *prologue)?;
                    self.exec(*body)?;
                }
                Ok(())
            }
            Node::If {
                cond,
                then_node,
                else_node,
            } => {
                let taken = self.uniform(cond, Value::as_bool, "condition must be boolean")?;
                match (taken, else_node) {
                    (true, _) => self.exec(*then_node),
                    (false, Some(e)) => self.exec(*e),
                    (false, None) => Ok(()),
                }
            }
        }
    }

    /// The block-wide value of a control expression around a barrier. One
    /// evaluation when uniformity was proven at lowering; otherwise every
    /// thread evaluates it and all must agree with thread 0.
    fn uniform<T: PartialEq>(
        &mut self,
        c: &Control,
        get: fn(Value) -> Option<T>,
        type_error_message: &str,
    ) -> Result<T, Fault> {
        let code = &self.p.code[c.start as usize..c.end as usize];
        let threads = self.regs.n;
        let mut block = self.block();
        block.step(code, 0)?;
        let first = get(block.get(c.reg, 0)).ok_or_else(|| type_error(type_error_message))?;
        if !c.uniform {
            for lane in 1..threads {
                block.step(code, lane)?;
                if get(block.get(c.reg, lane)).as_ref() != Some(&first) {
                    let message = format!("{} in kernel {}", c.message, self.kernel.name());
                    return Err(Box::new(SimError::NonUniformControl(message)));
                }
            }
        }
        Ok(first)
    }
}

#[cold]
fn type_error(message: &str) -> Fault {
    Box::new(SimError::TypeError(message.to_string()))
}

#[cold]
fn out_of_bounds(b: &Block, a: &Access, dim: usize, index: i64, extent: i64) -> Fault {
    Box::new(SimError::OutOfBounds {
        buffer: b.p.buffer_name(b.params, a.buffer).to_string(),
        dim,
        index,
        extent,
    })
}

#[cold]
pub(super) fn missing(b: &Block, a: &Access) -> Fault {
    let name = b.p.buffer_name(b.params, a.buffer);
    Box::new(SimError::MissingBuffer(name.to_string()))
}

/// An access whose own shape addresses more elements than its buffer was
/// declared with (the tree walker panicked here).
#[cold]
pub(super) fn past_the_end(p: &Program, params: &[BufferRef], a: &Access, flat: usize) -> Fault {
    type_error(&format!(
        "access reaches element {flat} of buffer {}, past its end",
        p.buffer_name(params, a.buffer)
    ))
}

/// The lowering only makes an operand of an element its thread has.
#[cold]
fn no_such_element(at: usize) -> Fault {
    type_error(&format!(
        "register-array element {at} is past the thread's storage"
    ))
}

/// The lowering gives a register the file of the type its value has.
#[cold]
fn wrong_file(v: Value) -> Fault {
    type_error(&format!(
        "{v:?} written to a register the lowering typed otherwise"
    ))
}

/// The offset an [`ELEMENT`] operand carries.
#[inline(always)]
pub(super) fn element_offset(operand: u32) -> usize {
    (operand & !(MEM | ELEMENT)) as usize
}

/// `Value::binary`, with its one failure mode named as the tree walker
/// named it.
#[inline(always)]
fn binary(op: BinOp, a: Value, b: Value) -> Result<Value, Fault> {
    Value::binary(op, a, b).ok_or_else(|| Box::new(SimError::DivByZero))
}

/// A stored value converted to its buffer's element type, as `f32`.
#[inline(always)]
fn store_value(v: Value, dtype: DType) -> Result<f32, Fault> {
    v.cast(dtype)
        .as_f32()
        .ok_or_else(|| type_error("stored value must be numeric"))
}

/// Everything the instructions of a block can touch.
pub(super) struct Block<'a> {
    pub(super) p: &'a Program,
    pub(super) regs: Lanes<'a>,
    pub(super) shared: &'a [Cell<f32>],
    /// Per lane, where its block's part of `shared` starts: empty where
    /// every lane's starts at 0.
    pub(super) bases: &'a [usize],
    pub(super) memory: &'a mut DeviceMemory,
    pub(super) globals: &'a [Option<BufferId>],
    /// The parameters of the kernel the program runs as, for fault reports.
    pub(super) params: &'a [BufferRef],
}

impl<'a> Block<'a> {
    /// Thread `lane`'s value of register `r`.
    #[inline(always)]
    pub(super) fn get(&self, r: Reg, lane: usize) -> Value {
        let (regs, c) = (&self.regs, (r & COLUMN) as usize);
        match r >> FILE_SHIFT {
            SCALAR => regs.scalars[c].get(),
            INT => Value::I64(regs.ints[c + lane].get()),
            FLOAT => Value::F32(regs.floats[c + lane].get()),
            BOOL => Value::Bool(regs.bools[c + lane].get()),
            _ => regs.dyns[c + lane].get(),
        }
    }

    /// Thread `lane`'s value of register `r` if it is an integer one: index
    /// arithmetic, the bulk of what runs per thread, reads its file directly.
    #[inline(always)]
    fn int(&self, r: Reg, lane: usize) -> Option<i64> {
        let (regs, c) = (&self.regs, (r & COLUMN) as usize);
        match r >> FILE_SHIFT {
            INT => Some(regs.ints[c + lane].get()),
            SCALAR => match regs.scalars[c].get() {
                Value::I64(x) => Some(x),
                _ => None,
            },
            _ => None,
        }
    }

    /// Writes thread `lane`'s value of register `r`.
    #[inline(always)]
    pub(super) fn set(&self, r: Reg, lane: usize, v: Value) -> Result<(), Fault> {
        let (regs, c) = (&self.regs, (r & COLUMN) as usize);
        match (r >> FILE_SHIFT, v) {
            (SCALAR, v) => regs.scalars[c].set(v),
            (INT, Value::I64(x)) => regs.ints[c + lane].set(x),
            (FLOAT, Value::F32(x)) => regs.floats[c + lane].set(x),
            (BOOL, Value::Bool(x)) => regs.bools[c + lane].set(x),
            (INT | FLOAT | BOOL, v) => return Err(wrong_file(v)),
            (_, v) => regs.dyns[c + lane].set(v),
        }
        Ok(())
    }

    /// Writes every thread's value of register `r`.
    pub(super) fn fill(&self, r: Reg, v: Value) -> Result<(), Fault> {
        if let (INT, Value::I64(x)) = (r >> FILE_SHIFT, v) {
            let lanes = column(self.regs.ints, (r & COLUMN) as usize, self.regs.n);
            lanes.iter().for_each(|lane| lane.set(x));
            return Ok(());
        }
        (0..self.regs.n).try_for_each(|lane| self.set(r, lane, v))
    }

    /// Bounds-checks one dimension of `a`; returns its index and stride.
    #[inline(always)]
    fn checked_index(&self, a: &Access, dim: usize, lane: usize) -> Result<(usize, usize), Fault> {
        let d = &self.p.dims[a.first_dim as usize + dim];
        let index = (self.int(d.idx, lane))
            .or_else(|| self.get(d.idx, lane).as_i64())
            .ok_or_else(|| type_error("index must be integer"))?;
        if index < 0 || index >= d.extent {
            return Err(out_of_bounds(self, a, dim, index, d.extent));
        }
        Ok((index as usize, d.stride))
    }

    /// The element of its buffer's space that access `a` addresses for
    /// thread `lane`. A proven access is `offset + Σ index × stride` over
    /// its non-constant terms, unchecked: the lowering showed it in bounds,
    /// and the storage slice's own `get` stands behind that. Any other has
    /// every dimension bounds-checked in order, and the sum checked against
    /// the buffer's declaration.
    #[inline(always)]
    fn address(&self, a: &Access, lane: usize) -> Result<usize, Fault> {
        if a.proven {
            let mut flat = a.offset;
            for d in &self.p.dims[a.first_dim as usize..][..a.rank as usize] {
                let Some(index) = self.int(d.idx, lane) else {
                    return Err(type_error("index must be integer"));
                };
                flat = flat.wrapping_add((index as usize).wrapping_mul(d.stride));
            }
            return Ok(flat);
        }
        let mut flat = 0;
        for dim in 0..a.rank as usize {
            let (index, stride) = self.checked_index(a, dim, lane)?;
            flat += index * stride;
        }
        if flat >= a.limit {
            return Err(past_the_end(self.p, self.params, a, flat));
        }
        Ok(a.offset + flat)
    }

    /// Element `at` of lane `lane`'s block's shared memory, if there is one.
    /// `bases` is empty or holds every lane of the pass, so the match goes
    /// the same way for every lane of a loop, and a one-block pass pays no
    /// per-lane lookup.
    #[inline(always)]
    pub(super) fn shared_at(&self, at: usize, lane: usize) -> Option<&'a Cell<f32>> {
        let base = match self.bases {
            [] => 0,
            bases => bases[lane],
        };
        self.shared.get(at.wrapping_add(base))
    }

    /// Thread `lane`'s element `at` of its register arrays, if it has one.
    #[inline(always)]
    pub(super) fn local(&self, at: usize, lane: usize) -> Option<&'a Cell<f32>> {
        let regs = self.regs;
        (at < self.p.local_len).then(|| &regs.locals[at * regs.stride + lane])
    }

    /// Element `at` of every thread's register arrays: a column.
    #[inline(always)]
    pub(super) fn element(&self, at: usize) -> Result<&'a [Cell<f32>], Fault> {
        if at >= self.p.local_len {
            return Err(no_such_element(at));
        }
        Ok(column(self.regs.locals, at * self.regs.stride, self.regs.n))
    }

    /// The global buffer access `a` is to, for reading.
    #[inline(always)]
    pub(super) fn global(&self, a: &Access, g: u32) -> Result<&[f32], Fault> {
        let id = self.globals.get(g as usize).copied().flatten();
        Ok(self.memory.slice(id.ok_or_else(|| missing(self, a))?))
    }

    /// The global buffer access `a` is to, for writing.
    #[inline(always)]
    pub(super) fn global_mut(&mut self, a: &Access, g: u32) -> Result<&mut [f32], Fault> {
        let id = self.globals.get(g as usize).copied().flatten();
        Ok(self.memory.slice_mut(id.ok_or_else(|| missing(self, a))?))
    }

    /// The element at `flat` of the storage access `a` addresses — a global
    /// buffer, the block's shared memory or thread `lane`'s register arrays.
    #[inline(always)]
    fn load(&self, a: &Access, flat: usize, lane: usize) -> Result<f32, Fault> {
        let element = match a.space {
            Space::Global(g) => self.global(a, g)?.get(flat).copied(),
            Space::Shared => self.shared_at(flat, lane).map(Cell::get),
            Space::Local => self.local(flat, lane).map(Cell::get),
            Space::Missing => return Err(missing(self, a)),
        };
        element.ok_or_else(|| past_the_end(self.p, self.params, a, flat))
    }

    /// A source operand: a register, an element of the thread's register
    /// arrays, or the element an access names: indices checked first, then
    /// the buffer looked up, as the tree walker ordered the two.
    #[inline(always)]
    fn fetch(&self, operand: u32, lane: usize) -> Result<Value, Fault> {
        if operand & MEM == 0 {
            return Ok(self.get(operand, lane));
        }
        if operand & ELEMENT != 0 {
            let at = element_offset(operand);
            let element = self.local(at, lane).ok_or_else(|| no_such_element(at))?;
            return Ok(Value::F32(element.get()));
        }
        let a = &self.p.accesses[(operand & !MEM) as usize];
        let flat = self.address(a, lane)?;
        Ok(Value::F32(self.load(a, flat, lane)?))
    }

    /// Where a memory operand written to points: its indices checked, its
    /// buffer not yet looked up.
    #[inline(always)]
    fn locate(&self, operand: u32, lane: usize) -> Result<Target<'a>, Fault> {
        if operand & ELEMENT != 0 {
            return Ok(Target {
                access: None,
                at: element_offset(operand),
            });
        }
        let a = &self.p.accesses[(operand & !MEM) as usize];
        Ok(Target {
            access: Some(a),
            at: self.address(a, lane)?,
        })
    }

    /// Thread `lane`'s element at `target`, for writing.
    #[inline(always)]
    fn slot(&mut self, target: Target<'_>, lane: usize) -> Result<&Cell<f32>, Fault> {
        let (p, params, at) = (self.p, self.params, target.at);
        let Some(a) = target.access else {
            return self.local(at, lane).ok_or_else(|| no_such_element(at));
        };
        let element = match a.space {
            Space::Global(g) => cells(self.global_mut(a, g)?).get(at),
            Space::Shared => self.shared_at(at, lane),
            Space::Local => self.local(at, lane),
            Space::Missing => return Err(missing(self, a)),
        };
        element.ok_or_else(|| past_the_end(p, params, a, at))
    }

    /// The per-thread interpreter loop: runs `code` to its end for thread
    /// `lane`.
    ///
    /// `Value::binary` / `unary` / `cast` are the only arithmetic; this
    /// function only moves values between registers and memory.
    pub(super) fn step(&mut self, code: &[Op], lane: usize) -> Result<(), Fault> {
        let mut pc = 0usize;
        while let Some(&op) = code.get(pc) {
            pc += 1;
            match op {
                Op::Bin { op, dst, a, b } => {
                    let value = match (self.int(a, lane), self.int(b, lane)) {
                        (Some(a), Some(b)) => binary(op, Value::I64(a), Value::I64(b))?,
                        _ => binary(op, self.fetch(a, lane)?, self.fetch(b, lane)?)?,
                    };
                    self.set(dst, lane, value)?;
                }
                Op::Un { op, dst, a } => {
                    let value = Value::unary(op, self.fetch(a, lane)?)
                        .ok_or_else(|| type_error(&format!("cannot apply {op:?}")))?;
                    self.set(dst, lane, value)?;
                }
                Op::Cast { dtype, dst, a } => {
                    let value = self.fetch(a, lane)?.cast(dtype);
                    self.set(dst, lane, value)?;
                }
                Op::Select { dst, cond, a, b } => {
                    let taken = self
                        .get(cond, lane)
                        .as_bool()
                        .ok_or_else(|| type_error("select condition must be boolean"))?;
                    let value = self.fetch(if taken { a } else { b }, lane)?;
                    self.set(dst, lane, value)?;
                }
                Op::Mov { dst, src } => {
                    let value = self.fetch(src, lane)?;
                    self.set(dst, lane, value)?;
                }
                Op::Check { access, dim } => {
                    self.checked_index(&self.p.accesses[access as usize], dim as usize, lane)?;
                }
                Op::Store { to, src } => {
                    let to = self.locate(to, lane)?;
                    let value = store_value(self.fetch(src, lane)?, to.dtype())?;
                    self.slot(to, lane)?.set(value);
                }
                Op::Update { op, to, src } => {
                    let to = self.locate(to, lane)?;
                    let with = self.fetch(src, lane)?;
                    let slot = self.slot(to, lane)?;
                    let value = binary(op, Value::F32(slot.get()), with)?;
                    slot.set(store_value(value, to.dtype())?);
                }
                Op::MulAdd { to, a, b } => {
                    let product = binary(BinOp::Mul, self.fetch(a, lane)?, self.fetch(b, lane)?)?;
                    let to = self.locate(to, lane)?;
                    let slot = self.slot(to, lane)?;
                    let value = binary(BinOp::Add, Value::F32(slot.get()), product)?;
                    slot.set(store_value(value, to.dtype())?);
                }
                Op::Jump { skip } => pc += skip as usize,
                Op::Branch { cond, skip, select } => {
                    if !self.condition(cond, lane, select)? {
                        pc += skip as usize;
                    }
                }
                Op::LoopEnter {
                    var,
                    count,
                    extent,
                    skip,
                } => {
                    let n = self.extent(extent, lane)?;
                    self.set(count, lane, Value::I64(n))?;
                    self.set(var, lane, Value::I64(0))?;
                    if n <= 0 {
                        pc += skip as usize;
                    }
                }
                Op::LoopNext { var, count, back } => {
                    let (i, n) = self.iteration(var, count, lane)?;
                    self.set(var, lane, Value::I64(i + 1))?;
                    if i + 1 < n {
                        pc -= back as usize + 1;
                    }
                }
                Op::Trap { id } => {
                    return Err(match self.p.traps.get(id as usize) {
                        Some(err) => Box::new(err.clone()),
                        None => type_error(&format!("trap {id} has no description")),
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether thread `lane` takes a `Branch` on `cond`.
    #[inline(always)]
    pub(super) fn condition(&self, cond: Reg, lane: usize, select: bool) -> Result<bool, Fault> {
        if cond >> FILE_SHIFT == BOOL {
            let lanes = self.regs.bools;
            return Ok(lanes[(cond & COLUMN) as usize + lane].get());
        }
        self.get(cond, lane).as_bool().ok_or_else(|| {
            type_error(if select {
                "select condition must be boolean"
            } else {
                "condition must be boolean"
            })
        })
    }

    /// The trip count thread `lane` enters a loop with.
    #[inline(always)]
    pub(super) fn extent(&self, extent: Reg, lane: usize) -> Result<i64, Fault> {
        let n = self.get(extent, lane).as_i64();
        n.ok_or_else(|| type_error("loop extent must be integer"))
    }

    /// Thread `lane`'s iteration and trip count of a loop it is in.
    #[inline(always)]
    pub(super) fn iteration(&self, var: Reg, count: Reg, lane: usize) -> Result<(i64, i64), Fault> {
        // Only the loop instructions write these two registers.
        match (self.int(var, lane), self.int(count, lane)) {
            (Some(i), Some(n)) => Ok((i, n)),
            _ => Err(type_error("loop registers overwritten")),
        }
    }
}

/// What a `Store` / `Update` / `MulAdd` writes: element `at` of the storage
/// `access` names — of the thread's register arrays when it names none.
#[derive(Clone, Copy)]
struct Target<'p> {
    access: Option<&'p Access>,
    at: usize,
}

impl Target<'_> {
    /// The element type a stored value converts to: the buffer's, and a
    /// register's own `f32` for an element that is an operand.
    #[inline(always)]
    fn dtype(self) -> DType {
        self.access.map_or(DType::F32, |a| a.dtype)
    }
}
