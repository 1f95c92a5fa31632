//! The flat executor: runs a [`Program`] against device memory.
//!
//! Blocks run one after another in grid order. Within a block the lockstep
//! skeleton is walked once for the whole block: a leaf is run by every
//! thread to completion, in thread order, before the next node starts —
//! which is all a barrier asks for — and loop extents and branch conditions
//! around barriers must agree across the block. Inside a leaf the
//! instructions are a straight array with relative jumps over one register
//! file per thread.
//!
//! Each stream of hoisted instructions runs at its level: lane code once per
//! program (into a table a thread copies its row of), block code once per
//! block, thread code once per thread per block, and a loop's prologue at
//! the top of each of its iterations.

use hidet_ir::{BinOp, DType};

use super::program::{Access, Control, Node, Op, Program, Space, ELEMENT, MEM};
use super::SimError;
use crate::memory::{BufferId, DeviceMemory};
use crate::spec::GpuSpec;
use crate::value::Value;

/// A fault on its way out of the interpreter loop. Boxed so that the
/// results the loop passes around on every instruction stay two words wide;
/// the allocation only happens once a launch has already failed.
type Fault = Box<SimError>;

/// Launches `program` against `memory`; `buffers` are the program's global
/// buffers as [`Program::resolve`] orders them. See [`crate::Gpu::launch`].
pub(crate) fn launch(
    program: &Program,
    buffers: &[Option<BufferId>],
    memory: &mut DeviceMemory,
    spec: &GpuSpec,
) -> Result<(), SimError> {
    // One span per launch; the simulated device has no request context, so
    // the span is unattributed (trace id 0). The guard closes the span on
    // every return path, validation errors included.
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::KernelSim, 0);
    if program.shared_bytes > spec.shared_mem_per_block {
        return Err(SimError::ResourceLimit(format!(
            "kernel {} needs {} B of shared memory; device allows {} B per block",
            program.name, program.shared_bytes, spec.shared_mem_per_block
        )));
    }
    if program.block_dim as i64 > spec.max_threads_per_sm as i64 {
        return Err(SimError::ResourceLimit(format!(
            "block of {} threads exceeds {} threads per SM",
            program.block_dim, spec.max_threads_per_sm
        )));
    }
    for (i, global) in program.globals.iter().enumerate() {
        let Some(expected) = global.expect else {
            continue;
        };
        let id = buffers
            .get(i)
            .copied()
            .flatten()
            .ok_or_else(|| SimError::MissingBuffer(global.name.clone()))?;
        let actual = memory.slice(id).len();
        if actual != expected {
            return Err(SimError::BufferSizeMismatch {
                name: global.name.clone(),
                expected,
                actual,
            });
        }
    }
    let lanes = lanes(program, buffers, memory).map_err(|fault| *fault)?;
    let mut machine = Machine::new(program, lanes, buffers, memory);
    for block in 0..program.grid_dim {
        machine.run_block(block).map_err(|fault| *fault)?;
    }
    Ok(())
}

/// The program's lane table: for every thread of a block, the lane registers
/// that code outside `lane_code` reads. Computed by the first launch — lane
/// code reads `threadIdx` and constants, nothing of a launch — and kept.
fn lanes<'p>(
    p: &'p Program,
    globals: &[Option<BufferId>],
    memory: &mut DeviceMemory,
) -> Result<&'p [Value], Fault> {
    if let Some(table) = p.lanes.get() {
        return Ok(table);
    }
    let n_block = p.block_init.len();
    let mut file = p.block_init.clone();
    file.resize(n_block + p.n_lane, Value::I64(0));
    let mut table = Vec::with_capacity(p.block_dim * p.lane_row);
    for tid in 0..p.block_dim {
        file[p.thread_idx as usize] = Value::I64(tid as i64);
        let mut files = Files {
            regs: &mut file,
            locals: &mut [],
            shared: &mut [],
            memory,
            globals,
        };
        step(p, &p.lane_code, &mut files)?;
        table.extend_from_slice(&file[n_block..n_block + p.lane_row]);
    }
    Ok(p.lanes.get_or_init(|| table))
}

/// The state of one launch: storage is allocated once and reused by every
/// block.
struct Machine<'a> {
    p: &'a Program,
    globals: &'a [Option<BufferId>],
    memory: &'a mut DeviceMemory,
    /// `p.lanes`, filled.
    lanes: &'a [Value],
    /// The block-level registers of the block being run.
    block_regs: Vec<Value>,
    /// Register files, `stride` apart: one per thread under lockstep,
    /// otherwise one that the threads take turns on.
    regs: Vec<Value>,
    stride: usize,
    /// Register arrays, laid out like `regs`.
    locals: Vec<f32>,
    local_stride: usize,
    shared: Vec<f32>,
}

impl<'a> Machine<'a> {
    fn new(
        p: &'a Program,
        lanes: &'a [Value],
        globals: &'a [Option<BufferId>],
        memory: &'a mut DeviceMemory,
    ) -> Machine<'a> {
        let files = if p.lockstep { p.block_dim } else { 1 };
        Machine {
            p,
            globals,
            memory,
            lanes,
            block_regs: p.block_init.clone(),
            regs: vec![Value::I64(0); files * p.n_regs],
            stride: if p.lockstep { p.n_regs } else { 0 },
            locals: vec![0.0; files * p.local_len],
            local_stride: if p.lockstep { p.local_len } else { 0 },
            shared: vec![0.0; p.shared_len],
        }
    }

    fn run_block(&mut self, block: usize) -> Result<(), Fault> {
        let p = self.p;
        self.block_regs.copy_from_slice(&p.block_init);
        self.block_regs[p.block_idx as usize] = Value::I64(block as i64);
        let mut files = Files {
            regs: &mut self.block_regs,
            locals: &mut [],
            shared: &mut [],
            memory: self.memory,
            globals: self.globals,
        };
        step(p, &p.block_code, &mut files)?;
        // Shared memory and register arrays start every block zeroed.
        self.shared.fill(0.0);
        if p.lockstep {
            for tid in 0..p.block_dim {
                self.enter_thread(tid)?;
            }
        }
        self.exec(p.root)
    }

    /// Gives thread `tid` a fresh register file — the block's registers, its
    /// row of the lane table, zeroed register arrays — and computes its
    /// thread-invariant registers.
    fn enter_thread(&mut self, tid: usize) -> Result<(), Fault> {
        let p = self.p;
        let (block, lane) = self.regs[tid * self.stride..].split_at_mut(self.block_regs.len());
        block.copy_from_slice(&self.block_regs);
        lane[..p.lane_row].copy_from_slice(&self.lanes[tid * p.lane_row..][..p.lane_row]);
        let base = tid * self.local_stride;
        self.locals[base..base + p.local_len].fill(0.0);
        self.run(0, p.thread_code_end, tid)
    }

    /// Runs `code[start..end]` for thread `tid`.
    fn run(&mut self, start: u32, end: u32, tid: usize) -> Result<(), Fault> {
        let p = self.p;
        let mut files = Files {
            regs: &mut self.regs[tid * self.stride..][..p.n_regs],
            locals: &mut self.locals[tid * self.local_stride..][..p.local_len],
            shared: &mut self.shared,
            memory: self.memory,
            globals: self.globals,
        };
        step(p, &p.code[start as usize..end as usize], &mut files)
    }

    /// Executes a skeleton node for the whole block.
    fn exec(&mut self, node: u32) -> Result<(), Fault> {
        let p = self.p;
        match &p.nodes[node as usize] {
            Node::Thread { start, end } => {
                for tid in 0..p.block_dim {
                    if !p.lockstep {
                        self.enter_thread(tid)?;
                    }
                    self.run(*start, *end, tid)?;
                }
                Ok(())
            }
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
                    for tid in 0..p.block_dim {
                        self.regs[tid * self.stride + *var as usize] = Value::I64(i);
                        self.run(prologue.0, prologue.1, tid)?;
                    }
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
        self.run(c.start, c.end, 0)?;
        let first = get(self.regs[c.reg as usize]).ok_or_else(|| type_error(type_error_message))?;
        if !c.uniform {
            for tid in 1..self.p.block_dim {
                self.run(c.start, c.end, tid)?;
                if get(self.regs[tid * self.stride + c.reg as usize]).as_ref() != Some(&first) {
                    return Err(Box::new(SimError::NonUniformControl(c.message.clone())));
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
fn out_of_bounds(p: &Program, a: &Access, dim: usize, index: i64, extent: i64) -> Fault {
    Box::new(SimError::OutOfBounds {
        buffer: p.buffer_names[a.buffer as usize].clone(),
        dim,
        index,
        extent,
    })
}

#[cold]
fn missing(p: &Program, a: &Access) -> Fault {
    Box::new(SimError::MissingBuffer(
        p.buffer_names[a.buffer as usize].clone(),
    ))
}

/// An access whose own shape addresses more elements than its buffer was
/// declared with (the tree walker panicked here).
#[cold]
fn past_the_end(p: &Program, a: &Access, flat: usize) -> Fault {
    type_error(&format!(
        "access reaches element {flat} of buffer {}, past its end",
        p.buffer_names[a.buffer as usize]
    ))
}

/// The lowering only makes an operand of an element its thread has.
#[cold]
fn no_such_element(at: usize) -> Fault {
    type_error(&format!(
        "register-array element {at} is past the thread's storage"
    ))
}

/// The offset an [`ELEMENT`] operand carries.
#[inline(always)]
fn element_offset(operand: u32) -> usize {
    (operand & !(MEM | ELEMENT)) as usize
}

/// `Value::binary`, with its one failure mode named as the tree walker
/// named it.
#[inline(always)]
fn binary(op: BinOp, a: Value, b: Value) -> Result<Value, Fault> {
    Value::binary(op, a, b).ok_or_else(|| Box::new(SimError::DivByZero))
}

/// Bounds-checks one dimension of `a`; returns its index and stride.
#[inline(always)]
fn checked_index(
    p: &Program,
    a: &Access,
    dim: usize,
    regs: &[Value],
) -> Result<(usize, usize), Fault> {
    let d = &p.dims[a.first_dim as usize + dim];
    let index = regs[d.idx as usize]
        .as_i64()
        .ok_or_else(|| type_error("index must be integer"))?;
    if index < 0 || index >= d.extent {
        return Err(out_of_bounds(p, a, dim, index, d.extent));
    }
    Ok((index as usize, d.stride))
}

/// The element of its space's storage that access `a` addresses. A proven
/// access is `offset + Σ index × stride` over its non-constant terms,
/// unchecked: the lowering showed it in bounds, and the storage slice's own
/// `get` stands behind that. Any other has every dimension bounds-checked in
/// order, and the sum checked against the buffer's declaration.
#[inline(always)]
fn address(p: &Program, a: &Access, regs: &[Value]) -> Result<usize, Fault> {
    if a.proven {
        let mut flat = a.offset;
        for d in &p.dims[a.first_dim as usize..][..a.rank as usize] {
            let Value::I64(index) = regs[d.idx as usize] else {
                return Err(type_error("index must be integer"));
            };
            flat = flat.wrapping_add((index as usize).wrapping_mul(d.stride));
        }
        return Ok(flat);
    }
    let mut flat = 0;
    for dim in 0..a.rank as usize {
        let (index, stride) = checked_index(p, a, dim, regs)?;
        flat += index * stride;
    }
    if flat >= a.limit {
        return Err(past_the_end(p, a, flat));
    }
    Ok(a.offset + flat)
}

/// A stored value converted to its buffer's element type, as `f32`.
#[inline(always)]
fn store_value(v: Value, dtype: DType) -> Result<f32, Fault> {
    v.cast(dtype)
        .as_f32()
        .ok_or_else(|| type_error("stored value must be numeric"))
}

/// Everything a thread's instructions can touch.
struct Files<'a> {
    regs: &'a mut [Value],
    locals: &'a mut [f32],
    shared: &'a mut [f32],
    memory: &'a mut DeviceMemory,
    globals: &'a [Option<BufferId>],
}

impl Files<'_> {
    /// The storage access `a` addresses — a global buffer, the block's
    /// shared memory or the thread's register arrays — for reading.
    #[inline(always)]
    fn storage(&self, p: &Program, a: &Access) -> Result<&[f32], Fault> {
        match a.space {
            Space::Global(g) => {
                let id = self.globals.get(g as usize).copied().flatten();
                Ok(self.memory.slice(id.ok_or_else(|| missing(p, a))?))
            }
            Space::Shared => Ok(self.shared),
            Space::Local => Ok(self.locals),
            Space::Missing => Err(missing(p, a)),
        }
    }

    /// The storage access `a` addresses, for writing.
    #[inline(always)]
    fn storage_mut(&mut self, p: &Program, a: &Access) -> Result<&mut [f32], Fault> {
        match a.space {
            Space::Global(g) => {
                let id = self.globals.get(g as usize).copied().flatten();
                Ok(self.memory.slice_mut(id.ok_or_else(|| missing(p, a))?))
            }
            Space::Shared => Ok(self.shared),
            Space::Local => Ok(self.locals),
            Space::Missing => Err(missing(p, a)),
        }
    }

    /// A source operand: a register, an element of the thread's register
    /// arrays, or the element an access names: indices checked first, then
    /// the buffer looked up, as the tree walker ordered the two.
    #[inline(always)]
    fn fetch(&self, p: &Program, operand: u32) -> Result<Value, Fault> {
        if operand & MEM == 0 {
            return Ok(self.regs[operand as usize]);
        }
        if operand & ELEMENT != 0 {
            let at = element_offset(operand);
            let element = self.locals.get(at);
            return Ok(Value::F32(*element.ok_or_else(|| no_such_element(at))?));
        }
        let a = &p.accesses[(operand & !MEM) as usize];
        let flat = address(p, a, self.regs)?;
        let element = self.storage(p, a)?.get(flat);
        Ok(Value::F32(
            *element.ok_or_else(|| past_the_end(p, a, flat))?,
        ))
    }

    /// Where a memory operand written to points: its indices checked, its
    /// buffer not yet looked up.
    #[inline(always)]
    fn locate<'p>(&self, p: &'p Program, operand: u32) -> Result<Target<'p>, Fault> {
        if operand & ELEMENT != 0 {
            return Ok(Target {
                access: None,
                at: element_offset(operand),
            });
        }
        let a = &p.accesses[(operand & !MEM) as usize];
        Ok(Target {
            access: Some(a),
            at: address(p, a, self.regs)?,
        })
    }

    /// The element at `target`, for writing.
    #[inline(always)]
    fn element_mut(&mut self, p: &Program, target: Target<'_>) -> Result<&mut f32, Fault> {
        let at = target.at;
        match target.access {
            None => self.locals.get_mut(at).ok_or_else(|| no_such_element(at)),
            Some(a) => {
                let element = self.storage_mut(p, a)?.get_mut(at);
                element.ok_or_else(|| past_the_end(p, a, at))
            }
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

/// The interpreter loop: runs `code` to its end over one register file.
///
/// `Value::binary` / `unary` / `cast` are the only arithmetic; this function
/// only moves values between registers and memory.
fn step(p: &Program, code: &[Op], f: &mut Files<'_>) -> Result<(), Fault> {
    let mut pc = 0usize;
    while let Some(&op) = code.get(pc) {
        pc += 1;
        match op {
            Op::Bin { op, dst, a, b } => {
                f.regs[dst as usize] = binary(op, f.fetch(p, a)?, f.fetch(p, b)?)?;
            }
            Op::Un { op, dst, a } => {
                f.regs[dst as usize] = Value::unary(op, f.fetch(p, a)?)
                    .ok_or_else(|| type_error(&format!("cannot apply {op:?}")))?;
            }
            Op::Cast { dtype, dst, a } => f.regs[dst as usize] = f.fetch(p, a)?.cast(dtype),
            Op::Select { dst, cond, a, b } => {
                let taken = f.regs[cond as usize]
                    .as_bool()
                    .ok_or_else(|| type_error("select condition must be boolean"))?;
                f.regs[dst as usize] = f.fetch(p, if taken { a } else { b })?;
            }
            Op::Mov { dst, src } => f.regs[dst as usize] = f.fetch(p, src)?,
            Op::Check { access, dim } => {
                checked_index(p, &p.accesses[access as usize], dim as usize, f.regs)?;
            }
            Op::Store { to, src } => {
                let to = f.locate(p, to)?;
                let value = store_value(f.fetch(p, src)?, to.dtype())?;
                *f.element_mut(p, to)? = value;
            }
            Op::Update { op, to, src } => {
                let to = f.locate(p, to)?;
                let with = f.fetch(p, src)?;
                let slot = f.element_mut(p, to)?;
                *slot = store_value(binary(op, Value::F32(*slot), with)?, to.dtype())?;
            }
            Op::MulAdd { to, a, b } => {
                let product = binary(BinOp::Mul, f.fetch(p, a)?, f.fetch(p, b)?)?;
                let to = f.locate(p, to)?;
                let slot = f.element_mut(p, to)?;
                *slot = store_value(binary(BinOp::Add, Value::F32(*slot), product)?, to.dtype())?;
            }
            Op::Jump { skip } => pc += skip as usize,
            Op::Branch { cond, skip, select } => {
                let taken = f.regs[cond as usize].as_bool().ok_or_else(|| {
                    type_error(if select {
                        "select condition must be boolean"
                    } else {
                        "condition must be boolean"
                    })
                })?;
                if !taken {
                    pc += skip as usize;
                }
            }
            Op::LoopEnter {
                var,
                count,
                extent,
                skip,
            } => {
                let n = f.regs[extent as usize]
                    .as_i64()
                    .ok_or_else(|| type_error("loop extent must be integer"))?;
                f.regs[count as usize] = Value::I64(n);
                f.regs[var as usize] = Value::I64(0);
                if n <= 0 {
                    pc += skip as usize;
                }
            }
            Op::LoopNext { var, count, back } => {
                // Only the loop instructions write these two registers.
                let (Value::I64(i), Value::I64(n)) = (f.regs[var as usize], f.regs[count as usize])
                else {
                    return Err(type_error("loop registers overwritten"));
                };
                f.regs[var as usize] = Value::I64(i + 1);
                if i + 1 < n {
                    pc -= back as usize + 1;
                }
            }
            Op::Trap { id } => {
                return Err(match p.traps.get(id as usize) {
                    Some(err) => Box::new(err.clone()),
                    None => type_error(&format!("trap {id} has no description")),
                });
            }
        }
    }
    Ok(())
}
