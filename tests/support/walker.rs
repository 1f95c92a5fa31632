//! The tree-walking kernel interpreter `hidet_sim` shipped until the flat
//! [`hidet_sim::Program`] executor replaced it — moved here unchanged (only
//! its imports, `SimError`, which stayed in the library, and the name a
//! parameter slot of a body goes by, read from the kernel's parameters) to
//! serve as the differential oracle of `tests/interp_differential.rs`, which
//! it stays.
//! Test support only: nothing in the library can reach it.
//!
//! Functional interpreter for `hidet-ir` kernels.
//!
//! Thread blocks execute sequentially over the grid (dispatch order does not
//! affect functional results for well-formed kernels, whose blocks write
//! disjoint output regions). Within a block, execution is *lockstep* across
//! `__syncthreads()` barriers: any statement whose subtree contains a barrier
//! is executed one step at a time for all threads (the paper's kernels have
//! uniform control flow around barriers, which the interpreter validates);
//! barrier-free subtrees run each thread to completion independently.

use std::collections::HashMap;

use hidet_ir::buffer::BufferRef;
use hidet_ir::{Expr, Kernel, MemScope, Stmt, Var};
use hidet_sim::{DeviceMemory, GpuSpec, SimError, Value};

/// Executes `kernel` against `memory` on the given device.
///
/// See [`hidet_sim::Gpu::run`] for the error contract.
pub fn run_kernel(
    kernel: &Kernel,
    memory: &mut DeviceMemory,
    spec: &GpuSpec,
) -> Result<(), SimError> {
    // One span per interpreted kernel; the simulated device has no request
    // context, so the span is unattributed (trace id 0). The guard closes
    // the span on every return path, validation errors included.
    let _span = hidet_trace::global().span(hidet_trace::SpanKind::KernelSim, 0);
    // Launch validation.
    if kernel.shared_bytes() > spec.shared_mem_per_block {
        return Err(SimError::ResourceLimit(format!(
            "kernel {} needs {} B of shared memory; device allows {} B per block",
            kernel.name(),
            kernel.shared_bytes(),
            spec.shared_mem_per_block
        )));
    }
    if kernel.launch().block_dim > spec.max_threads_per_sm as i64 {
        return Err(SimError::ResourceLimit(format!(
            "block of {} threads exceeds {} threads per SM",
            kernel.launch().block_dim,
            spec.max_threads_per_sm
        )));
    }
    for param in kernel.params() {
        let expected = param.num_elements() as usize;
        let actual = memory
            .get(param.name())
            .ok_or_else(|| SimError::MissingBuffer(param.name().to_string()))?
            .len();
        if actual != expected {
            return Err(SimError::BufferSizeMismatch {
                name: param.name().to_string(),
                expected,
                actual,
            });
        }
    }
    let launch = kernel.launch();
    let body = kernel.body().clone();
    for block in 0..launch.grid_dim {
        let mut ctx = BlockCtx::new(kernel, block, memory);
        ctx.exec(&body)?;
    }
    Ok(())
}

/// Per-thread variable environment with truncate-based scoping.
#[derive(Debug, Default, Clone)]
struct Env {
    bindings: Vec<(String, Value)>,
}

impl Env {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn push(&mut self, name: &str, value: Value) {
        self.bindings.push((name.to_string(), value));
    }

    fn set(&mut self, slot: usize, value: Value) {
        self.bindings[slot].1 = value;
    }

    fn len(&self) -> usize {
        self.bindings.len()
    }

    fn truncate(&mut self, len: usize) {
        self.bindings.truncate(len);
    }
}

struct BlockCtx<'a> {
    kernel: &'a Kernel,
    block: i64,
    block_dim: usize,
    global: &'a mut DeviceMemory,
    shared: HashMap<String, Vec<f32>>,
    locals: Vec<HashMap<String, Vec<f32>>>,
    envs: Vec<Env>,
}

impl<'a> BlockCtx<'a> {
    fn new(kernel: &'a Kernel, block: i64, global: &'a mut DeviceMemory) -> BlockCtx<'a> {
        let block_dim = kernel.launch().block_dim as usize;
        let shared = kernel
            .shared_buffers()
            .iter()
            .map(|b| {
                (
                    b.name().to_string(),
                    vec![0.0f32; b.num_elements() as usize],
                )
            })
            .collect();
        let locals = (0..block_dim)
            .map(|_| {
                kernel
                    .local_buffers()
                    .iter()
                    .map(|b| {
                        (
                            b.name().to_string(),
                            vec![0.0f32; b.num_elements() as usize],
                        )
                    })
                    .collect()
            })
            .collect();
        BlockCtx {
            kernel,
            block,
            block_dim,
            global,
            shared,
            locals,
            envs: vec![Env::default(); block_dim],
        }
    }

    /// Executes a statement for all threads of the block.
    fn exec(&mut self, stmt: &Stmt) -> Result<(), SimError> {
        if !stmt.contains_sync() {
            for tid in 0..self.block_dim {
                self.exec_thread(stmt, tid)?;
            }
            return Ok(());
        }
        // Lockstep path: the subtree contains a barrier.
        match stmt {
            Stmt::Seq(items) => {
                let marks: Vec<usize> = self.envs.iter().map(Env::len).collect();
                for item in items {
                    self.exec(item)?;
                }
                for (env, mark) in self.envs.iter_mut().zip(marks) {
                    env.truncate(mark);
                }
                Ok(())
            }
            Stmt::For {
                var, extent, body, ..
            } => {
                let n = self.uniform_int(extent, "loop extent")?;
                let slots: Vec<usize> = self.envs.iter().map(Env::len).collect();
                for env in &mut self.envs {
                    env.push(var.name(), Value::I64(0));
                }
                for i in 0..n {
                    for (env, &slot) in self.envs.iter_mut().zip(&slots) {
                        env.set(slot, Value::I64(i));
                    }
                    self.exec(body)?;
                }
                for (env, slot) in self.envs.iter_mut().zip(slots) {
                    env.truncate(slot);
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let taken = self.uniform_bool(cond)?;
                if taken {
                    self.exec(then_body)
                } else if let Some(e) = else_body {
                    self.exec(e)
                } else {
                    Ok(())
                }
            }
            Stmt::SyncThreads => Ok(()), // lockstep already synchronizes
            // Leaves never contain a sync, so this is unreachable.
            _ => unreachable!("leaf statement flagged as containing a barrier"),
        }
    }

    /// Executes a barrier-free statement for one thread to completion.
    fn exec_thread(&mut self, stmt: &Stmt, tid: usize) -> Result<(), SimError> {
        match stmt {
            Stmt::Seq(items) => {
                let mark = self.envs[tid].len();
                for item in items {
                    self.exec_thread(item, tid)?;
                }
                self.envs[tid].truncate(mark);
                Ok(())
            }
            Stmt::For {
                var, extent, body, ..
            } => {
                let n = self
                    .eval(extent, tid)?
                    .as_i64()
                    .ok_or_else(|| SimError::TypeError("loop extent must be integer".into()))?;
                let slot = self.envs[tid].len();
                self.envs[tid].push(var.name(), Value::I64(0));
                for i in 0..n {
                    self.envs[tid].set(slot, Value::I64(i));
                    self.exec_thread(body, tid)?;
                }
                self.envs[tid].truncate(slot);
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let taken = self
                    .eval(cond, tid)?
                    .as_bool()
                    .ok_or_else(|| SimError::TypeError("condition must be boolean".into()))?;
                if taken {
                    self.exec_thread(then_body, tid)
                } else if let Some(e) = else_body {
                    self.exec_thread(e, tid)
                } else {
                    Ok(())
                }
            }
            Stmt::Let { var, value } => {
                let v = self.eval(value, tid)?;
                self.envs[tid].push(var.name(), v);
                Ok(())
            }
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                let flat = self.flat_index(buffer, indices, tid)?;
                let v = self
                    .eval(value, tid)?
                    .cast(buffer.dtype())
                    .as_f32()
                    .ok_or_else(|| SimError::TypeError("stored value must be numeric".into()))?;
                let storage = self.storage_mut(buffer, tid)?;
                storage[flat] = v;
                Ok(())
            }
            Stmt::SyncThreads => unreachable!("barrier in thread-local path"),
            Stmt::Nop | Stmt::Comment(_) => Ok(()),
        }
    }

    fn eval(&self, expr: &Expr, tid: usize) -> Result<Value, SimError> {
        match expr {
            Expr::Int(v) => Ok(Value::I64(*v)),
            Expr::Float(v) => Ok(Value::F32(*v)),
            Expr::Bool(v) => Ok(Value::Bool(*v)),
            Expr::ThreadIdx => Ok(Value::I64(tid as i64)),
            Expr::BlockIdx => Ok(Value::I64(self.block)),
            Expr::Var(v) => self.lookup(v, tid),
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs, tid)?;
                let b = self.eval(rhs, tid)?;
                Value::binary(*op, a, b).ok_or(SimError::DivByZero)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, tid)?;
                Value::unary(*op, v)
                    .ok_or_else(|| SimError::TypeError(format!("cannot apply {op:?}")))
            }
            Expr::Cast { dtype, value } => Ok(self.eval(value, tid)?.cast(*dtype)),
            Expr::Select {
                cond,
                then_value,
                else_value,
            } => {
                let c = self.eval(cond, tid)?.as_bool().ok_or_else(|| {
                    SimError::TypeError("select condition must be boolean".into())
                })?;
                if c {
                    self.eval(then_value, tid)
                } else {
                    self.eval(else_value, tid)
                }
            }
            Expr::Load { buffer, indices } => {
                let flat = self.flat_index(buffer, indices, tid)?;
                let storage = self.storage(buffer, tid)?;
                Ok(Value::F32(storage[flat]))
            }
        }
    }

    fn lookup(&self, var: &Var, tid: usize) -> Result<Value, SimError> {
        self.envs[tid]
            .lookup(var.name())
            .ok_or_else(|| SimError::UnboundVar(var.name().to_string()))
    }

    fn flat_index(
        &self,
        buffer: &BufferRef,
        indices: &[Expr],
        tid: usize,
    ) -> Result<usize, SimError> {
        let shape = buffer.shape();
        let mut flat: i64 = 0;
        for (dim, (idx_expr, &extent)) in indices.iter().zip(shape).enumerate() {
            let idx = self
                .eval(idx_expr, tid)?
                .as_i64()
                .ok_or_else(|| SimError::TypeError("index must be integer".into()))?;
            if idx < 0 || idx >= extent {
                return Err(SimError::OutOfBounds {
                    buffer: buffer.name_in(self.kernel.params()).to_string(),
                    dim,
                    index: idx,
                    extent,
                });
            }
            flat = flat * extent + idx;
        }
        Ok(flat as usize)
    }

    fn storage(&self, buffer: &BufferRef, tid: usize) -> Result<&[f32], SimError> {
        // A parameter slot goes by its parameter's name.
        let name = buffer.name_in(self.kernel.params());
        match buffer.scope() {
            MemScope::Global => self
                .global
                .get(name)
                .ok_or_else(|| SimError::MissingBuffer(name.to_string())),
            MemScope::Shared => self
                .shared
                .get(name)
                .map(Vec::as_slice)
                .ok_or_else(|| SimError::MissingBuffer(name.to_string())),
            MemScope::Register => self.locals[tid]
                .get(name)
                .map(Vec::as_slice)
                .ok_or_else(|| SimError::MissingBuffer(name.to_string())),
        }
    }

    fn storage_mut(&mut self, buffer: &BufferRef, tid: usize) -> Result<&mut [f32], SimError> {
        // A parameter slot goes by its parameter's name.
        let name = buffer.name_in(self.kernel.params());
        match buffer.scope() {
            MemScope::Global => self
                .global
                .get_mut(name)
                .ok_or_else(|| SimError::MissingBuffer(name.to_string())),
            MemScope::Shared => self
                .shared
                .get_mut(name)
                .map(Vec::as_mut_slice)
                .ok_or_else(|| SimError::MissingBuffer(name.to_string())),
            MemScope::Register => self.locals[tid]
                .get_mut(name)
                .map(Vec::as_mut_slice)
                .ok_or_else(|| SimError::MissingBuffer(name.to_string())),
        }
    }

    /// Evaluates `expr` for every thread and requires agreement.
    fn uniform_int(&self, expr: &Expr, what: &str) -> Result<i64, SimError> {
        let first = self
            .eval(expr, 0)?
            .as_i64()
            .ok_or_else(|| SimError::TypeError(format!("{what} must be integer")))?;
        for tid in 1..self.block_dim {
            let v = self.eval(expr, tid)?.as_i64();
            if v != Some(first) {
                return Err(SimError::NonUniformControl(format!(
                    "{what} {expr} differs across threads in kernel {}",
                    self.kernel.name()
                )));
            }
        }
        Ok(first)
    }

    fn uniform_bool(&self, expr: &Expr) -> Result<bool, SimError> {
        let first = self
            .eval(expr, 0)?
            .as_bool()
            .ok_or_else(|| SimError::TypeError("condition must be boolean".into()))?;
        for tid in 1..self.block_dim {
            let v = self.eval(expr, tid)?.as_bool();
            if v != Some(first) {
                return Err(SimError::NonUniformControl(format!(
                    "branch condition {expr} differs across threads in kernel {}",
                    self.kernel.name()
                )));
            }
        }
        Ok(first)
    }
}
