//! What a compile returns: the executable [`CompilePlan`] and the
//! [`CompiledGraph`] that pairs it with its serializable artifact and the
//! provenance counters of the compile that produced it.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use hidet_graph::{Graph, TensorId};
use hidet_sched::fusion::{tensor_buffer_name, CompiledGroup};
use hidet_sched::MatmulConfig;
use hidet_sim::{DeviceMemory, Gpu, Program};

use super::CompileError;
use crate::artifact::CompiledArtifact;
use crate::plan::{MemoryPlan, Workspace};

#[cfg(doc)]
use super::compile_from_artifact;

/// Per-kernel dispatch overhead of Hidet's lean graph executor, seconds.
pub const HIDET_DISPATCH_S: f64 = 2.0e-6;

/// The device-executable half of a compiled model: the optimized graph and
/// its generated kernels, in execution order.
///
/// A plan is what actually *runs*; it is rebuilt cheaply from a
/// [`CompiledArtifact`] (the serializable half holding the expensive schedule
/// decisions) by [`compile_from_artifact`]. See the [`crate::artifact`]
/// module docs for the split rationale.
#[derive(Debug, Clone)]
pub struct CompilePlan {
    pub(super) graph: Graph,
    pub(super) groups: Vec<CompiledGroup>,
    /// Liveness-planned arena placement of every intermediate buffer.
    pub(super) memory_plan: MemoryPlan,
    /// The kernels lowered for the interpreter, in launch order, one program
    /// per definition — built by the first launch (compiling, saving and
    /// loading a plan never pay for it) and shared by every clone.
    pub(super) programs: Arc<OnceLock<Vec<Arc<Program>>>>,
}

/// A compiled model: an executable [`CompilePlan`] plus the serializable
/// [`CompiledArtifact`] that records what the tuner decided, and provenance
/// counters for what *this* compilation cost.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    pub(super) plan: CompilePlan,
    pub(super) artifact: CompiledArtifact,
    /// Whether the schedules were read from a saved artifact, which paid
    /// for them in an earlier compile, rather than decided here.
    pub(super) from_artifact: bool,
}

impl CompilePlan {
    /// The optimized graph (after conv lowering and constant folding).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Compiled fused groups, in execution order.
    pub fn groups(&self) -> &[CompiledGroup] {
        &self.groups
    }

    /// The liveness-based arena placement of this plan's intermediates —
    /// see [`crate::plan`].
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.memory_plan
    }

    /// Total kernels launched per inference.
    pub fn num_kernels(&self) -> usize {
        self.groups.iter().map(|g| g.kernels.len()).sum()
    }

    /// The constants a run uploads, in tensor order, with their elements:
    /// those a kernel reads (some group's external input) or the caller does
    /// (a graph output). What the passes left unread — a conv's unfolded
    /// weight and its reshaped view — stays on the host, and a folded
    /// constant nothing reads is never evaluated.
    pub(crate) fn read_constants(&self) -> Vec<(TensorId, &[f32])> {
        let graph = &self.graph;
        let mut read: Vec<TensorId> = self
            .groups
            .iter()
            .flat_map(|g| &g.inputs)
            .chain(graph.outputs())
            .copied()
            .collect();
        read.sort_unstable();
        read.dedup();
        read.into_iter()
            .filter_map(|t| Some((t, graph.tensor(t).data()?)))
            .collect()
    }

    /// Every kernel of [`CompilePlan::groups`] lowered to its interpreter
    /// [`Program`], flattened in launch order. Lowered on first use, once
    /// per kernel definition for this plan and all its clones: the kernels
    /// of one [`hidet_ir::Kernel::definition`] share one program.
    pub fn programs(&self) -> &[Arc<Program>] {
        self.programs.get_or_init(|| {
            let mut lowered = HashMap::new();
            let kernels = self.groups.iter().flat_map(|g| &g.kernels);
            kernels
                .map(|k| {
                    let program = lowered.entry(Arc::as_ptr(k.definition()));
                    Arc::clone(program.or_insert_with(|| Arc::new(Program::lower(k))))
                })
                .collect()
        })
    }

    /// Estimated end-to-end latency on `gpu` in seconds (kernel estimates +
    /// dispatch overhead).
    pub fn estimate(&self, gpu: &Gpu) -> f64 {
        let mut total = 0.0;
        for group in &self.groups {
            for kernel in &group.kernels {
                total += gpu
                    .estimate(kernel)
                    .map(|e| e.seconds)
                    .unwrap_or(f64::INFINITY)
                    + HIDET_DISPATCH_S;
            }
        }
        total
    }

    /// Functionally executes the plan on the simulated device.
    ///
    /// `inputs` maps each graph input tensor to its flat `f32` data. Returns
    /// the value of every graph output tensor.
    ///
    /// # Errors
    /// [`CompileError::BadInput`] on missing/missized inputs, or
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run(
        &self,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &Gpu,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        let mut mem = DeviceMemory::new();
        for &t in self.graph.inputs() {
            let data = inputs
                .get(&t)
                .ok_or_else(|| CompileError::BadInput(format!("missing input tensor t{}", t.0)))?;
            let expect = self.graph.tensor(t).numel() as usize;
            if data.len() != expect {
                return Err(CompileError::BadInput(format!(
                    "input t{} has {} elements, expected {expect}",
                    t.0,
                    data.len()
                )));
            }
            mem.alloc(&tensor_buffer_name(t), data);
        }
        for (t, data) in self.read_constants() {
            mem.alloc(&tensor_buffer_name(t), data);
        }
        let mut programs = self.programs().iter();
        for group in &self.groups {
            mem.alloc_zeroed(
                &tensor_buffer_name(group.output),
                self.graph.tensor(group.output).numel() as usize,
            );
            for (name, len) in &group.scratch {
                mem.alloc_zeroed(name, *len);
            }
            for (kernel, program) in group.kernels.iter().zip(programs.by_ref()) {
                gpu.launch(program, kernel, &program.resolve(kernel, &mem), &mut mem)?;
            }
        }
        let mut out = HashMap::new();
        for &t in self.graph.outputs() {
            out.insert(t, mem.read(&tensor_buffer_name(t)).to_vec());
        }
        Ok(out)
    }

    /// [`CompilePlan::run`] through a reusable [`Workspace`]: intermediates
    /// live at their planned arena offsets, constants upload once per
    /// (workspace, plan) binding, and a steady stream of requests for the
    /// same plan performs **zero heap allocations** for intermediates.
    /// Results are bit-identical to the unplanned [`CompilePlan::run`].
    ///
    /// # Errors
    /// [`CompileError::BadInput`] on missing/missized inputs, or
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run_with(
        &self,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &Gpu,
        workspace: &mut Workspace,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        workspace.execute(self, inputs, gpu)
    }

    /// The full CUDA C source of every kernel, concatenated — what a real
    /// deployment would compile with `nvcc`.
    pub fn cuda_source(&self) -> String {
        let mut out = String::new();
        for group in &self.groups {
            for kernel in &group.kernels {
                out.push_str(&hidet_ir::cuda::to_cuda(kernel));
                out.push('\n');
            }
        }
        out
    }
}

impl CompiledGraph {
    /// The executable half: optimized graph + generated kernels.
    pub fn plan(&self) -> &CompilePlan {
        &self.plan
    }

    /// The serializable half: the schedule decisions and their embodied
    /// tuning cost, ready for [`CompiledArtifact::save`].
    pub fn artifact(&self) -> &CompiledArtifact {
        &self.artifact
    }

    /// Whether this compilation was rebuilt from a saved artifact
    /// ([`compile_from_artifact`]) rather than scheduled from scratch.
    pub fn from_artifact(&self) -> bool {
        self.from_artifact
    }

    /// The optimized graph (after conv lowering and constant folding).
    pub fn graph(&self) -> &Graph {
        self.plan.graph()
    }

    /// Compiled fused groups, in execution order.
    pub fn groups(&self) -> &[CompiledGroup] {
        self.plan.groups()
    }

    /// Total kernels launched per inference.
    pub fn num_kernels(&self) -> usize {
        self.plan.num_kernels()
    }

    /// Simulated tuning wall-clock cost *this compilation* paid: zero when
    /// rebuilt from an artifact.
    pub fn tuning_seconds(&self) -> f64 {
        if self.from_artifact {
            0.0
        } else {
            self.artifact.tuning_seconds
        }
    }

    /// Tuning trials *this compilation* actually executed: zero when rebuilt
    /// from an artifact.
    pub fn tuning_trials(&self) -> usize {
        if self.from_artifact {
            0
        } else {
            self.artifact.tuning_trials
        }
    }

    /// Trials a rebuild from an artifact saved: what its schedules cost the
    /// compile that produced it. Zero for a fresh compile.
    pub fn tuning_trials_saved(&self) -> usize {
        if self.from_artifact {
            self.artifact.tuning_trials
        } else {
            0
        }
    }

    /// Simulated tuning seconds a rebuild from an artifact saved; zero for a
    /// fresh compile.
    pub fn tuning_seconds_saved(&self) -> f64 {
        if self.from_artifact {
            self.artifact.tuning_seconds
        } else {
            0.0
        }
    }

    /// Tuned matmul configurations, keyed by `(batch, m, n, k)` — derived
    /// from the artifact (the single copy of the tuner's decisions).
    pub fn tuned_configs(&self) -> HashMap<(i64, i64, i64, i64), MatmulConfig> {
        self.artifact.tuned_map()
    }

    /// Estimated end-to-end latency on `gpu` in seconds (kernel estimates +
    /// dispatch overhead).
    pub fn estimate(&self, gpu: &Gpu) -> f64 {
        self.plan.estimate(gpu)
    }

    /// Functionally executes the compiled model on the simulated device —
    /// see [`CompilePlan::run`].
    ///
    /// # Errors
    /// [`CompileError::BadInput`] on missing/missized inputs, or
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run(
        &self,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &Gpu,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        self.plan.run(inputs, gpu)
    }

    /// Memory-planned execution through a reusable [`Workspace`] — see
    /// [`CompilePlan::run_with`].
    ///
    /// # Errors
    /// [`CompileError::BadInput`] on missing/missized inputs, or
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run_with(
        &self,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &Gpu,
        workspace: &mut Workspace,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        self.plan.run_with(inputs, gpu, workspace)
    }

    /// Planned peak bytes of this model's intermediates — the arena one
    /// inference needs (also recorded in the artifact).
    pub fn planned_peak_bytes(&self) -> usize {
        self.plan.memory_plan().peak_bytes()
    }

    /// The full CUDA C source of every kernel, concatenated.
    pub fn cuda_source(&self) -> String {
        self.plan.cuda_source()
    }
}
