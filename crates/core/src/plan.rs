//! Liveness-based memory planning for compiled graphs.
//!
//! Every inference of a [`CompilePlan`] needs device
//! buffers for its intermediates: one output buffer per fused group plus
//! each group's scratch (e.g. split-K partials). The naive executor
//! allocates all of them fresh per request and keeps every one resident
//! until the end — O(request) allocator traffic and a peak footprint equal
//! to the *sum* of all intermediates.
//!
//! [`MemoryPlan`] fixes both analytically, before any execution pays for it
//! (the cache-simulation direction in PAPERS.md): it walks the plan's group
//! execution order, computes each intermediate's **live interval** (birth =
//! producing group, death = last consuming group; graph outputs live to the
//! end), and assigns every buffer a **best-fit offset** into one shared
//! arena. Two buffers share bytes exactly when their live intervals are
//! disjoint, so in-flight buffers can never alias: a buffer's window is
//! reused only after its last reader ran, and the planner places each new
//! buffer in the smallest gap (among placements whose intervals overlap its
//! own) that fits, growing the arena only when no gap does.
//!
//! [`Workspace`] is the runtime companion: it owns one
//! [`DeviceMemory`] whose arena is sized to the plan's peak and rebinds
//! itself only when handed a *different* plan. Steady-state inference
//! through [`CompilePlan::run_with`](crate::CompilePlan::run_with) —
//! same model, request after request — therefore performs **zero heap
//! allocations for intermediates**: inputs overwrite their existing
//! buffers, group outputs and scratch are zero-filled arena windows, and
//! constants were uploaded once at bind time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use hidet_graph::{Graph, TensorId};
use hidet_sched::fusion::tensor_buffer_name;
use hidet_sim::{BufferId, DeviceMemory};

use crate::compiler::{CompileError, CompilePlan};

/// Monotone source of [`MemoryPlan`] identities, so a [`Workspace`] can tell
/// "same plan again" (no rebind) from "new plan" (rebind) without comparing
/// layouts.
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

/// One planned buffer: a named window of the arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedSlot {
    /// Device buffer name (`t<id>` for tensors, the kernel's scratch name
    /// otherwise).
    pub name: String,
    /// Start offset into the arena, in elements.
    pub offset: usize,
    /// Window length in elements.
    pub len: usize,
    /// Index of the group that produces (and first zeroes) the buffer.
    pub birth: usize,
    /// Index of the last group that reads it (`groups.len()` when the
    /// buffer is a graph output, which must survive the whole run).
    pub death: usize,
}

/// A liveness-based placement of every intermediate buffer of one
/// [`CompilePlan`] into a single arena. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    id: u64,
    slots: Vec<PlannedSlot>,
    arena_len: usize,
    unplanned_len: usize,
}

impl MemoryPlan {
    /// Plans the intermediates of `groups` (in execution order) for `graph`.
    ///
    /// Only buffers the execution itself creates are planned: group outputs
    /// and scratch. Graph inputs and constants stay owned buffers — they are
    /// written by the caller / at bind time, not by kernels, and their
    /// lifetime is the whole run.
    pub fn build(graph: &Graph, groups: &[hidet_sched::fusion::CompiledGroup]) -> MemoryPlan {
        let end = groups.len();
        let is_output = |t: TensorId| graph.outputs().contains(&t);
        // Collect live intervals in deterministic birth order.
        let mut intervals: Vec<PlannedSlot> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, group) in groups.iter().enumerate() {
            let t = group.output;
            let death = if is_output(t) {
                end
            } else {
                groups
                    .iter()
                    .enumerate()
                    .skip(i + 1)
                    .filter(|(_, g)| g.inputs.contains(&t))
                    .map(|(j, _)| j)
                    .max()
                    .unwrap_or(i)
            };
            let name = tensor_buffer_name(t);
            if seen.insert(name.clone()) {
                intervals.push(PlannedSlot {
                    name,
                    offset: 0,
                    len: graph.tensor(t).numel() as usize,
                    birth: i,
                    death,
                });
            }
            for (name, len) in &group.scratch {
                // A scratch name reused by another group would make one
                // binding serve two layouts; leave such buffers unplanned
                // (the executor falls back to an owned buffer for them).
                if seen.insert(name.clone()) {
                    intervals.push(PlannedSlot {
                        name: name.clone(),
                        offset: 0,
                        len: *len,
                        birth: i,
                        death: i,
                    });
                }
            }
        }
        let unplanned_len = intervals.iter().map(|s| s.len).sum();

        // Greedy best-fit: place each buffer (in birth order) into the
        // smallest gap between already-placed, lifetime-overlapping buffers
        // that fits; extend the arena only when none does.
        let mut placed: Vec<PlannedSlot> = Vec::new();
        let mut arena_len = 0usize;
        for mut slot in intervals {
            let mut busy: Vec<(usize, usize)> = placed
                .iter()
                .filter(|p| p.birth <= slot.death && p.death >= slot.birth)
                .map(|p| (p.offset, p.offset + p.len))
                .collect();
            busy.sort_unstable();
            let mut best: Option<(usize, usize)> = None; // (gap size, offset)
            let mut cursor = 0usize;
            for (start, stop) in busy {
                if start > cursor {
                    let gap = start - cursor;
                    if gap >= slot.len && best.is_none_or(|(g, _)| gap < g) {
                        best = Some((gap, cursor));
                    }
                }
                cursor = cursor.max(stop);
            }
            slot.offset = match best {
                Some((_, offset)) => offset,
                None => cursor, // first free byte past every overlapping buffer
            };
            arena_len = arena_len.max(slot.offset + slot.len);
            placed.push(slot);
        }

        MemoryPlan {
            id: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
            slots: placed,
            arena_len,
            unplanned_len,
        }
    }

    /// The planned buffers, in birth (execution) order.
    pub fn slots(&self) -> &[PlannedSlot] {
        &self.slots
    }

    /// Arena size in elements — the planned peak of all intermediates.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Planned peak intermediate footprint in bytes (4 bytes/element).
    pub fn peak_bytes(&self) -> usize {
        self.arena_len * 4
    }

    /// What the unplanned executor keeps resident by the end of a run: the
    /// sum of every intermediate, in bytes. `peak_bytes <= unplanned_bytes`
    /// always; strictly less whenever any two intermediates have disjoint
    /// lifetimes.
    pub fn unplanned_bytes(&self) -> usize {
        self.unplanned_len * 4
    }

    /// Proves the plan sound through `hidet_analysis::check_plan`: slot
    /// intervals well-formed, every window inside the arena, names unique,
    /// and no two lifetime-overlapping slots sharing bytes. The compiler
    /// runs this after planning and again on artifact load.
    pub fn verify(&self, location: &str) -> Vec<hidet_analysis::Diagnostic> {
        let slots: Vec<hidet_analysis::PlanSlot> = self
            .slots
            .iter()
            .map(|s| hidet_analysis::PlanSlot {
                name: s.name.clone(),
                offset: s.offset,
                len: s.len,
                birth: s.birth,
                death: s.death,
            })
            .collect();
        hidet_analysis::check_plan(&slots, self.arena_len, location)
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }
}

/// Reusable per-worker execution state: one [`DeviceMemory`] whose arena and
/// buffer bindings persist across requests. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Workspace {
    mem: DeviceMemory,
    bound: Option<Binding>,
}

/// What [`Workspace::bind`] resolved for one plan: every buffer name the
/// steady-state path needs, as a dense id of the workspace's memory, so
/// staging inputs, zeroing intermediates and launching kernels format and
/// hash no name.
#[derive(Debug)]
struct Binding {
    plan: u64,
    /// The device buffer of each graph tensor that has one, by tensor index.
    tensors: Vec<Option<BufferId>>,
    /// Per group: the buffers zero-filled before its kernels run (its output,
    /// then its scratch) with their lengths.
    zeroed: Vec<Vec<(BufferId, usize)>>,
    /// Per kernel, in launch order: the global buffers of its program.
    launches: Vec<Vec<Option<BufferId>>>,
}

impl Binding {
    /// Rebuilds `mem` for `plan` — arena sized, every planned buffer bound as
    /// a view, the constants it reads uploaded, inputs and unplanned
    /// intermediates allocated zeroed — and resolves every name once.
    fn new(mem: &mut DeviceMemory, plan: &CompilePlan) -> Binding {
        // A different plan may reuse buffer names with different meanings
        // (another model's tensor ids); start from clean bindings.
        *mem = DeviceMemory::new();
        mem.reserve_arena(plan.memory_plan().arena_len());
        for slot in plan.memory_plan().slots() {
            mem.bind_view(&slot.name, slot.offset, slot.len);
        }
        let graph = plan.graph();
        for (t, data) in plan.read_constants() {
            mem.alloc(&tensor_buffer_name(t), data);
        }
        for &t in graph.inputs() {
            mem.alloc_zeroed(&tensor_buffer_name(t), graph.tensor(t).numel() as usize);
        }
        let mut zeroed = Vec::with_capacity(plan.groups().len());
        for group in plan.groups() {
            let output = (
                tensor_buffer_name(group.output),
                graph.tensor(group.output).numel() as usize,
            );
            let buffers = std::iter::once(&output).chain(&group.scratch);
            let ids = buffers.map(|(name, len)| {
                // The planner leaves a scratch name shared by two groups
                // unplanned; such a buffer is owned, and re-sized by
                // `DeviceMemory::zero` when the groups disagree on it.
                if !mem.contains(name) {
                    mem.alloc_zeroed(name, *len);
                }
                (mem.id(name).expect("allocated above"), *len)
            });
            zeroed.push(ids.collect());
        }
        let tensors =
            (0..graph.num_tensors()).map(|idx| mem.id(&tensor_buffer_name(TensorId(idx))));
        Binding {
            plan: plan.memory_plan().id(),
            tensors: tensors.collect(),
            zeroed,
            launches: (plan.groups().iter().flat_map(|g| &g.kernels))
                .zip(plan.programs())
                .map(|(kernel, program)| program.resolve(kernel, mem))
                .collect(),
        }
    }

    fn tensor(&self, t: TensorId) -> Option<BufferId> {
        self.tensors.get(t.0).copied().flatten()
    }
}

impl Workspace {
    /// An empty workspace; binds lazily on first
    /// [`CompilePlan::run_with`](crate::CompilePlan::run_with).
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Total resident bytes currently held (arena + owned buffers).
    pub fn resident_bytes(&self) -> usize {
        self.mem.total_bytes()
    }

    /// Binds this workspace to `plan` if it is not already: sizes the arena,
    /// binds every planned buffer as a view, uploads the constants a kernel
    /// or the caller reads, allocates (zeroed) every graph input buffer, and
    /// resolves every buffer name the plan's kernels use to its id in this
    /// memory. A workspace already bound to the same plan returns
    /// immediately — the steady-state path.
    ///
    /// Binding is implicit in [`CompilePlan::run_with`](crate::CompilePlan::run_with);
    /// stateful drivers that stage inputs **in place** (see
    /// [`Workspace::input_mut`] / [`Workspace::run_prepared`]) may call it
    /// explicitly.
    pub fn bind(&mut self, plan: &CompilePlan) {
        self.bound(plan);
    }

    /// [`Workspace::bind`], handing back the memory and what was resolved.
    fn bound(&mut self, plan: &CompilePlan) -> (&mut DeviceMemory, &Binding) {
        let id = plan.memory_plan().id();
        if self.bound.as_ref().is_some_and(|b| b.plan != id) {
            self.bound = None;
        }
        let binding = self
            .bound
            .get_or_insert_with(|| Binding::new(&mut self.mem, plan));
        (&mut self.mem, binding)
    }

    /// Mutable view of graph input `t`'s device buffer, binding the plan
    /// first if needed. Staging inputs in place, step after step, keeps the
    /// steady state free of heap allocations (the buffer is created once at
    /// bind time); combined with [`Workspace::run_prepared`] the input data
    /// never passes through host vectors.
    ///
    /// # Errors
    /// [`CompileError::BadInput`] when `t` is not one of the plan's graph
    /// inputs.
    pub fn input_mut(
        &mut self,
        plan: &CompilePlan,
        t: TensorId,
    ) -> Result<&mut [f32], CompileError> {
        let (mem, binding) = self.bound(plan);
        let is_input = plan.graph().inputs().contains(&t);
        match binding.tensor(t).filter(|_| is_input) {
            Some(id) => Ok(mem.slice_mut(id)),
            None => Err(CompileError::BadInput(format!(
                "t{} is not a graph input",
                t.0
            ))),
        }
    }

    /// Graph output `t`'s device buffer after a run, without copying it out.
    /// `None` before the workspace ever bound a plan producing `t`.
    pub fn output(&self, t: TensorId) -> Option<&[f32]> {
        let id = self.bound.as_ref()?.tensor(t)?;
        Some(self.mem.slice(id))
    }

    /// Runs `plan`'s kernels against inputs already staged in this
    /// workspace's device memory (via [`Workspace::input_mut`]). Group
    /// outputs and scratch are zeroed exactly as in
    /// [`CompilePlan::run_with`](crate::CompilePlan::run_with); results stay
    /// device-side, readable through [`Workspace::output`].
    ///
    /// # Errors
    /// [`CompileError::Sim`] if a kernel faults.
    pub fn run_prepared(
        &mut self,
        plan: &CompilePlan,
        gpu: &hidet_sim::Gpu,
    ) -> Result<(), CompileError> {
        let (mem, binding) = self.bound(plan);
        let mut launches = plan.programs().iter().zip(&binding.launches);
        for (group, zeroed) in plan.groups().iter().zip(&binding.zeroed) {
            for &(id, len) in zeroed {
                mem.zero(id, len);
            }
            for (kernel, (program, buffers)) in group.kernels.iter().zip(launches.by_ref()) {
                gpu.launch(program, kernel, buffers, mem)?;
            }
        }
        Ok(())
    }

    /// Runs `plan`'s kernels for `inputs` against the bound memory.
    /// Mirrors the unplanned executor exactly — inputs written, every group
    /// output and scratch zeroed immediately before the group's kernels —
    /// so results are bit-identical to [`CompilePlan::run`](crate::CompilePlan::run).
    pub(crate) fn execute(
        &mut self,
        plan: &CompilePlan,
        inputs: &HashMap<TensorId, Vec<f32>>,
        gpu: &hidet_sim::Gpu,
    ) -> Result<HashMap<TensorId, Vec<f32>>, CompileError> {
        let graph = plan.graph();
        for &t in graph.inputs() {
            let data = inputs
                .get(&t)
                .ok_or_else(|| CompileError::BadInput(format!("missing input tensor t{}", t.0)))?;
            let staged = self.input_mut(plan, t)?;
            if data.len() != staged.len() {
                return Err(CompileError::BadInput(format!(
                    "input t{} has {} elements, expected {}",
                    t.0,
                    data.len(),
                    staged.len()
                )));
            }
            staged.copy_from_slice(data);
        }
        self.run_prepared(plan, gpu)?;
        Ok(graph
            .outputs()
            .iter()
            .filter_map(|&t| Some((t, self.output(t)?.to_vec())))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompilerOptions};
    use hidet_graph::{GraphBuilder, Tensor};
    use hidet_sim::Gpu;

    /// A four-group chain: each intermediate dies as soon as the next group
    /// has read it, so the planner should reuse bytes aggressively.
    fn chain() -> (Graph, TensorId, TensorId) {
        let mut g = GraphBuilder::new("chain");
        let x = g.input("x", &[16, 32]);
        let w1 = g.constant(Tensor::randn(&[32, 32], 1));
        let w2 = g.constant(Tensor::randn(&[32, 32], 2));
        let w3 = g.constant(Tensor::randn(&[32, 8], 3));
        let a = g.matmul(x, w1);
        let a = g.softmax(a, 1);
        let b = g.matmul(a, w2);
        let b = g.softmax(b, 1);
        let y = g.matmul(b, w3);
        (g.output(y).build(), x, y)
    }

    #[test]
    fn planned_peak_is_below_unplanned_sum() {
        let (graph, _, _) = chain();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let plan = compiled.plan().memory_plan();
        assert!(!plan.slots().is_empty());
        assert!(
            plan.peak_bytes() < plan.unplanned_bytes(),
            "peak {} vs sum {}",
            plan.peak_bytes(),
            plan.unplanned_bytes()
        );
        assert_eq!(plan.verify("test"), vec![]);
    }

    #[test]
    fn live_buffers_never_alias_and_outputs_survive() {
        let (graph, _, y) = chain();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let plan = compiled.plan().memory_plan();
        let out = plan
            .slots()
            .iter()
            .find(|s| s.name == tensor_buffer_name(y))
            .expect("graph output is planned");
        assert_eq!(
            out.death,
            compiled.plan().groups().len(),
            "graph outputs live past the last group"
        );
        assert_eq!(plan.verify("test"), vec![]);
    }

    #[test]
    fn workspace_runs_match_unplanned_and_reuse_memory() {
        let (graph, x, y) = chain();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let mut ws = Workspace::new();
        for seed in 0..3u64 {
            let data: Vec<f32> = Tensor::randn(&[16, 32], 100 + seed)
                .data()
                .unwrap()
                .to_vec();
            let mut inputs = HashMap::new();
            inputs.insert(x, data);
            let unplanned = compiled.run(&inputs, &gpu).unwrap();
            let planned = compiled.run_with(&inputs, &gpu, &mut ws).unwrap();
            assert_eq!(unplanned[&y], planned[&y], "seed {seed}");
        }
        let resident = ws.resident_bytes();
        // Another request must not grow the workspace.
        let mut inputs = HashMap::new();
        inputs.insert(x, Tensor::randn(&[16, 32], 7).data().unwrap().to_vec());
        compiled.run_with(&inputs, &gpu, &mut ws).unwrap();
        assert_eq!(
            ws.resident_bytes(),
            resident,
            "steady state must not allocate"
        );
    }

    #[test]
    fn workspace_rebinds_across_plans() {
        let (graph, x, y) = chain();
        let mut g2 = GraphBuilder::new("other");
        let x2 = g2.input("x", &[4, 8]);
        let w = g2.constant(Tensor::randn(&[8, 8], 5));
        let y2m = g2.matmul(x2, w);
        let y2 = g2.relu(y2m);
        let other = g2.output(y2).build();

        let gpu = Gpu::default();
        let a = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let b = compile(&other, &gpu, &CompilerOptions::quick()).unwrap();
        let mut ws = Workspace::new();

        let mut in_a = HashMap::new();
        in_a.insert(x, Tensor::randn(&[16, 32], 8).data().unwrap().to_vec());
        let mut in_b = HashMap::new();
        in_b.insert(x2, Tensor::randn(&[4, 8], 9).data().unwrap().to_vec());

        // Interleave the two models through one workspace; each must match
        // its own unplanned run every time.
        for _ in 0..2 {
            let got_a = a.run_with(&in_a, &gpu, &mut ws).unwrap();
            assert_eq!(got_a[&y], a.run(&in_a, &gpu).unwrap()[&y]);
            let got_b = b.run_with(&in_b, &gpu, &mut ws).unwrap();
            assert_eq!(got_b[&y2], b.run(&in_b, &gpu).unwrap()[&y2]);
        }
    }

    #[test]
    fn prepared_run_matches_host_staged_run_without_allocating() {
        let (graph, x, y) = chain();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let data: Vec<f32> = Tensor::randn(&[16, 32], 21).data().unwrap().to_vec();

        // Host-staged baseline.
        let mut inputs = HashMap::new();
        inputs.insert(x, data.clone());
        let mut ws_a = Workspace::new();
        let expect = compiled.run_with(&inputs, &gpu, &mut ws_a).unwrap();

        // Device-staged: write the input in place, run, read in place.
        let mut ws = Workspace::new();
        ws.input_mut(compiled.plan(), x)
            .unwrap()
            .copy_from_slice(&data);
        ws.run_prepared(compiled.plan(), &gpu).unwrap();
        assert_eq!(ws.output(y).unwrap(), expect[&y].as_slice());

        // Steady state: restage + rerun must not grow resident bytes.
        let resident = ws.resident_bytes();
        ws.input_mut(compiled.plan(), x)
            .unwrap()
            .copy_from_slice(&data);
        ws.run_prepared(compiled.plan(), &gpu).unwrap();
        assert_eq!(ws.resident_bytes(), resident);

        // Non-input tensors are rejected.
        let err = ws.input_mut(compiled.plan(), y).unwrap_err();
        assert!(matches!(err, CompileError::BadInput(_)), "{err}");
    }

    /// Two dense convolutions (lowered to implicit GEMM, their weights
    /// folded), a pool and a linear head.
    fn conv_net() -> (Graph, TensorId, TensorId) {
        let mut g = GraphBuilder::new("convs");
        let x = g.input("x", &[1, 3, 12, 12]);
        let y = g.conv_bn_relu(x, 8, 3, 1, 1);
        let y = g.conv_bn_relu(y, 8, 3, 2, 1);
        let p = g.global_avg_pool(y);
        let out = g.linear(p, 4);
        (g.output(out).build(), x, out)
    }

    #[test]
    fn a_binding_uploads_only_the_constants_a_kernel_reads() {
        let (graph, x, out) = conv_net();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let (plan, folded) = (compiled.plan(), compiled.graph());
        let mut ws = Workspace::new();
        ws.bind(plan);
        let bound = |t: TensorId| ws.mem.contains(&tensor_buffer_name(t));
        let constants: Vec<TensorId> = (0..folded.num_tensors())
            .map(TensorId)
            .filter(|&t| folded.tensor(t).is_const())
            .collect();
        let skipped: Vec<TensorId> = constants.iter().copied().filter(|&t| !bound(t)).collect();

        // What stays on the host is each conv's weight as built and the
        // reshaped view of it that the fold shares — nothing else.
        let weights: Vec<TensorId> = graph
            .ops()
            .iter()
            .filter(|op| matches!(op.kind, hidet_graph::OpKind::Conv2d { .. }))
            .map(|op| op.inputs[1])
            .collect();
        assert_eq!(weights.len(), 2);
        assert_eq!(skipped.len(), 2 * weights.len(), "{skipped:?}");
        for w in weights {
            let payload = folded.tensor(w).data().unwrap();
            let shares = |t: &&TensorId| std::ptr::eq(folded.tensor(**t).data().unwrap(), payload);
            assert_eq!(skipped.iter().filter(shares).count(), 2, "t{}", w.0);
        }

        // Resident: the arena, the input and the read constants — an upload
        // of every constant less exactly the skipped tensors' bytes.
        let bytes = |ts: &[TensorId]| -> usize {
            ts.iter()
                .map(|&t| 4 * folded.tensor(t).numel() as usize)
                .sum()
        };
        let every_constant = plan.memory_plan().peak_bytes() + bytes(&[x]) + bytes(&constants);
        assert_eq!(
            every_constant, 17_264,
            "the parent commit's bound workspace"
        );
        assert_eq!(ws.resident_bytes(), every_constant - bytes(&skipped));

        // The output's bits as the parent commit's binding made them.
        let mut inputs = HashMap::new();
        let data = Tensor::randn(&[1, 3, 12, 12], 5).data().unwrap().to_vec();
        inputs.insert(x, data);
        let planned = compiled.run_with(&inputs, &gpu, &mut ws).unwrap();
        let unplanned = compiled.run(&inputs, &gpu).unwrap();
        let bits: Vec<u32> = planned[&out].iter().map(|v| v.to_bits()).collect();
        assert_eq!(planned[&out], unplanned[&out]);
        assert_eq!(bits, [1023730794, 1048328213, 1040940019, 3200115984]);
    }

    #[test]
    fn a_fully_folded_graph_returns_its_constant_output() {
        let mut g = GraphBuilder::new("folded");
        let c = g.constant(Tensor::randn(&[2, 3], 4));
        let t = g.transpose(c, &[1, 0]);
        let y = g.relu(t);
        let graph = g.output(y).build();
        let expect = hidet_graph::reference::execute(&graph, &HashMap::new())[&y].clone();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        assert_eq!(compiled.num_kernels(), 0);
        assert_eq!(compiled.run(&HashMap::new(), &gpu).unwrap()[&y], expect);
        let mut ws = Workspace::new();
        ws.run_prepared(compiled.plan(), &gpu).unwrap();
        assert_eq!(ws.output(y).unwrap(), expect.as_slice());
    }

    #[test]
    fn missing_and_missized_inputs_reported() {
        let (graph, x, _) = chain();
        let gpu = Gpu::default();
        let compiled = compile(&graph, &gpu, &CompilerOptions::quick()).unwrap();
        let mut ws = Workspace::new();
        let err = compiled
            .run_with(&HashMap::new(), &gpu, &mut ws)
            .unwrap_err();
        assert!(matches!(err, CompileError::BadInput(_)), "{err}");
        let mut inputs = HashMap::new();
        inputs.insert(x, vec![0.0; 3]);
        let err = compiled.run_with(&inputs, &gpu, &mut ws).unwrap_err();
        assert!(matches!(err, CompileError::BadInput(_)), "{err}");
    }
}
