//! Writing a tensor program directly in the task-mapping paradigm
//! (paper §4.1/Fig. 8): the cooperative-load example, plus a complete tiled
//! matmul built from `repeat`/`spatial` compositions — without the graph
//! frontend.
//!
//! ```text
//! cargo run --release --example custom_operator
//! ```

use hidet::prelude::*;
use hidet_ir::prelude::*;
use hidet_sim::DeviceMemory;

fn main() {
    // --- Paper Fig. 8: cooperative load of a 64x8 tile by 128 threads. ---
    // Define a task mapping: 4 tasks per thread, 16x8 threads spatially.
    let tm = repeat(&[4, 1]) * spatial(&[16, 8]);
    println!("task mapping: {tm}");
    println!(
        "  task shape {:?}, {} workers",
        tm.task_shape(),
        tm.num_workers()
    );
    println!(
        "  worker 0 executes: {:?}",
        tm.worker_tasks(0).collect::<Vec<_>>()
    );

    // Embed the scheduling in a tensor program (step (2) of the paradigm).
    let mut kb = KernelBuilder::new("cooperative_load_a", 1, 128);
    let a = kb.param("A", DType::F32, &[64, 8]);
    let out = kb.param("Out", DType::F32, &[64, 8]);
    let smem = kb.shared("SmemA", DType::F32, &[64, 8]);
    let load_stmt = foreach_task(&tm, thread_idx(), |coords| {
        store(&smem, coords.clone(), load(&a, coords))
    });
    let copy_back = foreach_task(&tm, thread_idx(), |coords| {
        store(&out, coords.clone(), load(&smem, coords) * 2.0f32)
    });
    kb.push(hidet_ir::passes::simplify(load_stmt));
    kb.push(sync_threads());
    kb.push(hidet_ir::passes::simplify(copy_back));
    let kernel = kb.build();

    println!(
        "\n--- generated CUDA ---\n{}",
        hidet_ir::cuda::to_cuda(&kernel)
    );

    // Execute on the simulated GPU.
    let gpu = Gpu::default();
    let mut mem = DeviceMemory::new();
    let input: Vec<f32> = (0..64 * 8).map(|i| i as f32).collect();
    mem.alloc("A", &input);
    mem.alloc_zeroed("Out", 64 * 8);
    gpu.run(&kernel, &mut mem).expect("kernel runs");
    assert_eq!(mem.read("Out")[10], 20.0);
    println!("functional check passed: Out = 2 * A");

    // --- The paper's §5.1.2 four-level composition for matmul. ---
    let c_map = spatial(&[4, 2]) * repeat(&[2, 2]) * spatial(&[4, 8]) * repeat(&[4, 4]);
    println!("\nmatmul block mapping: {c_map}");
    println!(
        "  {} tasks on {} threads ({} per thread)",
        c_map.num_tasks(),
        c_map.num_workers(),
        c_map.tasks_per_worker()
    );

    // Instantiate the full matmul template with a chosen schedule and time it.
    let problem = MatmulProblem::new(1024, 1024, 1024);
    let config = MatmulConfig::default();
    let kernels = hidet_sched::matmul_kernel(
        problem,
        config,
        hidet_sched::MatmulIo::direct("my_matmul", problem),
    );
    let est = gpu.estimate(&kernels[0]).expect("estimable");
    println!(
        "\n1024^3 matmul with schedule {}: {:.1} us ({:.1} waves, occupancy {} blocks/SM)",
        config.id(),
        est.micros(),
        est.breakdown.waves,
        est.breakdown.occupancy.blocks_per_sm
    );
}
