//! Criterion benches of the task-mapping algebra: composition, enumeration
//! and lowering throughput (these sit on the tuner's hot path).

use criterion::{criterion_group, criterion_main, Criterion};
use hidet_ir::prelude::*;
use hidet_taskmap::{repeat, spatial};

fn bench_composition(c: &mut Criterion) {
    c.bench_function("taskmap_compose_4_atoms", |b| {
        b.iter(|| {
            std::hint::black_box(
                spatial(&[4, 2]) * repeat(&[2, 2]) * spatial(&[4, 8]) * repeat(&[4, 4]),
            )
        })
    });
}

fn bench_worker_enumeration(c: &mut Criterion) {
    let tm = spatial(&[4, 2]) * repeat(&[2, 2]) * spatial(&[4, 8]) * repeat(&[4, 4]);
    c.bench_function("taskmap_enumerate_all_workers", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for w in 0..tm.num_workers() {
                count += tm.worker_tasks(w).count();
            }
            std::hint::black_box(count)
        })
    });
}

fn bench_lowering(c: &mut Criterion) {
    let tm = spatial(&[4, 2]) * repeat(&[2, 2]) * spatial(&[4, 8]) * repeat(&[4, 4]);
    let buf = Buffer::new("A", MemScope::Global, DType::F32, &[128, 128]);
    c.bench_function("taskmap_lower_and_simplify", |b| {
        b.iter(|| {
            let stmt = foreach_task(&tm, thread_idx(), |coords| store(&buf, coords, fconst(1.0)));
            std::hint::black_box(hidet_ir::passes::simplify(stmt))
        })
    });
}

criterion_group!(
    benches,
    bench_composition,
    bench_worker_enumeration,
    bench_lowering
);
criterion_main!(benches);
