//! Rule-based scheduling (paper §5.1.3).
//!
//! Generates tensor programs directly from computation definitions without a
//! schedule template: injective operators (and whole fused injective chains)
//! become grid-stride elementwise kernels; windowed operators (pooling,
//! depthwise convolution) become direct thread-per-output kernels with inner
//! window loops.

use hidet_graph::compute::delinearize_expr;
use hidet_ir::prelude::*;
use hidet_ir::visit::substitute;

/// A resolved elementwise job: `out[axes] = expr`, where `expr` already
/// references real kernel parameter buffers (prologue chains inlined by the
/// fusion pass).
pub struct ElementwiseJob {
    /// Kernel name.
    pub name: String,
    /// Output buffer.
    pub out: BufferRef,
    /// Axis variables of `expr`, one per output dimension.
    pub axes: Vec<Var>,
    /// The element expression.
    pub expr: Expr,
    /// Kernel parameters (inputs first, output last, by convention).
    pub params: Vec<BufferRef>,
}

impl std::fmt::Debug for ElementwiseJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElementwiseJob")
            .field("name", &self.name)
            .field("out", &self.out.name())
            .finish_non_exhaustive()
    }
}

/// Threads per block used by rule-based kernels.
pub const ELEMENTWISE_BLOCK: i64 = 256;

/// Generates a grid-stride elementwise kernel for the job.
pub fn elementwise_kernel(job: ElementwiseJob) -> Kernel {
    let numel = job.out.num_elements();
    let grid = (numel + ELEMENTWISE_BLOCK - 1) / ELEMENTWISE_BLOCK;
    let mut kb = KernelBuilder::new(&job.name, grid.max(1), ELEMENTWISE_BLOCK);
    for p in &job.params {
        kb.param(p.name(), p.dtype(), p.shape());
    }
    let block = ELEMENTWISE_BLOCK;
    let flat = var("flat");
    let idx = delinearize_expr(flat.expr(), job.out.shape());
    let mut value = job.expr.clone();
    for (axis, ie) in job.axes.iter().zip(&idx) {
        value = substitute(&value, axis, ie);
    }
    let body = seq(vec![
        let_(&flat, block_idx() * block + thread_idx()),
        if_then(flat.expr().lt(numel), store(&job.out, idx, value)),
    ]);
    kb.body(hidet_ir::passes::simplify(body));
    kb.build()
}

/// Which pooling reduction a window kernel performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowReduce {
    /// Maximum over the window.
    Max,
    /// Average over *valid* (unpadded) window positions.
    Avg,
}

/// Maps logical element indices to a value expression.
pub type ElementLoad<'a> = Box<dyn Fn(&[Expr]) -> Expr + 'a>;

/// Stores a computed value at logical element indices.
pub type ElementStore<'a> = Box<dyn Fn(&[Expr], Expr) -> Stmt + 'a>;

/// IO binding for window kernels (pooling / depthwise convolution): loads
/// address logical NCHW input coordinates; the store receives full output
/// indices and the computed value (epilogues fused by the caller).
pub struct WindowIo<'a> {
    /// Kernel name.
    pub name: String,
    /// Reads `x[n, c, h, w]`.
    pub load: ElementLoad<'a>,
    /// Stores `out[indices] = value`.
    pub store: ElementStore<'a>,
    /// Kernel parameters.
    pub params: Vec<BufferRef>,
}

impl std::fmt::Debug for WindowIo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowIo")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Generates a pooling kernel: one thread per output element, looping over the
/// window with boundary predicates.
#[allow(clippy::too_many_arguments)]
pub fn pool_kernel(
    reduce: WindowReduce,
    in_shape: &[i64],  // NCHW
    out_shape: &[i64], // NCHW
    kernel: i64,
    stride: i64,
    padding: i64,
    io: WindowIo<'_>,
) -> Kernel {
    let window = Window::Pool(reduce);
    window_kernel(window, in_shape, out_shape, kernel, stride, padding, io)
}

/// Generates a depthwise-convolution kernel (`groups == channels`): one thread
/// per output element, window loop, weight indexed `[c, 0, kh, kw]`.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv_kernel(
    in_shape: &[i64],
    out_shape: &[i64],
    weight: BufferRef, // [C, 1, KH, KW]
    kernel: i64,
    stride: i64,
    padding: i64,
    io: WindowIo<'_>,
) -> Kernel {
    let window = Window::Depthwise(weight);
    window_kernel(window, in_shape, out_shape, kernel, stride, padding, io)
}

/// What a window kernel accumulates over each output element's window.
enum Window {
    Pool(WindowReduce),
    /// Weighted by `weight[c, 0, kh, kw]`.
    Depthwise(BufferRef),
}

/// The kernel both window operators share: one thread per output element,
/// the `kh`/`kw` window loop, and the input load clamped into the image and
/// counted only where the window position is valid (not padding).
fn window_kernel(
    window: Window,
    in_shape: &[i64],
    out_shape: &[i64],
    kernel: i64,
    stride: i64,
    padding: i64,
    io: WindowIo<'_>,
) -> Kernel {
    let (h, w) = (in_shape[2], in_shape[3]);
    let numel: i64 = out_shape.iter().product();
    let grid = (numel + ELEMENTWISE_BLOCK - 1) / ELEMENTWISE_BLOCK;
    let mut kb = KernelBuilder::new(&io.name, grid.max(1), ELEMENTWISE_BLOCK);
    for p in &io.params {
        kb.param(p.name(), p.dtype(), p.shape());
    }
    // An average pool keeps `[value, count]`; the others only the value.
    let counted = matches!(window, Window::Pool(WindowReduce::Avg));
    let acc = kb.local("Acc", DType::F32, &[if counted { 2 } else { 1 }]);
    let get = |i| load(&acc, vec![c(i)]);
    let set = |i, v| store(&acc, vec![c(i)], v);
    let flat = var("flat");
    let idx = delinearize_expr(flat.expr(), out_shape);
    let (n, ci, oh, ow) = (&idx[0], &idx[1], &idx[2], &idx[3]);
    let loop_ = for_range("kh", kernel, |kh| {
        for_range("kw", kernel, |kw| {
            let ih = oh.clone() * stride + kh.clone() - padding;
            let iw = ow.clone() * stride + kw.clone() - padding;
            let valid = ih
                .clone()
                .ge(0)
                .and(ih.clone().lt(h))
                .and(iw.clone().ge(0))
                .and(iw.clone().lt(w));
            let v = (io.load)(&[
                n.clone(),
                ci.clone(),
                ih.max(0).min(h - 1),
                iw.max(0).min(w - 1),
            ]);
            let update = match &window {
                Window::Pool(WindowReduce::Max) => set(0, get(0).max(v)),
                Window::Pool(WindowReduce::Avg) => {
                    seq(vec![set(0, get(0) + v), set(1, get(1) + 1.0f32)])
                }
                Window::Depthwise(weight) => {
                    set(0, get(0) + v * load(weight, vec![ci.clone(), c(0), kh, kw]))
                }
            };
            if_then(valid, update)
        })
    });
    let (init, result) = match window {
        Window::Pool(WindowReduce::Max) => (f32::NEG_INFINITY, get(0)),
        Window::Pool(WindowReduce::Avg) => (0.0, get(0) / get(1).max(1.0f32)),
        Window::Depthwise(_) => (0.0, get(0)),
    };
    let mut run = vec![set(0, fconst(init))];
    if counted {
        run.push(set(1, fconst(0.0)));
    }
    run.extend([loop_, (io.store)(&idx, result)]);
    let body = seq(vec![
        let_(&flat, block_idx() * ELEMENTWISE_BLOCK + thread_idx()),
        if_then(flat.expr().lt(numel), seq(run)),
    ]);
    kb.body(hidet_ir::passes::simplify(body));
    kb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidet_sim::{DeviceMemory, Gpu};

    #[test]
    fn elementwise_relu_kernel() {
        let x = Buffer::new("X", MemScope::Global, DType::F32, &[10]);
        let y = Buffer::new("Y", MemScope::Global, DType::F32, &[10]);
        let i = Var::index("i0");
        let job = ElementwiseJob {
            name: "relu".to_string(),
            out: y.clone(),
            axes: vec![i.clone()],
            expr: load(&x, vec![i.expr()]).max(0.0f32),
            params: vec![x, y],
        };
        let kernel = elementwise_kernel(job);
        let gpu = Gpu::default();
        let mut mem = DeviceMemory::new();
        mem.alloc("X", &[-2.0, -1.0, 0.0, 1.0, 2.0, -3.0, 3.0, -4.0, 4.0, 5.0]);
        mem.alloc_zeroed("Y", 10);
        gpu.run(&kernel, &mut mem).unwrap();
        assert_eq!(
            mem.read("Y"),
            &[0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 4.0, 5.0]
        );
    }

    fn direct_window_io(name: &str, in_shape: &[i64], out_shape: &[i64]) -> WindowIo<'static> {
        let x = Buffer::new("X", MemScope::Global, DType::F32, in_shape);
        let y = Buffer::new("Y", MemScope::Global, DType::F32, out_shape);
        let x2 = x.clone();
        let y2 = y.clone();
        WindowIo {
            name: name.to_string(),
            load: Box::new(move |idx| load(&x2, idx.to_vec())),
            store: Box::new(move |idx, v| store(&y2, idx.to_vec(), v)),
            params: vec![x, y],
        }
    }

    #[test]
    fn max_pool_kernel_matches_reference() {
        let in_shape = [1i64, 2, 6, 6];
        let out_shape = [1i64, 2, 3, 3];
        let io = direct_window_io("mp", &in_shape, &out_shape);
        let kernel = pool_kernel(WindowReduce::Max, &in_shape, &out_shape, 3, 2, 1, io);
        let gpu = Gpu::default();
        let mut mem = DeviceMemory::new();
        let x = hidet_graph::Tensor::randn(&[1, 2, 6, 6], 3);
        mem.alloc("X", x.data().unwrap());
        mem.alloc_zeroed("Y", 18);
        gpu.run(&kernel, &mut mem).unwrap();
        let expect = hidet_graph::reference::eval_kind(
            &hidet_graph::OpKind::MaxPool {
                kernel: 3,
                stride: 2,
                padding: 1,
            },
            &[x.data().unwrap()],
            &[&in_shape],
            &out_shape,
        );
        assert_eq!(mem.read("Y"), &expect[..]);
    }

    #[test]
    fn avg_pool_counts_valid_positions_only() {
        let in_shape = [1i64, 1, 2, 2];
        let out_shape = [1i64, 1, 2, 2];
        let io = direct_window_io("ap", &in_shape, &out_shape);
        let kernel = pool_kernel(WindowReduce::Avg, &in_shape, &out_shape, 2, 2, 1, io);
        let gpu = Gpu::default();
        let mut mem = DeviceMemory::new();
        mem.alloc("X", &[2.0, 2.0, 2.0, 2.0]);
        mem.alloc_zeroed("Y", 4);
        gpu.run(&kernel, &mut mem).unwrap();
        assert_eq!(mem.read("Y"), &[2.0; 4]);
    }

    #[test]
    fn depthwise_conv_matches_reference() {
        let in_shape = [1i64, 3, 8, 8];
        let out_shape = [1i64, 3, 8, 8];
        let w = Buffer::new("W", MemScope::Global, DType::F32, &[3, 1, 3, 3]);
        let mut io = direct_window_io("dw", &in_shape, &out_shape);
        io.params.push(w.clone());
        let kernel = depthwise_conv_kernel(&in_shape, &out_shape, w, 3, 1, 1, io);
        let gpu = Gpu::default();
        let mut mem = DeviceMemory::new();
        let x = hidet_graph::Tensor::randn(&[1, 3, 8, 8], 1);
        let wt = hidet_graph::Tensor::randn(&[3, 1, 3, 3], 2);
        mem.alloc("X", x.data().unwrap());
        mem.alloc("W", wt.data().unwrap());
        mem.alloc_zeroed("Y", 3 * 64);
        gpu.run(&kernel, &mut mem).unwrap();
        let expect = hidet_graph::reference::eval_kind(
            &hidet_graph::OpKind::Conv2d {
                stride: 1,
                padding: 1,
                groups: 3,
            },
            &[x.data().unwrap(), wt.data().unwrap()],
            &[&in_shape, &[3, 1, 3, 3]],
            &out_shape,
        );
        for (a, b) in mem.read("Y").iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
