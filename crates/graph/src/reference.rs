//! Reference CPU executor: ground truth for every compiled kernel.
//!
//! Straightforward scalar implementations of every operator, run on the host.
//! The compiler's correctness tests execute graphs both here and on the
//! simulated GPU and compare outputs element-wise.

use std::collections::HashMap;

use crate::graph::{Graph, TensorId};
use crate::op::{BinaryKind, OpKind, Operator, UnaryKind};

/// Runtime tensor values keyed by graph tensor id.
pub type ValueMap = HashMap<TensorId, Vec<f32>>;

/// Executes a whole graph on the CPU.
///
/// `inputs` must provide one value per graph input, with the correct volume.
/// Constants come from the graph itself. Returns a map containing every
/// computed tensor (outputs included).
///
/// # Panics
/// Panics on missing/missized inputs — this executor is a test oracle, not a
/// public runtime.
pub fn execute(graph: &Graph, inputs: &ValueMap) -> ValueMap {
    let mut values: ValueMap = HashMap::new();
    for (id, value) in inputs {
        let expect = graph.tensor(*id).numel() as usize;
        assert_eq!(value.len(), expect, "input t{} has wrong volume", id.0);
        values.insert(*id, value.clone());
    }
    for idx in 0..graph.num_tensors() {
        let id = TensorId(idx);
        if let Some(data) = graph.tensor(id).data() {
            values.entry(id).or_insert_with(|| data.to_vec());
        }
    }
    for op in graph.ops() {
        let out = execute_op(graph, op, &values);
        values.insert(op.output, out);
    }
    values
}

/// Executes a single operator given its input values.
pub fn execute_op(graph: &Graph, op: &Operator, values: &ValueMap) -> Vec<f32> {
    let ins: Vec<&[f32]> = op
        .inputs
        .iter()
        .map(|t| {
            values
                .get(t)
                .unwrap_or_else(|| panic!("missing value for t{} feeding {}", t.0, op.name))
                .as_slice()
        })
        .collect();
    let shapes = graph.input_shapes(op);
    let out_shape = graph.tensor(op.output).shape();
    eval_kind(&op.kind, &ins, &shapes, out_shape)
}

/// Evaluates an operator kind outside any graph (used by constant folding).
pub fn eval_kind(kind: &OpKind, ins: &[&[f32]], shapes: &[&[i64]], out_shape: &[i64]) -> Vec<f32> {
    let out_numel: i64 = out_shape.iter().product();
    match kind {
        OpKind::Conv2d {
            stride,
            padding,
            groups,
        } => conv2d(
            ins[0], shapes[0], ins[1], shapes[1], *stride, *padding, *groups, out_shape,
        ),
        OpKind::Matmul => matmul(ins[0], ins[1], shapes[0][0], shapes[0][1], shapes[1][1]),
        OpKind::BatchMatmul => {
            let (b, m, k) = (shapes[0][0], shapes[0][1], shapes[0][2]);
            let n = shapes[1][2];
            let mut out = Vec::with_capacity((b * m * n) as usize);
            for bi in 0..b {
                let a = &ins[0][(bi * m * k) as usize..((bi + 1) * m * k) as usize];
                let bb = &ins[1][(bi * k * n) as usize..((bi + 1) * k * n) as usize];
                out.extend(matmul(a, bb, m, k, n));
            }
            out
        }
        OpKind::Unary(u) => ins[0].iter().map(|&x| unary(*u, x)).collect(),
        OpKind::Binary(b) => binary_broadcast(*b, ins[0], shapes[0], ins[1], shapes[1], out_shape),
        OpKind::BatchNorm => {
            let (n, c, h, w) = nchw(shapes[0]);
            let mut out = vec![0.0; (n * c * h * w) as usize];
            for i in 0..out.len() as i64 {
                let ch = (i / (h * w)) % c;
                out[i as usize] = ins[0][i as usize] * ins[1][ch as usize] + ins[2][ch as usize];
            }
            out
        }
        OpKind::Softmax { axis } => softmax(ins[0], shapes[0], *axis),
        OpKind::LayerNorm => layer_norm(ins[0], shapes[0], ins[1], ins[2]),
        OpKind::MaxPool {
            kernel,
            stride,
            padding,
        } => pool(
            ins[0], shapes[0], *kernel, *stride, *padding, out_shape, true,
        ),
        OpKind::AvgPool {
            kernel,
            stride,
            padding,
        } => pool(
            ins[0], shapes[0], *kernel, *stride, *padding, out_shape, false,
        ),
        OpKind::GlobalAvgPool => {
            let (n, c, h, w) = nchw(shapes[0]);
            let mut out = vec![0.0; (n * c) as usize];
            for ni in 0..n {
                for ci in 0..c {
                    let base = ((ni * c + ci) * h * w) as usize;
                    let sum: f32 = ins[0][base..base + (h * w) as usize].iter().sum();
                    out[(ni * c + ci) as usize] = sum / (h * w) as f32;
                }
            }
            out
        }
        OpKind::Reshape { .. } => ins[0].to_vec(),
        OpKind::Transpose { perm } => transpose(ins[0], shapes[0], perm),
        OpKind::Img2col {
            kernel,
            stride,
            padding,
        } => img2col(ins[0], shapes[0], *kernel, *stride, *padding),
        OpKind::Concat { axis } => concat(ins, shapes, *axis, out_shape),
        #[allow(unreachable_patterns)]
        _ => panic!("unhandled op kind producing {out_numel} elements"),
    }
}

fn nchw(shape: &[i64]) -> (i64, i64, i64, i64) {
    (shape[0], shape[1], shape[2], shape[3])
}

fn unary(u: UnaryKind, x: f32) -> f32 {
    match u {
        UnaryKind::Relu => x.max(0.0),
        UnaryKind::Relu6 => x.clamp(0.0, 6.0),
        UnaryKind::Gelu => 0.5 * x * (1.0 + hidet_sim_erf(x * std::f32::consts::FRAC_1_SQRT_2)),
        UnaryKind::Tanh => x.tanh(),
        UnaryKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        UnaryKind::Exp => x.exp(),
        UnaryKind::Sqrt => x.sqrt(),
        UnaryKind::Neg => -x,
    }
}

/// Same erf approximation the simulator uses, so both sides agree bit-for-bit.
fn hidet_sim_erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_1) * t) + 1.421_413_8) * t - 0.284_496_72) * t
            + 0.254_829_6)
            * t
            * (-x * x).exp();
    sign * y
}

fn binary(b: BinaryKind, x: f32, y: f32) -> f32 {
    match b {
        BinaryKind::Add => x + y,
        BinaryKind::Sub => x - y,
        BinaryKind::Mul => x * y,
        BinaryKind::Div => x / y,
    }
}

fn binary_broadcast(
    b: BinaryKind,
    lhs: &[f32],
    lshape: &[i64],
    rhs: &[f32],
    rshape: &[i64],
    out_shape: &[i64],
) -> Vec<f32> {
    let extents: Vec<usize> = out_shape.iter().map(|&d| d as usize).collect();
    let lsteps = broadcast_steps(lshape, extents.len());
    let rsteps = broadcast_steps(rshape, extents.len());
    let inner = extents.last().copied().unwrap_or(1);
    let lstep = lsteps.last().copied().unwrap_or(0);
    let rstep = rsteps.last().copied().unwrap_or(0);
    let mut out = Vec::with_capacity(extents.iter().product());
    for_each_row(&extents, [&lsteps, &rsteps], |[l, r]| {
        out.extend((0..inner).map(|i| binary(b, lhs[l + i * lstep], rhs[r + i * rstep])));
    });
    out
}

/// How far an operand of `shape` moves per unit of each axis of the
/// rank-`rank` result it broadcasts into: its row-major stride, or nothing
/// along an axis it lacks (leading) or has with extent 1.
fn broadcast_steps(shape: &[i64], rank: usize) -> Vec<usize> {
    let mut steps = vec![0; rank - shape.len()];
    let own = row_major_strides(shape);
    steps.extend(
        own.iter()
            .zip(shape)
            .map(|(&s, &d)| if d == 1 { 0 } else { s }),
    );
    steps
}

fn row_major_strides(shape: &[i64]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for d in (1..shape.len()).rev() {
        strides[d - 1] = strides[d] * shape[d] as usize;
    }
    strides
}

/// The odometer under [`transpose`] and [`binary_broadcast`]: visits the rows
/// (runs along the last axis) of the row-major iteration space `extents` in
/// order and hands `row` the offset of each row's first element in each of
/// `N` operands, where operand `n` moves `steps[n][d]` per unit of axis `d`.
/// Offsets are carried from row to row, never recomputed from a flat index.
fn for_each_row<const N: usize>(
    extents: &[usize],
    steps: [&[usize]; N],
    mut row: impl FnMut([usize; N]),
) {
    let outer = extents.len().saturating_sub(1);
    let mut idx = vec![0usize; outer];
    let mut at = [0usize; N];
    loop {
        row(at);
        let mut d = outer;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            for (a, s) in at.iter_mut().zip(steps) {
                *a += s[d];
            }
            if idx[d] < extents[d] {
                break;
            }
            idx[d] = 0;
            for (a, s) in at.iter_mut().zip(steps) {
                *a -= s[d] * extents[d];
            }
        }
    }
}

#[cfg(test)]
fn delinearize(mut flat: i64, shape: &[i64]) -> Vec<i64> {
    let mut out = vec![0; shape.len()];
    for (slot, d) in out.iter_mut().zip(shape).rev() {
        *slot = flat % d;
        flat /= d;
    }
    out
}

fn matmul(a: &[f32], b: &[f32], m: i64, k: i64, n: i64) -> Vec<f32> {
    let mut out = vec![0.0f32; (m * n) as usize];
    for i in 0..m {
        for kk in 0..k {
            let av = a[(i * k + kk) as usize];
            if av == 0.0 {
                continue;
            }
            let brow = (kk * n) as usize;
            let orow = (i * n) as usize;
            for j in 0..n as usize {
                out[orow + j] += av * b[brow + j];
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn conv2d(
    x: &[f32],
    xs: &[i64],
    w: &[f32],
    ws: &[i64],
    stride: i64,
    padding: i64,
    groups: i64,
    out_shape: &[i64],
) -> Vec<f32> {
    let (n, c, h, wd) = nchw(xs);
    let (o, ci, kh, kw) = nchw(ws);
    let (oh, ow) = (out_shape[2], out_shape[3]);
    let og = o / groups; // output channels per group
    let mut out = vec![0.0f32; (n * o * oh * ow) as usize];
    for ni in 0..n {
        for oi in 0..o {
            let g = oi / og;
            for yi in 0..oh {
                for xi in 0..ow {
                    let mut acc = 0.0f32;
                    for cg in 0..ci {
                        let cin = g * ci + cg;
                        for khi in 0..kh {
                            let ih = yi * stride + khi - padding;
                            if ih < 0 || ih >= h {
                                continue;
                            }
                            for kwi in 0..kw {
                                let iw = xi * stride + kwi - padding;
                                if iw < 0 || iw >= wd {
                                    continue;
                                }
                                let xv = x[(((ni * c + cin) * h + ih) * wd + iw) as usize];
                                let wv = w[(((oi * ci + cg) * kh + khi) * kw + kwi) as usize];
                                acc += xv * wv;
                            }
                        }
                    }
                    out[(((ni * o + oi) * oh + yi) * ow + xi) as usize] = acc;
                }
            }
        }
    }
    out
}

fn softmax(x: &[f32], shape: &[i64], axis: usize) -> Vec<f32> {
    let axis_len = shape[axis];
    let inner: i64 = shape[axis + 1..].iter().product();
    let outer: i64 = shape[..axis].iter().product();
    let mut out = vec![0.0f32; x.len()];
    for oi in 0..outer {
        for ii in 0..inner {
            let at = |a: i64| ((oi * axis_len + a) * inner + ii) as usize;
            let mut mx = f32::NEG_INFINITY;
            for a in 0..axis_len {
                mx = mx.max(x[at(a)]);
            }
            let mut sum = 0.0f32;
            for a in 0..axis_len {
                sum += (x[at(a)] - mx).exp();
            }
            for a in 0..axis_len {
                out[at(a)] = (x[at(a)] - mx).exp() / sum;
            }
        }
    }
    out
}

fn layer_norm(x: &[f32], shape: &[i64], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
    let d = *shape.last().expect("rank >= 1");
    let rows = x.len() as i64 / d;
    let mut out = vec![0.0f32; x.len()];
    for r in 0..rows {
        let row = &x[(r * d) as usize..((r + 1) * d) as usize];
        let mean: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for (j, &v) in row.iter().enumerate() {
            out[(r * d) as usize + j] = (v - mean) * inv * gamma[j] + beta[j];
        }
    }
    out
}

fn pool(
    x: &[f32],
    xs: &[i64],
    kernel: i64,
    stride: i64,
    padding: i64,
    out_shape: &[i64],
    is_max: bool,
) -> Vec<f32> {
    let (n, c, h, w) = nchw(xs);
    let (oh, ow) = (out_shape[2], out_shape[3]);
    let mut out = vec![0.0f32; (n * c * oh * ow) as usize];
    for ni in 0..n {
        for ci in 0..c {
            for yi in 0..oh {
                for xi in 0..ow {
                    let mut acc = if is_max { f32::NEG_INFINITY } else { 0.0 };
                    let mut count = 0i64;
                    for khi in 0..kernel {
                        let ih = yi * stride + khi - padding;
                        if ih < 0 || ih >= h {
                            continue;
                        }
                        for kwi in 0..kernel {
                            let iw = xi * stride + kwi - padding;
                            if iw < 0 || iw >= w {
                                continue;
                            }
                            let v = x[(((ni * c + ci) * h + ih) * w + iw) as usize];
                            if is_max {
                                acc = acc.max(v);
                            } else {
                                acc += v;
                            }
                            count += 1;
                        }
                    }
                    out[(((ni * c + ci) * oh + yi) * ow + xi) as usize] = if is_max {
                        acc
                    } else if count > 0 {
                        acc / count as f32
                    } else {
                        0.0
                    };
                }
            }
        }
    }
    out
}

/// Output axis `j` is input axis `perm[j]`. The one permutation routine:
/// the oracle and constant folding both reach it through [`eval_kind`].
fn transpose(x: &[f32], shape: &[i64], perm: &[usize]) -> Vec<f32> {
    if let (&[rows, cols], &[1, 0]) = (shape, perm) {
        return transpose_2d(x, rows as usize, cols as usize);
    }
    let from = row_major_strides(shape);
    let extents: Vec<usize> = perm.iter().map(|&p| shape[p] as usize).collect();
    let steps: Vec<usize> = perm.iter().map(|&p| from[p]).collect();
    let inner = extents.last().copied().unwrap_or(1);
    let step = steps.last().copied().unwrap_or(0);
    let mut out = Vec::with_capacity(x.len());
    for_each_row(&extents, [&steps], |[base]| {
        out.extend((0..inner).map(|i| x[base + i * step]));
    });
    out
}

/// The matrix transpose `lower_convs` emits for every dense convolution's
/// weight, in tiles: the cache lines a tile's rows touch are reused for
/// every column of the tile, where a whole-column walk has evicted them by
/// the time it comes back for the next column.
fn transpose_2d(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    const TILE: usize = 32;
    let mut out = vec![0.0f32; rows * cols];
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            for c in c0..(c0 + TILE).min(cols) {
                for r in r0..r1 {
                    out[c * rows + r] = x[r * cols + c];
                }
            }
        }
    }
    out
}

fn img2col(x: &[f32], xs: &[i64], kernel: i64, stride: i64, padding: i64) -> Vec<f32> {
    let (n, c, h, w) = nchw(xs);
    let oh = (h + 2 * padding - kernel) / stride + 1;
    let ow = (w + 2 * padding - kernel) / stride + 1;
    let rows = n * oh * ow;
    let cols = c * kernel * kernel;
    let mut out = vec![0.0f32; (rows * cols) as usize];
    for r in 0..rows {
        let ni = r / (oh * ow);
        let yi = (r / ow) % oh;
        let xi = r % ow;
        for s in 0..cols {
            let ci = s / (kernel * kernel);
            let khi = (s / kernel) % kernel;
            let kwi = s % kernel;
            let ih = yi * stride + khi - padding;
            let iw = xi * stride + kwi - padding;
            if ih >= 0 && ih < h && iw >= 0 && iw < w {
                out[(r * cols + s) as usize] = x[(((ni * c + ci) * h + ih) * w + iw) as usize];
            }
        }
    }
    out
}

/// Everything from `axis` inwards is contiguous in an input and in the
/// output alike, so each index of the axes outside it moves one run of
/// `extent[axis] × inner` elements per input.
fn concat(ins: &[&[f32]], shapes: &[&[i64]], axis: usize, out_shape: &[i64]) -> Vec<f32> {
    let extent = |shape: &[i64]| shape.iter().product::<i64>() as usize;
    let (outer, inner) = (extent(&out_shape[..axis]), extent(&out_shape[axis + 1..]));
    let row = out_shape[axis] as usize * inner;
    let mut out = vec![0.0f32; outer * row];
    for o in 0..outer {
        let mut at = o * row;
        for (input, shape) in ins.iter().zip(shapes) {
            let run = shape[axis] as usize * inner;
            out[at..at + run].copy_from_slice(&input[o * run..][..run]);
            at += run;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::tensor::Tensor;
    use proptest::prelude::*;

    /// The definition [`transpose`] is pinned against: every output
    /// coordinate delinearised and looked up in the input on its own.
    fn naive_transpose(x: &[f32], shape: &[i64], perm: &[usize]) -> Vec<f32> {
        let out_shape: Vec<i64> = perm.iter().map(|&p| shape[p]).collect();
        (0..x.len() as i64)
            .map(|flat| {
                let out_idx = delinearize(flat, &out_shape);
                let mut in_idx = vec![0; shape.len()];
                for (j, &p) in perm.iter().enumerate() {
                    in_idx[p] = out_idx[j];
                }
                let at = in_idx.iter().zip(shape).fold(0, |at, (i, d)| at * d + i);
                x[at as usize]
            })
            .collect()
    }

    /// Same for [`binary_broadcast`].
    fn naive_broadcast(
        b: BinaryKind,
        lhs: (&[f32], &[i64]),
        rhs: (&[f32], &[i64]),
        out_shape: &[i64],
    ) -> Vec<f32> {
        let pick = |(data, shape): (&[f32], &[i64]), idx: &[i64]| {
            let idx = &idx[idx.len() - shape.len()..];
            let at = idx
                .iter()
                .zip(shape)
                .fold(0, |at, (&i, &d)| at * d + if d == 1 { 0 } else { i });
            data[at as usize]
        };
        (0..out_shape.iter().product::<i64>())
            .map(|flat| {
                let idx = delinearize(flat, out_shape);
                binary(b, pick(lhs, &idx), pick(rhs, &idx))
            })
            .collect()
    }

    /// Same for [`concat`]: every output coordinate looked up in the input
    /// its position along `axis` falls into.
    fn naive_concat(ins: &[&[f32]], shapes: &[&[i64]], axis: usize, out_shape: &[i64]) -> Vec<f32> {
        (0..out_shape.iter().product::<i64>())
            .map(|flat| {
                let mut idx = delinearize(flat, out_shape);
                let mut from = ins.iter().zip(shapes);
                loop {
                    let (input, shape) = from.next().expect("inputs cover the axis");
                    if idx[axis] < shape[axis] {
                        let at = idx.iter().zip(*shape).fold(0, |at, (i, d)| at * d + i);
                        break input[at as usize];
                    }
                    idx[axis] -= shape[axis];
                }
            })
            .collect()
    }

    fn permutations(rank: usize) -> Vec<Vec<usize>> {
        if rank == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for shorter in permutations(rank - 1) {
            for at in 0..rank {
                let mut perm = shorter.clone();
                perm.insert(at, rank - 1);
                all.push(perm);
            }
        }
        all
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Rank 1–4, extents 1–9 (1-extent and non-square included), every
        /// permutation of the axes.
        #[test]
        fn transpose_matches_the_naive_definition(
            shape in prop::collection::vec(1i64..10, 1..5),
            seed in 0u64..1000,
        ) {
            let x = Tensor::randn(&shape, seed);
            let x = x.data().unwrap();
            for perm in permutations(shape.len()) {
                prop_assert_eq!(
                    bits(&transpose(x, &shape, &perm)),
                    bits(&naive_transpose(x, &shape, &perm)),
                    "shape {:?} perm {:?}", &shape, &perm
                );
            }
        }

        /// Rank 1–4, one to four inputs that differ along the axis only
        /// (1-extent inputs included), every axis.
        #[test]
        fn concat_matches_the_naive_definition(
            shape in prop::collection::vec(1i64..6, 1..5),
            along in prop::collection::vec(1i64..5, 1..5),
            seed in 0u64..1000,
        ) {
            for axis in 0..shape.len() {
                let shapes: Vec<Vec<i64>> = along
                    .iter()
                    .map(|&extent| {
                        let mut s = shape.clone();
                        s[axis] = extent;
                        s
                    })
                    .collect();
                let inputs: Vec<Tensor> = shapes
                    .iter()
                    .zip(seed..)
                    .map(|(s, seed)| Tensor::randn(s, seed))
                    .collect();
                let ins: Vec<&[f32]> = inputs.iter().map(|t| t.data().unwrap()).collect();
                let shapes: Vec<&[i64]> = shapes.iter().map(Vec::as_slice).collect();
                let mut out_shape = shape.clone();
                out_shape[axis] = along.iter().sum();
                prop_assert_eq!(
                    bits(&concat(&ins, &shapes, axis, &out_shape)),
                    bits(&naive_concat(&ins, &shapes, axis, &out_shape)),
                    "shape {:?} axis {} extents {:?}", &shape, axis, &along
                );
            }
        }

        /// The blocked 2-D case across its tile edge (32), both sides.
        #[test]
        fn matrix_transpose_matches_the_naive_definition(
            rows in 1i64..80,
            cols in 1i64..80,
            seed in 0u64..1000,
        ) {
            let x = Tensor::randn(&[rows, cols], seed);
            let x = x.data().unwrap();
            prop_assert_eq!(
                bits(&transpose(x, &[rows, cols], &[1, 0])),
                bits(&naive_transpose(x, &[rows, cols], &[1, 0]))
            );
        }

        /// One operand flattens some axes to 1 and drops some leading ones;
        /// the other flattens only axes the first keeps, so the result has
        /// `out_shape`. Either side can be the thin one.
        #[test]
        fn broadcast_matches_the_naive_definition(
            out_shape in prop::collection::vec(1i64..7, 1..5),
            masks in (0u32..16, 0u32..16),
            dropped in 0usize..4,
            thin_on_the_left in 0u8..2,
            kind in prop::sample::select(vec![
                BinaryKind::Add, BinaryKind::Sub, BinaryKind::Mul, BinaryKind::Div,
            ]),
            seed in 0u64..1000,
        ) {
            let flattened = |mask: u32| -> Vec<i64> {
                let axis = |(d, &e): (usize, &i64)| if mask >> d & 1 == 1 { 1 } else { e };
                out_shape.iter().enumerate().map(axis).collect()
            };
            let dropped = dropped.min(out_shape.len() - 1);
            let thin_mask = masks.0 | ((1 << dropped) - 1);
            let mut lshape = flattened(thin_mask)[dropped..].to_vec();
            let mut rshape = flattened(masks.1 & !thin_mask);
            if thin_on_the_left == 0 {
                std::mem::swap(&mut lshape, &mut rshape);
            }
            let (l, r) = (Tensor::randn(&lshape, seed), Tensor::randn(&rshape, seed + 1));
            let (l, r) = (l.data().unwrap(), r.data().unwrap());
            prop_assert_eq!(
                bits(&binary_broadcast(kind, l, &lshape, r, &rshape, &out_shape)),
                bits(&naive_broadcast(kind, (l, &lshape), (r, &rshape), &out_shape)),
                "{:?} op {:?} -> {:?}", &lshape, &rshape, &out_shape
            );
        }
    }

    #[test]
    fn matmul_reference() {
        // [[1,2],[3,4]] x [[5,6],[7,8]] = [[19,22],[43,50]]
        let out = matmul(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
        assert_eq!(out, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with weight 1 is identity.
        let x: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let out = conv2d(
            &x,
            &[1, 1, 4, 4],
            &[1.0],
            &[1, 1, 1, 1],
            1,
            0,
            1,
            &[1, 1, 4, 4],
        );
        assert_eq!(out, x);
    }

    #[test]
    fn conv_matches_img2col_matmul() {
        // conv(x, w) == matmul(img2col(x), w_reshaped) — validates the paper's
        // implicit-GEMM lowering (§6.3.4) at the reference level.
        let x = Tensor::randn(&[2, 3, 8, 8], 1);
        let w = Tensor::randn(&[4, 3, 3, 3], 2);
        let direct = conv2d(
            x.data().unwrap(),
            &[2, 3, 8, 8],
            w.data().unwrap(),
            &[4, 3, 3, 3],
            2,
            1,
            1,
            &[2, 4, 4, 4],
        );
        let cols = img2col(x.data().unwrap(), &[2, 3, 8, 8], 3, 2, 1); // [2*16, 27]
                                                                       // w as [27, 4]: transpose of [4, 27].
        let wt = transpose(w.data().unwrap(), &[4, 27], &[1, 0]);
        let mm = matmul(&cols, &wt, 32, 27, 4); // [32, 4] = [n*oh*ow, o]
                                                // Rearrange [N*OH*OW, O] -> [N, O, OH, OW].
        let back = transpose(&mm, &[2, 16, 4], &[0, 2, 1]);
        for (a, b) in direct.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let out = softmax(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3], 1);
        let r0: f32 = out[..3].iter().sum();
        let r1: f32 = out[3..].iter().sum();
        assert!((r0 - 1.0).abs() < 1e-6);
        assert!((r1 - 1.0).abs() < 1e-6);
        assert!((out[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let out = layer_norm(&[1.0, 2.0, 3.0, 4.0], &[1, 4], &[1.0; 4], &[0.0; 4]);
        let mean: f32 = out.iter().sum::<f32>() / 4.0;
        let var: f32 = out.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn max_pool_with_padding() {
        // 2x2 max pool stride 2 on a 2x2 input with padding 1 -> 2x2 output.
        let out = pool(
            &[1.0, 2.0, 3.0, 4.0],
            &[1, 1, 2, 2],
            2,
            2,
            1,
            &[1, 1, 2, 2],
            true,
        );
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn avg_pool_ignores_padding_in_count() {
        let out = pool(
            &[2.0, 2.0, 2.0, 2.0],
            &[1, 1, 2, 2],
            2,
            2,
            1,
            &[1, 1, 2, 2],
            false,
        );
        // Each window sees exactly one valid element of value 2.
        assert_eq!(out, vec![2.0; 4]);
    }

    #[test]
    fn transpose_2d() {
        let out = transpose(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3], &[1, 0]);
        assert_eq!(out, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn concat_axis0() {
        let out = concat(&[&[1.0, 2.0], &[3.0]], &[&[2], &[1]], 0, &[3]);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn broadcast_add_bias() {
        let out = binary_broadcast(
            BinaryKind::Add,
            &[0.0, 1.0, 2.0, 3.0],
            &[2, 2],
            &[10.0, 20.0],
            &[2],
            &[2, 2],
        );
        assert_eq!(out, vec![10.0, 21.0, 12.0, 23.0]);
    }

    #[test]
    fn graph_execution_end_to_end() {
        let mut g = GraphBuilder::new("t");
        let x = g.input("x", &[2, 2]);
        let w = g.constant(Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]));
        let y = g.matmul(x, w);
        let y = g.relu(y);
        let graph = g.output(y).build();
        let mut inputs = ValueMap::new();
        inputs.insert(x, vec![-1.0, 2.0, 3.0, -4.0]);
        let values = execute(&graph, &inputs);
        assert_eq!(values[&graph.outputs()[0]], vec![0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn batch_matmul_reference() {
        let mut g = GraphBuilder::new("t");
        let a = g.input("a", &[2, 1, 2]);
        let b = g.input("b", &[2, 2, 1]);
        let y = g.batch_matmul(a, b);
        let graph = g.output(y).build();
        let mut inputs = ValueMap::new();
        inputs.insert(a, vec![1.0, 2.0, 3.0, 4.0]);
        inputs.insert(b, vec![5.0, 6.0, 7.0, 8.0]);
        let values = execute(&graph, &inputs);
        assert_eq!(values[&graph.outputs()[0]], vec![17.0, 53.0]);
    }
}
