//! CUDA C code generation.
//!
//! The paper's pipeline ends with *"a code generator will convert the lowered
//! IR to CUDA kernels"* (§5). This module produces that text. The simulator
//! does not consume it — it interprets the IR directly — but the generated
//! source is what a real deployment would compile with `nvcc`, and golden
//! tests pin it down.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::buffer::{BufferRef, MemScope};
use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::Kernel;
use crate::stmt::Stmt;

/// Renders a kernel as a CUDA C `__global__` function, preceded by a launch
/// comment. A parameter slot of the body prints as its parameter's name.
///
/// ```
/// use hidet_ir::prelude::*;
/// use hidet_ir::cuda::to_cuda;
/// let mut kb = KernelBuilder::new("copy", 1, 32);
/// let a = kb.param("A", DType::F32, &[32]);
/// let b = kb.param("B", DType::F32, &[32]);
/// kb.push(store(&b, vec![thread_idx()], load(&a, vec![thread_idx()])));
/// let text = to_cuda(&kb.build());
/// assert!(text.contains("__global__ void copy("));
/// assert!(text.contains("B[threadIdx.x] = A[threadIdx.x];"));
/// ```
pub fn to_cuda(kernel: &Kernel) -> String {
    let mut out = String::new();
    let launch = kernel.launch();
    let _ = writeln!(
        out,
        "// launch: grid=({}), block=({})",
        launch.grid_dim, launch.block_dim
    );
    let meta = kernel.meta();
    if meta.pipeline_stages > 1 || meta.uses_tensor_cores || meta.parallel_k_parts > 1 {
        let _ = writeln!(
            out,
            "// meta: stages={}, tensor_cores={}, parallel_k={}",
            meta.pipeline_stages, meta.uses_tensor_cores, meta.parallel_k_parts
        );
    }
    let written = mutated_params(kernel);
    let params: Vec<String> = kernel
        .params()
        .iter()
        .map(|b| {
            let qual = if written.contains(b.name()) {
                ""
            } else {
                "const "
            };
            format!(
                "{}{}* __restrict__ {}",
                qual,
                b.dtype().cuda_name(),
                b.name()
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "__global__ void {}({}) {{",
        kernel.name(),
        params.join(", ")
    );
    for b in kernel.shared_buffers() {
        let _ = writeln!(
            out,
            "  __shared__ {} {}{};",
            b.dtype().cuda_name(),
            b.name(),
            dims(b)
        );
    }
    for b in kernel.local_buffers() {
        let _ = writeln!(out, "  {} {}{};", b.dtype().cuda_name(), b.name(), dims(b));
    }
    emit_stmt(&mut out, kernel.body(), kernel.params(), 1);
    out.push_str("}\n");
    out
}

fn dims(b: &BufferRef) -> String {
    b.shape().iter().map(|d| format!("[{d}]")).collect()
}

/// Names of parameter buffers that the kernel stores to (printed non-const).
fn mutated_params(kernel: &Kernel) -> HashSet<&str> {
    fn walk<'k>(s: &'k Stmt, params: &'k [BufferRef], out: &mut HashSet<&'k str>) {
        match s {
            Stmt::Store { buffer, .. } if buffer.scope() == MemScope::Global => {
                out.insert(buffer.name_in(params));
            }
            Stmt::Seq(items) => items.iter().for_each(|i| walk(i, params, out)),
            Stmt::For { body, .. } => walk(body, params, out),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                walk(then_body, params, out);
                if let Some(e) = else_body {
                    walk(e, params, out);
                }
            }
            _ => {}
        }
    }
    let mut out = HashSet::new();
    walk(kernel.body(), kernel.params(), &mut out);
    out
}

fn emit_stmt(out: &mut String, s: &Stmt, params: &[BufferRef], indent: usize) {
    let pad = "  ".repeat(indent);
    match s {
        Stmt::Seq(items) => items.iter().for_each(|i| emit_stmt(out, i, params, indent)),
        Stmt::For {
            var,
            extent,
            body,
            unroll,
        } => {
            if *unroll {
                let _ = writeln!(out, "{pad}#pragma unroll");
            }
            let _ = writeln!(
                out,
                "{pad}for (int64_t {v} = 0; {v} < {e}; ++{v}) {{",
                v = var.name(),
                e = emit_expr(params, extent)
            );
            emit_stmt(out, body, params, indent + 1);
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "{pad}if ({}) {{", emit_expr(params, cond));
            emit_stmt(out, then_body, params, indent + 1);
            if let Some(e) = else_body {
                let _ = writeln!(out, "{pad}}} else {{");
                emit_stmt(out, e, params, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Let { var, value } => {
            let _ = writeln!(
                out,
                "{pad}const {} {} = {};",
                var.dtype().cuda_name(),
                var.name(),
                emit_expr(params, value)
            );
        }
        Stmt::Store {
            buffer,
            indices,
            value,
        } => {
            let _ = writeln!(
                out,
                "{pad}{} = {};",
                emit_access(params, buffer, indices),
                emit_expr(params, value)
            );
        }
        Stmt::SyncThreads => {
            let _ = writeln!(out, "{pad}__syncthreads();");
        }
        Stmt::Nop => {}
        Stmt::Comment(text) => {
            let _ = writeln!(out, "{pad}// {text}");
        }
    }
}

/// Buffer access syntax: global buffers are flat pointers (row-major index
/// arithmetic); shared/register buffers keep their array shape.
fn emit_access(params: &[BufferRef], buffer: &BufferRef, indices: &[Expr]) -> String {
    match buffer.scope() {
        MemScope::Global => {
            let strides = buffer.strides();
            let flat = indices
                .iter()
                .zip(&strides)
                .map(|(e, &s)| {
                    if s == 1 {
                        emit_expr(params, e)
                    } else {
                        format!("{} * {s}", emit_expr(params, e))
                    }
                })
                .collect::<Vec<_>>()
                .join(" + ");
            format!("{}[{flat}]", buffer.name_in(params))
        }
        MemScope::Shared | MemScope::Register => {
            let idx: String = indices
                .iter()
                .map(|e| format!("[{}]", emit_expr(params, e)))
                .collect();
            format!("{}{idx}", buffer.name_in(params))
        }
    }
}

fn emit_expr(params: &[BufferRef], e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        // `math.h` spells the non-finite values; `Debug` gives every other
        // value a `.` or an exponent, so the `f` suffix is legal C.
        Expr::Float(v) if v.is_nan() => "NAN".to_string(),
        Expr::Float(v) if v.is_infinite() => format!("{}INFINITY", if *v < 0.0 { "-" } else { "" }),
        Expr::Float(v) => format!("{v:?}f"),
        Expr::Bool(v) => v.to_string(),
        Expr::Var(v) => v.name().to_string(),
        Expr::ThreadIdx => "threadIdx.x".to_string(),
        Expr::BlockIdx => "blockIdx.x".to_string(),
        Expr::Binary { op, lhs, rhs } => match op.cuda_infix() {
            Some(sym) => format!(
                "({} {sym} {})",
                emit_expr(params, lhs),
                emit_expr(params, rhs)
            ),
            None => {
                let f = if *op == BinOp::Min { "min" } else { "max" };
                format!(
                    "{f}({}, {})",
                    emit_expr(params, lhs),
                    emit_expr(params, rhs)
                )
            }
        },
        Expr::Unary { op, operand } => {
            let x = emit_expr(params, operand);
            match op {
                // The space keeps `-` off an operand's own sign: `--` is a
                // decrement.
                UnOp::Neg => format!("(- {x})"),
                UnOp::Not => format!("(!{x})"),
                UnOp::Abs => format!("fabsf({x})"),
                UnOp::Exp => format!("expf({x})"),
                UnOp::Sqrt => format!("sqrtf({x})"),
                UnOp::Rsqrt => format!("rsqrtf({x})"),
                UnOp::Tanh => format!("tanhf({x})"),
                UnOp::Erf => format!("erff({x})"),
                UnOp::Log => format!("logf({x})"),
                UnOp::Sigmoid => format!("(1.0f / (1.0f + expf(- {x})))"),
            }
        }
        Expr::Load { buffer, indices } => emit_access(params, buffer, indices),
        Expr::Cast { dtype, value } => {
            format!("({}){}", dtype.cuda_name(), emit_expr(params, value))
        }
        Expr::Select {
            cond,
            then_value,
            else_value,
        } => format!(
            "({} ? {} : {})",
            emit_expr(params, cond),
            emit_expr(params, then_value),
            emit_expr(params, else_value)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::dtype::DType;
    use crate::lower::foreach_task;
    use hidet_taskmap::{repeat, spatial};

    #[test]
    fn golden_cooperative_load() {
        // Paper Fig. 8's cooperative_load_A, end to end through the pipeline.
        let mut kb = KernelBuilder::new("cooperative_load_a", 1, 128);
        let a = kb.param("A", DType::F32, &[64, 8]);
        let s = kb.shared("SmemA", DType::F32, &[64, 8]);
        let tm = repeat(&[4, 1]) * spatial(&[16, 8]);
        let body = foreach_task(&tm, thread_idx(), |coords| {
            store(&s, coords.clone(), load(&a, coords))
        });
        kb.push(crate::passes::simplify(body));
        let text = to_cuda(&kb.build());
        let expected = "\
// launch: grid=(1), block=(128)
__global__ void cooperative_load_a(const float* __restrict__ A) {
  __shared__ float SmemA[64][8];
  #pragma unroll
  for (int64_t r0 = 0; r0 < 4; ++r0) {
    SmemA[((r0 * 16) + (threadIdx.x / 8))][(threadIdx.x % 8)] = A[((r0 * 16) + (threadIdx.x / 8)) * 8 + (threadIdx.x % 8)];
  }
}
";
        assert_eq!(text, expected);
    }

    #[test]
    fn const_qualifier_tracks_writes() {
        let mut kb = KernelBuilder::new("k", 1, 32);
        let a = kb.param("A", DType::F32, &[32]);
        let b = kb.param("B", DType::F32, &[32]);
        kb.push(store(&b, vec![thread_idx()], load(&a, vec![thread_idx()])));
        let text = to_cuda(&kb.build());
        assert!(text.contains("const float* __restrict__ A"));
        assert!(text.contains(" float* __restrict__ B"));
        assert!(!text.contains("const float* __restrict__ B"));
    }

    #[test]
    fn unary_functions_use_cuda_intrinsics() {
        let mut kb = KernelBuilder::new("k", 1, 1);
        let a = kb.param("A", DType::F32, &[1]);
        let x = load(&a, vec![c(0)]);
        kb.push(store(&a, vec![c(0)], x.unary(UnOp::Sigmoid)));
        let text = to_cuda(&kb.build());
        assert!(text.contains("1.0f / (1.0f + expf("));
    }

    fn literal(v: f32) -> String {
        emit_expr(&[], &fconst(v))
    }

    #[test]
    fn infinity_prints_as_the_math_h_macro() {
        assert_eq!(literal(f32::INFINITY), "INFINITY");
    }

    #[test]
    fn negative_infinity_prints_as_the_negated_macro() {
        assert_eq!(literal(f32::NEG_INFINITY), "-INFINITY");
    }

    #[test]
    fn nan_prints_as_the_math_h_macro() {
        assert_eq!(literal(f32::NAN), "NAN");
    }

    #[test]
    fn negating_a_negative_literal_prints_no_decrement() {
        let neg = emit_expr(&[], &fconst(-2.0).unary(UnOp::Neg));
        let sigmoid = emit_expr(&[], &fconst(f32::NEG_INFINITY).unary(UnOp::Sigmoid));
        assert_eq!(neg, "(- -2.0f)");
        assert_eq!(sigmoid, "(1.0f / (1.0f + expf(- -INFINITY)))");
    }

    #[test]
    fn finite_literals_carry_a_point_or_an_exponent() {
        assert_eq!(literal(2.0), "2.0f");
        assert_eq!(literal(-1e9), "-1000000000.0f");
        assert_eq!(literal(1e-5), "1e-5f");
        assert_eq!(literal(-3e37), "-3e37f");
    }

    #[test]
    fn meta_comment_emitted_for_optimized_kernels() {
        let mut kb = KernelBuilder::new("k", 1, 1);
        kb.param("A", DType::F32, &[1]);
        kb.meta(crate::kernel::KernelMeta {
            pipeline_stages: 2,
            uses_tensor_cores: true,
            parallel_k_parts: 3,
            vector_width: 4,
        });
        let text = to_cuda(&kb.build());
        assert!(text.contains("stages=2"));
        assert!(text.contains("tensor_cores=true"));
        assert!(text.contains("parallel_k=3"));
    }
}
