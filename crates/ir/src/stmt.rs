//! Statements of the tensor-program IR.

use std::fmt;

use crate::buffer::BufferRef;
use crate::expr::{Expr, InKernel, Var};

/// A statement tree. Kernels execute one `Stmt` per thread (paper §2.1).
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Sequential composition. A `Let` binding in a `Seq` scopes over the
    /// remainder of that `Seq`.
    Seq(Vec<Stmt>),
    /// Counted loop `for var in 0..extent { body }`.
    For {
        /// Loop variable (fresh per loop).
        var: Var,
        /// Trip count; usually a constant after scheduling.
        extent: Expr,
        /// Loop body.
        body: Box<Stmt>,
        /// Unroll hint (`#pragma unroll` in CUDA output).
        unroll: bool,
    },
    /// Conditional.
    If {
        /// Predicate.
        cond: Expr,
        /// Taken branch.
        then_body: Box<Stmt>,
        /// Optional else branch.
        else_body: Option<Box<Stmt>>,
    },
    /// Scalar binding, scoping over the rest of the enclosing [`Stmt::Seq`].
    Let {
        /// Bound variable.
        var: Var,
        /// Bound value.
        value: Expr,
    },
    /// Element store `buffer[indices...] = value`.
    Store {
        /// Destination buffer.
        buffer: BufferRef,
        /// One index per buffer dimension.
        indices: Vec<Expr>,
        /// Stored value.
        value: Expr,
    },
    /// Thread-block barrier (`__syncthreads()`).
    SyncThreads,
    /// No-op; also the neutral element of [`Stmt::Seq`].
    Nop,
    /// Source comment carried through to the CUDA output.
    Comment(String),
}

impl Stmt {
    /// Sequences `self` then `next`, flattening nested sequences.
    pub fn then(self, next: Stmt) -> Stmt {
        match (self, next) {
            (Stmt::Nop, s) | (s, Stmt::Nop) => s,
            (Stmt::Seq(mut a), Stmt::Seq(b)) => {
                a.extend(b);
                Stmt::Seq(a)
            }
            (Stmt::Seq(mut a), s) => {
                a.push(s);
                Stmt::Seq(a)
            }
            (s, Stmt::Seq(mut b)) => {
                b.insert(0, s);
                Stmt::Seq(b)
            }
            (a, b) => Stmt::Seq(vec![a, b]),
        }
    }

    /// True if the subtree contains a [`Stmt::SyncThreads`] barrier.
    ///
    /// The simulator uses this to pick between the fast per-thread execution
    /// path and the lockstep path.
    pub fn contains_sync(&self) -> bool {
        match self {
            Stmt::SyncThreads => true,
            Stmt::Seq(items) => items.iter().any(Stmt::contains_sync),
            Stmt::For { body, .. } => body.contains_sync(),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.contains_sync() || else_body.as_deref().is_some_and(Stmt::contains_sync),
            _ => false,
        }
    }

    /// Number of `Store` statements in the subtree (static count, not dynamic).
    pub fn count_stores(&self) -> usize {
        match self {
            Stmt::Store { .. } => 1,
            Stmt::Seq(items) => items.iter().map(Stmt::count_stores).sum(),
            Stmt::For { body, .. } => body.count_stores(),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.count_stores() + else_body.as_deref().map_or(0, Stmt::count_stores),
            _ => 0,
        }
    }
}

impl Stmt {
    /// This statement as text, each parameter slot under the name `params`
    /// gives it ([`BufferRef::name_in`](crate::Buffer::name_in)).
    pub fn display_with<'a>(&'a self, params: &'a [BufferRef]) -> impl fmt::Display + 'a {
        InKernel(self, params)
    }
}

impl fmt::Display for InKernel<'_, Stmt> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(s: &InKernel<'_, Stmt>, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match s.0 {
                Stmt::Seq(items) => {
                    for item in items {
                        go(&s.at(item), f, indent)?;
                    }
                    Ok(())
                }
                Stmt::For {
                    var,
                    extent,
                    body,
                    unroll,
                } => {
                    let tag = if *unroll { " // unroll" } else { "" };
                    writeln!(f, "{pad}for {var} in 0..{} {{{tag}", s.at(extent))?;
                    go(&s.at(&**body), f, indent + 1)?;
                    writeln!(f, "{pad}}}")
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    writeln!(f, "{pad}if {} {{", s.at(cond))?;
                    go(&s.at(&**then_body), f, indent + 1)?;
                    if let Some(e) = else_body {
                        writeln!(f, "{pad}}} else {{")?;
                        go(&s.at(&**e), f, indent + 1)?;
                    }
                    writeln!(f, "{pad}}}")
                }
                Stmt::Let { var, value } => writeln!(f, "{pad}let {var} = {}", s.at(value)),
                Stmt::Store {
                    buffer,
                    indices,
                    value,
                } => {
                    let idx = indices
                        .iter()
                        .map(|e| s.at(e).to_string())
                        .collect::<Vec<_>>()
                        .join(", ");
                    let name = buffer.name_in(s.1);
                    writeln!(f, "{pad}{name}[{idx}] = {}", s.at(value))
                }
                Stmt::SyncThreads => writeln!(f, "{pad}sync_threads()"),
                Stmt::Nop => Ok(()),
                Stmt::Comment(text) => writeln!(f, "{pad}// {text}"),
            }
        }
        go(self, f, 0)
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        InKernel(self, &[]).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{Buffer, MemScope};
    use crate::dtype::DType;

    fn store_stmt() -> Stmt {
        let b = Buffer::new("A", MemScope::Global, DType::F32, &[8]);
        Stmt::Store {
            buffer: b,
            indices: vec![Expr::Int(0)],
            value: Expr::Float(1.0),
        }
    }

    #[test]
    fn then_flattens() {
        let s = store_stmt().then(store_stmt()).then(store_stmt());
        match s {
            Stmt::Seq(items) => assert_eq!(items.len(), 3),
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn then_drops_nop() {
        let s = Stmt::Nop.then(store_stmt());
        assert!(matches!(s, Stmt::Store { .. }));
    }

    #[test]
    fn contains_sync_traverses_loops() {
        let inner = Stmt::SyncThreads;
        let s = Stmt::For {
            var: Var::index("i"),
            extent: Expr::Int(4),
            body: Box::new(inner),
            unroll: false,
        };
        assert!(s.contains_sync());
        assert!(!store_stmt().contains_sync());
    }

    #[test]
    fn count_stores_counts_static_occurrences() {
        let s = store_stmt().then(Stmt::If {
            cond: Expr::Bool(true),
            then_body: Box::new(store_stmt()),
            else_body: Some(Box::new(store_stmt())),
        });
        assert_eq!(s.count_stores(), 3);
    }

    #[test]
    fn display_renders_structure() {
        let s = Stmt::For {
            var: Var::index("i"),
            extent: Expr::Int(2),
            body: Box::new(store_stmt()),
            unroll: true,
        };
        let text = s.to_string();
        assert!(text.contains("for i in 0..2"));
        assert!(text.contains("A[0] = 1.0"));
        assert!(text.contains("unroll"));
    }
}
