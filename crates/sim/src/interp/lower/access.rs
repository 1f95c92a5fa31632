//! `Load` / `Store` sites: which accesses are proven in bounds, how their
//! addresses fold to a constant plus one register, and which stores become
//! read-modify-writes.

use hidet_ir::{BinOp, BufferRef, DType, Expr};

use super::linear::Linear;
use super::place::{binary_rule, Place, Ty, Val};
use super::{BufferSlot, Lowerer, Touch};
use crate::interp::program::{Access, Dim, Op, Space, ELEMENT, MEM};
use crate::interp::SimError;
use crate::value::Value;

/// One lowered `Load` / `Store` site.
pub(super) struct Site {
    /// The memory operand naming it: an [`Access`], or the [`ELEMENT`].
    pub(super) operand: u32,
    /// Unable to fault.
    pub(super) proven: bool,
    /// Its buffer is sure to exist when a launch runs.
    pub(super) declared: bool,
}

impl<'k> Lowerer<'k> {
    /// Lowers the index expressions of one access — to `write` or to read —
    /// and records it. `Err` when the access is malformed: a trap has been
    /// emitted instead.
    ///
    /// The tree walker evaluated and bounds-checked one index at a time; a
    /// single fused check after all of them reports the same fault unless a
    /// later index expression can itself fault, in which case the earlier
    /// dimensions are checked ahead of it.
    pub(super) fn access(
        &mut self,
        buffer: &'k BufferRef,
        indices: &'k [Expr],
        write: bool,
    ) -> Result<Site, Val> {
        if indices.len() != buffer.ndim() {
            return Err(self.trap(SimError::TypeError(format!(
                "access to {}: {} indices for rank-{} buffer",
                buffer.name(),
                indices.len(),
                buffer.ndim()
            ))));
        }
        let slot = self.buffer(buffer);
        let id = self.p.accesses.len() as u32;
        // Reserved now so early checks can name it; filled in below, once
        // nested accesses inside the index expressions have taken their dims.
        self.p.accesses.push(Access {
            space: Space::Missing,
            proven: false,
            offset: 0,
            limit: 0,
            buffer: slot,
            first_dim: 0,
            rank: 0,
            dtype: buffer.dtype(),
        });
        let shape = buffer.shape().iter().zip(buffer.strides());
        let mut dims: Vec<(Val, Dim)> = Vec::with_capacity(indices.len());
        let mut checked = 0;
        for (k, (index, (&extent, stride))) in indices.iter().zip(shape).enumerate() {
            let (v, part) = self.capture(|l| {
                let v = l.expr(index);
                l.in_reg(v)
            });
            if part.may_fault {
                for dim in checked..k {
                    self.frag.code.push(Op::Check {
                        access: id,
                        dim: dim as u32,
                    });
                }
                checked = k;
            }
            self.splice(part);
            let dim = Dim {
                idx: v.reg,
                extent,
                stride: stride as usize,
            };
            dims.push((v, dim));
        }
        let in_bounds = dims.iter().all(|(v, d)| {
            v.ty == Ty::I64 && v.range.is_some_and(|(lo, hi)| lo >= 0 && hi < d.extent)
        });
        let BufferSlot { space, base, len } = self.slots[slot as usize];
        // In bounds of the access's own shape, of a buffer that exists and
        // is at least that large. (An early `Check` names a dimension by its
        // position, so an access that has one keeps them all.)
        let fits = buffer.num_elements() as usize <= len;
        let declared = self.declared(space);
        let proven = in_bounds && fits && declared && checked == 0;
        debug_assert!(id < ELEMENT);
        if proven && matches!(space, Space::Shared | Space::Global(_)) {
            // Which elements the block's threads meet at, if any, is read
            // off the index while its terms are still apart.
            let mut address = (dims.iter()).try_fold(Linear::konst(base as i64), |sum, (v, d)| {
                sum.plus(&self.linear(*v)?, d.stride as i64)
            });
            let mut through = None;
            if address.is_none() {
                if let Some(t) = self.through(base as i64, &dims) {
                    (address, through) = (Some(t.sum), Some((t.chain, t.range)));
                }
            }
            self.frag.touches.push(Touch {
                buffer: slot,
                store: write,
                address,
                through,
                guard: self.lane_guards.clone(),
            });
        }
        let mut offset = base;
        if proven {
            offset += self.fold_terms(&mut dims);
        }
        // Nothing left to add up, in the thread's own register arrays: the
        // element is the operand. A write converts to the element type, and
        // only an `f32`-stored type's conversion is the one every register
        // gets; any other keeps its access, which names the type.
        let as_f32 = matches!(buffer.dtype(), DType::F32 | DType::F16);
        if proven && space == Space::Local && dims.is_empty() && (as_f32 || !write) {
            debug_assert!(offset < ELEMENT as usize);
            if id as usize + 1 == self.p.accesses.len() {
                self.p.accesses.pop();
            }
            return Ok(Site {
                operand: MEM | ELEMENT | offset as u32,
                proven,
                declared,
            });
        }
        let first_dim = self.p.dims.len() as u32;
        self.p.dims.extend(dims.iter().map(|(_, d)| *d));
        self.p.accesses[id as usize] = Access {
            space,
            proven,
            offset,
            limit: len,
            buffer: slot,
            first_dim,
            rank: dims.len() as u32,
            dtype: buffer.dtype(),
        };
        Ok(Site {
            operand: MEM | id,
            proven,
            declared,
        })
    }

    /// Reduces the index of a proven access to the terms the executor has to
    /// add up every time: constant indices are summed into the returned
    /// offset, and two or more that are fixed at some level above the body
    /// are replaced by one hoisted register holding their `Σ index × stride`.
    fn fold_terms(&mut self, dims: &mut Vec<(Val, Dim)>) -> usize {
        let mut offset = 0;
        dims.retain(|(v, d)| match self.const_value(*v) {
            Some(Value::I64(i)) => {
                offset += i as usize * d.stride;
                false
            }
            _ => true,
        });
        let invariant = |v: &Val| v.place < Place::Body;
        if dims.iter().filter(|(v, _)| invariant(v)).count() >= 2 {
            // Coarsest first, so that partial sums stay at the coarser levels.
            let (mut fixed, varying): (Vec<_>, Vec<_>) =
                dims.drain(..).partition(|(v, _)| invariant(v));
            fixed.sort_by_key(|(v, _)| v.place);
            let mut sum: Option<Val> = None;
            for (v, d) in fixed {
                let term = if d.stride == 1 {
                    v
                } else {
                    let stride = self.konst(Value::I64(d.stride as i64));
                    self.arithmetic(BinOp::Mul, v, stride)
                };
                sum = Some(match sum {
                    Some(sum) => self.arithmetic(BinOp::Add, sum, term),
                    None => term,
                });
            }
            let sum = sum.expect("two or more terms");
            let base = Dim {
                idx: sum.reg,
                extent: i64::MAX,
                stride: 1,
            };
            dims.push((sum, base));
            dims.extend(varying);
        }
        offset
    }

    /// Whether a buffer in `space` is sure to exist when a launch runs.
    pub(super) fn declared(&self, space: Space) -> bool {
        match space {
            Space::Global(g) => (g as usize) < self.kernel.params().len(),
            Space::Shared | Space::Local => true,
            Space::Missing => false,
        }
    }

    /// `buffer[indices] = value`. The tree walker checked the indices, then
    /// evaluated the value, then wrote; the one `Store` instruction does its
    /// checking last, so where the indices are not proven in bounds and the
    /// value can fault, the dimensions are also checked ahead of the value.
    ///
    /// `b[i] = b[i] <op> x` is one read-modify-write: `b[i]` cannot change
    /// while `x` is evaluated, so reading it afterwards reads the same.
    pub(super) fn store(&mut self, buffer: &'k BufferRef, indices: &'k [Expr], value: &'k Expr) {
        let Ok(Site {
            operand: to,
            proven,
            declared,
        }) = self.access(buffer, indices, true)
        else {
            return;
        };
        // (Reading a buffer that may not exist has to fail before `x` runs.)
        let (update, value) = match value {
            Expr::Binary { op, lhs, rhs } if declared => match &**lhs {
                Expr::Load {
                    buffer: from,
                    indices: at,
                } if from == buffer && at.as_slice() == indices => (Some(*op), &**rhs),
                _ => (None, value),
            },
            _ => (None, value),
        };
        let (v, mut part) = self.capture(|l| l.expr(value));
        if part.may_fault && !proven {
            for dim in 0..indices.len() as u32 {
                let access = to & !MEM;
                self.frag.code.push(Op::Check { access, dim });
            }
        }
        // `x` is a product whose instruction ends its code — computed right
        // here, every time — and cannot fault (its type is known): the
        // multiply-accumulate of a register tile.
        let product = match (value, part.code.last()) {
            (
                Expr::Binary { op: BinOp::Mul, .. },
                Some(&Op::Bin {
                    op: BinOp::Mul,
                    dst,
                    a,
                    b,
                }),
            ) if proven && update == Some(BinOp::Add) && dst == v.reg && v.ty != Ty::Dyn => {
                part.code.pop();
                Some((a, b))
            }
            _ => None,
        };
        // The write itself faults on indices that are out of bounds, on a
        // buffer that is not there, on an operator that does not take
        // `f32 <op> x`, and on a value that is not a number.
        let written = match update {
            Some(op) => binary_rule(op, Ty::F32, v.ty, self.const_value(v)),
            None => (v.ty, false),
        };
        part.may_fault |= !proven || written.1 || !matches!(written.0, Ty::I64 | Ty::F32);
        self.splice(part);
        self.frag.code.push(match (update, product) {
            (_, Some((a, b))) => Op::MulAdd { to, a, b },
            (Some(op), _) => Op::Update { op, to, src: v.reg },
            (None, _) => Op::Store { to, src: v.reg },
        });
    }
}
