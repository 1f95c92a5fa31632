//! Indices that are a function of one linear sum: `n / 1152`, `n % 8` and
//! `(n / 8) % 144` of one flat position `n`, recombined — the scatter of a
//! fused epilogue into an NCHW output. Such an index is no sum, but where
//! the function is one-to-one over every value the sum can take, threads
//! whose sums stay apart stay apart in the buffer too (`verdict.rs`).

use hidet_ir::BinOp;

use super::linear::Linear;
use super::place::{Place, Ty, Val};
use super::Lowerer;
use crate::interp::program::{Dim, Reg};
use crate::value::Value;

/// Steps a chain may take; the NCHW scatter of a conv epilogue takes 14.
const STEPS: usize = 64;

/// The sum a chain is a function of, and its interval where it was used.
#[derive(Clone, Copy)]
pub(super) struct Root {
    reg: Reg,
    sum: Linear,
    range: (i64, i64),
}

/// An operand of an integer operation, as the lowering recorded it.
#[derive(Clone, Copy)]
pub(super) enum Part {
    Konst(i64),
    Reg(Reg),
}

/// An operand of a chain step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Arg {
    Konst(i64),
    /// The value of the sum.
    Root,
    /// What an earlier step computed.
    Step(u32),
}

/// An element address `konst + Σ value × stride`, its values computed from
/// one sum by integer operations. Equal chains are the same function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Chain {
    steps: Vec<(BinOp, Arg, Arg)>,
    terms: Vec<(Arg, i64)>,
    konst: i64,
}

impl Chain {
    /// Whether the address takes a different value at every point of
    /// `lo..=hi` — decided from the chain's constants, never by evaluating
    /// it. The sum is split into mixed-radix digits wherever a `/` or `%`
    /// needs it (`x / 8` and `x % 8` are the digits of `x` in base 8), every
    /// value of the chain is kept as `konst + Σ coefficient × digit`, and
    /// the address is one-to-one when, coefficients sorted by size, each
    /// exceeds the most all smaller ones can add up to. A chain the rule
    /// cannot follow is not proven: that costs speed, never correctness.
    pub(super) fn one_to_one(&self, (lo, hi): (i64, i64)) -> bool {
        self.digits(lo, hi)
            .is_some_and(|(digits, address)| digits.apart(&address))
    }

    /// The digits the sum splits into and the address over them, where
    /// every step of the chain is one of the forms the rule follows.
    fn digits(&self, lo: i64, hi: i64) -> Option<(Digits, Mixed)> {
        if lo < 0 || hi < lo {
            return None;
        }
        // (Every value of `0..=hi` is a point: a superset of the interval,
        // over which one-to-one is the stronger claim.)
        let mut digits = Digits {
            radix: vec![i128::from(hi) + 1],
            values: vec![Mixed::digit(0, 1)],
        };
        for &(op, a, b) in &self.steps {
            let (a, b) = (digits.arg(a), digits.arg(b));
            let value = match op {
                BinOp::Add => a.plus(&b, 1),
                BinOp::Sub => a.plus(&b, -1),
                BinOp::Mul => match (a.as_konst(), b.as_konst()) {
                    (Some(k), _) => b.times(k),
                    (_, Some(k)) => a.times(k),
                    _ => return None,
                },
                BinOp::Div | BinOp::Mod => {
                    let by = b.as_konst().filter(|&k| k > 0)?;
                    let (quotient, rest) = digits.divide(a, by)?;
                    if op == BinOp::Div {
                        quotient
                    } else {
                        rest
                    }
                }
                BinOp::Min | BinOp::Max => {
                    let ((a_lo, a_hi), (b_lo, b_hi)) = (digits.span(&a), digits.span(&b));
                    let (least, most) = match () {
                        _ if a_hi <= b_lo => (a, b),
                        _ if b_hi <= a_lo => (b, a),
                        _ => return None,
                    };
                    if op == BinOp::Min {
                        least
                    } else {
                        most
                    }
                }
                _ => return None,
            };
            digits.push(value)?;
        }
        let mut address = Mixed::konst(self.konst.into());
        for &(arg, by) in &self.terms {
            address = address.plus(&digits.arg(arg), by.into());
        }
        digits.push(address.clone())?;
        Some((digits, address))
    }
}

/// Digits a chain may split its sum into before the rule gives up.
const DIGITS: usize = 16;

/// Values a chain computes stay below this in magnitude, so the executor's
/// wrapping `i64` arithmetic computes them exactly.
const EXACT: i128 = 1 << 62;

/// `konst + Σ by[i] × digit i`: a value of a chain over the digits of its
/// sum (a missing coefficient is zero).
#[derive(Clone)]
struct Mixed {
    konst: i128,
    by: Vec<i128>,
}

impl Mixed {
    fn konst(konst: i128) -> Mixed {
        Mixed {
            konst,
            by: Vec::new(),
        }
    }

    fn digit(digit: usize, by: i128) -> Mixed {
        let mut value = Mixed::konst(0);
        value.by.resize(digit + 1, 0);
        value.by[digit] = by;
        value
    }

    fn as_konst(&self) -> Option<i128> {
        self.by.iter().all(|&by| by == 0).then_some(self.konst)
    }

    fn coefficient(&self, digit: usize) -> i128 {
        self.by.get(digit).copied().unwrap_or(0)
    }

    /// `self + other × k`.
    fn plus(&self, other: &Mixed, k: i128) -> Mixed {
        let n = self.by.len().max(other.by.len());
        Mixed {
            konst: self.konst + other.konst * k,
            by: (0..n)
                .map(|i| self.coefficient(i) + other.coefficient(i) * k)
                .collect(),
        }
    }

    fn times(&self, k: i128) -> Mixed {
        Mixed::konst(0).plus(self, k)
    }
}

/// The digits of a chain's sum — digit `i` takes every value in
/// `0..radix[i]` — and the values of the chain's steps so far over them.
struct Digits {
    radix: Vec<i128>,
    /// The sum itself, then one value per step.
    values: Vec<Mixed>,
}

impl Digits {
    fn arg(&self, arg: Arg) -> Mixed {
        match arg {
            Arg::Konst(k) => Mixed::konst(k.into()),
            Arg::Root => self.values[0].clone(),
            Arg::Step(i) => self.values[i as usize + 1].clone(),
        }
    }

    /// The least and the greatest value `v` takes.
    fn span(&self, v: &Mixed) -> (i128, i128) {
        let reach = |i: usize| v.coefficient(i) * (self.radix[i] - 1);
        let reaches = (0..self.radix.len()).map(reach);
        reaches.fold((v.konst, v.konst), |(lo, hi), r| {
            (lo + r.min(0), hi + r.max(0))
        })
    }

    /// Records the next step's value; `None` once a value is too large to
    /// be computed exactly.
    fn push(&mut self, v: Mixed) -> Option<()> {
        let (lo, hi) = self.span(&v);
        (lo > -EXACT && hi < EXACT).then(|| self.values.push(v))
    }

    /// `v / by` and `v % by`, for a `v` that is never negative: the digits
    /// whose coefficients `by` divides make the quotient, the rest — where
    /// they add up to less than `by` — the remainder. A digit that spills
    /// over is split in two first (`d = (d / r) × r + d % r`).
    fn divide(&mut self, v: Mixed, by: i128) -> Option<(Mixed, Mixed)> {
        let mut v = v;
        loop {
            if v.konst < 0 || v.by.iter().any(|&c| c < 0) {
                return None;
            }
            let low = |c: i128| c % by != 0;
            let spill: i128 = (v.by.iter().enumerate())
                .filter(|&(_, &c)| low(c))
                .map(|(i, &c)| c * (self.radix[i] - 1))
                .sum();
            if v.konst % by + spill < by {
                let quotient = Mixed {
                    konst: v.konst / by,
                    by: (v.by.iter())
                        .map(|&c| if low(c) { 0 } else { c / by })
                        .collect(),
                };
                let rest = Mixed {
                    konst: v.konst % by,
                    by: (v.by.iter()).map(|&c| if low(c) { c } else { 0 }).collect(),
                };
                return Some((quotient, rest));
            }
            // A digit of the remainder whose coefficient divides `by` and
            // whose values reach past it.
            let (digit, r) = (v.by.iter().enumerate()).find_map(|(i, &c)| {
                let r = (low(c) && by % c == 0).then(|| by / c)?;
                (self.radix[i] > r).then_some((i, r))
            })?;
            self.split(digit, r)?;
            v = v.plus(&Mixed::digit(self.radix.len() - 1, v.by[digit] * r), 1);
        }
    }

    /// Splits digit `d` into `d % r` (which keeps its place) and `d / r` (a
    /// new digit), in every value recorded so far. The caller updates the
    /// value in hand the same way.
    fn split(&mut self, d: usize, r: i128) -> Option<()> {
        if self.radix.len() == DIGITS {
            return None;
        }
        let high = self.radix.len();
        self.radix.push((self.radix[d] + r - 1) / r);
        self.radix[d] = r;
        for v in &mut self.values {
            let c = v.coefficient(d);
            *v = v.plus(&Mixed::digit(high, c * r), 1);
        }
        Some(())
    }

    /// Whether `address` differs at any two points: no digit that takes
    /// two values goes unused, and each coefficient, by size, exceeds what
    /// all smaller ones can add up to.
    fn apart(&self, address: &Mixed) -> bool {
        let mut used: Vec<(i128, i128)> = (0..self.radix.len())
            .filter(|&i| self.radix[i] > 1)
            .map(|i| (address.coefficient(i).abs(), self.radix[i] - 1))
            .collect();
        used.sort_unstable();
        let mut below = 0i128;
        for (by, most) in used {
            if by <= below {
                return false;
            }
            below += by * most;
        }
        true
    }
}

/// A chain access: the sum its address is a function of, where that sum
/// lies, and the function.
pub(super) struct Through {
    pub(super) sum: Linear,
    pub(super) range: (i64, i64),
    pub(super) chain: Chain,
}

impl<'k> Lowerer<'k> {
    /// The root `a <op> b` is a function of, when it is index arithmetic
    /// (`+ - * / % min max`) that is no sum itself, fixed above the body, and
    /// both operands are that root's functions or constants. Records how the
    /// result's register is computed.
    pub(super) fn chained(&mut self, op: BinOp, a: Val, b: Val, val: Val) -> Option<u32> {
        // A chain starts at an operation that makes no sum of sums (a lane
        // or block value is a sum of itself), and goes on through any.
        let starts = matches!(op, BinOp::Div | BinOp::Mod | BinOp::Min | BinOp::Max);
        let goes_on = matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
            && (a.root.is_some() || b.root.is_some());
        let per_thread = matches!(val.place, Place::Thread | Place::Loop(_));
        if !(starts || goes_on) || !per_thread || val.ty != Ty::I64 || self.linear(val).is_some() {
            return None;
        }
        let (pa, ra) = self.part(a)?;
        let (pb, rb) = self.part(b)?;
        let root = match (ra, rb) {
            (Some(x), Some(y)) => self.same_root(x, y)?,
            (Some(x), None) | (None, Some(x)) => x,
            (None, None) => return None,
        };
        self.steps_of.insert(val.reg, (op, pa, pb));
        Some(root)
    }

    /// `v` as an operand of a chain step, and the root it is a function of:
    /// itself, where it is a sum.
    fn part(&mut self, v: Val) -> Option<(Part, Option<u32>)> {
        if let Some(Value::I64(k)) = self.const_value(v) {
            return Some((Part::Konst(k), None));
        }
        if v.root.is_some() {
            return Some((Part::Reg(v.reg), v.root));
        }
        let (sum, range) = (self.linear(v)?, v.range?);
        self.roots.push(Root {
            reg: v.reg,
            sum,
            range,
        });
        Some((Part::Reg(v.reg), Some(self.roots.len() as u32 - 1)))
    }

    /// One root for two uses of the same register, over both intervals.
    fn same_root(&mut self, x: u32, y: u32) -> Option<u32> {
        let (a, b) = (self.roots[x as usize], self.roots[y as usize]);
        if a.reg != b.reg {
            return None;
        }
        if a.range == b.range {
            return Some(x);
        }
        let range = (a.range.0.min(b.range.0), a.range.1.max(b.range.1));
        self.roots.push(Root { range, ..a });
        Some(self.roots.len() as u32 - 1)
    }

    /// The address `base + Σ index × stride` of a proven access whose
    /// indices are all functions of one sum, as that sum and the function.
    pub(super) fn through(&mut self, base: i64, dims: &[(Val, Dim)]) -> Option<Through> {
        let mut root: Option<u32> = None;
        let mut konst = base;
        let mut outputs = Vec::new();
        for &(v, Dim { stride, .. }) in dims {
            let stride = stride as i64;
            match self.part(v)? {
                (Part::Konst(k), _) => konst = konst.wrapping_add(k.wrapping_mul(stride)),
                (Part::Reg(r), Some(at)) => {
                    root = Some(match root {
                        Some(first) => self.same_root(first, at)?,
                        None => at,
                    });
                    outputs.push((r, stride));
                }
                (Part::Reg(_), None) => return None,
            }
        }
        let root = self.roots[root? as usize];
        let mut chain = Chain {
            steps: Vec::new(),
            terms: Vec::new(),
            konst,
        };
        let mut laid = Vec::new();
        for (r, stride) in outputs {
            let arg = self.lay(Part::Reg(r), root.reg, &mut chain, &mut laid)?;
            chain.terms.push((arg, stride));
        }
        Some(Through {
            sum: root.sum,
            range: root.range,
            chain,
        })
    }

    /// Appends the steps computing `part` from `root` to `chain`, each
    /// register once.
    fn lay(
        &self,
        part: Part,
        root: Reg,
        chain: &mut Chain,
        laid: &mut Vec<(Reg, Arg)>,
    ) -> Option<Arg> {
        let r = match part {
            Part::Konst(k) => return Some(Arg::Konst(k)),
            Part::Reg(r) if r == root => return Some(Arg::Root),
            Part::Reg(r) => r,
        };
        if let Some(&(_, arg)) = laid.iter().find(|(at, _)| *at == r) {
            return Some(arg);
        }
        let &(op, a, b) = self.steps_of.get(&r)?;
        let a = self.lay(a, root, chain, laid)?;
        let b = self.lay(b, root, chain, laid)?;
        if chain.steps.len() == STEPS {
            return None;
        }
        chain.steps.push((op, a, b));
        let arg = Arg::Step(chain.steps.len() as u32 - 1);
        laid.push((r, arg));
        Some(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The address at sum `x` as the executor computes it, `None` where an
    /// operation has no result.
    fn at(chain: &Chain, x: i64) -> Option<i64> {
        let mut values: Vec<i64> = Vec::new();
        let get = |values: &[i64], arg: Arg| match arg {
            Arg::Konst(k) => k,
            Arg::Root => x,
            Arg::Step(i) => values[i as usize],
        };
        for &(op, a, b) in &chain.steps {
            let (a, b) = (Value::I64(get(&values, a)), Value::I64(get(&values, b)));
            values.push(Value::binary(op, a, b)?.as_i64()?);
        }
        let terms = (chain.terms.iter()).map(|&(arg, by)| get(&values, arg).wrapping_mul(by));
        Some(terms.fold(chain.konst, i64::wrapping_add))
    }

    /// Every point of `lo..=hi` evaluated: a value at each, no two equal.
    fn evaluated_one_to_one(chain: &Chain, (lo, hi): (i64, i64)) -> bool {
        let Some(mut values) = (lo..=hi).map(|x| at(chain, x)).collect::<Option<Vec<_>>>() else {
            return false;
        };
        values.sort_unstable();
        values.windows(2).all(|pair| pair[0] != pair[1])
    }

    /// `n`, `c` and the pixel `p` of an NHWC position `x = (n·HW + p)·C + c`,
    /// recombined into the NCHW flat index and split again into the four
    /// indices of the output — the scatter of a conv epilogue, as the
    /// lowering records it for a `c`-channel, `hw`-pixel, `w`-wide image.
    fn nchw_scatter(c: i64, hw: i64, w: i64) -> Chain {
        use Arg::{Konst, Root, Step};
        let image = c * hw;
        Chain {
            steps: vec![
                (BinOp::Div, Root, Konst(image)),
                (BinOp::Mul, Step(0), Konst(c)),
                (BinOp::Mod, Root, Konst(c)),
                (BinOp::Add, Step(1), Step(2)),
                (BinOp::Mul, Step(3), Konst(hw)),
                (BinOp::Div, Root, Konst(c)),
                (BinOp::Mod, Step(5), Konst(hw)),
                (BinOp::Add, Step(4), Step(6)),
                (BinOp::Div, Step(7), Konst(image)),
                (BinOp::Div, Step(7), Konst(hw)),
                (BinOp::Mod, Step(9), Konst(c)),
                (BinOp::Div, Step(7), Konst(w)),
                (BinOp::Mod, Step(11), Konst(hw / w)),
                (BinOp::Mod, Step(7), Konst(w)),
            ],
            terms: vec![
                (Step(8), image),
                (Step(10), hw),
                (Step(12), w),
                (Step(13), 1),
            ],
            konst: 0,
        }
    }

    #[test]
    fn the_nchw_scatter_of_a_conv_epilogue_is_one_to_one() {
        // resnet50's first bottleneck at batch 1: 200,704 positions, far
        // more than an enumeration would visit.
        let chain = nchw_scatter(64, 3136, 56);
        assert!(chain.one_to_one((0, 64 * 3136 - 1)));
        // The batch-8 `cnn_block` conv: every point checked both ways.
        let chain = nchw_scatter(8, 144, 12);
        let all = (0, 8 * 8 * 144 - 1);
        assert!(chain.one_to_one(all));
        assert!(evaluated_one_to_one(&chain, all));
    }

    #[test]
    fn a_chain_that_folds_points_together_is_not_one_to_one() {
        use Arg::{Konst, Root, Step};
        let chain = |steps: Vec<(BinOp, Arg, Arg)>, terms: Vec<(Arg, i64)>| Chain {
            steps,
            terms,
            konst: 0,
        };
        // `x % 4` over 0..8, and `x / 2` over 0..8.
        let wrap = chain(vec![(BinOp::Mod, Root, Konst(4))], vec![(Step(0), 1)]);
        let halve = chain(vec![(BinOp::Div, Root, Konst(2))], vec![(Step(0), 1)]);
        // `(x / 4) * 3 + x % 4`: the digits overlap (`x = 3` and `x = 4`).
        let overlap = chain(
            vec![(BinOp::Div, Root, Konst(4)), (BinOp::Mod, Root, Konst(4))],
            vec![(Step(0), 3), (Step(1), 1)],
        );
        // `(x / 4) * 4 + x % 4` is `x` again.
        let whole = chain(
            vec![(BinOp::Div, Root, Konst(4)), (BinOp::Mod, Root, Konst(4))],
            vec![(Step(0), 4), (Step(1), 1)],
        );
        for (name, chain, proven) in [
            ("wrap", &wrap, false),
            ("halve", &halve, false),
            ("overlap", &overlap, false),
            ("whole", &whole, true),
        ] {
            assert_eq!(chain.one_to_one((0, 7)), proven, "{name}");
            assert_eq!(evaluated_one_to_one(chain, (0, 7)), proven, "{name}");
        }
        // Over `0..4`, where `x % 4` is `x`, the wrap is one-to-one; one
        // point further it is not.
        assert!(wrap.one_to_one((0, 3)));
        assert!(!wrap.one_to_one((0, 4)));
        // A sum that may be negative is not followed through a division.
        assert!(!halve.one_to_one((-4, 3)) && !whole.one_to_one((-4, 3)));
    }

    /// A drawn operand: a constant, the sum, or one of the `steps` steps
    /// before it.
    fn arg((kind, k, step): (u8, i64, u32), steps: u32) -> Arg {
        match kind {
            0 => Arg::Konst(k),
            _ if steps == 0 || kind == 1 => Arg::Root,
            _ => Arg::Step(step % steps),
        }
    }

    /// Any chain of up to six steps over small constants.
    fn any_chain() -> impl Strategy<Value = Chain> {
        use BinOp::*;
        let ops = prop::sample::select(vec![Add, Sub, Mul, Div, Mod, Min, Max, Div, Mod]);
        let operand = || (0u8..3, -3i64..13, 0u32..6);
        let steps = prop::collection::vec((ops, operand(), operand()), 1..7);
        let terms = prop::collection::vec((operand(), -4i64..40), 1..4);
        (steps, terms, -5i64..5).prop_map(|(steps, terms, konst)| {
            let n = steps.len() as u32;
            Chain {
                steps: (steps.into_iter().zip(0..))
                    .map(|((op, a, b), i)| (op, arg(a, i), arg(b, i)))
                    .collect(),
                terms: (terms.into_iter()).map(|(a, by)| (arg(a, n), by)).collect(),
                konst,
            }
        })
    }

    /// Digits of `x` in a drawn mixed radix, recombined with drawn strides —
    /// the shape that is one-to-one exactly when the strides do not
    /// overlap, so the rule is tested on both sides of it.
    fn mixed_radix() -> impl Strategy<Value = Chain> {
        let radices = prop::collection::vec(1i64..6, 1..4);
        (radices, prop::collection::vec(1i64..30, 4)).prop_map(|(radices, strides)| {
            use Arg::{Konst, Root, Step};
            let (mut steps, mut terms, mut place) = (Vec::new(), Vec::new(), 1);
            for (&radix, &stride) in radices.iter().zip(&strides) {
                steps.push((BinOp::Div, Root, Konst(place)));
                steps.push((BinOp::Mod, Step(steps.len() as u32 - 1), Konst(radix)));
                terms.push((Step(steps.len() as u32 - 1), stride));
                place *= radix;
            }
            steps.push((BinOp::Div, Root, Konst(place)));
            terms.push((Step(steps.len() as u32 - 1), strides[3]));
            Chain {
                steps,
                terms,
                konst: 0,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What the rule proves one-to-one is: every point evaluated, no
        /// two addresses equal.
        #[test]
        fn a_chain_proven_one_to_one_is_one_to_one_at_every_point(
            chain in prop_oneof![any_chain(), mixed_radix()],
            lo in 0i64..40,
            len in prop_oneof![0i64..16, 0i64..400],
        ) {
            if chain.one_to_one((lo, lo + len)) {
                prop_assert!(evaluated_one_to_one(&chain, (lo, lo + len)), "{chain:?}");
            }
        }
    }
}
