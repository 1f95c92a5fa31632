//! The wide interpreter loop: runs a range the lowering proved order-free
//! once for the whole block, each instruction across all lanes.
//!
//! A register is a column of its type, so the per-lane body of the common
//! instructions — integer and float arithmetic, comparisons, multiply-adds,
//! moves and stores between columns — is a loop over slices, and one
//! dispatch is paid per instruction per *block*. The arithmetic is still
//! [`Value::binary`]'s: a lane loop calls it on re-wrapped lanes with the
//! operator a constant, and inlining leaves the one case that applies. An
//! instruction with no column form here runs [`Block::step`] lane by lane;
//! that is the same result, since the threads of a wide range commute.
//!
//! A branch the lanes take differently runs each side under a *lane mask*
//! (`mask.rs`): every column loop then skips the lanes the mask has off,
//! which neither write a register nor load, store or fault.

use std::cell::Cell;

use hidet_ir::{BinOp, DType};

use super::exec::{column, element_offset, missing, past_the_end, Block, Fault};
use super::program::{
    sides, Access, Op, Reg, Space, BOOL, COLUMN, ELEMENT, FILE_SHIFT, FLOAT, INT, MEM, SCALAR,
};
use super::SimError;
use crate::value::Value;

mod mask;

use mask::{Active, Choosing, Every, Split};

/// A source operand across the lanes: one value for all of them, or a column.
#[derive(Clone, Copy)]
enum Src<'a, T> {
    One(T),
    Each(&'a [Cell<T>]),
}
use Src::{Each, One};

impl<T: Copy> Src<'_, T> {
    #[inline(always)]
    fn at(self, lane: usize) -> T {
        match self {
            One(v) => v,
            Each(lanes) => lanes[lane].get(),
        }
    }
}

/// `dst[lane] = f(dst[lane], a[lane], b[lane])` on every active lane.
/// `false` when `f` had no result on one — which the lowering ruled out.
#[inline(always)]
fn zip<D: Copy + Default, A: Copy, B: Copy>(
    dst: &[Cell<D>],
    a: Src<'_, A>,
    b: Src<'_, B>,
    f: impl Fn(D, A, B) -> Option<D>,
    active: impl Active,
) -> bool {
    let mut ok = true;
    let mut put = |lane: usize, d: &Cell<D>, a: A, b: B| {
        if active.on(lane) {
            let v = f(d.get(), a, b);
            ok &= v.is_some();
            d.set(v.unwrap_or_default());
        }
    };
    match (a, b) {
        (Each(a), Each(b)) => {
            for (lane, ((d, a), b)) in dst.iter().zip(a).zip(b).enumerate() {
                put(lane, d, a.get(), b.get());
            }
        }
        (Each(a), One(b)) => {
            for (lane, (d, a)) in dst.iter().zip(a).enumerate() {
                put(lane, d, a.get(), b);
            }
        }
        (One(a), Each(b)) => {
            for (lane, (d, b)) in dst.iter().zip(b).enumerate() {
                put(lane, d, a, b.get());
            }
        }
        (One(a), One(b)) => {
            for (lane, d) in dst.iter().enumerate() {
                put(lane, d, a, b);
            }
        }
    }
    ok
}

/// `dst[lane] = src[lane]` on every active lane.
#[inline(always)]
fn copy<T: Copy + Default>(dst: &[Cell<T>], src: Src<'_, T>, active: impl Active) -> bool {
    zip(dst, src, One(()), |_, x, ()| Some(x), active)
}

/// `dst[lane] = if cond[lane] { a[lane] } else { b[lane] }` on every active
/// lane; only the chosen side is read.
#[inline(always)]
fn choose<T: Copy>(
    dst: &[Cell<T>],
    cond: Src<'_, bool>,
    a: Src<'_, T>,
    b: Src<'_, T>,
    active: impl Active,
) {
    for (lane, dst) in dst.iter().enumerate() {
        if active.on(lane) {
            dst.set(if cond.at(lane) {
                a.at(lane)
            } else {
                b.at(lane)
            });
        }
    }
}

fn int(v: Value) -> Option<i64> {
    match v {
        Value::I64(x) => Some(x),
        _ => None,
    }
}

fn float(v: Value) -> Option<f32> {
    match v {
        Value::F32(x) => Some(x),
        _ => None,
    }
}

/// Expands `$arithmetic!(op)`, `$comparison!(op)` or `$logical!(op)` with
/// the operator `$op` holds as a constant, so that `Value::binary` inlines
/// to its one case.
macro_rules! per_operator {
    ($op:expr, $arithmetic:ident, $comparison:ident, $logical:ident) => {
        match $op {
            BinOp::Add => $arithmetic!(BinOp::Add),
            BinOp::Sub => $arithmetic!(BinOp::Sub),
            BinOp::Mul => $arithmetic!(BinOp::Mul),
            BinOp::Div => $arithmetic!(BinOp::Div),
            BinOp::Mod => $arithmetic!(BinOp::Mod),
            BinOp::Min => $arithmetic!(BinOp::Min),
            BinOp::Max => $arithmetic!(BinOp::Max),
            BinOp::Lt => $comparison!(BinOp::Lt),
            BinOp::Le => $comparison!(BinOp::Le),
            BinOp::Eq => $comparison!(BinOp::Eq),
            BinOp::Ne => $comparison!(BinOp::Ne),
            BinOp::And => $logical!(BinOp::And),
            BinOp::Or => $logical!(BinOp::Or),
        }
    };
}

impl<'a> Block<'a> {
    /// The wide interpreter loop: runs `code` to its end for every thread of
    /// the block at once.
    pub(super) fn wide(&mut self, code: &[Op]) -> Result<(), Fault> {
        self.masked(code, Every, 0)
    }

    /// Runs `code` for the lanes `active` has on, with `depth` masks open
    /// around it. Loop extents are the same in every lane, so any lane that
    /// runs decides them for all; a branch the lanes take differently runs
    /// its sides one after the other, each for the lanes of its mask
    /// ([`Block::side`]).
    fn masked<A: Active>(&mut self, code: &[Op], active: A, depth: usize) -> Result<(), Fault> {
        let Some(lead) = active.first(self.regs.n) else {
            return Ok(());
        };
        let mut pc = 0usize;
        while let Some(&op) = code.get(pc) {
            pc += 1;
            match op {
                Op::Jump { skip } => pc += skip as usize,
                Op::Branch { cond, skip, select } => {
                    match self.split(cond, select, active, depth, lead)? {
                        Split::All => {}
                        Split::None => pc += skip as usize,
                        Split::Both(then, otherwise) => {
                            let (then_end, end) = sides(code, pc, skip);
                            self.side(&code[pc..then_end], then, depth + 1)?;
                            let else_start = pc + skip as usize;
                            self.side(&code[else_start..end], otherwise, depth + 1)?;
                            pc = end;
                        }
                    }
                }
                Op::LoopEnter {
                    var,
                    count,
                    extent,
                    skip,
                } => {
                    let n = self.extent(extent, lead)?;
                    self.fill_where(count, Value::I64(n), active)?;
                    self.fill_where(var, Value::I64(0), active)?;
                    if n <= 0 {
                        pc += skip as usize;
                    }
                }
                Op::LoopNext { var, count, back } => {
                    let (i, n) = self.iteration(var, count, lead)?;
                    self.fill_where(var, Value::I64(i + 1), active)?;
                    if i + 1 < n {
                        pc -= back as usize + 1;
                    }
                }
                op => {
                    if !self.across(op, active)? {
                        let one = &code[pc - 1..pc];
                        let lanes = (0..self.regs.n).filter(|&lane| active.on(lane));
                        lanes
                            .into_iter()
                            .try_for_each(|lane| self.step(one, lane))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs `op` for the active lanes as a loop over columns; `false` if it
    /// is not of a form that has one.
    fn across(&mut self, op: Op, active: impl Active) -> Result<bool, Fault> {
        match op {
            Op::Bin { op, dst, a, b } => {
                if let (Some(a), Some(b)) = (self.ints(a), self.ints(b)) {
                    let same = self.int_column(dst);
                    return self.bin(op, dst, a, b, Value::I64, int, same, active);
                }
                if let (Some(a), Some(b)) = (self.bools(a), self.bools(b)) {
                    let same = self.bool_column(dst);
                    return self.bin(op, dst, a, b, Value::Bool, Value::as_bool, same, active);
                }
                match (self.floats(a, 0, active)?, self.floats(b, 1, active)?) {
                    (Some(a), Some(b)) => {
                        let same = self.float_column(dst);
                        self.bin(op, dst, a, b, Value::F32, float, same, active)
                    }
                    _ => Ok(false),
                }
            }
            Op::Select { dst, cond, a, b } => {
                let Some(cond) = self.bools(cond) else {
                    return Ok(false);
                };
                if let (Some(dst), Some(a), Some(b)) =
                    (self.int_column(dst), self.ints(a), self.ints(b))
                {
                    choose(dst, cond, a, b, active);
                } else if let (Some(dst), Some(a), Some(b)) =
                    (self.bool_column(dst), self.bools(a), self.bools(b))
                {
                    choose(dst, cond, a, b, active);
                } else if let Some(dst) = self.float_column(dst) {
                    // A side is loaded only for the lanes that choose it: a
                    // guard may be all that keeps its index in bounds.
                    let (then, otherwise) = (
                        Choosing::new(active, cond, true),
                        Choosing::new(active, cond, false),
                    );
                    let (Some(a), Some(b)) =
                        (self.floats(a, 0, then)?, self.floats(b, 1, otherwise)?)
                    else {
                        return Ok(false);
                    };
                    choose(dst, cond, a, b, active);
                } else {
                    return Ok(false);
                }
                Ok(true)
            }
            Op::Mov { dst, src } => {
                if let (Some(dst), Some(src)) = (self.int_column(dst), self.ints(src)) {
                    return Ok(copy(dst, src, active));
                }
                match self.float_column(dst) {
                    Some(dst) => self.read(dst, src, active),
                    None => Ok(false),
                }
            }
            Op::Store { to, src } => {
                if to & ELEMENT != 0 {
                    return self.read(self.element(element_offset(to))?, src, active);
                }
                let Some(src) = self.floats(src, 0, active)? else {
                    return Ok(false);
                };
                self.update(to, src, One(()), |_, x, ()| Some(x), active)
            }
            Op::Update { op, to, src } => {
                let Some(src) = self.floats(src, 0, active)? else {
                    return Ok(false);
                };
                macro_rules! arithmetic {
                    ($op:path) => {
                        self.update(
                            to,
                            src,
                            One(()),
                            |old, x, ()| float(Value::binary($op, Value::F32(old), Value::F32(x))?),
                            active,
                        )
                    };
                }
                macro_rules! no_form {
                    ($op:path) => {
                        Ok(false)
                    };
                }
                per_operator!(op, arithmetic, no_form, no_form)
            }
            Op::MulAdd { to, a, b } => {
                let (Some(a), Some(b)) = (self.floats(a, 0, active)?, self.floats(b, 1, active)?)
                else {
                    return Ok(false);
                };
                let f = |old, x, y| {
                    let product = Value::binary(BinOp::Mul, Value::F32(x), Value::F32(y))?;
                    float(Value::binary(BinOp::Add, Value::F32(old), product)?)
                };
                self.update(to, a, b, f, active)
            }
            _ => Ok(false),
        }
    }

    /// `dst[lane] = operand[lane]` on the active lanes, for a float
    /// `operand`: a register, a register-array element, or what a proven
    /// access loads.
    fn read(&self, dst: &[Cell<f32>], operand: u32, active: impl Active) -> Result<bool, Fault> {
        if operand & (MEM | ELEMENT) == MEM {
            let access = &self.p.accesses[(operand & !MEM) as usize];
            return self.gather(access, dst, active);
        }
        let src = self.floats(operand, 0, active)?;
        Ok(src.is_some_and(|src| copy(dst, src, active)))
    }

    /// `to[lane] = f(to[lane], a[lane], b[lane])` on the active lanes, for a
    /// destination in memory that stores `f32` as it is.
    #[inline(always)]
    fn update<B: Copy>(
        &mut self,
        to: u32,
        a: Src<'a, f32>,
        b: Src<'a, B>,
        f: impl Fn(f32, f32, B) -> Option<f32>,
        active: impl Active,
    ) -> Result<bool, Fault> {
        if to & ELEMENT != 0 {
            return every_lane(zip(self.element(element_offset(to))?, a, b, f, active));
        }
        let (p, params, regs) = (self.p, self.params, self.regs);
        let access = &p.accesses[(to & !MEM) as usize];
        if !matches!(access.dtype, DType::F32 | DType::F16) || !self.addresses(access) {
            return Ok(false);
        }
        let past = |at: usize| past_the_end(p, params, access, at);
        let mut ok = true;
        let mut put = |lane: usize, old: f32| {
            let new = f(old, a.at(lane), b.at(lane));
            ok &= new.is_some();
            new.unwrap_or_default()
        };
        let lanes = regs.at.iter().map(Cell::get).enumerate();
        let lanes = lanes.filter(|&(lane, _)| active.on(lane));
        match access.space {
            Space::Global(g) => {
                let buffer = self.global_mut(access, g)?;
                for (lane, at) in lanes {
                    let slot = buffer.get_mut(at).ok_or_else(|| past(at))?;
                    *slot = put(lane, *slot);
                }
            }
            // (Blocks side by side each have shared memory of their own.)
            Space::Shared => {
                for (lane, at) in lanes {
                    let slot = self.shared_at(at, lane).ok_or_else(|| past(at))?;
                    slot.set(put(lane, slot.get()));
                }
            }
            Space::Local => {
                for (lane, at) in lanes {
                    let slot = self.local(at, lane).ok_or_else(|| past(at))?;
                    slot.set(put(lane, slot.get()));
                }
            }
            Space::Missing => return Err(missing(self, access)),
        }
        every_lane(ok)
    }

    /// `dst = a <op> b` on the active lanes, for lanes of a type `wrap` makes
    /// a [`Value`] of and `unwrap` gets back out; `same` is `dst` as a column
    /// of that type, if it is one. Arithmetic goes there, a comparison or a
    /// logical operator to a boolean column.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn bin<T: Copy + Default>(
        &self,
        op: BinOp,
        dst: Reg,
        a: Src<'a, T>,
        b: Src<'a, T>,
        wrap: impl Fn(T) -> Value + Copy,
        unwrap: impl Fn(Value) -> Option<T> + Copy,
        same: Option<&'a [Cell<T>]>,
        active: impl Active,
    ) -> Result<bool, Fault> {
        macro_rules! arithmetic {
            ($op:path) => {{
                let Some(dst) = same else {
                    return Ok(false);
                };
                let f = |_, x, y| unwrap(Value::binary($op, wrap(x), wrap(y))?);
                zip(dst, a, b, f, active)
            }};
        }
        macro_rules! predicate {
            ($op:path) => {{
                let Some(dst) = self.bool_column(dst) else {
                    return Ok(false);
                };
                let f = |_, x, y| Value::binary($op, wrap(x), wrap(y))?.as_bool();
                zip(dst, a, b, f, active)
            }};
        }
        every_lane(per_operator!(op, arithmetic, predicate, predicate))
    }

    // ---- operands as columns ---------------------------------------------

    /// Register `r` across the lanes, if it holds a `T`: a block-level
    /// scalar `of` gets one out of, or a column of `file`, whose lanes are
    /// `lanes`.
    #[inline(always)]
    fn source<T: Copy>(
        &self,
        r: Reg,
        file: u32,
        lanes: &'a [Cell<T>],
        of: impl Fn(Value) -> Option<T>,
    ) -> Option<Src<'a, T>> {
        let c = (r & COLUMN) as usize;
        match r >> FILE_SHIFT {
            SCALAR => of(self.regs.scalars[c].get()).map(One),
            _ => self.lanes_of(r, file, lanes).map(Each),
        }
    }

    /// Register `r` as a column of `file`, whose lanes are `lanes`, if it is
    /// one.
    #[inline(always)]
    fn lanes_of<T>(&self, r: Reg, file: u32, lanes: &'a [Cell<T>]) -> Option<&'a [Cell<T>]> {
        (r >> FILE_SHIFT == file).then(|| column(lanes, (r & COLUMN) as usize, self.regs.n))
    }

    #[inline(always)]
    fn ints(&self, r: Reg) -> Option<Src<'a, i64>> {
        self.source(r, INT, self.regs.ints, int)
    }

    #[inline(always)]
    fn bools(&self, r: Reg) -> Option<Src<'a, bool>> {
        self.source(r, BOOL, self.regs.bools, Value::as_bool)
    }

    /// A float source across the lanes, if `operand` is one: a register, a
    /// register-array element, or what a proven access loads for the active
    /// lanes — gathered into scratch column `slot`.
    #[inline(always)]
    fn floats(
        &self,
        operand: u32,
        slot: usize,
        active: impl Active,
    ) -> Result<Option<Src<'a, f32>>, Fault> {
        if operand & MEM == 0 {
            return Ok(self.source(operand, FLOAT, self.regs.floats, float));
        }
        if operand & ELEMENT != 0 {
            return Ok(Some(Each(self.element(element_offset(operand))?)));
        }
        let n = self.regs.n;
        let loaded = column(self.regs.loaded, slot * n, n);
        let access = &self.p.accesses[(operand & !MEM) as usize];
        Ok(self.gather(access, loaded, active)?.then_some(Each(loaded)))
    }

    #[inline(always)]
    fn int_column(&self, r: Reg) -> Option<&'a [Cell<i64>]> {
        self.lanes_of(r, INT, self.regs.ints)
    }

    #[inline(always)]
    fn float_column(&self, r: Reg) -> Option<&'a [Cell<f32>]> {
        self.lanes_of(r, FLOAT, self.regs.floats)
    }

    #[inline(always)]
    fn bool_column(&self, r: Reg) -> Option<&'a [Cell<bool>]> {
        self.lanes_of(r, BOOL, self.regs.bools)
    }

    /// Every lane's address of proven access `a`, into the `at` column.
    /// `false` if the access is not proven or an index is no integer.
    /// (What a lane a mask has off would address is computed too, and never
    /// used.)
    fn addresses(&self, a: &Access) -> bool {
        let at = self.regs.at;
        at.iter().for_each(|lane| lane.set(a.offset));
        let add = |lane: &Cell<usize>, index: i64, stride: usize| {
            lane.set(
                lane.get()
                    .wrapping_add((index as usize).wrapping_mul(stride)),
            );
        };
        for d in &self.p.dims[a.first_dim as usize..][..a.rank as usize] {
            match self.ints(d.idx) {
                Some(One(index)) => at.iter().for_each(|lane| add(lane, index, d.stride)),
                Some(Each(index)) => {
                    let lanes = at.iter().zip(index);
                    lanes.for_each(|(lane, index)| add(lane, index.get(), d.stride));
                }
                None => return false,
            }
        }
        a.proven
    }

    /// What every active lane loads from proven access `a`, into `out`;
    /// `false` if the access is not proven or an index is no integer.
    fn gather(&self, a: &Access, out: &[Cell<f32>], active: impl Active) -> Result<bool, Fault> {
        // One term that differs by lane — a task mapping's usual address —
        // needs no table of addresses.
        if let (true, [d]) = (
            a.proven,
            &self.p.dims[a.first_dim as usize..][..a.rank as usize],
        ) {
            if let Some(Each(index)) = self.ints(d.idx) {
                let at = |i: &Cell<i64>| {
                    a.offset
                        .wrapping_add((i.get() as usize).wrapping_mul(d.stride))
                };
                return self.gather_at(a, out, index.iter().map(at), active);
            }
        }
        if !self.addresses(a) {
            return Ok(false);
        }
        self.gather_at(a, out, self.regs.at.iter().map(Cell::get), active)
    }

    /// `out[lane] = ` the element of `a`'s storage at `at[lane]`, on the
    /// active lanes; `true`.
    #[inline(always)]
    fn gather_at(
        &self,
        a: &Access,
        out: &[Cell<f32>],
        at: impl Iterator<Item = usize>,
        active: impl Active,
    ) -> Result<bool, Fault> {
        let (p, params) = (self.p, self.params);
        let past = |at: usize| past_the_end(p, params, a, at);
        let lanes = out.iter().zip(at).enumerate();
        let lanes = lanes.filter(|&(lane, _)| active.on(lane));
        match a.space {
            Space::Global(g) => {
                let buffer = self.global(a, g)?;
                for (_, (out, at)) in lanes {
                    out.set(*buffer.get(at).ok_or_else(|| past(at))?);
                }
            }
            Space::Shared => {
                for (lane, (out, at)) in lanes {
                    out.set(self.shared_at(at, lane).ok_or_else(|| past(at))?.get());
                }
            }
            Space::Local => {
                for (lane, (out, at)) in lanes {
                    out.set(self.local(at, lane).ok_or_else(|| past(at))?.get());
                }
            }
            Space::Missing => return Err(missing(self, a)),
        }
        Ok(true)
    }
}

/// A wide range cannot fault; arithmetic stays checked all the same.
fn every_lane(ok: bool) -> Result<bool, Fault> {
    if ok {
        Ok(true)
    } else {
        Err(Box::new(SimError::DivByZero))
    }
}

#[cfg(test)]
mod tests {
    //! The column forms against the per-thread loop — which is
    //! `Value::binary` / `cast` and nothing else — on every bit pattern.

    use super::*;
    use crate::interp::exec::Regs;
    use crate::interp::program::Program;
    use crate::DeviceMemory;
    use hidet_ir::prelude::*;
    use proptest::prelude::*;

    const LANES: usize = 5;
    /// Columns per file, and elements per thread's register arrays.
    const COLUMNS: usize = 3;

    fn ints() -> impl Strategy<Value = i64> {
        let edge = prop::sample::select(vec![i64::MIN, i64::MIN + 1, -1, 0, 1, 2, i64::MAX]);
        prop_oneof![edge, i64::MIN..=i64::MAX, -9i64..=9]
    }

    /// Any `f32`, by bit pattern: NaN payloads of both signs, both zeros,
    /// subnormals and infinities among them.
    fn floats() -> impl Strategy<Value = f32> {
        let edge = prop::sample::select(vec![
            0x0000_0000u32,
            0x8000_0000,
            0x0000_0001,
            0x807f_ffff,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0001,
            0xffc1_2345,
            0x7fa0_0000,
            0x3f80_0000,
        ]);
        prop_oneof![edge, 0u32..=u32::MAX].prop_map(f32::from_bits)
    }

    /// A block of `LANES` threads with `COLUMNS` register-array elements each.
    fn program() -> Program {
        let mut kb = KernelBuilder::new("lanes", 1, LANES as i64);
        kb.local("R", DType::F32, &[COLUMNS as i64]);
        Program::lower(&kb.build())
    }

    /// Registers of every file, a scalar of every type, register arrays.
    fn registers() -> impl Strategy<Value = Regs> {
        let n = COLUMNS * LANES;
        let columns = (
            prop::collection::vec(ints(), n + 1),
            prop::collection::vec(floats(), 2 * n + 1),
            prop::collection::vec(0u8..2, n + 1),
        );
        columns.prop_map(move |(ints, floats, bools)| {
            let mut regs = Regs::new(&program(), [COLUMNS, COLUMNS, COLUMNS, 0], LANES);
            let bools: Vec<bool> = bools.iter().map(|&b| b == 1).collect();
            regs.scalars = vec![
                Value::I64(ints[n]),
                Value::F32(floats[2 * n]),
                Value::Bool(bools[n]),
            ];
            regs.ints.copy_from_slice(&ints[..n]);
            regs.floats.copy_from_slice(&floats[..n]);
            regs.locals.copy_from_slice(&floats[n..2 * n]);
            regs.bools.copy_from_slice(&bools[..n]);
            regs
        })
    }

    /// Everything an instruction can have written, bit for bit — except that
    /// the result of arithmetic is a NaN or not: which payload survives
    /// `NaN + NaN` is up to the order the instruction selector puts the
    /// operands in, not to the language.
    fn bits(regs: &Regs, arithmetic: bool) -> (Vec<i64>, Vec<u32>, Vec<bool>, Vec<u32>) {
        let bits = |lanes: &[f32]| {
            let bits = |x: &f32| match arithmetic && x.is_nan() {
                true => f32::NAN.to_bits(),
                false => x.to_bits(),
            };
            lanes.iter().map(bits).collect()
        };
        let (floats, locals) = (bits(&regs.floats), bits(&regs.locals));
        (regs.ints.clone(), floats, regs.bools.clone(), locals)
    }

    /// Runs `op` on a copy of `regs` across the lanes and on another lane by
    /// lane — every lane, and the lanes of a mask; both must fault or
    /// neither, and leave the same registers, a lane the mask has off as it
    /// was.
    fn assert_wide_is_per_thread(p: &Program, regs: &Regs, op: Op) {
        let mut memory = DeviceMemory::new();
        for on in [[true; LANES], [true, false, false, true, false]] {
            let mut mask = on;
            let mask = Cell::from_mut(&mut mask[..]).as_slice_of_cells();
            let mut run = |regs: &mut Regs, across: bool| {
                let mut block = Block {
                    p,
                    regs: regs.lanes(),
                    shared: &[],
                    bases: &[],
                    memory: &mut memory,
                    globals: &[],
                    params: &[],
                };
                if across {
                    let formed = match on == [true; LANES] {
                        true => block.across(op, Every)?,
                        false => block.across(op, mask)?,
                    };
                    assert!(formed, "{op:?} has no column form");
                    return Ok(());
                }
                let lanes = (0..LANES).filter(|&lane| on[lane]);
                lanes
                    .into_iter()
                    .try_for_each(|lane| block.step(&[op], lane))
            };
            let (mut across, mut each) = (regs.clone(), regs.clone());
            let stepped = run(&mut each, false);
            assert_eq!(run(&mut across, true), stepped, "{op:?} on {on:?}");
            if stepped.is_ok() {
                let arithmetic =
                    !matches!(op, Op::Mov { .. } | Op::Select { .. } | Op::Store { .. });
                let (across, each) = (bits(&across, arithmetic), bits(&each, arithmetic));
                assert_eq!(across, each, "{op:?} on {on:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Loads and stores of a wide range against the same range run per
        /// thread: what a store converts to for an `f16`, an `f32` and an
        /// `i32` buffer, a read-modify-write, register arrays addressed by
        /// a register.
        #[test]
        fn a_wide_range_leaves_memory_as_its_threads_in_turn_do(
            x in prop::collection::vec(floats(), 2 * LANES),
        ) {
            use crate::interp::program::{Reason, Verdict};
            let n = LANES as i64;
            let mut kb = KernelBuilder::new("stores", 2, n);
            let input = kb.param("X", DType::F32, &[2, n]);
            let outputs = [("Half", DType::F16), ("Single", DType::F32), ("Whole", DType::I32)];
            let mut outputs = outputs.map(|(name, dtype)| kb.param(name, dtype, &[2, n])).to_vec();
            outputs.push(kb.param("Sum", DType::F32, &[2, n]));
            let r = kb.local("R", DType::F32, &[2]);
            let at = || vec![block_idx(), thread_idx()];
            let own = || vec![thread_idx() % 2];
            kb.push(store(&r, own(), load(&input, at())));
            for y in &outputs[..3] {
                kb.push(store(y, at(), load(&r, own())));
            }
            let y = &outputs[3];
            kb.push(store(y, at(), load(y, at()) * load(&input, at())));
            kb.push(store(y, at(), load(y, at()) + load(&r, own()) * 0.5f32));
            let kernel = kb.build();
            let wide = Program::lower(&kernel);
            assert!(wide.ranges.iter().all(|r| r.verdict == Verdict::Wide), "{:?}", wide.ranges);
            let mut in_turn = wide.clone();
            for range in &mut in_turn.ranges {
                range.verdict = Verdict::PerThread(Reason::CanFault);
            }
            let memory = |p: &Program| {
                let mut memory = DeviceMemory::new();
                for param in kernel.params() {
                    memory.alloc(param.name(), &x);
                }
                let buffers = p.resolve(&kernel, &memory);
                crate::Gpu::default().launch(p, &kernel, &buffers, &mut memory).expect("runs");
                let bits = |name: &str| memory.read(name).iter().map(|x| x.to_bits()).collect();
                kernel.params().iter().map(|g| bits(g.name())).collect::<Vec<Vec<u32>>>()
            };
            // (The last buffer holds arithmetic: NaN or not, as above.)
            let (mut wide, mut in_turn) = (memory(&wide), memory(&in_turn));
            for results in [&mut wide, &mut in_turn] {
                for bits in results.last_mut().expect("outputs") {
                    if f32::from_bits(*bits).is_nan() {
                        *bits = f32::NAN.to_bits();
                    }
                }
            }
            prop_assert_eq!(wide, in_turn);
        }

        #[test]
        fn a_column_form_is_its_per_thread_instruction_on_every_lane(regs in registers()) {
            let p = program();
            let reg = |file: u32, c: u32| file << FILE_SHIFT | if file == SCALAR { c } else { c * LANES as u32 };
            let element = |e: u32| MEM | ELEMENT | e;
            let (int_scalar, float_scalar, bool_scalar) = (reg(SCALAR, 0), reg(SCALAR, 1), reg(SCALAR, 2));
            let operators = [
                BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod, BinOp::Min,
                BinOp::Max, BinOp::Lt, BinOp::Le, BinOp::Eq, BinOp::Ne,
            ];
            for op in operators {
                let to = if op.is_predicate() { BOOL } else { INT };
                // Column with column (the destination one of them), with a
                // scalar on either side, and two scalars.
                for (a, b) in [
                    (reg(INT, 0), reg(INT, 1)),
                    (reg(INT, 2), reg(INT, 0)),
                    (reg(INT, 1), int_scalar),
                    (int_scalar, reg(INT, 1)),
                    (int_scalar, int_scalar),
                ] {
                    assert_wide_is_per_thread(&p, &regs, Op::Bin { op, dst: reg(to, 2), a, b });
                }
                let to = if op.is_predicate() { BOOL } else { FLOAT };
                for (a, b) in [
                    (reg(FLOAT, 0), reg(FLOAT, 1)),
                    (reg(FLOAT, 2), element(0)),
                    (element(1), float_scalar),
                    (float_scalar, reg(FLOAT, 1)),
                ] {
                    assert_wide_is_per_thread(&p, &regs, Op::Bin { op, dst: reg(to, 2), a, b });
                }
                if !op.is_predicate() {
                    for src in [reg(FLOAT, 0), element(2), float_scalar] {
                        assert_wide_is_per_thread(&p, &regs, Op::Update { op, to: element(2), src });
                    }
                }
            }
            for (a, b) in [(reg(FLOAT, 0), element(1)), (element(2), float_scalar)] {
                assert_wide_is_per_thread(&p, &regs, Op::MulAdd { to: element(2), a, b });
                assert_wide_is_per_thread(&p, &regs, Op::Store { to: element(0), src: a });
                assert_wide_is_per_thread(&p, &regs, Op::Mov { dst: reg(FLOAT, 1), src: b });
                for cond in [reg(BOOL, 0), bool_scalar] {
                    assert_wide_is_per_thread(&p, &regs, Op::Select { dst: reg(FLOAT, 0), cond, a, b });
                }
            }
            for (a, b) in [(reg(INT, 0), reg(INT, 1)), (reg(INT, 2), int_scalar)] {
                assert_wide_is_per_thread(&p, &regs, Op::Mov { dst: reg(INT, 1), src: a });
                let select = Op::Select { dst: reg(INT, 0), cond: reg(BOOL, 1), a, b };
                assert_wide_is_per_thread(&p, &regs, select);
            }
            let select = Op::Select { dst: reg(BOOL, 0), cond: reg(BOOL, 0), a: reg(BOOL, 1), b: bool_scalar };
            assert_wide_is_per_thread(&p, &regs, select);
            for op in [BinOp::And, BinOp::Or, BinOp::Eq, BinOp::Ne] {
                for (a, b) in [(reg(BOOL, 0), reg(BOOL, 1)), (reg(BOOL, 2), bool_scalar)] {
                    assert_wide_is_per_thread(&p, &regs, Op::Bin { op, dst: reg(BOOL, 2), a, b });
                }
            }
        }
    }
}
