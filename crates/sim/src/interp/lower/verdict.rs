//! How a range runs: once per block across all lanes when its threads
//! provably commute and none can fault, otherwise per thread in thread
//! order. Decided here, once, from what the lowering knows.

use super::Stretch;
use crate::interp::program::{
    Op, Program, Reason, Reg, Space, Verdict, DYN, ELEMENT, FILE_SHIFT, MEM,
};

/// The verdict on `code[s.start..s.end]` of the finished program `p`.
///
/// A range is wide when nothing in it can fault, every register it touches
/// has a static type, its control flow is proven uniform and it writes
/// nothing but its threads' own registers and register arrays. Threads of
/// such a range share no written state, so running them one instruction at
/// a time is running them one after another.
pub(super) fn judge(p: &Program, s: &Stretch) -> Verdict {
    if s.may_fault {
        return Verdict::PerThread(Reason::CanFault);
    }
    let code = &p.code[s.start as usize..s.end as usize];
    let untyped = |r: Reg| r & MEM == 0 && r >> FILE_SHIFT == DYN;
    let mut dynamic = false;
    for mut op in code.iter().copied() {
        op.for_each_reg(|r| {
            dynamic |= untyped(*r);
            if let Some(a) = access(p, *r) {
                let dims = &p.dims[a.first_dim as usize..][..a.rank as usize];
                dynamic |= dims.iter().any(|d| untyped(d.idx));
            }
        });
    }
    if dynamic {
        return Verdict::PerThread(Reason::Untyped);
    }
    if s.divergent {
        return Verdict::PerThread(Reason::Divergent);
    }
    let shared = |to: Reg| access(p, to).is_some_and(|a| a.space != Space::Local);
    let stores = code.iter().any(|op| match *op {
        Op::Store { to, .. } | Op::Update { to, .. } | Op::MulAdd { to, .. } => shared(to),
        _ => false,
    });
    if stores {
        return Verdict::PerThread(Reason::SharedStore);
    }
    Verdict::Wide
}

/// The access a memory operand names, unless it is a register-array element.
fn access(p: &Program, operand: Reg) -> Option<&crate::interp::program::Access> {
    (operand & (MEM | ELEMENT) == MEM).then(|| &p.accesses[(operand & !MEM) as usize])
}
