//! Tier 1: superinstruction fusion.
//!
//! [`fuse`] scans a stack [`Program`] for hot multi-op idioms — the
//! `load/push/sub/store` decrement loop, the compiled PID's
//! `load·load·sub` / `push·mul` / `load·add` chains — and rewrites each
//! into one fused op executed in a single dispatch.
//!
//! The fused program is *same-length*: a superinstruction sits at the
//! first index of the run it covers, and the covered slots retain their
//! original base ops. Jump offsets therefore never move, and a branch
//! landing in the middle of a fused run simply executes base ops —
//! correctness never depends on jump-target analysis.
//!
//! Gas/trap identity with the oracle interpreter is kept by *guarding*
//! every superinstruction: the fast path runs only if the whole covered
//! run is statically trap-free from the current state (enough gas for
//! every constituent, stack depth in range). On any shortfall the op
//! *deopts* to executing just its first constituent base op, which
//! reproduces the oracle's behavior (including mid-sequence `OutOfGas`)
//! exactly, one op at a time.

use super::interp::{ExtTable, VmEnv, VmError, MAX_CALLS, MAX_STACK, N_VARS};
use super::isa::{Op, Program};

/// Binary-operator selector shared by the fused and compiled tiers.
/// `Div` is deliberately absent: it can trap, so it never fuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinSel {
    Add,
    Sub,
    Mul,
    Min,
    Max,
    Gt,
    Lt,
    Ge,
    Le,
    Eq,
}

impl BinSel {
    /// The selector for a pure, non-trapping binary stack op.
    pub(crate) fn of(op: Op) -> Option<BinSel> {
        match op {
            Op::Add => Some(BinSel::Add),
            Op::Sub => Some(BinSel::Sub),
            Op::Mul => Some(BinSel::Mul),
            Op::Min => Some(BinSel::Min),
            Op::Max => Some(BinSel::Max),
            Op::Gt => Some(BinSel::Gt),
            Op::Lt => Some(BinSel::Lt),
            Op::Ge => Some(BinSel::Ge),
            Op::Le => Some(BinSel::Le),
            Op::Eq => Some(BinSel::Eq),
            _ => None,
        }
    }

    /// Applies the operator exactly as the oracle interpreter does.
    #[inline]
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinSel::Add => a + b,
            BinSel::Sub => a - b,
            BinSel::Mul => a * b,
            BinSel::Min => a.min(b),
            BinSel::Max => a.max(b),
            BinSel::Gt => f64::from(a > b),
            BinSel::Lt => f64::from(a < b),
            BinSel::Ge => f64::from(a >= b),
            BinSel::Le => f64::from(a <= b),
            BinSel::Eq => f64::from(a == b),
        }
    }

    /// The operator as a bare function pointer (for closure capture).
    pub(crate) fn func(self) -> fn(f64, f64) -> f64 {
        match self {
            BinSel::Add => |a, b| a + b,
            BinSel::Sub => |a, b| a - b,
            BinSel::Mul => |a, b| a * b,
            BinSel::Min => f64::min,
            BinSel::Max => f64::max,
            BinSel::Gt => |a, b| f64::from(a > b),
            BinSel::Lt => |a, b| f64::from(a < b),
            BinSel::Ge => |a, b| f64::from(a >= b),
            BinSel::Le => |a, b| f64::from(a <= b),
            BinSel::Eq => |a, b| f64::from(a == b),
        }
    }
}

/// One slot of a fused program. Superinstructions record how many
/// source ops they cover; the covered slots keep their base ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FOp {
    /// An unfused source op.
    Base(Op),
    /// `load var · push k · (add|sub) · store var` — covers 4.
    IncVar { var: u8, k: f64, sub: bool },
    /// `push k · store var` — covers 2.
    SetVar { var: u8, k: f64 },
    /// `load a · load b · <bin>` — covers 3.
    LoadLoadBin { a: u8, b: u8, sel: BinSel },
    /// `load var · <bin>` (top ⊙= vars\[var\]) — covers 2.
    LoadBin { var: u8, sel: BinSel },
    /// `push k · <bin>` (top ⊙= k) — covers 2.
    PushBin { k: f64, sel: BinSel },
    /// `load src · store dst` — covers 2.
    CopyVar { src: u8, dst: u8 },
    /// `store var · load var` (vars\[var\] = top, stack unchanged) — covers 2.
    StoreLoad { var: u8 },
    /// `load var · jz off` — covers 2; `off` is relative to the `jz` op.
    LoadJz { var: u8, off: i16 },
}

impl FOp {
    /// Source ops covered (1 for a base op).
    fn covers(self) -> usize {
        match self {
            FOp::Base(_) => 1,
            FOp::IncVar { .. } => 4,
            FOp::LoadLoadBin { .. } => 3,
            _ => 2,
        }
    }

    /// The first constituent base op — what a deopt executes.
    fn first(self) -> Op {
        match self {
            FOp::Base(op) => op,
            FOp::IncVar { var, .. } | FOp::LoadBin { var, .. } | FOp::LoadJz { var, .. } => {
                Op::Load(var)
            }
            FOp::SetVar { k, .. } | FOp::PushBin { k, .. } => Op::Push(k),
            FOp::LoadLoadBin { a, .. } => Op::Load(a),
            FOp::CopyVar { src, .. } => Op::Load(src),
            FOp::StoreLoad { var } => Op::Store(var),
        }
    }
}

/// A same-length superinstruction rewrite of a stack program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FusedProgram {
    fops: Vec<FOp>,
}

fn var_ok(n: u8) -> bool {
    (n as usize) < N_VARS
}

/// Tries to fuse the run starting at `i`; longest pattern wins.
fn match_at(ops: &[Op]) -> Option<FOp> {
    // 4-op: load v · push k · (add|sub) · store v
    if let [Op::Load(v), Op::Push(k), op, Op::Store(w), ..] = *ops {
        if v == w && var_ok(v) && matches!(op, Op::Add | Op::Sub) {
            return Some(FOp::IncVar {
                var: v,
                k,
                sub: op == Op::Sub,
            });
        }
    }
    // 3-op: load a · load b · bin
    if let [Op::Load(a), Op::Load(b), op, ..] = *ops {
        if var_ok(a) && var_ok(b) {
            if let Some(sel) = BinSel::of(op) {
                return Some(FOp::LoadLoadBin { a, b, sel });
            }
        }
    }
    // 2-op patterns.
    match *ops {
        [Op::Push(k), Op::Store(v), ..] if var_ok(v) => Some(FOp::SetVar { var: v, k }),
        [Op::Load(v), Op::Store(w), ..] if var_ok(v) && var_ok(w) => {
            Some(FOp::CopyVar { src: v, dst: w })
        }
        [Op::Store(v), Op::Load(w), ..] if v == w && var_ok(v) => Some(FOp::StoreLoad { var: v }),
        [Op::Load(v), Op::Jz(off), ..] if var_ok(v) => Some(FOp::LoadJz { var: v, off }),
        [Op::Load(v), op, ..] if var_ok(v) => {
            BinSel::of(op).map(|sel| FOp::LoadBin { var: v, sel })
        }
        [Op::Push(k), op, ..] => BinSel::of(op).map(|sel| FOp::PushBin { k, sel }),
        _ => None,
    }
}

/// Rewrites `program` into its same-length fused form.
pub(crate) fn fuse(program: &Program) -> FusedProgram {
    let ops = program.ops();
    let mut fops: Vec<FOp> = ops.iter().map(|&op| FOp::Base(op)).collect();
    let mut i = 0;
    while i < ops.len() {
        if let Some(fop) = match_at(&ops[i..]) {
            fops[i] = fop;
            i += fop.covers();
        } else {
            i += 1;
        }
    }
    FusedProgram { fops }
}

/// Code frame: the fused main program or a raw extension word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    Main,
    Ext(u8),
}

/// Executes a fused program with oracle-identical observable behavior.
#[allow(clippy::too_many_lines)]
pub(crate) fn exec_fused(
    fused: &FusedProgram,
    extensions: &ExtTable,
    stack: &mut Vec<f64>,
    vars: &mut [f64; N_VARS],
    gas_limit: u64,
    gas_out: &mut u64,
    env: &mut dyn VmEnv,
) -> Result<f64, VmError> {
    stack.clear();
    stack.reserve(MAX_STACK);
    let mut calls: Vec<(Frame, usize)> = Vec::new();
    let mut gas: u64 = 0;
    let mut frame = Frame::Main;
    let mut pc = 0usize;

    macro_rules! pop {
        () => {
            stack.pop().ok_or(VmError::StackUnderflow)?
        };
    }
    macro_rules! push {
        ($v:expr) => {{
            if stack.len() >= MAX_STACK {
                return Err(VmError::StackOverflow);
            }
            stack.push($v);
        }};
    }

    loop {
        if gas >= gas_limit {
            *gas_out = gas;
            return Err(VmError::OutOfGas);
        }
        let fetched = match frame {
            Frame::Main => fused.fops.get(pc).copied(),
            Frame::Ext(n) => extensions[n as usize]
                .as_ref()
                .expect("checked at ext dispatch")
                .ops()
                .get(pc)
                .map(|&op| FOp::Base(op)),
        };
        let Some(fop) = fetched else {
            // Falling off an extension body behaves like ret.
            if let Some((f, ret)) = calls.pop() {
                frame = f;
                pc = ret;
                continue;
            }
            *gas_out = gas;
            return Err(VmError::PcOutOfRange);
        };

        // Fast path: the whole covered run is trap-free from here, so
        // execute it in one dispatch charging the constituent ops' gas.
        if !matches!(fop, FOp::Base(_)) {
            let covers = fop.covers() as u64;
            let len = stack.len();
            let fits = gas_limit - gas >= covers
                && match fop {
                    FOp::Base(_) => unreachable!(),
                    FOp::IncVar { .. } | FOp::LoadLoadBin { .. } => len + 2 <= MAX_STACK,
                    FOp::SetVar { .. } | FOp::CopyVar { .. } | FOp::LoadJz { .. } => {
                        len < MAX_STACK
                    }
                    FOp::LoadBin { .. } | FOp::PushBin { .. } => (1..MAX_STACK).contains(&len),
                    FOp::StoreLoad { .. } => len >= 1,
                };
            if fits {
                gas += covers;
                *gas_out = gas;
                pc += fop.covers();
                match fop {
                    FOp::Base(_) => unreachable!(),
                    FOp::IncVar { var, k, sub } => {
                        let v = var as usize;
                        vars[v] = if sub { vars[v] - k } else { vars[v] + k };
                    }
                    FOp::SetVar { var, k } => vars[var as usize] = k,
                    FOp::LoadLoadBin { a, b, sel } => {
                        stack.push(sel.apply(vars[a as usize], vars[b as usize]));
                    }
                    FOp::LoadBin { var, sel } => {
                        let top = stack.last_mut().expect("guarded");
                        *top = sel.apply(*top, vars[var as usize]);
                    }
                    FOp::PushBin { k, sel } => {
                        let top = stack.last_mut().expect("guarded");
                        *top = sel.apply(*top, k);
                    }
                    FOp::CopyVar { src, dst } => vars[dst as usize] = vars[src as usize],
                    FOp::StoreLoad { var } => {
                        vars[var as usize] = *stack.last().expect("guarded");
                    }
                    FOp::LoadJz { var, off } => {
                        if vars[var as usize] == 0.0 {
                            // `off` is relative to the jz (second op).
                            let target = (pc as i64 - 1) + i64::from(off);
                            match usize::try_from(target) {
                                Ok(t) => pc = t,
                                Err(_) => return Err(VmError::PcOutOfRange),
                            }
                        }
                    }
                }
                continue;
            }
        }

        // Base op, or a deopt: execute only the first constituent,
        // exactly as the oracle interpreter would.
        let op = fop.first();
        gas += 1;
        *gas_out = gas;
        pc += 1;
        match op {
            Op::Push(v) => push!(v),
            Op::Dup => {
                let a = *stack.last().ok_or(VmError::StackUnderflow)?;
                push!(a);
            }
            Op::Drop => {
                let _ = pop!();
            }
            Op::Swap => {
                let b = pop!();
                let a = pop!();
                push!(b);
                push!(a);
            }
            Op::Over => {
                if stack.len() < 2 {
                    return Err(VmError::StackUnderflow);
                }
                let a = stack[stack.len() - 2];
                push!(a);
            }
            Op::Rot => {
                if stack.len() < 3 {
                    return Err(VmError::StackUnderflow);
                }
                let n = stack.len();
                stack[n - 3..].rotate_left(1);
            }
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Min
            | Op::Max
            | Op::Gt
            | Op::Lt
            | Op::Ge
            | Op::Le
            | Op::Eq => {
                let b = pop!();
                let a = pop!();
                push!(BinSel::of(op).expect("binary op").apply(a, b));
            }
            Op::Div => {
                let b = pop!();
                let a = pop!();
                if b == 0.0 {
                    return Err(VmError::DivideByZero);
                }
                push!(a / b);
            }
            Op::Neg => {
                let a = pop!();
                push!(-a);
            }
            Op::Abs => {
                let a = pop!();
                push!(a.abs());
            }
            Op::Not => {
                let a = pop!();
                push!(if a == 0.0 { 1.0 } else { 0.0 });
            }
            Op::Load(n) => {
                if n as usize >= N_VARS {
                    return Err(VmError::BadVariable);
                }
                push!(vars[n as usize]);
            }
            Op::Store(n) => {
                if n as usize >= N_VARS {
                    return Err(VmError::BadVariable);
                }
                vars[n as usize] = pop!();
            }
            Op::Jmp(off) => {
                pc = jump_target(pc, off)?;
            }
            Op::Jz(off) => {
                let c = pop!();
                if c == 0.0 {
                    pc = jump_target(pc, off)?;
                }
            }
            Op::Call(addr) => {
                if calls.len() >= MAX_CALLS {
                    return Err(VmError::CallDepthExceeded);
                }
                calls.push((frame, pc));
                pc = addr as usize;
            }
            Op::Ret => match calls.pop() {
                Some((f, ret)) => {
                    frame = f;
                    pc = ret;
                }
                None => {
                    *gas_out = gas;
                    return Ok(stack.last().copied().unwrap_or(0.0));
                }
            },
            Op::Halt => {
                *gas_out = gas;
                return Ok(stack.last().copied().unwrap_or(0.0));
            }
            Op::ReadSensor(p) => {
                let v = env.read_sensor(p)?;
                push!(v);
            }
            Op::WriteActuator(p) => {
                let v = pop!();
                env.write_actuator(p, v)?;
            }
            Op::Emit(ch) => {
                let v = pop!();
                env.emit(ch, v);
            }
            Op::ReadClock => push!(env.clock_s()),
            Op::ReadBattery => push!(env.battery_fraction()),
            Op::ReadRole => push!(env.role_code()),
            Op::Ext(n) => {
                if calls.len() >= MAX_CALLS {
                    return Err(VmError::CallDepthExceeded);
                }
                if extensions[n as usize].is_none() {
                    return Err(VmError::UnknownExtension);
                }
                calls.push((frame, pc));
                frame = Frame::Ext(n);
                pc = 0;
            }
            Op::Nop => {}
        }
    }
}

fn jump_target(pc_after_fetch: usize, off: i16) -> Result<usize, VmError> {
    let target = pc_after_fetch as i64 - 1 + i64::from(off);
    usize::try_from(target).map_err(|_| VmError::PcOutOfRange)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decrement_loop_fuses() {
        // The canonical counter loop: load 0 · jz · load 0 · push 1 ·
        // sub · store 0 · jmp.
        let ops = vec![
            Op::Push(5.0),
            Op::Store(0),
            Op::Load(0),
            Op::Jz(6),
            Op::Load(0),
            Op::Push(1.0),
            Op::Sub,
            Op::Store(0),
            Op::Jmp(-6),
            Op::Load(0),
            Op::Halt,
        ];
        let fused = fuse(&Program::new(ops));
        assert_eq!(fused.fops[0], FOp::SetVar { var: 0, k: 5.0 });
        assert_eq!(fused.fops[2], FOp::LoadJz { var: 0, off: 6 });
        assert_eq!(
            fused.fops[4],
            FOp::IncVar {
                var: 0,
                k: 1.0,
                sub: true
            }
        );
        // Covered slots keep their base ops for mid-run branch targets.
        assert_eq!(fused.fops[5], FOp::Base(Op::Push(1.0)));
        assert_eq!(fused.fops[7], FOp::Base(Op::Store(0)));
    }

    #[test]
    fn pid_idioms_fuse() {
        let ops = vec![
            Op::Load(31),
            Op::Load(1),
            Op::Sub,
            Op::Push(0.2),
            Op::Mul,
            Op::Load(1),
            Op::Add,
            Op::Store(1),
        ];
        let fused = fuse(&Program::new(ops));
        assert_eq!(
            fused.fops[0],
            FOp::LoadLoadBin {
                a: 31,
                b: 1,
                sel: BinSel::Sub
            }
        );
        assert_eq!(
            fused.fops[3],
            FOp::PushBin {
                k: 0.2,
                sel: BinSel::Mul
            }
        );
        assert_eq!(
            fused.fops[5],
            FOp::LoadBin {
                var: 1,
                sel: BinSel::Add
            }
        );
        assert_eq!(fused.fops[7], FOp::Base(Op::Store(1)));
    }

    #[test]
    fn out_of_range_vars_do_not_fuse() {
        let ops = vec![Op::Push(1.0), Op::Store(200)];
        let fused = fuse(&Program::new(ops));
        assert_eq!(fused.fops[0], FOp::Base(Op::Push(1.0)));
    }
}
