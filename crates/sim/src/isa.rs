//! The micro-IR instruction set: the "binary" representation that the whole
//! stack operates on.
//!
//! Programs are flat instruction streams (`Vec<Inst>`) addressed by
//! instruction index ("PC"), exactly like a linked binary is addressed by
//! byte offset. Branch targets are absolute PCs, so inserting an instruction
//! invalidates downstream targets — the instrumentation pipeline must
//! relocate them, just as a real binary rewriter (e.g. BOLT) must.
//!
//! The ISA is deliberately small but expressive enough for the paper's
//! workloads: dependent pointer chases, hash probes, tree walks, streaming
//! scans, and arbitrary control flow including calls.

use std::fmt;

/// A general-purpose register name.
///
/// The machine has [`NUM_REGS`] 64-bit registers, `r0..r31`. By convention
/// (mirroring real calling conventions, which is what makes register
/// liveness analysis profitable) `r0..r15` are "callee visible" scratch
/// registers freely used by workloads, and the instrumentation pipeline may
/// compute smaller save sets for any of them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;

impl Reg {
    /// Returns the register's index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Binary ALU operations.
///
/// All operate on 64-bit values with wrapping semantics (like machine
/// arithmetic). The variable latencies of "complex arithmetic" are modelled
/// by [`Inst::Alu`]'s explicit `lat` field rather than by the opcode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left by `src2 & 63`.
    Shl,
    /// Logical shift right by `src2 & 63`.
    Shr,
    /// Unsigned division; division by zero yields `u64::MAX` (the machine
    /// does not fault).
    Div,
    /// Unsigned remainder; remainder by zero yields the dividend.
    Rem,
    /// `1` if `src1 < src2` (unsigned) else `0`.
    SltU,
    /// `1` if `src1 == src2` else `0`.
    Seq,
    /// Minimum (unsigned).
    Min,
    /// Maximum (unsigned).
    Max,
}

impl AluOp {
    /// Every operation, in declaration order: `ALL[op.index()] == op`.
    /// Lets pre-decoders (the superblock engine) pack an operation into a
    /// small integer and recover it without a match.
    pub const ALL: [AluOp; 14] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Div,
        AluOp::Rem,
        AluOp::SltU,
        AluOp::Seq,
        AluOp::Min,
        AluOp::Max,
    ];

    /// The operation's declaration-order index (inverse of [`AluOp::ALL`]).
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Evaluates the operation on two operands.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Div => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => a.checked_rem(b).unwrap_or(a),
            AluOp::SltU => u64::from(a < b),
            AluOp::Seq => u64::from(a == b),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }
}

/// Branch conditions, evaluated against a single source register.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Always taken (unconditional jump).
    Always,
    /// Taken if the register is zero.
    Eqz,
    /// Taken if the register is non-zero.
    Nez,
}

impl Cond {
    /// Evaluates the condition given the register value (ignored for
    /// [`Cond::Always`]).
    #[inline]
    pub(crate) fn eval(self, v: u64) -> bool {
        match self {
            Cond::Always => true,
            Cond::Eqz => v == 0,
            Cond::Nez => v != 0,
        }
    }
}

/// The kind of a yield point, determining when it actually fires at run
/// time.
///
/// The distinction between [`YieldKind::Primary`] and
/// [`YieldKind::Scavenger`] is the heart of the paper's *asymmetric
/// concurrency* (§3.3): primary yields are placed where a cache miss is
/// likely and always fire; scavenger yields are placed to bound the
/// inter-yield interval and fire only when the executing context runs in
/// scavenger mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum YieldKind {
    /// Inserted by the primary instrumentation phase (likely cache miss).
    /// Fires unconditionally.
    Primary,
    /// Inserted by the scavenger instrumentation phase. Conditional: fires
    /// only when the context is in scavenger mode.
    Scavenger,
    /// Hand-written by the developer (CoroBase-style manual interleaving).
    /// Fires unconditionally.
    Manual,
    /// §4.1 hardware what-if: fires only if the referenced cache line is
    /// *not* present in L1/L2 (a "presence probe"). The probe address is
    /// the address most recently prefetched by this context.
    IfAbsent,
}

/// A single micro-IR instruction.
///
/// `pc` values stored inside instructions ([`Inst::Branch`], [`Inst::Call`])
/// are absolute indices into the owning [`Program`]'s instruction vector.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Load a 64-bit immediate into `dst`. 1 cycle.
    Imm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        val: u64,
    },
    /// Register-to-register ALU operation with an explicit latency
    /// (models both simple and "complex arithmetic" instructions).
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First operand.
        src1: Reg,
        /// Second operand.
        src2: Reg,
        /// Latency in cycles (≥ 1).
        lat: u32,
    },
    /// Load 64 bits from `[addr + offset]` into `dst`.
    ///
    /// This is the instruction whose misses the entire system exists to
    /// hide.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        addr: Reg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Store `src` (64 bits) to `[addr + offset]`. Non-blocking (store
    /// buffer); 1 cycle.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        addr: Reg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Software prefetch of the line containing `[addr + offset]`.
    /// Non-blocking; starts a fill if the line is absent.
    Prefetch {
        /// Base address register.
        addr: Reg,
        /// Byte offset added to the base.
        offset: i64,
    },
    /// Conditional or unconditional branch to absolute `target`.
    Branch {
        /// Condition evaluated on `src`.
        cond: Cond,
        /// Condition source register (ignored for [`Cond::Always`]).
        src: Reg,
        /// Absolute target PC.
        target: usize,
    },
    /// Call the function starting at absolute `target`; pushes the return
    /// PC on the context's shadow stack.
    Call {
        /// Absolute entry PC of the callee.
        target: usize,
    },
    /// Return to the PC on top of the shadow stack.
    Ret,
    /// A yield point. Never executed by the [`Machine`](crate::Machine)
    /// itself: it is surfaced to the driving executor, which decides what
    /// to switch to and charges the switch cost.
    Yield {
        /// When this yield fires.
        kind: YieldKind,
        /// Bitmask (bit *i* = register *i*) of registers the switch must
        /// save/restore at this site. `None` means the full architectural
        /// set (no liveness optimization); the instrumentation pipeline
        /// fills in the live set.
        save_regs: Option<u32>,
    },
    /// Terminate the context successfully.
    Halt,
}

impl Inst {
    /// Returns the destination register written by this instruction, if
    /// any.
    #[inline]
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Imm { dst, .. } | Inst::Alu { dst, .. } | Inst::Load { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Appends the registers read by this instruction to `out`.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        match self {
            Inst::Imm { .. } | Inst::Call { .. } | Inst::Ret | Inst::Halt | Inst::Yield { .. } => {}
            Inst::Alu { src1, src2, .. } => {
                out.push(*src1);
                out.push(*src2);
            }
            Inst::Load { addr, .. } | Inst::Prefetch { addr, .. } => out.push(*addr),
            Inst::Store { src, addr, .. } => {
                out.push(*src);
                out.push(*addr);
            }
            Inst::Branch { cond, src, .. } => {
                if !matches!(cond, Cond::Always) {
                    out.push(*src);
                }
            }
        }
    }

    /// Returns `true` if this is a yield of any kind.
    #[inline]
    pub fn is_yield(&self) -> bool {
        matches!(self, Inst::Yield { .. })
    }

    /// Returns `true` if this is a memory load.
    #[inline]
    pub(crate) fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Imm { dst, val } => write!(f, "imm   {dst}, {val:#x}"),
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
                lat,
            } => write!(f, "{op:<5?} {dst}, {src1}, {src2} (lat={lat})"),
            Inst::Load { dst, addr, offset } => write!(f, "load  {dst}, [{addr}{offset:+}]"),
            Inst::Store { src, addr, offset } => write!(f, "store [{addr}{offset:+}], {src}"),
            Inst::Prefetch { addr, offset } => write!(f, "pref  [{addr}{offset:+}]"),
            Inst::Branch { cond, src, target } => {
                write!(f, "br.{cond:?} {src}, @{target}")
            }
            Inst::Call { target } => write!(f, "call  @{target}"),
            Inst::Ret => write!(f, "ret"),
            Inst::Yield { kind, save_regs } => {
                write!(f, "yield.{kind:?}")?;
                if let Some(mask) = save_regs {
                    write!(f, " save={:#x}({})", mask, mask.count_ones())?;
                }
                Ok(())
            }
            Inst::Halt => write!(f, "halt"),
        }
    }
}

/// A complete micro-IR program: the unit the simulator executes and the
/// instrumentation pipeline rewrites.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The flat instruction stream; PC is the index into this vector.
    pub insts: Vec<Inst>,
    /// Human-readable name, used in reports.
    pub name: String,
}

/// Errors produced by [`Program::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch or call target points outside the instruction stream.
    TargetOutOfRange {
        /// PC of the offending instruction.
        pc: usize,
        /// The invalid target.
        target: usize,
    },
    /// Execution can fall off the end of the instruction stream.
    FallsOffEnd,
    /// The program is empty.
    Empty,
    /// A register operand is out of range (≥ [`NUM_REGS`]).
    BadRegister {
        /// PC of the offending instruction.
        pc: usize,
        /// The invalid register.
        reg: Reg,
    },
    /// An ALU instruction declares a zero latency.
    ZeroLatency {
        /// PC of the offending instruction.
        pc: usize,
    },
    /// A branch or call references a label that was never bound
    /// (builder-level error).
    UnboundLabel {
        /// PC of the instruction whose target is unresolved.
        pc: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TargetOutOfRange { pc, target } => {
                write!(f, "instruction at pc {pc} targets out-of-range pc {target}")
            }
            ProgramError::FallsOffEnd => {
                write!(f, "program may fall off the end of the instruction stream")
            }
            ProgramError::Empty => write!(f, "program is empty"),
            ProgramError::BadRegister { pc, reg } => {
                write!(f, "instruction at pc {pc} uses invalid register {reg}")
            }
            ProgramError::ZeroLatency { pc } => {
                write!(f, "ALU instruction at pc {pc} declares zero latency")
            }
            ProgramError::UnboundLabel { pc } => {
                write!(f, "instruction at pc {pc} targets an unbound label")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Creates an empty named program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            insts: Vec::new(),
            name: name.into(),
        }
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the program has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// A stable 64-bit fingerprint of the instruction stream (FNV-1a
    /// over a canonical rendering of every instruction). Profiles record
    /// the fingerprint of the binary they were collected on so the
    /// pipeline can reject a profile replayed against a different binary
    /// (provenance check). The name is deliberately excluded: renaming a
    /// program does not invalidate its profile, editing its code does.
    pub fn fingerprint(&self) -> u64 {
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        }
        let mut h = eat(
            0xCBF2_9CE4_8422_2325,
            &(self.insts.len() as u64).to_le_bytes(),
        );
        for inst in &self.insts {
            h = eat(h, format!("{inst:?}").as_bytes());
        }
        h
    }

    /// Checks structural well-formedness: non-empty, all branch/call
    /// targets in range, all register operands valid, the last instruction
    /// cannot fall through off the end, and ALU latencies are non-zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use reach_sim::{Inst, Program};
    /// let mut p = Program::new("t");
    /// p.insts.push(Inst::Halt);
    /// assert!(p.validate().is_ok());
    /// ```
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.insts.is_empty() {
            return Err(ProgramError::Empty);
        }
        let n = self.insts.len();
        let mut uses = Vec::with_capacity(4);
        for (pc, inst) in self.insts.iter().enumerate() {
            match inst {
                Inst::Branch { target, .. } | Inst::Call { target } if *target >= n => {
                    return Err(ProgramError::TargetOutOfRange {
                        pc,
                        target: *target,
                    });
                }
                Inst::Alu { lat, .. } if *lat == 0 => {
                    return Err(ProgramError::ZeroLatency { pc });
                }
                _ => {}
            }
            uses.clear();
            inst.uses(&mut uses);
            if let Some(d) = inst.def() {
                uses.push(d);
            }
            for &r in &uses {
                if r.index() >= NUM_REGS {
                    return Err(ProgramError::BadRegister { pc, reg: r });
                }
            }
        }
        // The final instruction must not fall through off the end.
        let last = &self.insts[n - 1];
        let can_fall_through = !matches!(
            last,
            Inst::Halt
                | Inst::Ret
                | Inst::Branch {
                    cond: Cond::Always,
                    ..
                }
        );
        if can_fall_through {
            return Err(ProgramError::FallsOffEnd);
        }
        Ok(())
    }

    /// Returns the PCs of all load instructions, in program order.
    pub fn load_pcs(&self) -> Vec<usize> {
        self.insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_load())
            .map(|(pc, _)| pc)
            .collect()
    }

    /// Renders the program as human-readable assembly, one instruction per
    /// line, prefixed with the PC.
    pub fn disasm(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(self.insts.len() * 24);
        for (pc, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(s, "{pc:5}: {inst}");
        }
        s
    }
}

/// A convenience builder for assembling [`Program`]s with symbolic labels,
/// so workload generators need not track absolute PCs by hand.
///
/// # Examples
///
/// ```
/// use reach_sim::{AluOp, Cond, ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new("count");
/// let r0 = Reg(0);
/// let one = Reg(1);
/// b.imm(r0, 10).imm(one, 1);
/// let top = b.label();
/// b.bind(top);
/// b.alu(AluOp::Sub, r0, r0, one, 1);
/// b.branch(Cond::Nez, r0, top);
/// b.halt();
/// let p = b.finish().unwrap();
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    name: String,
    /// label id -> bound pc
    labels: Vec<Option<usize>>,
    /// (pc, label id) pairs to patch at finish.
    fixups: Vec<(usize, usize)>,
}

/// An unresolved jump target handed out by [`ProgramBuilder::label`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Label(usize);

impl ProgramBuilder {
    /// Creates a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            insts: Vec::new(),
            name: name.into(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position (the PC of the *next*
    /// instruction pushed).
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound — a builder bug.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label {:?} bound twice",
            label
        );
        self.labels[label.0] = Some(self.insts.len());
    }

    /// Pushes a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Pushes `imm dst, val`.
    pub fn imm(&mut self, dst: Reg, val: u64) -> &mut Self {
        self.push(Inst::Imm { dst, val })
    }

    /// Pushes an ALU instruction with latency `lat`.
    pub fn alu(&mut self, op: AluOp, dst: Reg, src1: Reg, src2: Reg, lat: u32) -> &mut Self {
        self.push(Inst::Alu {
            op,
            dst,
            src1,
            src2,
            lat,
        })
    }

    /// Pushes `load dst, [addr+offset]`.
    pub fn load(&mut self, dst: Reg, addr: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Load { dst, addr, offset })
    }

    /// Pushes `store [addr+offset], src`.
    pub fn store(&mut self, src: Reg, addr: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Store { src, addr, offset })
    }

    /// Pushes a software prefetch.
    pub fn prefetch(&mut self, addr: Reg, offset: i64) -> &mut Self {
        self.push(Inst::Prefetch { addr, offset })
    }

    /// Pushes a conditional branch to `label`.
    pub fn branch(&mut self, cond: Cond, src: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label.0));
        self.push(Inst::Branch {
            cond,
            src,
            target: usize::MAX,
        })
    }

    /// Pushes an unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.branch(Cond::Always, Reg(0), label)
    }

    /// Pushes a call to `label`.
    pub fn call(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label.0));
        self.push(Inst::Call { target: usize::MAX })
    }

    /// Pushes `ret`.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst::Ret)
    }

    /// Pushes a manual (developer-written) yield.
    pub fn yield_manual(&mut self) -> &mut Self {
        self.push(Inst::Yield {
            kind: YieldKind::Manual,
            save_regs: None,
        })
    }

    /// Pushes `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// Resolves labels and produces the program.
    ///
    /// Returns an error if any referenced label was never bound, or the
    /// resulting program fails [`Program::validate`].
    pub fn finish(mut self) -> Result<Program, ProgramError> {
        for (pc, label) in self.fixups {
            let target = self.labels[label].ok_or(ProgramError::UnboundLabel { pc })?;
            match &mut self.insts[pc] {
                Inst::Branch { target: t, .. } | Inst::Call { target: t } => *t = target,
                other => unreachable!("fixup at pc {pc} targets non-branch {other:?}"),
            }
        }
        let p = Program {
            insts: self.insts,
            name: self.name,
        };
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basic_ops() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX);
        assert_eq!(AluOp::Mul.eval(1 << 40, 1 << 40), 0); // wraps
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.eval(1, 65), 2); // shift amount masked to 6 bits
        assert_eq!(AluOp::Shr.eval(8, 2), 2);
        assert_eq!(AluOp::SltU.eval(1, 2), 1);
        assert_eq!(AluOp::SltU.eval(2, 1), 0);
        assert_eq!(AluOp::Seq.eval(7, 7), 1);
        assert_eq!(AluOp::Min.eval(3, 9), 3);
        assert_eq!(AluOp::Max.eval(3, 9), 9);
    }

    #[test]
    fn alu_div_by_zero_does_not_fault() {
        assert_eq!(AluOp::Div.eval(10, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(10, 0), 10);
        assert_eq!(AluOp::Div.eval(10, 3), 3);
        assert_eq!(AluOp::Rem.eval(10, 3), 1);
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Always.eval(0));
        assert!(Cond::Always.eval(1));
        assert!(Cond::Eqz.eval(0));
        assert!(!Cond::Eqz.eval(5));
        assert!(Cond::Nez.eval(5));
        assert!(!Cond::Nez.eval(0));
    }

    #[test]
    fn def_and_uses() {
        let i = Inst::Alu {
            op: AluOp::Add,
            dst: Reg(3),
            src1: Reg(1),
            src2: Reg(2),
            lat: 1,
        };
        assert_eq!(i.def(), Some(Reg(3)));
        let mut u = Vec::new();
        i.uses(&mut u);
        assert_eq!(u, vec![Reg(1), Reg(2)]);

        let s = Inst::Store {
            src: Reg(4),
            addr: Reg(5),
            offset: 8,
        };
        assert_eq!(s.def(), None);
        u.clear();
        s.uses(&mut u);
        assert_eq!(u, vec![Reg(4), Reg(5)]);

        let b = Inst::Branch {
            cond: Cond::Always,
            src: Reg(9),
            target: 0,
        };
        u.clear();
        b.uses(&mut u);
        assert!(u.is_empty(), "unconditional branch reads nothing");
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(Program::new("e").validate(), Err(ProgramError::Empty));
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let mut p = Program::new("t");
        p.insts.push(Inst::Branch {
            cond: Cond::Always,
            src: Reg(0),
            target: 99,
        });
        assert!(matches!(
            p.validate(),
            Err(ProgramError::TargetOutOfRange { pc: 0, target: 99 })
        ));
    }

    #[test]
    fn validate_rejects_fall_off_end() {
        let mut p = Program::new("t");
        p.insts.push(Inst::Imm {
            dst: Reg(0),
            val: 1,
        });
        assert_eq!(p.validate(), Err(ProgramError::FallsOffEnd));
        p.insts.push(Inst::Halt);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_register() {
        let mut p = Program::new("t");
        p.insts.push(Inst::Imm {
            dst: Reg(200),
            val: 1,
        });
        p.insts.push(Inst::Halt);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BadRegister { pc: 0, .. })
        ));
    }

    #[test]
    fn validate_rejects_zero_latency_alu() {
        let mut p = Program::new("t");
        p.insts.push(Inst::Alu {
            op: AluOp::Add,
            dst: Reg(0),
            src1: Reg(0),
            src2: Reg(0),
            lat: 0,
        });
        p.insts.push(Inst::Halt);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::ZeroLatency { pc: 0 })
        ));
    }

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new("loop");
        let r = Reg(0);
        let one = Reg(1);
        b.imm(r, 3).imm(one, 1);
        let top = b.label();
        let out = b.label();
        b.bind(top);
        b.branch(Cond::Eqz, r, out);
        b.alu(AluOp::Sub, r, r, one, 1);
        b.jump(top);
        b.bind(out);
        b.halt();
        let p = b.finish().expect("valid program");
        // br.Eqz at pc 2 targets the halt; jump at pc 4 targets pc 2.
        assert_eq!(
            p.insts[2],
            Inst::Branch {
                cond: Cond::Eqz,
                src: r,
                target: 5
            }
        );
        assert_eq!(
            p.insts[4],
            Inst::Branch {
                cond: Cond::Always,
                src: Reg(0),
                target: 2
            }
        );
    }

    #[test]
    fn builder_unbound_label_errors() {
        let mut b = ProgramBuilder::new("bad");
        let l = b.label();
        b.jump(l);
        assert!(b.finish().is_err());
    }

    #[test]
    fn load_and_yield_pcs() {
        let mut b = ProgramBuilder::new("p");
        b.imm(Reg(0), 64);
        b.load(Reg(1), Reg(0), 0);
        b.yield_manual();
        b.load(Reg(2), Reg(0), 8);
        b.halt();
        let p = b.finish().unwrap();
        assert_eq!(p.load_pcs(), vec![1, 3]);
    }

    #[test]
    fn disasm_is_line_per_inst() {
        let mut b = ProgramBuilder::new("d");
        b.imm(Reg(0), 1).halt();
        let p = b.finish().unwrap();
        let d = p.disasm();
        assert_eq!(d.lines().count(), 2);
        assert!(d.contains("imm"));
        assert!(d.contains("halt"));
    }
}
