//! Superblock execution engine: the production dispatch tier behind
//! [`Machine::run_lanes`], and so behind every executor.
//!
//! The reference interpreter ([`Machine::step`]) pays per-instruction
//! decode + match dispatch and consults every observer on every
//! instruction. This module follows the emulator playbook instead:
//! micro-IR is pre-decoded into **superblocks** — packed,
//! branch-terminated op buffers — and executed by a dispatch loop whose
//! per-op handlers inline into one dense match over packed opcodes.
//! Inside a block, execution steps straight through the op buffer;
//! dispatch to a new block happens only at block exits.
//!
//! Three things make the blocks faster than per-instruction stepping:
//!
//! * **Pre-decoded operands.** Each [`POp`] carries its register indices,
//!   offsets and targets as flat fields, so handlers never re-match the
//!   `Inst` enum.
//! * **Static accounting.** Runs of clock-independent instructions
//!   (Imm/Alu) have their busy-cycle and retirement accounting summed at
//!   decode time and attached to the next clock-dependent op
//!   (`pre_busy`/`pre_insts`), which applies it in one shot. This is
//!   exact, not approximate: a pure run can neither exit nor observe the
//!   clock mid-way, so no intermediate state is observable.
//! * **Superinstruction fusion.** A compare feeding the block's
//!   terminating branch fuses into one op (`FusedCmpBranch`); a load
//!   feeding a dependent ALU op fuses into `FusedLoadAlu`. Both apply the
//!   effects and counters of *both* source instructions, so architectural
//!   state and counters stay byte-identical.
//!
//! The engine is generic over an [`Observe`] policy and monomorphised
//! twice. [`Unobserved`] is all no-ops. [`Observed`] serves a machine
//! with PEBS samplers or a fault injector armed — which is what the
//! supervisor, the fleet and the collector always run — and makes a probe
//! cost where it fires, not on every instruction: load events and
//! prefetch corruption hook into the load and prefetch handlers (LBR
//! drops already live in `Machine::record_branch`), while `InstRetired`
//! occurrences and the trap countdown are charged per block. A block in
//! which a retirement sample, a trap or the step budget would land is
//! not entered; [`Machine::step`] executes it instruction-exactly.
//!
//! The engine runs [`Lane`]s — a program, a context, a budget — and is
//! monomorphised over a second policy, the executor's: when the running
//! lane gives up the core (a fired yield, a halt, an exhausted budget, a
//! stall, an error) the policy, inlined into the dispatch loop, names the
//! lane to swap to or the value to return. A context switch costs the
//! host what it costs the simulated machine: a few loads and stores, not
//! a return to a driver loop and a fresh entry. At a swap the engine does
//! everything a fresh run would (budget and status checks, the
//! `admits(1)`-else-`step` check, `started_at`, the completion of a
//! parked load); the observer's batched counts and each lane's own
//! one-entry block cache carry across.
//!
//! Blocks are cached in a [`BlockCache`] keyed by *program identity*
//! (instruction-vector pointer + length) and entry PC: identities are
//! matched once per primitive, for all its lanes; the entry PC indexes a
//! dense per-program table, so dispatching to a decoded block is an
//! indexed load. Identity is not
//! content: like a JIT's code cache, the cache must be told whenever a
//! code map changes under it — [`Machine::invalidate_blocks`] on a
//! supervisor hot swap or re-instrumentation, [`BlockCache::forget`]
//! before a program that has executed is dropped or mutated in place.
//! Debug builds revalidate a content hash of each block's source range on
//! every execution and panic on staleness, so a missing invalidation
//! cannot silently serve stale code in tests.
//!
//! [`Machine::run_lanes`] picks the tier; the `prop_fastpath`
//! differential suite drives the engine against `step` over random
//! programs, sampler sets and fault plans — one context, and several
//! under every executor — and asserts byte-identical exits, counters,
//! registers, memory, LBR records, sample streams and fault logs.

use crate::cache::{AccessKind, Level};
use crate::context::{Context, PendingLoad, Status, MAX_CALL_DEPTH};
use crate::isa::{AluOp, Cond, Inst, Program, Reg, YieldKind};
use crate::machine::{ExecError, Exit, Machine};
use crate::pebs::HwEvent;

/// Most cached programs per machine. The serving loop touches a handful
/// of programs at a time (current build + scavenger override); beyond
/// this the oldest program's blocks are dropped, bounding memory.
pub const MAX_CACHED_PROGRAMS: usize = 8;

/// Most ops decoded into one block: long straight-line stretches are
/// split by an implicit fallthrough terminator into chained blocks.
const BLOCK_OP_CAP: usize = 128;

// Packed opcodes: the handler index the dispatch jump table is built
// over. Pure ops (no clock, no counters in the handler — accounting is
// attached downstream) come first; `OP_ALU0 + AluOp::index()` gives each
// ALU operation its own specialized handler, eliminating the inner
// operation match.
const OP_IMM: u8 = 0;
const OP_ALU0: u8 = 1; // ..=14, one per AluOp
const OP_LOAD: u8 = 15;
const OP_STORE: u8 = 16;
const OP_PREFETCH: u8 = 17;
const OP_YIELD: u8 = 18;
const OP_FUSED_LOAD_ALU: u8 = 19;
const OP_BRANCH: u8 = 20;
const OP_JUMP: u8 = 21;
const OP_CALL: u8 = 22;
const OP_RET: u8 = 23;
const OP_HALT: u8 = 24;
const OP_FALLTHROUGH: u8 = 25;
const OP_FUSED_CMP_BRANCH: u8 = 26;
const OP_ALU_CHAIN: u8 = 27;

/// A packed, pre-decoded operation. One fixed layout serves every
/// opcode; unused fields are zero. 56 bytes, so a block's op buffer
/// walks sequentially through at most one cache line per op.
#[derive(Clone, Copy, Debug)]
struct POp {
    /// Handler index.
    code: u8,
    /// Destination / source register (dst for Imm/Alu/Load, src for
    /// Store).
    a: u8,
    /// Base / first-operand register.
    b: u8,
    /// Second-operand / condition-source register.
    c: u8,
    /// ALU operation (fused compare+branch only).
    alu: AluOp,
    /// Branch condition.
    cond: Cond,
    /// Yield kind.
    ykind: YieldKind,
    /// Whether `aux` carries a yield save mask.
    has_save: bool,
    /// Retirements attached from the preceding pure run.
    pre_insts: u32,
    /// ALU latency (fused compare+branch only).
    lat: u32,
    /// Busy cycles attached from the preceding pure run.
    pre_busy: u64,
    /// Source PC of the (accounted) instruction: the branch PC for fused
    /// compare+branch, the load PC for fused load+ALU.
    pc: u32,
    /// Byte offset for memory ops.
    off: i64,
    /// Immediate value, branch/call target, yield save mask, or the
    /// packed dependent-ALU descriptor for fused load+ALU.
    aux: u64,
}

impl POp {
    /// All-zero template; decode overrides the fields an opcode uses.
    const NONE: POp = POp {
        code: 0,
        a: 0,
        b: 0,
        c: 0,
        alu: AluOp::Add,
        cond: Cond::Always,
        ykind: YieldKind::Manual,
        has_save: false,
        pre_insts: 0,
        lat: 0,
        pre_busy: 0,
        pc: 0,
        off: 0,
        aux: 0,
    };
}

/// Packs the dependent-ALU half of a fused load+ALU op into `aux`.
fn pack_alu(dst: Reg, src1: Reg, src2: Reg, op: AluOp, lat: u32) -> u64 {
    u64::from(dst.0)
        | u64::from(src1.0) << 8
        | u64::from(src2.0) << 16
        | (op.index() as u64) << 24
        | u64::from(lat) << 32
}

/// A decoded superblock: single entry, multiple exits, terminated by a
/// control transfer (or an implicit fallthrough at the op cap / end of
/// the instruction stream).
#[derive(Clone, Debug)]
struct Block {
    ops: Box<[POp]>,
    /// Instructions retired if the block runs to completion (early exits
    /// — fired yields, parked stalls, errors — retire fewer and return).
    insts_total: u64,
    /// Source range `[entry, end)` the block was decoded from, for the
    /// debug-build staleness check.
    #[cfg(debug_assertions)]
    entry: u32,
    #[cfg(debug_assertions)]
    end: u32,
    /// Decode-time content hash of the source range, revalidated on
    /// every execution in debug builds to catch missing invalidation.
    #[cfg(debug_assertions)]
    src_hash: u64,
}

#[cfg(debug_assertions)]
fn hash_insts(insts: &[Inst]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::fxhash::FxHasher::default();
    insts.hash(&mut h);
    h.finish()
}

/// Decodes one superblock starting at `entry`.
///
/// Pure Imm/Alu ops accumulate `(busy, insts)` into the next
/// clock-dependent or terminating op's `pre_*` fields. Fusion:
/// `Alu; Branch` where the branch tests the ALU's destination becomes
/// `FusedCmpBranch`; `Load; Alu` where the ALU reads the loaded value
/// becomes `FusedLoadAlu`.
// The pre!() macro resets its accumulators even when a terminator breaks
// the loop right after; the dead resets keep the macro's invariant simple.
#[allow(unused_assignments)]
fn compile_block(prog: &Program, entry: usize) -> Block {
    let insts = &prog.insts;
    let mut ops: Vec<POp> = Vec::with_capacity(8);
    let mut pre_busy = 0u64;
    let mut pre_insts = 0u32;
    let mut total = 0u64;
    let mut pc = entry;

    macro_rules! pre {
        () => {{
            let p = (pre_busy, pre_insts);
            pre_busy = 0;
            pre_insts = 0;
            p
        }};
    }

    let end = loop {
        if pc >= insts.len() || ops.len() >= BLOCK_OP_CAP {
            // Off the end of the stream (the next dispatch reports the
            // same BadPc the reference would) or at the op cap: chain to
            // the next block with an implicit fallthrough.
            let (pb, pi) = pre!();
            ops.push(POp {
                code: OP_FALLTHROUGH,
                pre_busy: pb,
                pre_insts: pi,
                aux: pc as u64,
                ..POp::NONE
            });
            break pc;
        }
        match insts[pc] {
            Inst::Imm { dst, val } => {
                ops.push(POp {
                    code: OP_IMM,
                    a: dst.0,
                    aux: val,
                    ..POp::NONE
                });
                pre_busy += 1;
                pre_insts += 1;
                total += 1;
                pc += 1;
            }
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
                lat,
            } => {
                // Run-length superinstruction: n ≥ 2 identical
                // `dst = dst ⊕ s` steps (s ≠ dst, untouched in the run)
                // fold to one `dst ⊕= n·s` op — exact under wrapping
                // arithmetic, with the n retirements and n·lat busy
                // cycles attached statically. Collapses the dependent
                // accumulation chains ALU-dense kernels are made of.
                if matches!(op, AluOp::Add | AluOp::Sub) && src1 == dst && src2 != dst {
                    let this = insts[pc].clone();
                    let mut n = 1usize;
                    while insts.get(pc + n) == Some(&this) {
                        n += 1;
                    }
                    if n >= 2 {
                        ops.push(POp {
                            code: OP_ALU_CHAIN,
                            a: dst.0,
                            b: src2.0,
                            alu: op,
                            aux: n as u64,
                            ..POp::NONE
                        });
                        pre_busy += n as u64 * u64::from(lat);
                        pre_insts += n as u32;
                        total += n as u64;
                        pc += n;
                        continue;
                    }
                }
                if let Some(&Inst::Branch { cond, src, target }) = insts.get(pc + 1) {
                    if src == dst && !matches!(cond, Cond::Always) {
                        let (pb, pi) = pre!();
                        ops.push(POp {
                            code: OP_FUSED_CMP_BRANCH,
                            a: dst.0,
                            b: src1.0,
                            c: src2.0,
                            alu: op,
                            cond,
                            lat,
                            pre_busy: pb,
                            pre_insts: pi,
                            pc: (pc + 1) as u32,
                            aux: target as u64,
                            ..POp::NONE
                        });
                        total += 2;
                        break pc + 2;
                    }
                }
                ops.push(POp {
                    code: OP_ALU0 + op.index() as u8,
                    a: dst.0,
                    b: src1.0,
                    c: src2.0,
                    ..POp::NONE
                });
                pre_busy += u64::from(lat);
                pre_insts += 1;
                total += 1;
                pc += 1;
            }
            Inst::Load { dst, addr, offset } => {
                if let Some(&Inst::Alu {
                    op,
                    dst: d2,
                    src1,
                    src2,
                    lat,
                }) = insts.get(pc + 1)
                {
                    if src1 == dst || src2 == dst {
                        let (pb, pi) = pre!();
                        ops.push(POp {
                            code: OP_FUSED_LOAD_ALU,
                            a: dst.0,
                            b: addr.0,
                            off: offset,
                            pre_busy: pb,
                            pre_insts: pi,
                            pc: pc as u32,
                            aux: pack_alu(d2, src1, src2, op, lat),
                            ..POp::NONE
                        });
                        total += 2;
                        pc += 2;
                        continue;
                    }
                }
                let (pb, pi) = pre!();
                ops.push(POp {
                    code: OP_LOAD,
                    a: dst.0,
                    b: addr.0,
                    off: offset,
                    pre_busy: pb,
                    pre_insts: pi,
                    pc: pc as u32,
                    ..POp::NONE
                });
                total += 1;
                pc += 1;
            }
            Inst::Store { src, addr, offset } => {
                let (pb, pi) = pre!();
                ops.push(POp {
                    code: OP_STORE,
                    a: src.0,
                    b: addr.0,
                    off: offset,
                    pre_busy: pb,
                    pre_insts: pi,
                    pc: pc as u32,
                    ..POp::NONE
                });
                total += 1;
                pc += 1;
            }
            Inst::Prefetch { addr, offset } => {
                let (pb, pi) = pre!();
                ops.push(POp {
                    code: OP_PREFETCH,
                    b: addr.0,
                    off: offset,
                    pre_busy: pb,
                    pre_insts: pi,
                    pc: pc as u32,
                    ..POp::NONE
                });
                total += 1;
                pc += 1;
            }
            Inst::Yield { kind, save_regs } => {
                let (pb, pi) = pre!();
                ops.push(POp {
                    code: OP_YIELD,
                    ykind: kind,
                    has_save: save_regs.is_some(),
                    pre_busy: pb,
                    pre_insts: pi,
                    pc: pc as u32,
                    aux: u64::from(save_regs.unwrap_or(0)),
                    ..POp::NONE
                });
                total += 1;
                pc += 1;
            }
            Inst::Branch { cond, src, target } => {
                let (pb, pi) = pre!();
                ops.push(POp {
                    code: if matches!(cond, Cond::Always) {
                        OP_JUMP
                    } else {
                        OP_BRANCH
                    },
                    c: src.0,
                    cond,
                    pre_busy: pb,
                    pre_insts: pi,
                    pc: pc as u32,
                    aux: target as u64,
                    ..POp::NONE
                });
                total += 1;
                break pc + 1;
            }
            Inst::Call { target } => {
                let (pb, pi) = pre!();
                ops.push(POp {
                    code: OP_CALL,
                    pre_busy: pb,
                    pre_insts: pi,
                    pc: pc as u32,
                    aux: target as u64,
                    ..POp::NONE
                });
                total += 1;
                break pc + 1;
            }
            Inst::Ret => {
                let (pb, pi) = pre!();
                ops.push(POp {
                    code: OP_RET,
                    pre_busy: pb,
                    pre_insts: pi,
                    pc: pc as u32,
                    ..POp::NONE
                });
                total += 1;
                break pc + 1;
            }
            Inst::Halt => {
                let (pb, pi) = pre!();
                ops.push(POp {
                    code: OP_HALT,
                    pre_busy: pb,
                    pre_insts: pi,
                    pc: pc as u32,
                    ..POp::NONE
                });
                total += 1;
                break pc + 1;
            }
        }
    };

    let end = end.min(prog.insts.len());
    #[cfg(not(debug_assertions))]
    let _ = end;
    Block {
        ops: ops.into_boxed_slice(),
        insts_total: total,
        #[cfg(debug_assertions)]
        entry: entry as u32,
        #[cfg(debug_assertions)]
        end: end as u32,
        #[cfg(debug_assertions)]
        src_hash: hash_insts(&prog.insts[entry..end]),
    }
}

/// Block-cache observability counters, surfaced report-only by the
/// SIMPERF experiment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Superblocks decoded.
    pub compiled: u64,
    /// Block executions served from the cache.
    pub hits: u64,
    /// Block executions that had to decode first.
    pub misses: u64,
    /// Explicit invalidation events ([`Machine::invalidate_blocks`]).
    pub invalidations: u64,
}

impl BlockCacheStats {
    /// Fraction of block executions served without decoding.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// `ProgramBlocks::table` entry for a PC no block has been decoded at.
const NOT_COMPILED: u32 = u32::MAX;

/// Decoded blocks for one program, keyed by entry PC.
#[derive(Clone, Debug)]
struct ProgramBlocks {
    /// Program identity: instruction-vector pointer + length.
    key: (usize, usize),
    /// Entry PC → index into `blocks`, dense over the program (one slot
    /// per instruction, [`NOT_COMPILED`] where no block starts): block
    /// dispatch is one indexed load, the `PerPcTable` layout applied to
    /// the code cache.
    table: Vec<u32>,
    blocks: Vec<Block>,
}

/// The superblock cache: per-program block tables plus statistics.
///
/// Keys are program *identities* (allocation pointer + length), not
/// content — reusing an allocation for different code without calling
/// [`Machine::invalidate_blocks`] or [`BlockCache::forget`] violates the
/// cache contract (debug builds panic on it; see the module docs).
#[derive(Clone, Debug, Default)]
pub struct BlockCache {
    progs: Vec<ProgramBlocks>,
    /// Observability counters (never consulted by execution).
    pub stats: BlockCacheStats,
}

fn prog_key(prog: &Program) -> (usize, usize) {
    (prog.insts.as_ptr() as usize, prog.insts.len())
}

impl BlockCache {
    /// Drops every cached block. Required on any code-map change: a
    /// supervisor hot swap, re-instrumentation, or in-place mutation of
    /// a program that has already executed.
    pub(crate) fn invalidate(&mut self) {
        self.progs.clear();
        self.stats.invalidations += 1;
    }

    /// Drops the blocks of `prog` alone. Required before a program that
    /// has executed on this machine is dropped or mutated in place while
    /// the machine lives on: the allocator may hand its address and
    /// length to different code, which the identity key cannot tell
    /// apart. Not an invalidation event: every other program stays hot.
    pub fn forget(&mut self, prog: &Program) {
        let key = prog_key(prog);
        self.progs.retain(|p| p.key != key);
    }

    /// Total decoded blocks currently cached.
    pub fn cached_blocks(&self) -> usize {
        self.progs.iter().map(|p| p.blocks.len()).sum()
    }

    /// Number of programs with cached blocks.
    pub fn cached_programs(&self) -> usize {
        self.progs.len()
    }

    /// Whether `prog` (by identity) has cached blocks.
    pub fn has_blocks_for(&self, prog: &Program) -> bool {
        let key = prog_key(prog);
        self.progs
            .iter()
            .any(|p| p.key == key && !p.blocks.is_empty())
    }

    /// Seats `lanes`: resolves each lane's program to its table, creating
    /// (and bounding) tables first and reading indices only after the
    /// last insertion. An eviction shifts every later index, so an index
    /// read before it would go stale; and the victim is the oldest
    /// program none of these lanes runs, so seating the second lane
    /// cannot unseat the first. No table is created or dropped until the
    /// lanes' primitive returns, which is what keeps the indices good.
    fn seat(&mut self, lanes: &mut [Lane<'_>]) {
        for i in 0..lanes.len() {
            let prog = lanes[i].prog;
            let key = prog_key(prog);
            if self.progs.iter().any(|p| p.key == key) {
                continue;
            }
            while self.progs.len() >= MAX_CACHED_PROGRAMS {
                let idle = |p: &ProgramBlocks| lanes.iter().all(|l| prog_key(l.prog) != p.key);
                match self.progs.iter().position(idle) {
                    Some(oldest) => self.progs.remove(oldest),
                    None => break,
                };
            }
            self.progs.push(ProgramBlocks {
                key,
                table: vec![NOT_COMPILED; prog.insts.len()],
                blocks: Vec::new(),
            });
        }
        for lane in lanes {
            let key = prog_key(lane.prog);
            let pi = self.progs.iter().position(|p| p.key == key);
            lane.seat = Seat {
                pi: pi.expect("seated by the loop above"),
                ..Seat::EMPTY
            };
        }
    }

    /// Block index for `(prog, pc)`, decoding on miss. `pc` is inside
    /// the program (the dispatcher has already ruled out a `BadPc`). The
    /// hit is an indexed load in the dispatch loop; the decoder stays out
    /// of line, so a hit does not pay for its frame.
    #[inline(always)]
    fn lookup(&mut self, pi: usize, prog: &Program, pc: usize) -> usize {
        let b = self.progs[pi].table[pc];
        if b != NOT_COMPILED {
            self.stats.hits += 1;
            return b as usize;
        }
        self.decode(pi, prog, pc)
    }

    #[cold]
    #[inline(never)]
    fn decode(&mut self, pi: usize, prog: &Program, pc: usize) -> usize {
        let pb = &mut self.progs[pi];
        let b = pb.blocks.len();
        pb.blocks.push(compile_block(prog, pc));
        pb.table[pc] = u32::try_from(b).expect("block count fits the table");
        self.stats.misses += 1;
        self.stats.compiled += 1;
        b
    }
}

/// Where the engine lets the machine's observers look. Hooks sit only
/// where [`Machine::step`] has them; everything else in a block runs
/// unobserved.
pub(crate) trait Observe {
    /// Reads what is armed on `m` at the start of a run.
    fn arm(m: &Machine) -> Self;
    /// PMU load events, fired between `record_load` and the value read.
    fn load(m: &mut Machine, pc: usize, ea: u64, level: Level, stall: u64);
    /// The prefetch-hint fault channel.
    fn prefetch_ea(m: &mut Machine, ea: u64) -> u64;
    /// Whether a block of `insts` instructions may run whole: false when
    /// a retirement sample or an injected trap would land inside it.
    fn admits(&mut self, m: &mut Machine, insts: u64) -> bool;
    /// Brackets one executed block to count what it retired.
    fn enter(&mut self, m: &Machine, ctx: &Context);
    /// See [`Observe::enter`]; `r` is the block's outcome.
    fn leave(&mut self, m: &Machine, ctx: &Context, r: &Result<Option<Exit>, ExecError>);
    /// Credits the retirements counted so far to the samplers and the
    /// fault injector and re-reads how far the next landing is. Must run
    /// before anything else touches either, and when the run ends.
    fn sync(&mut self, m: &mut Machine);
}

/// Nothing armed: every hook is a no-op and compiles away.
pub(crate) struct Unobserved;

impl Observe for Unobserved {
    #[inline(always)]
    fn arm(_: &Machine) -> Self {
        Unobserved
    }
    #[inline(always)]
    fn load(_: &mut Machine, _: usize, _: u64, _: Level, _: u64) {}
    #[inline(always)]
    fn prefetch_ea(_: &mut Machine, ea: u64) -> u64 {
        ea
    }
    #[inline(always)]
    fn admits(&mut self, _: &mut Machine, _: u64) -> bool {
        true
    }
    #[inline(always)]
    fn enter(&mut self, _: &Machine, _: &Context) {}
    #[inline(always)]
    fn leave(&mut self, _: &Machine, _: &Context, _: &Result<Option<Exit>, ExecError>) {}
    #[inline(always)]
    fn sync(&mut self, _: &mut Machine) {}
}

/// Samplers or a fault injector armed. Load events and prefetch
/// corruption fire in their handlers. Retirements are counted per block
/// and credited lazily: `slack` is how many more instructions can retire
/// before an `InstRetired` sample or a trap can land, so the common block
/// costs one compare and a few adds.
pub(crate) struct Observed {
    /// Whether anything counts retirements at all (an `InstRetired`
    /// sampler, or an injector's attempt counter).
    counting: bool,
    slack: u64,
    /// `InstRetired` occurrences and `step`-equivalent attempts executed
    /// in blocks since the last [`Observe::sync`].
    events: u64,
    attempts: u64,
    /// At block entry: instructions retired by the context, yields
    /// executed on the machine.
    mark: (u64, u64),
}

fn yields_executed(m: &Machine) -> u64 {
    m.counters.yields_fired + m.counters.yields_suppressed
}

impl Observe for Observed {
    fn arm(m: &Machine) -> Self {
        let counting = m.faults.is_some()
            || m.samplers
                .iter()
                .any(|s| s.cfg.event == HwEvent::InstRetired);
        Observed {
            counting,
            // `counting` runs start at 0 so the first `admits` syncs.
            slack: if counting { 0 } else { u64::MAX },
            events: 0,
            attempts: 0,
            mark: (0, 0),
        }
    }

    #[inline(always)]
    fn load(m: &mut Machine, pc: usize, ea: u64, level: Level, stall: u64) {
        if matches!(level, Level::L3 | Level::Mem) {
            m.fire_event(HwEvent::LoadL2Miss, pc, Some(ea), 1);
            if level == Level::Mem {
                m.fire_event(HwEvent::LoadL3Miss, pc, Some(ea), 1);
            }
        }
        if stall > 0 {
            m.fire_event(HwEvent::StallCycle, pc, Some(ea), stall);
        }
    }

    #[inline(always)]
    fn prefetch_ea(m: &mut Machine, ea: u64) -> u64 {
        match &mut m.faults {
            Some(fi) => fi.corrupt_prefetch(ea),
            None => ea,
        }
    }

    #[inline(always)]
    fn admits(&mut self, m: &mut Machine, insts: u64) -> bool {
        if insts > self.slack {
            self.sync(m);
        }
        insts <= self.slack
    }

    #[inline(always)]
    fn enter(&mut self, m: &Machine, ctx: &Context) {
        if self.counting {
            self.mark = (ctx.stats.instructions, yields_executed(m));
        }
    }

    #[inline(always)]
    fn leave(&mut self, m: &Machine, ctx: &Context, r: &Result<Option<Exit>, ExecError>) {
        if !self.counting {
            return;
        }
        let retired = ctx.stats.instructions - self.mark.0;
        // `step` fires no `InstRetired` for a yield or a halt, but its
        // trap countdown counts them — and the instruction a parked load
        // or an error leaves unretired.
        let silent = yields_executed(m) - self.mark.1 + u64::from(*r == Ok(Some(Exit::Done)));
        let unretired = matches!(r, Ok(Some(Exit::Stalled { .. })) | Err(_));
        let attempts = retired + u64::from(unretired);
        self.events += retired - silent;
        self.attempts += attempts;
        self.slack -= attempts;
    }

    fn sync(&mut self, m: &mut Machine) {
        if !self.counting {
            return;
        }
        let mut slack = u64::MAX;
        for s in &mut m.samplers {
            if s.cfg.event == HwEvent::InstRetired {
                s.credit(self.events);
                slack = slack.min(s.headroom());
            }
        }
        if let Some(fi) = &mut m.faults {
            fi.credit_attempts(self.attempts);
            slack = slack.min(fi.trap_headroom());
        }
        self.events = 0;
        self.attempts = 0;
        self.slack = slack;
    }
}

/// One resident context of [`Machine::run_lanes`]: a program, the
/// context running it, the instruction budget of its next slice, and the
/// engine's own per-lane state. Lanes stay resident for the whole
/// primitive; switching between them is a swap of a few locals inside
/// the dispatch loop, not a return to the caller.
#[derive(Debug)]
pub struct Lane<'a> {
    /// The program this lane's context executes.
    pub prog: &'a Program,
    /// The context.
    pub ctx: &'a mut Context,
    /// Instruction budget of the lane's next slice, as `max_steps` is to
    /// [`Machine::run`]. The engine only reads it; the fill policy sets
    /// it before naming the lane in [`Next::Run`].
    pub budget: u64,
    seat: Seat,
}

/// Where a lane sits in the block cache.
#[derive(Clone, Copy, Debug)]
struct Seat {
    /// The lane's program in `BlockCache::progs` ([`BlockCache::seat`]).
    pi: usize,
    /// One-entry inline lookup cache: a tight loop re-enters the same
    /// block every iteration and skips the table load entirely. Per
    /// lane, so it survives the other lanes' slices.
    last_pc: usize,
    last_bi: usize,
}

impl Seat {
    const EMPTY: Seat = Seat {
        pi: usize::MAX,
        last_pc: usize::MAX,
        last_bi: 0,
    };
}

impl<'a> Lane<'a> {
    /// A lane running `ctx` over `prog`, with `budget` instructions for
    /// its first slice.
    pub fn new(prog: &'a Program, ctx: &'a mut Context, budget: u64) -> Self {
        Lane {
            prog,
            ctx,
            budget,
            seat: Seat::EMPTY,
        }
    }
}

/// A lane gave up the core: which one, and with what — exactly what
/// [`Machine::run`] would have returned for that context and budget: a
/// fired yield, a halt, an exhausted budget, a parked stall, or an error.
pub type Stopped = (usize, Result<Exit, ExecError>);

/// A fill policy's answer to [`Stopped`], and to `None`, the question
/// which lane runs first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next<R> {
    /// Swap to this lane (the one that just ran included) and run it for
    /// its `budget`.
    Run(usize),
    /// Leave the primitive with this result.
    Return(R),
}

/// What a handler tells the dispatch loop.
enum Ctl {
    /// Step straight to the next op in the block.
    Next,
    /// Terminator executed; dispatch the block at the new `ctx.pc`.
    End,
    /// Return control to the executor.
    Exit(Exit),
    /// Execution error (context PC already repositioned for parity with
    /// the reference interpreter).
    Err(ExecError),
}

/// Handler dispatch, indexed by packed opcode. A dense `u8` match
/// compiles to the same jump table a function-pointer array would use,
/// but lets every handler inline into the dispatch loop — measured ~1.5x
/// faster than indirect calls here, because the machine's clock,
/// counters and the context pointer stay in host registers across ops
/// instead of being re-materialized per call.
#[inline(always)]
fn dispatch_op<O: Observe>(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    match op.code {
        OP_IMM => h_imm(m, ctx, op),
        1 => h_alu_add(m, ctx, op),
        2 => h_alu_sub(m, ctx, op),
        3 => h_alu_mul(m, ctx, op),
        4 => h_alu_and(m, ctx, op),
        5 => h_alu_or(m, ctx, op),
        6 => h_alu_xor(m, ctx, op),
        7 => h_alu_shl(m, ctx, op),
        8 => h_alu_shr(m, ctx, op),
        9 => h_alu_div(m, ctx, op),
        10 => h_alu_rem(m, ctx, op),
        11 => h_alu_sltu(m, ctx, op),
        12 => h_alu_seq(m, ctx, op),
        13 => h_alu_min(m, ctx, op),
        14 => h_alu_max(m, ctx, op),
        OP_LOAD => h_load::<O>(m, ctx, op),
        OP_STORE => h_store(m, ctx, op),
        OP_PREFETCH => h_prefetch::<O>(m, ctx, op),
        OP_YIELD => h_yield(m, ctx, op),
        OP_FUSED_LOAD_ALU => h_fused_load_alu::<O>(m, ctx, op),
        OP_BRANCH => h_branch(m, ctx, op),
        OP_JUMP => h_jump(m, ctx, op),
        OP_CALL => h_call(m, ctx, op),
        OP_RET => h_ret(m, ctx, op),
        OP_HALT => h_halt(m, ctx, op),
        OP_FALLTHROUGH => h_fallthrough(m, ctx, op),
        OP_FUSED_CMP_BRANCH => h_fused_cmp_branch(m, ctx, op),
        OP_ALU_CHAIN => h_alu_chain(m, ctx, op),
        other => unreachable!("bad packed opcode {other}"),
    }
}

/// Applies the busy/retirement accounting attached from the pure run
/// preceding this op.
#[inline(always)]
fn apply_pre(m: &mut Machine, ctx: &mut Context, op: &POp) {
    if op.pre_insts > 0 {
        m.now += op.pre_busy;
        m.counters.busy_cycles += op.pre_busy;
        m.counters.instructions += u64::from(op.pre_insts);
        ctx.stats.instructions += u64::from(op.pre_insts);
    }
}

#[inline(always)]
fn h_imm(_m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    ctx.regs[op.a as usize] = op.aux;
    Ctl::Next
}

/// The run-length ALU superinstruction: n repetitions of `dst = dst ⊕ s`
/// applied in one step as `dst ⊕= n·s` (wrapping arithmetic makes the
/// fold exact; the decoder guarantees `s ≠ dst`).
#[inline(always)]
fn h_alu_chain(_m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    let delta = ctx.regs[op.b as usize].wrapping_mul(op.aux);
    let d = &mut ctx.regs[op.a as usize];
    *d = match op.alu {
        AluOp::Sub => d.wrapping_sub(delta),
        _ => d.wrapping_add(delta),
    };
    Ctl::Next
}

macro_rules! alu_handlers {
    ($(($name:ident, $op:ident)),* $(,)?) => {
        $(
            #[inline(always)]
            fn $name(_m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
                let v = AluOp::$op.eval(ctx.regs[op.b as usize], ctx.regs[op.c as usize]);
                ctx.regs[op.a as usize] = v;
                Ctl::Next
            }
        )*
    };
}

alu_handlers!(
    (h_alu_add, Add),
    (h_alu_sub, Sub),
    (h_alu_mul, Mul),
    (h_alu_and, And),
    (h_alu_or, Or),
    (h_alu_xor, Xor),
    (h_alu_shl, Shl),
    (h_alu_shr, Shr),
    (h_alu_div, Div),
    (h_alu_rem, Rem),
    (h_alu_sltu, SltU),
    (h_alu_seq, Seq),
    (h_alu_min, Min),
    (h_alu_max, Max),
);

/// The load core shared by `h_load` and `h_fused_load_alu`: the exact
/// miss-attribution, parking and retirement sequence of the reference
/// interpreter's `Inst::Load` arm. `Err` carries an early exit (parked
/// stall or memory error) with `ctx.pc` already repositioned.
#[inline(always)]
fn do_load<O: Observe>(m: &mut Machine, ctx: &mut Context, op: &POp) -> Result<(), Ctl> {
    let pc = op.pc as usize;
    let ea = ctx.regs[op.b as usize].wrapping_add_signed(op.off);
    m.mem.host_prefetch(ea);
    let access = m.hier.access(ea, m.now, AccessKind::DemandLoad);
    let wait = access.ready.saturating_sub(m.now);
    let stall = wait.saturating_sub(m.cfg.ooo_window);
    let level = if access.merged_with_fill {
        if stall == 0 {
            Level::L1
        } else if wait <= m.cfg.l3.hit_latency {
            Level::L3
        } else {
            Level::Mem
        }
    } else {
        access.level
    };
    m.counters.record_load(pc, level, stall);
    O::load(m, pc, ea, level, stall);

    if stall > 0 && m.switch_on_stall {
        let value = match m.mem.read_hot(ea) {
            Ok(v) => v,
            Err(e) => {
                ctx.pc = pc;
                return Err(Ctl::Err(e.into()));
            }
        };
        ctx.pending_load = Some(PendingLoad {
            dst: Reg(op.a),
            value,
            ready: access.ready,
        });
        ctx.pc = pc;
        return Err(Ctl::Exit(Exit::Stalled {
            ready: access.ready,
        }));
    }

    let value = match m.mem.read_hot(ea) {
        Ok(v) => v,
        Err(e) => {
            ctx.pc = pc;
            return Err(Ctl::Err(e.into()));
        }
    };
    ctx.regs[op.a as usize] = value;
    m.busy(1);
    m.now += stall;
    m.counters.stall_cycles += stall;
    m.counters.instructions += 1;
    ctx.stats.instructions += 1;
    Ok(())
}

#[inline(always)]
fn h_load<O: Observe>(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_pre(m, ctx, op);
    match do_load::<O>(m, ctx, op) {
        Ok(()) => Ctl::Next,
        Err(ctl) => ctl,
    }
}

#[inline(always)]
fn h_fused_load_alu<O: Observe>(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_pre(m, ctx, op);
    if let Err(ctl) = do_load::<O>(m, ctx, op) {
        // Parked or errored: the dependent ALU has not executed; a
        // resume re-enters at the ALU's PC and decodes a fresh block.
        return ctl;
    }
    let dst = (op.aux & 0xff) as usize;
    let s1 = ((op.aux >> 8) & 0xff) as usize;
    let s2 = ((op.aux >> 16) & 0xff) as usize;
    let aop = AluOp::ALL[((op.aux >> 24) & 0xff) as usize];
    let lat = op.aux >> 32;
    let v = aop.eval(ctx.regs[s1], ctx.regs[s2]);
    ctx.regs[dst] = v;
    m.busy(lat);
    m.counters.instructions += 1;
    ctx.stats.instructions += 1;
    Ctl::Next
}

#[inline(always)]
fn h_store(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_pre(m, ctx, op);
    let ea = ctx.regs[op.b as usize].wrapping_add_signed(op.off);
    let _ = m.hier.access(ea, m.now, AccessKind::Store);
    if let Err(e) = m.mem.write_hot(ea, ctx.regs[op.a as usize]) {
        ctx.pc = op.pc as usize;
        return Ctl::Err(e.into());
    }
    m.busy(1);
    m.counters.stores += 1;
    m.counters.instructions += 1;
    ctx.stats.instructions += 1;
    Ctl::Next
}

#[inline(always)]
fn h_prefetch<O: Observe>(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_pre(m, ctx, op);
    let ea = ctx.regs[op.b as usize].wrapping_add_signed(op.off);
    // A corrupted hint warms the wrong line; the later demand load still
    // reads the true address, so semantics hold.
    let ea = O::prefetch_ea(m, ea);
    let access = m.hier.access(ea, m.now, AccessKind::Prefetch);
    ctx.last_prefetch_level = Some(access.level);
    m.busy(m.cfg.prefetch_cost);
    m.counters.prefetches += 1;
    m.counters.instructions += 1;
    ctx.stats.instructions += 1;
    Ctl::Next
}

#[inline(always)]
fn h_yield(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_pre(m, ctx, op);
    let pc = op.pc as usize;
    ctx.pc = pc + 1;
    let kind = op.ykind;
    let fires = match kind {
        YieldKind::Primary | YieldKind::Manual => true,
        YieldKind::Scavenger => {
            m.now += m.cfg.cond_check_cost;
            m.counters.check_cycles += m.cfg.cond_check_cost;
            ctx.mode == crate::context::Mode::Scavenger
        }
        YieldKind::IfAbsent => {
            m.now += m.cfg.cond_check_cost;
            m.counters.check_cycles += m.cfg.cond_check_cost;
            matches!(ctx.last_prefetch_level, Some(Level::L3) | Some(Level::Mem))
        }
    };
    m.counters.instructions += 1;
    ctx.stats.instructions += 1;
    if fires {
        m.counters.yields_fired += 1;
        ctx.stats.yields_taken += 1;
        return Ctl::Exit(Exit::Yielded {
            pc,
            kind,
            save_regs: op.has_save.then_some(op.aux as u32),
        });
    }
    m.counters.yields_suppressed += 1;
    Ctl::Next
}

/// Terminator accounting: the attached pure run plus the terminator's
/// own cost, applied before any LBR record so records carry the exact
/// post-busy clock.
#[inline(always)]
fn apply_term(m: &mut Machine, ctx: &mut Context, op: &POp, own_busy: u64, own_insts: u64) {
    let busy = op.pre_busy + own_busy;
    m.now += busy;
    m.counters.busy_cycles += busy;
    let insts = u64::from(op.pre_insts) + own_insts;
    m.counters.instructions += insts;
    ctx.stats.instructions += insts;
}

#[inline(always)]
fn h_branch(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_term(m, ctx, op, 1, 1);
    m.counters.branches += 1;
    if op.cond.eval(ctx.regs[op.c as usize]) {
        let target = op.aux as usize;
        m.record_branch(op.pc as usize, target);
        ctx.pc = target;
    } else {
        ctx.pc = op.pc as usize + 1;
    }
    Ctl::End
}

#[inline(always)]
fn h_jump(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_term(m, ctx, op, 1, 1);
    m.counters.branches += 1;
    let target = op.aux as usize;
    m.record_branch(op.pc as usize, target);
    ctx.pc = target;
    Ctl::End
}

#[inline(always)]
fn h_fused_cmp_branch(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    let v = op
        .alu
        .eval(ctx.regs[op.b as usize], ctx.regs[op.c as usize]);
    ctx.regs[op.a as usize] = v;
    apply_term(m, ctx, op, u64::from(op.lat) + 1, 2);
    m.counters.branches += 1;
    if op.cond.eval(v) {
        let target = op.aux as usize;
        m.record_branch(op.pc as usize, target);
        ctx.pc = target;
    } else {
        ctx.pc = op.pc as usize + 1;
    }
    Ctl::End
}

#[inline(always)]
fn h_call(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    // The attached pure run flushes first; the call's own cost is
    // excluded on the overflow path, exactly like the reference.
    apply_pre(m, ctx, op);
    let pc = op.pc as usize;
    if ctx.call_stack.len() >= MAX_CALL_DEPTH {
        ctx.status = Status::Faulted;
        ctx.pc = pc;
        return Ctl::Err(ExecError::CallDepth { pc });
    }
    ctx.call_stack.push(pc + 1);
    m.busy(2);
    m.counters.instructions += 1;
    ctx.stats.instructions += 1;
    let target = op.aux as usize;
    m.record_branch(pc, target);
    ctx.pc = target;
    Ctl::End
}

#[inline(always)]
fn h_ret(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_pre(m, ctx, op);
    let pc = op.pc as usize;
    let Some(ret) = ctx.call_stack.pop() else {
        ctx.status = Status::Faulted;
        ctx.pc = pc;
        return Ctl::Err(ExecError::RetEmptyStack { pc });
    };
    m.busy(2);
    m.counters.instructions += 1;
    ctx.stats.instructions += 1;
    m.record_branch(pc, ret);
    ctx.pc = ret;
    Ctl::End
}

#[inline(always)]
fn h_halt(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_pre(m, ctx, op);
    ctx.status = Status::Done;
    ctx.stats.finished_at = Some(m.now);
    m.counters.instructions += 1;
    ctx.stats.instructions += 1;
    ctx.pc = op.pc as usize;
    Ctl::Exit(Exit::Done)
}

#[inline(always)]
fn h_fallthrough(m: &mut Machine, ctx: &mut Context, op: &POp) -> Ctl {
    apply_pre(m, ctx, op);
    ctx.pc = op.aux as usize;
    Ctl::End
}

impl Machine {
    /// The superblock engine behind [`Machine::run_lanes`]. The cache is
    /// handed in by the caller (taken out of the machine for the duration
    /// of the primitive, so handlers borrow the machine freely).
    ///
    /// A lane runs until it stops with an event; `fill` then names the
    /// lane to swap to, or returns. `obs` spans the swaps: the retirements
    /// it has counted are credited when a lane's entry or a block needs
    /// the exact headroom, or at the return — a policy moves the clock
    /// and the counters, which neither the samplers' periods nor the trap
    /// countdown read, so nothing it does can land a sample or a trap.
    pub(crate) fn dispatch_lanes<O: Observe, R>(
        &mut self,
        cache: &mut BlockCache,
        lanes: &mut [Lane<'_>],
        first: usize,
        fill: &mut impl FnMut(&mut Machine, &mut [Lane<'_>], Option<Stopped>) -> Next<R>,
    ) -> R {
        cache.seat(lanes);
        let mut obs = O::arm(self);
        let mut cur = first;
        loop {
            let lane = &mut lanes[cur];
            let mut seat = lane.seat;
            let event = self.run_lane(&mut obs, cache, lane.prog, lane.ctx, lane.budget, &mut seat);
            lane.seat = seat;
            match fill(self, lanes, Some((cur, event))) {
                Next::Run(next) => cur = next,
                Next::Return(out) => {
                    obs.sync(self);
                    return out;
                }
            }
        }
    }

    /// One slice of one lane: everything [`Machine::run`] does for a
    /// context between being handed the core and giving it up.
    ///
    /// Exactness contract: identical exits, clock, counters, registers,
    /// memory, LBR, samples and fault log to a loop over `step` on every
    /// program. A block that the step budget or the observers do not
    /// admit whole is not entered; `step` executes it.
    #[inline(always)]
    fn run_lane<O: Observe>(
        &mut self,
        obs: &mut O,
        cache: &mut BlockCache,
        prog: &Program,
        ctx: &mut Context,
        budget: u64,
        seat: &mut Seat,
    ) -> Result<Exit, ExecError> {
        if budget == 0 {
            return Ok(Exit::StepLimit);
        }
        if ctx.status != Status::Runnable {
            return Err(ExecError::NotRunnable);
        }
        let mut remaining = budget;
        if !obs.admits(self, 1) {
            // Something lands on the very next instruction. `step` must
            // see the slice's entry state: a trap precedes `started_at`
            // and the completion of a parked load.
            if let Some(exit) = self.step_exactly(obs, prog, ctx, 1)? {
                return Ok(exit);
            }
            remaining -= 1;
        }
        if ctx.stats.started_at.is_none() {
            ctx.stats.started_at = Some(self.now);
        }
        self.counters.per_pc.grow_to(prog.insts.len());
        self.complete_pending(ctx);

        let pi = seat.pi;
        loop {
            if remaining == 0 {
                return Ok(Exit::StepLimit);
            }
            let pc = ctx.pc;
            if pc >= prog.insts.len() {
                // `step` settles whether a due trap precedes the BadPc.
                return Err(self
                    .step_exactly(obs, prog, ctx, 1)
                    .expect_err("a pc outside the program cannot execute"));
            }
            let bi = if pc == seat.last_pc {
                cache.stats.hits += 1;
                seat.last_bi
            } else {
                let b = cache.lookup(pi, prog, pc);
                seat.last_pc = pc;
                seat.last_bi = b;
                b
            };
            let block = &cache.progs[pi].blocks[bi];
            #[cfg(debug_assertions)]
            assert_eq!(
                block.src_hash,
                hash_insts(&prog.insts[block.entry as usize..block.end as usize]),
                "stale superblock for program {:?} at pc {}: code changed \
                 without Machine::invalidate_blocks() or BlockCache::forget()",
                prog.name,
                pc,
            );
            let insts = block.insts_total;
            if insts > remaining || !obs.admits(self, insts) {
                // The step budget, a retirement sample or a trap lands
                // inside this block: step it instruction-exactly. A block
                // is straight-line, so stepping all of it ends at the
                // next block's entry.
                let steps = insts.min(remaining);
                if let Some(exit) = self.step_exactly(obs, prog, ctx, steps)? {
                    return Ok(exit);
                }
                remaining -= steps;
                continue;
            }
            obs.enter(self, ctx);
            let r = self.exec_block::<O>(ctx, block);
            obs.leave(self, ctx, &r);
            match r? {
                Some(exit) => return Ok(exit),
                None => remaining -= insts,
            }
        }
    }

    /// Up to `n` instructions on the reference interpreter, which counts
    /// retirements into the samplers and the injector itself: what `obs`
    /// has batched goes in first, and the headroom is read again after —
    /// on every way out, since `obs` outlives the slice. Out of line, so
    /// the three call sites cost the dispatch loop a call each, not three
    /// copies of this.
    #[inline(never)]
    fn step_exactly<O: Observe>(
        &mut self,
        obs: &mut O,
        prog: &Program,
        ctx: &mut Context,
        n: u64,
    ) -> Result<Option<Exit>, ExecError> {
        obs.sync(self);
        let r = self.step_n(prog, ctx, n);
        obs.sync(self);
        r
    }

    /// Straight-line stepping inside one block: `Ok(None)` means the
    /// terminator ran and `ctx.pc` points at the next block's entry.
    /// Inlined by hand: with one dispatch loop per policy it has several
    /// callers, and out of line every block costs a call and its result
    /// a trip through memory.
    #[inline(always)]
    fn exec_block<O: Observe>(
        &mut self,
        ctx: &mut Context,
        block: &Block,
    ) -> Result<Option<Exit>, ExecError> {
        for op in block.ops.iter() {
            match dispatch_op::<O>(self, ctx, op) {
                Ctl::Next => {}
                Ctl::End => return Ok(None),
                Ctl::Exit(e) => return Ok(Some(e)),
                Ctl::Err(e) => return Err(e),
            }
        }
        unreachable!("superblock without terminator")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::isa::ProgramBuilder;

    fn counted_loop(iters: u64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        let cnt = Reg(0);
        let one = Reg(1);
        let acc = Reg(2);
        b.imm(cnt, iters).imm(one, 1).imm(acc, 0);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Add, acc, acc, one, 1);
        b.alu(AluOp::Sub, cnt, cnt, one, 1);
        b.branch(Cond::Nez, cnt, top);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn decode_fuses_compare_and_branch() {
        let p = counted_loop(10);
        // Block at the loop head: add, then sub+branch fused (branch
        // tests the sub's destination).
        let blk = compile_block(&p, 3);
        let codes: Vec<u8> = blk.ops.iter().map(|o| o.code).collect();
        assert_eq!(
            codes,
            vec![OP_ALU0 + AluOp::Add.index() as u8, OP_FUSED_CMP_BRANCH]
        );
        assert_eq!(blk.insts_total, 3);
        let term = &blk.ops[1];
        assert_eq!(term.pre_insts, 1, "the add is attached to the terminator");
        assert_eq!(term.pre_busy, 1);
        assert_eq!(term.pc, 5, "fused op carries the branch PC");
    }

    #[test]
    fn decode_fuses_load_with_dependent_alu() {
        let mut b = ProgramBuilder::new("la");
        b.imm(Reg(0), 0x1000);
        b.load(Reg(1), Reg(0), 0);
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(1), 1); // reads the load
        b.load(Reg(3), Reg(0), 8);
        b.alu(AluOp::Add, Reg(4), Reg(5), Reg(6), 1); // independent
        b.halt();
        let p = b.finish().unwrap();
        let blk = compile_block(&p, 0);
        let codes: Vec<u8> = blk.ops.iter().map(|o| o.code).collect();
        assert_eq!(
            codes,
            vec![
                OP_IMM,
                OP_FUSED_LOAD_ALU,
                OP_LOAD,
                OP_ALU0 + AluOp::Add.index() as u8,
                OP_HALT
            ]
        );
        assert_eq!(blk.insts_total, 6);
    }

    #[test]
    fn long_straight_runs_chain_through_fallthrough_blocks() {
        let mut b = ProgramBuilder::new("flat");
        for i in 0..(BLOCK_OP_CAP + 40) {
            b.imm(Reg(0), i as u64);
        }
        b.halt();
        let p = b.finish().unwrap();
        let blk = compile_block(&p, 0);
        assert_eq!(blk.ops.len(), BLOCK_OP_CAP + 1);
        assert_eq!(blk.ops.last().unwrap().code, OP_FALLTHROUGH);
        assert_eq!(blk.ops.last().unwrap().aux, BLOCK_OP_CAP as u64);
        // Executing the whole program through the engine still works.
        let mut m = Machine::new(MachineConfig::default());
        let mut ctx = Context::new(0);
        assert_eq!(m.run(&p, &mut ctx, 1_000_000).unwrap(), Exit::Done);
        assert_eq!(ctx.regs[0], (BLOCK_OP_CAP + 40 - 1) as u64);
        assert!(m.block_cache.stats.compiled >= 2, "split into ≥2 blocks");
    }

    #[test]
    fn engine_matches_reference_on_a_loop() {
        let p = counted_loop(500);
        let run = |blocks: bool| {
            let mut m = Machine::new(MachineConfig::default());
            m.blocks_enabled = blocks;
            let mut ctx = Context::new(0);
            let exit = m.run(&p, &mut ctx, 1 << 20).unwrap();
            (exit, m.now, m.counters.clone(), ctx.regs)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn cache_hits_dominate_in_a_tight_loop() {
        let p = counted_loop(1000);
        let mut m = Machine::new(MachineConfig::default());
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 1 << 20).unwrap();
        let s = &m.block_cache.stats;
        assert!(s.compiled >= 2, "entry block + loop block");
        assert!(s.hits > 900, "loop iterations hit the cache: {s:?}");
        assert!(s.hit_rate() > 0.99);
        assert_eq!(s.invalidations, 0);
    }

    #[test]
    fn invalidate_drops_blocks_and_recompiles() {
        let p = counted_loop(100);
        let mut m = Machine::new(MachineConfig::default());
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 1 << 20).unwrap();
        assert!(m.block_cache.has_blocks_for(&p));
        let compiled = m.block_cache.stats.compiled;
        m.invalidate_blocks();
        assert!(!m.block_cache.has_blocks_for(&p));
        assert_eq!(m.block_cache.cached_blocks(), 0);
        assert_eq!(m.block_cache.stats.invalidations, 1);
        let mut ctx2 = Context::new(1);
        m.run(&p, &mut ctx2, 1 << 20).unwrap();
        assert!(m.block_cache.stats.compiled > compiled, "recompiled");
        assert_eq!(ctx2.regs[2], 100);
    }

    /// The hot-swap contract at the sim level: mutate a program in place
    /// (what a deploy does to the serving code map), invalidate, and the
    /// engine must execute the new code — matching a fresh machine.
    #[test]
    fn in_place_code_swap_with_invalidation_executes_new_code() {
        let mut p = counted_loop(10);
        let mut m = Machine::new(MachineConfig::default());
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 1 << 20).unwrap();
        assert_eq!(ctx.regs[2], 10);

        // Swap: the loop now counts 25 iterations. Same allocation.
        p.insts[0] = Inst::Imm {
            dst: Reg(0),
            val: 25,
        };
        m.invalidate_blocks();
        let mut ctx2 = Context::new(1);
        m.run(&p, &mut ctx2, 1 << 20).unwrap();
        assert_eq!(ctx2.regs[2], 25, "post-swap execution runs new code");
    }

    /// Debug builds catch a missing invalidation instead of serving
    /// stale blocks.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale superblock")]
    fn stale_blocks_panic_in_debug_builds() {
        let mut p = counted_loop(10);
        let mut m = Machine::new(MachineConfig::default());
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 1 << 20).unwrap();
        p.insts[0] = Inst::Imm {
            dst: Reg(0),
            val: 25,
        };
        // No invalidate_blocks(): the engine must refuse to run.
        let mut ctx2 = Context::new(1);
        let _ = m.run(&p, &mut ctx2, 1 << 20);
    }

    /// The per-program half of the contract, and the one the serving loop
    /// relies on: a dropped scavenger override can hand its address and
    /// length to the next epoch's. No debug-only check is involved, so
    /// this holds in release builds, where nothing else would catch it.
    #[test]
    fn forgetting_a_program_executes_its_replacement() {
        let mut p = counted_loop(10);
        let other = counted_loop(7);
        let mut m = Machine::new(MachineConfig::default());
        m.run(&p, &mut Context::new(0), 1 << 20).unwrap();
        m.run(&other, &mut Context::new(1), 1 << 20).unwrap();

        m.block_cache.forget(&p);
        assert!(!m.block_cache.has_blocks_for(&p));
        assert!(m.block_cache.has_blocks_for(&other), "others stay hot");
        assert_eq!(m.block_cache.stats.invalidations, 0);

        // Same allocation, same length, different code.
        p.insts[0] = Inst::Imm {
            dst: Reg(0),
            val: 25,
        };
        let mut ctx = Context::new(2);
        m.run(&p, &mut ctx, 1 << 20).unwrap();
        assert_eq!(ctx.regs[2], 25, "the replacement's code runs");
    }

    #[test]
    fn cached_program_tables_are_bounded_and_evict_oldest_first() {
        let mut m = Machine::new(MachineConfig::default());
        let progs: Vec<Program> = (0..MAX_CACHED_PROGRAMS + 4)
            .map(|i| counted_loop(4 + i as u64))
            .collect();
        for p in &progs {
            let mut ctx = Context::new(0);
            m.run(p, &mut ctx, 1 << 20).unwrap();
        }
        assert_eq!(m.block_cache.cached_programs(), MAX_CACHED_PROGRAMS);
        for (i, p) in progs.iter().enumerate() {
            assert_eq!(m.block_cache.has_blocks_for(p), i >= 4, "program {i}");
        }
        // An evicted program gets a fresh table and decodes again.
        let compiled = m.block_cache.stats.compiled;
        let mut ctx = Context::new(0);
        m.run(&progs[0], &mut ctx, 1 << 20).unwrap();
        assert_eq!(ctx.regs[2], 4);
        assert!(m.block_cache.stats.compiled > compiled);
        assert!(
            !m.block_cache.has_blocks_for(&progs[4]),
            "the next oldest went"
        );
    }

    #[test]
    fn a_block_may_start_at_the_last_instruction() {
        // The branch lands on the final `halt`: the entry-PC table's last
        // slot is a block entry.
        let mut b = ProgramBuilder::new("tail");
        let end = b.label();
        b.imm(Reg(0), 1);
        b.branch(Cond::Nez, Reg(0), end);
        b.imm(Reg(1), 7);
        b.bind(end);
        b.halt();
        let p = b.finish().unwrap();
        let run = |blocks: bool| {
            let mut m = Machine::new(MachineConfig::default());
            m.blocks_enabled = blocks;
            let mut ctx = Context::new(0);
            let exit = m.run(&p, &mut ctx, 1 << 20).unwrap();
            ((exit, m.now, ctx.regs), m.block_cache.stats.compiled)
        };
        let (state, compiled) = run(true);
        assert_eq!((state.0, state.2[1], compiled), (Exit::Done, 0, 2));
        assert_eq!(state, run(false).0);
    }

    #[test]
    fn sub_block_step_budgets_delegate_exactly() {
        let p = counted_loop(50);
        let drive = |blocks: bool, chunk: u64| {
            let mut m = Machine::new(MachineConfig::default());
            m.blocks_enabled = blocks;
            let mut ctx = Context::new(0);
            let mut exits = Vec::new();
            for _ in 0..100_000 {
                let e = m.run(&p, &mut ctx, chunk).unwrap();
                exits.push(e);
                if e == Exit::Done {
                    break;
                }
            }
            (exits, m.now, m.counters.clone(), ctx.regs)
        };
        for chunk in [1, 2, 3, 5, 7, 19] {
            assert_eq!(drive(true, chunk), drive(false, chunk), "chunk {chunk}");
        }
    }

    /// Running off the end of the program is an attempt like any other:
    /// a trap due on it wins over the BadPc, and the injector's count
    /// moves either way. Swept over every trap instant around the end.
    #[test]
    fn trap_countdown_is_exact_across_a_bad_pc() {
        use crate::faults::{FaultInjector, FaultPlan};
        let p = Program {
            insts: vec![
                Inst::Imm {
                    dst: Reg(0),
                    val: 1,
                },
                Inst::Yield {
                    kind: YieldKind::Scavenger,
                    save_regs: None,
                },
                Inst::Imm {
                    dst: Reg(1),
                    val: 2,
                },
            ],
            name: "no-halt".into(),
        };
        let drive = |blocks: bool, every: u64| {
            let mut m = Machine::new(MachineConfig::default());
            m.blocks_enabled = blocks;
            m.faults = Some(FaultInjector::new(
                FaultPlan::none(3).with_trap_every(every),
            ));
            // Two contexts back to back: the second sees the count the
            // first one's BadPc left behind.
            let errs: Vec<_> = (0..2)
                .map(|id| m.run(&p, &mut Context::new(id), 100))
                .collect();
            (errs, m.now, m.counters.clone(), m.faults.unwrap().log)
        };
        for every in 1..=9 {
            assert_eq!(
                drive(true, every),
                drive(false, every),
                "trap_every {every}"
            );
        }
        let (errs, ..) = drive(true, 8);
        assert_eq!(errs[0], Err(ExecError::BadPc { pc: 3 }));
        assert_eq!(errs[1], Err(ExecError::InjectedFault { pc: 3 }));
    }
}
