//! Shared test infrastructure: a proptest generator for well-formed,
//! terminating micro-IR programs with memory effects, and helpers to run
//! them.
//!
//! Generated programs obey a few structural rules that make strong
//! properties checkable:
//!
//! * all memory accesses go through a dedicated base register (`RB`)
//!   holding [`BASE`], with small word-aligned offsets — every access is
//!   valid and falls in one 32-word scratch region;
//! * loops use dedicated counter registers with immediate bounds, so
//!   every program terminates;
//! * the program ends by storing the whole scratch register pool to the
//!   region's tail, so *register dataflow becomes memory-visible* and a
//!   final-memory comparison catches any corruption.

use proptest::prelude::*;
use reach_sim::{AluOp, Cond, Context, Inst, Machine, MachineConfig, Program, Reg};

/// Base address of the scratch region.
pub const BASE: u64 = 0x40_0000;
/// Words in the scratch region addressable by generated code.
pub const REGION_WORDS: u64 = 32;
/// The base register (never written by generated code).
pub const RB: Reg = Reg(12);
/// Scratch registers generated code may use.
pub const POOL: [Reg; 8] = [
    Reg(0),
    Reg(1),
    Reg(2),
    Reg(3),
    Reg(4),
    Reg(5),
    Reg(6),
    Reg(7),
];

fn pool_reg() -> impl Strategy<Value = Reg> {
    (0..POOL.len()).prop_map(|i| POOL[i])
}

fn word_off() -> impl Strategy<Value = i64> {
    (0..REGION_WORDS as i64).prop_map(|k| k * 8)
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shr),
        Just(AluOp::SltU),
        Just(AluOp::Seq),
        Just(AluOp::Min),
        Just(AluOp::Max),
    ]
}

/// One straight-line instruction (no control flow).
fn flat_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (pool_reg(), any::<u64>()).prop_map(|(dst, val)| Inst::Imm { dst, val }),
        (alu_op(), pool_reg(), pool_reg(), pool_reg(), 1u32..8).prop_map(
            |(op, dst, src1, src2, lat)| Inst::Alu {
                op,
                dst,
                src1,
                src2,
                lat,
            }
        ),
        (pool_reg(), word_off()).prop_map(|(dst, offset)| Inst::Load {
            dst,
            addr: RB,
            offset,
        }),
        (pool_reg(), word_off()).prop_map(|(src, offset)| Inst::Store {
            src,
            addr: RB,
            offset,
        }),
        Just(Inst::Yield {
            kind: reach_sim::YieldKind::Manual,
            save_regs: None,
        }),
    ]
}

/// A structured chunk: either a run of flat instructions or a bounded
/// counted loop over flat instructions.
#[derive(Clone, Debug)]
pub enum Chunk {
    /// Straight-line code.
    Flat(Vec<Inst>),
    /// `iters` (1..=4) repetitions of the body, using counter register
    /// r13 + r14 as scratch for the loop bookkeeping.
    Loop {
        /// Iteration count.
        iters: u64,
        /// Loop body (flat instructions).
        body: Vec<Inst>,
    },
}

fn chunk() -> impl Strategy<Value = Chunk> {
    prop_oneof![
        prop::collection::vec(flat_inst(), 1..8).prop_map(Chunk::Flat),
        (1u64..5, prop::collection::vec(flat_inst(), 1..6))
            .prop_map(|(iters, body)| Chunk::Loop { iters, body }),
    ]
}

/// A generated test case: the program plus the initial contents of the
/// scratch region.
#[derive(Clone, Debug)]
pub struct GenProgram {
    /// The program (validated).
    pub prog: Program,
    /// Initial contents of the scratch region (`REGION_WORDS` words at
    /// [`BASE`]).
    pub init_words: Vec<u64>,
}

/// Strategy producing arbitrary valid terminating programs.
pub fn gen_program() -> impl Strategy<Value = GenProgram> {
    (
        prop::collection::vec(chunk(), 1..6),
        prop::collection::vec(any::<u64>(), REGION_WORDS as usize),
    )
        .prop_map(|(chunks, init_words)| {
            let r_cnt = Reg(13);
            let r_one = Reg(14);
            let mut b = reach_sim::ProgramBuilder::new("generated");
            b.imm(r_one, 1);
            for c in chunks {
                match c {
                    Chunk::Flat(insts) => {
                        for i in insts {
                            b.push(i);
                        }
                    }
                    Chunk::Loop { iters, body } => {
                        b.imm(r_cnt, iters);
                        let top = b.label();
                        b.bind(top);
                        for i in body {
                            b.push(i.clone());
                        }
                        b.alu(AluOp::Sub, r_cnt, r_cnt, r_one, 1);
                        b.branch(Cond::Nez, r_cnt, top);
                    }
                }
            }
            // Dump the pool so register dataflow is memory-visible.
            for (k, &r) in POOL.iter().enumerate() {
                b.store(r, RB, (REGION_WORDS as i64 + k as i64) * 8);
            }
            b.halt();
            let prog = b.finish().expect("generated program is well-formed");
            GenProgram { prog, init_words }
        })
}

#[allow(dead_code)] // not every test binary executes programs
/// Builds a machine with the scratch region initialized and a context
/// with `RB` seeded.
pub fn machine_for(g: &GenProgram) -> (Machine, Context) {
    let mut m = Machine::new(MachineConfig::default());
    m.mem.write_slice(BASE, &g.init_words);
    let mut ctx = Context::new(0);
    ctx.set_reg(RB, BASE);
    (m, ctx)
}

#[allow(dead_code)] // not every test binary executes programs
/// Runs `prog` to completion on a fresh machine for `g` and returns
/// (final registers, final scratch+dump memory).
pub fn run_and_observe(g: &GenProgram, prog: &Program) -> ([u64; 32], Vec<u64>) {
    let (mut m, mut ctx) = machine_for(g);
    let exit = m
        .run_to_completion(prog, &mut ctx, 1_000_000)
        .expect("generated programs execute cleanly");
    assert_eq!(exit, reach_sim::Exit::Done, "generated programs terminate");
    let mem: Vec<u64> = (0..REGION_WORDS + POOL.len() as u64)
        .map(|k| m.mem.read(BASE + k * 8).expect("aligned"))
        .collect();
    (ctx.regs, mem)
}

#[allow(dead_code)] // used by prop_semantics but not every test binary
/// Collects a profile of `g` (on its own machine) — used to drive the
/// full pipeline over generated programs.
pub fn profile_of(g: &GenProgram) -> reach_profile::Profile {
    let (mut m, mut ctx) = machine_for(g);
    let cfg = reach_profile::CollectorConfig {
        periods: reach_profile::Periods {
            l2_miss: 3,
            l3_miss: 3,
            stall: 13,
            retired: 7,
        },
        ..reach_profile::CollectorConfig::default()
    };
    let (p, _) = reach_profile::collect(&mut m, &g.prog, std::slice::from_mut(&mut ctx), &cfg)
        .expect("profiling run succeeds");
    p
}
