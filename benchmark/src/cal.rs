//! Calibrated time.
//!
//! The box this benchmark was sized on is a shared 2-vCPU VM whose speed
//! moves by 15% every few seconds, with bursts beyond that, so raw wall
//! time of identical work does not repeat. Every timed stretch is
//! therefore bracketed by a fixed kernel kept in this file, and reported
//! as `raw_ns / kernel_ns * CAL_REF_NS`: nanoseconds on a machine on which
//! the kernel takes exactly [`CAL_REF_NS`]. Raw wall time is still
//! reported, as the `host.*` layer metrics.

use std::hint::black_box;
use std::time::Instant;

/// What the kernel takes on the reference-speed machine (it took about
/// this long on the sizing box in its fast mode).
pub const CAL_REF_NS: f64 = 3_000_000.0;

/// Interpreted steps per kernel run.
const STEPS: u32 = 430_000;
/// 64 Ki words = 512 KiB of table: beyond L1, inside a private L2.
const WORDS: usize = 1 << 16;
const CODE_LEN: usize = 1 << 10;

/// The calibration kernel: a register machine of its own, interpreting a
/// fixed random program. It is built like the code it calibrates (fetch,
/// decode, a `match` on the opcode, a register file, table loads,
/// data-dependent branches, per-opcode counters), so that whatever the
/// host does to an interpreter's speed (a clock change, a busy sibling
/// thread, a preempted vCPU) it does to the kernel in about the same
/// measure. Nothing outside this file may change what the kernel
/// computes: calibrated numbers from two commits compare only if both ran
/// the same kernel.
pub struct Calibrator {
    code: Vec<u32>,
    table: Vec<u64>,
    /// Where stores land; never loaded, so every run executes alike.
    sink: Vec<u64>,
    /// Every kernel time measured, in order (for `host.cal_*`).
    pub runs_ns: Vec<u64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        Calibrator {
            code: (0..CODE_LEN)
                .map(|_| (xorshift(&mut x) >> 32) as u32)
                .collect(),
            table: (0..WORDS).map(|_| xorshift(&mut x)).collect(),
            sink: vec![0; WORDS],
            runs_ns: Vec::new(),
        }
    }

    /// Runs the kernel once and returns its wall time in ns.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        let mut regs = [0u64; 16];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = self.table[i] | 1;
        }
        let mut executed = [0u64; 8];
        let mut pc = 0usize;
        for _ in 0..STEPS {
            let inst = self.code[pc];
            let op = (inst & 7) as usize;
            let a = (inst >> 3) as usize & 15;
            let b = (inst >> 7) as usize & 15;
            let imm = u64::from(inst >> 11);
            executed[op] += 1;
            pc += 1;
            match op {
                0 => regs[a] = regs[a].wrapping_add(regs[b]).wrapping_add(imm),
                1 => regs[a] ^= regs[b] >> (imm & 31),
                2 => regs[a] = regs[b].wrapping_mul(imm | 1),
                3 | 4 => {
                    let slot = (regs[b].wrapping_add(imm) >> 7) as usize & (WORDS - 1);
                    regs[a] = regs[a].rotate_left(9) ^ self.table[slot];
                }
                5 => {
                    let slot = (regs[b] >> 11) as usize & (WORDS - 1);
                    self.sink[slot] = regs[a];
                }
                6 => {
                    if regs[a] & 1 == 0 {
                        pc += (imm & 7) as usize;
                    }
                }
                _ => regs[a] = regs[a].wrapping_sub(regs[b]) | 1,
            }
            pc &= CODE_LEN - 1;
        }
        black_box((&regs, &executed, &mut self.sink));
        let ns = t.elapsed().as_nanos() as u64;
        self.runs_ns.push(ns);
        ns
    }
}

/// Multiplier from raw ns to calibrated ns for a stretch bracketed by
/// kernel runs of `before_ns` and `after_ns`.
pub fn factor(before_ns: u64, after_ns: u64) -> f64 {
    CAL_REF_NS / ((before_ns as f64 + after_ns as f64) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_machine_reads_raw_time() {
        let f = factor(CAL_REF_NS as u64, CAL_REF_NS as u64);
        assert_eq!(f, 1.0);
    }

    #[test]
    fn half_speed_machine_halves_the_reading() {
        // Kernel took 6 ms on both sides: the machine ran at half the
        // reference speed, so 10 ms raw is 5 ms calibrated.
        let f = factor(6_000_000, 6_000_000);
        assert_eq!(10_000_000.0 * f, 5_000_000.0);
    }

    #[test]
    fn a_mode_flip_inside_the_stretch_uses_the_mean_of_both_sides() {
        let f = factor(3_000_000, 5_000_000);
        assert_eq!(f, 0.75);
    }

    #[test]
    fn kernel_records_every_run() {
        let mut c = Calibrator::new();
        let a = c.run();
        let b = c.run();
        assert!(a > 0 && b > 0);
        assert_eq!(c.runs_ns, vec![a, b]);
    }
}
