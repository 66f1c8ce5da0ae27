//! The mechanism on real hardware: prefetch-interleaved coroutines
//! against sequential execution on this machine's actual memory system.
//!
//! ```sh
//! cargo run --release --example host_interleaving
//! ```
//!
//! Two kernels with opposite hardware-friendliness — a live rendition of
//! the paper's Figure 1:
//!
//! * **dependent pointer chase** — the next address is unknown until the
//!   previous load returns, so the core's out-of-order window cannot
//!   overlap hops: software interleaving is the only way to get
//!   memory-level parallelism, and wins big;
//! * **independent hash probes** — loop iterations are independent, so
//!   the OoO engine already keeps many misses in flight ("hardware
//!   handles it"): coroutines can only match it, which they roughly do
//!   (compare against the group=1 dependent-style baseline to see what
//!   the interleaving itself buys).

use reach_coro::{make_keys, Arena, Table};
use std::time::Instant;

#[allow(clippy::disallowed_methods)] // illustration only: single-shot, uncalibrated, never quoted
fn main() {
    // --- dependent pointer chase (scoped so its memory is released) ----
    {
        let nodes = 1 << 21; // 128 MiB of 64 B nodes
        let hops = 1 << 15;
        println!("building a {} MiB chase arena...", (nodes * 64) >> 20);
        let arena = Arena::build(nodes, 0xc0ffee);

        let starts = arena.spread_starts(16);
        let t0 = Instant::now();
        let mut seq_sum = 0u64;
        for &s in &starts {
            seq_sum = seq_sum.wrapping_add(arena.walk_sequential(s, hops));
        }
        let seq = t0.elapsed();

        let t0 = Instant::now();
        let inter_sum = arena.walk_interleaved(&starts, hops);
        let inter = t0.elapsed();
        assert_eq!(seq_sum, inter_sum, "same work, same checksum");

        let total_hops = (hops * starts.len()) as f64;
        println!(
            "chase: sequential {:>7.1} ns/hop | 16-way interleaved {:>6.1} ns/hop | speedup {:.2}x",
            seq.as_nanos() as f64 / total_hops,
            inter.as_nanos() as f64 / total_hops,
            seq.as_secs_f64() / inter.as_secs_f64()
        );
    }

    // --- independent hash probes ---------------------------------------
    let slots = 1 << 23; // 128 MiB table
    println!("\nbuilding a {} MiB hash table...", (slots * 16) >> 20);
    let (table, present) = Table::build(slots, 4_000_000, 0x7ab1e);
    let keys = make_keys(&present, 1 << 15, 0.8, 0x5eed);
    let per_op = |d: std::time::Duration| d.as_nanos() as f64 / keys.len() as f64;

    // group=1 runs the same coroutine machinery with zero interleaving:
    // the "what if each access had to wait" baseline.
    let t0 = Instant::now();
    let one = table.lookup_batch_interleaved(&keys, 1);
    let t_one = t0.elapsed();
    let t0 = Instant::now();
    let seq_sum = table.lookup_batch_sequential(&keys);
    let t_seq = t0.elapsed();
    let t0 = Instant::now();
    let inter_sum = table.lookup_batch_interleaved(&keys, 16);
    let t16 = t0.elapsed();
    assert_eq!(seq_sum, inter_sum);
    assert_eq!(seq_sum, one);

    println!(
        "probe: serialized {:>7.1} ns/op  | OoO sequential {:>6.1} ns/op | 16-way coroutines {:>6.1} ns/op",
        per_op(t_one),
        per_op(t_seq),
        per_op(t16),
    );
    println!(
        "\nshape (Figure 1, live): the *dependent* chase defeats the OoO\n\
         window, so coroutine interleaving wins several-fold; *independent*\n\
         probes are already overlapped by hardware, and software\n\
         interleaving merely matches it while recovering the serialized\n\
         baseline's lost parallelism."
    );
}
