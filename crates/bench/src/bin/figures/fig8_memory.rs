//! Regenerates paper Fig. 8: normalized peak memory occupancy of Megatron-LM,
//! Alpa and PrimePar under the same configurations as Fig. 7.
//!
//! `cargo run --release -p primepar-bench --bin figures -- fig8_memory`
//! (`--quick` / `--devices` as in `fig7_throughput`).

use crate::fig7_throughput::{audit_smallest, normalized_sweep};
use crate::*;

pub fn run(opts: &Opts) {
    let scales = opts.scales(&[4, 8, 16, 32]);
    let (mut metrics, _) = normalized_sweep(
        "Fig. 8 — normalized peak memory occupancy (Megatron = 1.00)",
        "; same plans as Fig. 7",
        &scales,
        ("peak_memory_bytes", |r| r.peak_memory_bytes),
        (format!("{:>14}", "megatron GB"), |base| {
            format!("{:>14.1}", base / 1e9)
        }),
    );
    println!("paper reference: ~0.90x around 7B; down to 0.68x for BLOOM 176B at 16/32 GPUs");
    // Drift audit of one representative point — the memory figure leans on
    // the peak-memory attribution, which the audit's peak_memory row pins.
    audit_smallest(&mut metrics, &scales);
    opts.write_metrics("fig8_memory", &metrics);
}
