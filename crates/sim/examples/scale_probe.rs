//! Wall-clock probe: simulates each paper benchmark at 1024 cores and
//! prints simulated cycles next to host seconds.

#![allow(clippy::disallowed_types, reason = "a host timing harness")]

use atac_sim::{run, SimConfig};
use atac_workloads::{Benchmark, Scale};
use std::time::Instant;

fn main() {
    for b in [
        Benchmark::OceanContig,
        Benchmark::Barnes,
        Benchmark::Radix,
        Benchmark::DynamicGraph,
        Benchmark::LuContig,
    ] {
        let cfg = SimConfig::default();
        let w = b.build(1024, Scale::Paper);
        let t = Instant::now();
        let r = run(&cfg, &w);
        println!(
            "{:18} cycles={:9} instrs={:10} ipc={:.3} bcasts={:6} load={:.4} wall={:.1}s",
            b.name(),
            r.cycles,
            r.instructions,
            r.ipc,
            r.coh.inv_broadcasts,
            r.net.offered_load(1024),
            t.elapsed().as_secs_f64()
        );
    }
}
