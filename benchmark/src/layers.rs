//! Per-layer metrics. Host shares come from the traced pass; work counts
//! come from the simulated counters and repeat exactly; a layer's
//! throughput is its work count over its bare host seconds, taken as its
//! traced share of a bare pass's run seconds (summed over workers).

use atac::trace::{HostPhase, NetSubPhase};

use crate::workload::{Synthetic, Traced};

/// Everything the per-layer metrics are computed from.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    pub traced: &'a Traced,
    pub synthetic: Synthetic,
    pub integrate_per_s: f64,
    /// Medians over the bare passes: host seconds of a pass, and run
    /// seconds of a pass summed over workers.
    pub bare_wall: f64,
    pub bare_busy: f64,
    pub pool_util: f64,
    /// Median set-up's workload-build seconds and the ops it built.
    pub build_secs: f64,
    pub build_ops: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, by catalogue name.
pub fn per_layer(i: &LayerInputs) -> Vec<(&'static str, f64)> {
    let t = i.traced;
    let p = &t.profile;
    let share = |ph: HostPhase| ratio(p.phase_secs(ph), p.total_secs);
    let net_share = |sub: NetSubPhase| ratio(p.net_sub(sub), p.phase_secs(HostPhase::Network));
    let per_s = |work: u64, sh: f64| ratio(work as f64, sh * i.bare_busy);
    let (np, net, coh) = (&t.netprof, &t.net, &t.coh);
    let mem_ops = coh.mem_reads + coh.mem_writes;
    vec![
        ("net.share", share(HostPhase::Network)),
        (
            "net.route_compute.share",
            net_share(NetSubPhase::RouteCompute),
        ),
        ("net.switch_arb.share", net_share(NetSubPhase::SwitchArb)),
        ("net.credit.share", net_share(NetSubPhase::Credit)),
        ("net.queue_ops.share", net_share(NetSubPhase::QueueOps)),
        ("net.hub_arb.share", net_share(NetSubPhase::HubArb)),
        ("net.skip_scan.share", net_share(NetSubPhase::SkipScan)),
        ("net.router_skip_frac", np.router_skip_fraction()),
        (
            "net.flits_per_grant",
            ratio(np.total_flits_routed() as f64, np.total_grants() as f64),
        ),
        ("net.flits_injected", net.flits_injected as f64),
        ("net.xbar_traversals", net.xbar_traversals as f64),
        ("net.onet_flits_sent", net.onet_flits_sent as f64),
        ("net.broadcast_messages", net.broadcast_messages as f64),
        ("net.msg_latency_p50_cycles", t.latency.p50() as f64),
        ("net.msg_latency_p99_cycles", t.latency.p99() as f64),
        (
            "net.xbar_per_s",
            per_s(net.xbar_traversals, share(HostPhase::Network)),
        ),
        ("net.synthetic.flits_per_s", i.synthetic.flits_per_s),
        (
            "net.synthetic.latency_p99_cycles",
            i.synthetic.latency_p99 as f64,
        ),
        ("coherence.share", share(HostPhase::Coherence)),
        ("coherence.memctrl.share", share(HostPhase::Memctrl)),
        ("coherence.l2_misses", coh.l2_misses as f64),
        ("coherence.dir_lookups", coh.dir_lookups as f64),
        ("coherence.inv_broadcasts", coh.inv_broadcasts as f64),
        (
            "coherence.write_frac",
            ratio(coh.l1d_writes as f64, coh.l1d_accesses() as f64),
        ),
        ("coherence.memctrl.mem_ops", mem_ops as f64),
        (
            "coherence.memctrl.queue_cycles",
            coh.mem_queue_cycles as f64,
        ),
        (
            "coherence.dir_lookups_per_s",
            per_s(coh.dir_lookups, share(HostPhase::Coherence)),
        ),
        (
            "coherence.memctrl.mem_ops_per_s",
            per_s(mem_ops, share(HostPhase::Memctrl)),
        ),
        ("sim.setup.share", share(HostPhase::Setup)),
        ("sim.replay.share", share(HostPhase::Replay)),
        ("sim.advance.share", share(HostPhase::Advance)),
        ("sim.cycle_skip_frac", np.skip_fraction()),
        (
            "sim.replay.instr_per_s",
            per_s(t.instructions, share(HostPhase::Replay)),
        ),
        ("sim_cycles", t.pass.cycles() as f64),
        ("edp_js", t.pass.edp_js()),
        ("sim.energy.share", share(HostPhase::Integrate)),
        ("sim.energy.integrate_per_s", i.integrate_per_s),
        (
            "workloads.build_ops_per_s",
            ratio(i.build_ops as f64, i.build_secs),
        ),
        ("bench.pool_util", i.pool_util),
        ("bench.runs_simulated", t.pass.simulated as f64),
        ("bench.warm_pass_s", t.warm_pass_s),
        ("trace.overhead", ratio(t.pass.wall, i.bare_wall)),
        ("trace.coverage", p.coverage()),
    ]
}
