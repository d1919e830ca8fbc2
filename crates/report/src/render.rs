//! Render `BENCH_report.md`: the human-readable face of the registry.
//!
//! The report answers, in order: *did anything regress* (gate verdicts
//! and delta table vs the baseline), *where is each metric heading*
//! (unicode sparkline per key over the recorded history), *what moved
//! most* (top movers by |Δ%|), and *where do the host seconds go* (the
//! merged self-profile breakdown). Markdown so it reads in a terminal,
//! a PR comment, or a CI artifact viewer alike.

use std::fmt::Write as _;

use atac_trace::{NetProfile, LINKS_PER_ROUTER, OCC_BUCKET_LABELS, RUN_BUCKET_LABELS};

use crate::gate::{GateConfig, GateReport, Verdict};
use crate::history::History;
use crate::sweep::{PhaseProfile, SweepDoc};

/// Sparkline glyphs, lowest to highest.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render a value series as a unicode sparkline. A flat (or singleton)
/// series renders at mid-height; an empty series is empty.
pub fn sparkline(values: &[f64]) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    values
        .iter()
        .map(|&v| {
            if hi <= lo {
                SPARK[3]
            } else {
                let t = (v - lo) / (hi - lo);
                // index 0..=7; t is in 0..=1 so the cast is in range.
                SPARK[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Compact engineering formatting for mixed-magnitude metric values.
fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v == v.trunc() && a < 1e9 {
        format!("{v}")
    } else if !(1e-3..1e7).contains(&a) && v != 0.0 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn verdict_row(report: &GateReport, out: &mut String) {
    let _ = writeln!(out, "| key | verdict | detail |");
    let _ = writeln!(out, "|---|---|---|");
    for k in &report.keys {
        let mut detail = String::new();
        for d in &k.deltas {
            let _ = write!(
                detail,
                "{}`{}` {} → {} ({:+.2}%)",
                if detail.is_empty() { "" } else { "; " },
                d.metric,
                fmt_value(d.base),
                fmt_value(d.cur),
                d.pct()
            );
        }
        if let Some(h) = &k.host {
            let _ = write!(
                detail,
                "{}host {:.2}s vs {:.2}s median (bound {:.2}s)",
                if detail.is_empty() { "" } else { "; " },
                h.cur,
                h.median,
                h.bound
            );
        }
        let flag = match k.verdict {
            Verdict::Regressed => "**REGRESSED**",
            Verdict::HostSlow => "host-slow",
            Verdict::Improved => "improved",
            Verdict::Ok => "ok",
            Verdict::New => "new",
            Verdict::Missing => "missing",
        };
        let _ = writeln!(out, "| `{}` | {flag} | {detail} |", k.key);
    }
}

/// Top-N keys by absolute percent change of one metric, from the gate's
/// deltas (which only exist where something changed).
fn top_movers(report: &GateReport, out: &mut String, top_n: usize) {
    let mut movers: Vec<(&str, &'static str, f64)> = report
        .keys
        .iter()
        .flat_map(|k| {
            k.deltas
                .iter()
                .map(move |d| (k.key.as_str(), d.metric, d.pct()))
        })
        .filter(|(_, _, pct)| pct.is_finite())
        .collect();
    movers.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
    movers.truncate(top_n);
    if movers.is_empty() {
        let _ = writeln!(out, "No simulated-metric changes vs the baseline.");
        return;
    }
    let _ = writeln!(out, "| key | metric | Δ% |");
    let _ = writeln!(out, "|---|---|---|");
    for (key, metric, pct) in movers {
        let _ = writeln!(out, "| `{key}` | {metric} | {pct:+.2}% |");
    }
}

fn history_sparklines(history: &History, out: &mut String) {
    let latest = history.latest_runs();
    if latest.is_empty() {
        let _ = writeln!(out, "History is empty — record a sweep first.");
        return;
    }
    let _ = writeln!(out, "| key | n | cycles | edp | host s |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for entry in latest {
        let series = history.series(&entry.metrics.key);
        let cycles: Vec<f64> = series.iter().map(|r| r.metrics.cycles as f64).collect();
        let edp: Vec<f64> = series.iter().map(|r| r.metrics.edp_js).collect();
        let host: Vec<f64> = series.iter().filter_map(|r| r.host_secs).collect();
        let _ = writeln!(
            out,
            "| `{}` | {} | {} {} | {} {} | {} |",
            entry.metrics.key,
            series.len(),
            sparkline(&cycles),
            fmt_value(entry.metrics.cycles as f64),
            sparkline(&edp),
            fmt_value(entry.metrics.edp_js),
            if host.is_empty() {
                "—".to_string()
            } else {
                format!("{} {:.2}", sparkline(&host), host[host.len() - 1])
            }
        );
    }
}

fn self_profile(history: &History, sweep: Option<&SweepDoc>, out: &mut String) {
    // Prefer the freshly-gated sweep's merged profile; fall back to the
    // most recent recorded sweep that carried one.
    let profile = sweep.and_then(|d| d.self_profile.as_ref()).or_else(|| {
        history
            .sweeps()
            .filter_map(|s| s.self_profile.as_ref())
            .last()
    });
    let Some(p) = profile else {
        let _ = writeln!(out, "No self-profile recorded (`ATAC_PROFILE=0`?).");
        return;
    };
    let tracked: f64 = p.phases.iter().map(|(_, s)| s).sum();
    let _ = writeln!(out, "| phase | seconds | share |");
    let _ = writeln!(out, "|---|---|---|");
    let mut phases: Vec<&(String, f64)> = p.phases.iter().collect();
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, secs) in phases {
        let _ = writeln!(
            out,
            "| {name} | {secs:.3} | {:.1}% |",
            secs / p.total_secs.max(f64::MIN_POSITIVE) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\nPhase laps cover **{:.1}%** of {:.2}s total simulated-run wall time \
         (tracked {tracked:.2}s).",
        p.coverage * 100.0,
        p.total_secs
    );
}

/// Direction labels for the four mesh link ports, in `Port::idx` order.
const LINK_DIRS: [&str; 4] = ["N", "S", "E", "W"];

fn netmap_skip_table(np: &NetProfile, out: &mut String) {
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| cycles simulated | {} |", np.cycles);
    let _ = writeln!(
        out,
        "| router-cycles simulated | {} ({} routers) |",
        np.router_cycles(),
        np.routers.len()
    );
    let _ = writeln!(out, "| router ticks executed | {} |", np.router_ticks());
    let _ = writeln!(
        out,
        "| cycles skipped (per-router horizon) | {} ({:.1}% of router time) |",
        np.router_cycles_skipped(),
        np.router_skip_fraction() * 100.0
    );
    let _ = writeln!(out, "| network ticks executed | {} |", np.ticks_executed);
    let _ = writeln!(
        out,
        "| cycles skipped (whole-network gaps) | {} ({:.1}% of advanced time) |",
        np.cycles_skipped,
        np.skip_fraction() * 100.0
    );
    let _ = writeln!(out, "| skip-ahead jumps | {} |", np.skip_jumps);
    let _ = writeln!(
        out,
        "| wakeups (core / mem / net) | {} / {} / {} |",
        np.wake_core, np.wake_mem, np.wake_net
    );
    let _ = writeln!(
        out,
        "| epochs closed | {} ({} coalesced past their nominal span) |",
        np.epochs_closed, np.coalesced_epochs
    );
    let _ = writeln!(out, "| max epoch span | {} cycles |", np.max_epoch_span);
}

fn netmap_fastpath(np: &NetProfile, out: &mut String) {
    let grants = np.total_grants();
    if grants == 0 {
        let _ = writeln!(
            out,
            "No switch grants recorded (sweep predates the packet-granular \
             fast-path counters?)."
        );
        return;
    }
    let _ = writeln!(out, "| run length (flits/grant) | grants | share |");
    let _ = writeln!(out, "|---|---|---|");
    for (label, &v) in RUN_BUCKET_LABELS.iter().zip(&np.run_len_hist) {
        let _ = writeln!(
            out,
            "| {label} | {v} | {:.1}% |",
            v as f64 / grants as f64 * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\nMean flits per switch grant: **{:.2}** ({} flits over {grants} \
         grants); bucket 1 is the per-flit path (heads, tails, ejections), \
         higher buckets are bulk body-run transfers.",
        np.total_flits_routed() as f64 / grants as f64,
        np.total_flits_routed()
    );
    let arb = np.bitset_grants + np.scalar_grants;
    if arb > 0 {
        let _ = writeln!(
            out,
            "\nArbitration: {} grant(s) via the bitset arbiter, {} via the \
             scalar fallback ({:.1}% bitset).",
            np.bitset_grants,
            np.scalar_grants,
            np.bitset_grants as f64 / arb as f64 * 100.0
        );
    }
}

fn netmap_subphases(profile: Option<&PhaseProfile>, out: &mut String) {
    let Some(p) = profile.filter(|p| !p.net_phases.is_empty()) else {
        let _ = writeln!(out, "No sub-phase laps recorded (`ATAC_NETPROF=0`?).");
        return;
    };
    let tracked: f64 = p.net_phases.iter().map(|(_, s)| s).sum();
    let _ = writeln!(out, "| sub-phase | seconds | share of tracked |");
    let _ = writeln!(out, "|---|---|---|");
    let mut subs: Vec<&(String, f64)> = p.net_phases.iter().collect();
    subs.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, secs) in subs {
        let _ = writeln!(
            out,
            "| {name} | {secs:.3} | {:.1}% |",
            secs / tracked.max(f64::MIN_POSITIVE) * 100.0
        );
    }
    if let Some(cov) = p.net_coverage {
        let _ = writeln!(
            out,
            "\nSub-phase laps cover **{:.1}%** of the measured `network` phase.",
            cov * 100.0
        );
    }
}

fn netmap_routers(np: &NetProfile, out: &mut String, top_n: usize) {
    if np.routers.is_empty() {
        let _ = writeln!(out, "No router activity observed.");
        return;
    }
    let flits: Vec<f64> = np.routers.iter().map(|r| r.flits_routed as f64).collect();
    let _ = writeln!(
        out,
        "Heat strip (flits routed, router 0 → {}):\n\n```\n{}\n```\n",
        np.routers.len() - 1,
        sparkline(&flits)
    );
    let mut order: Vec<usize> = (0..np.routers.len()).collect();
    order.sort_by(|&a, &b| {
        np.routers[b]
            .flits_routed
            .cmp(&np.routers[a].flits_routed)
            .then(a.cmp(&b))
    });
    order.truncate(top_n);
    let _ = writeln!(
        out,
        "Top {} hotspot router(s); occupancy histogram buckets are {}:\n",
        order.len(),
        OCC_BUCKET_LABELS.join("/")
    );
    let _ = writeln!(
        out,
        "| router | flits | credit-stall cyc | active cyc | idle % | mean occ | occ hist |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for r in order {
        let ro = &np.routers[r];
        let hist: Vec<f64> = ro.occupancy_hist.iter().map(|&v| v as f64).collect();
        let _ = writeln!(
            out,
            "| r{r} | {} | {} | {} | {:.1}% | {:.2} | {} |",
            ro.flits_routed,
            ro.credit_stall_cycles,
            ro.active_cycles,
            ro.idle_fraction(np.cycles) * 100.0,
            ro.mean_occupancy(),
            sparkline(&hist)
        );
    }
}

fn netmap_links(np: &NetProfile, out: &mut String, top_n: usize) {
    let mut links: Vec<(usize, u64)> = np
        .link_flits
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, f)| f > 0)
        .collect();
    if links.is_empty() {
        let _ = writeln!(out, "No mesh-link traffic observed.");
        return;
    }
    links.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    links.truncate(top_n);
    let _ = writeln!(out, "| link | flits |");
    let _ = writeln!(out, "|---|---|");
    for (idx, f) in links {
        let _ = writeln!(
            out,
            "| r{}→{} | {f} |",
            idx / LINKS_PER_ROUTER,
            LINK_DIRS[idx % LINKS_PER_ROUTER]
        );
    }
}

fn netmap_hubs(np: &NetProfile, out: &mut String) {
    let clusters = np.hub_unicast_flits.len().max(np.hub_broadcast_flits.len());
    if clusters == 0 {
        let _ = writeln!(out, "No hub (optical) traffic observed.");
        return;
    }
    let _ = writeln!(out, "| cluster | unicast flits | broadcast flits |");
    let _ = writeln!(out, "|---|---|---|");
    for c in 0..clusters {
        let _ = writeln!(
            out,
            "| c{c} | {} | {} |",
            np.hub_unicast_flits.get(c).copied().unwrap_or(0),
            np.hub_broadcast_flits.get(c).copied().unwrap_or(0)
        );
    }
}

/// Render the standalone network-microscope page from a sweep's merged
/// cycle-domain counters: skip-ahead efficacy, sub-phase attribution,
/// the per-router heat table, hottest links, and hub traffic. Returns
/// `None` when no run in the sweep carried a `netprof` block
/// (instrument with `ATAC_NETPROF=1`).
pub fn render_netmap(doc: &SweepDoc, top_n: usize) -> Option<String> {
    let np = doc.merged_netprof()?;
    let observed = doc.runs.iter().filter(|r| r.netprof.is_some()).count();
    let mut out = String::new();
    let _ = writeln!(out, "# ATAC network microscope");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Cycle-domain counters aggregated over {observed} observed run(s) \
         of {} in the sweep: {} flit(s) routed, {} credit-stall cycle(s).",
        doc.runs.len(),
        np.total_flits_routed(),
        np.total_credit_stalls()
    );
    let _ = writeln!(out, "\n## Skip-ahead efficacy\n");
    netmap_skip_table(&np, &mut out);
    let _ = writeln!(out, "\n## Wormhole fast path\n");
    netmap_fastpath(&np, &mut out);
    let _ = writeln!(out, "\n## Network sub-phase attribution\n");
    netmap_subphases(doc.self_profile.as_ref(), &mut out);
    let _ = writeln!(out, "\n## Router heat\n");
    netmap_routers(&np, &mut out, top_n);
    let _ = writeln!(out, "\n## Hottest links\n");
    netmap_links(&np, &mut out, top_n);
    let _ = writeln!(out, "\n## Hub (optical) traffic\n");
    netmap_hubs(&np, &mut out);
    Some(out)
}

/// Render the full report. `gate` is present when a baseline was given;
/// `sweep` is the current sweep being reported on, when available.
pub fn render(
    history: &History,
    sweep: Option<&SweepDoc>,
    gate: Option<(&GateReport, &GateConfig)>,
    top_n: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# ATAC bench report");
    let _ = writeln!(out);
    let last_sha = history
        .runs()
        .last()
        .map_or("(none)", |r| r.sha.as_str())
        .to_string();
    let _ = writeln!(
        out,
        "{} recorded sweep(s), {} run record(s) over {} key(s); latest sha `{last_sha}`.",
        history.sweeps().count(),
        history.runs().count(),
        history.latest_runs().len(),
    );
    if history.skipped > 0 {
        let _ = writeln!(
            out,
            "({} newer-schema line(s) skipped by this reader.)",
            history.skipped
        );
    }

    if let Some((report, cfg)) = gate {
        let _ = writeln!(out, "\n## Regression gate vs baseline\n");
        let failures = report.failures(cfg);
        if failures.is_empty() {
            let _ = writeln!(
                out,
                "**PASS** — {} ok, {} improved, {} new, {} missing, {} host-slow.\n",
                report.count(Verdict::Ok),
                report.count(Verdict::Improved),
                report.count(Verdict::New),
                report.count(Verdict::Missing),
                report.count(Verdict::HostSlow),
            );
        } else {
            let _ = writeln!(
                out,
                "**FAIL** — {} offending key(s): {}\n",
                failures.len(),
                failures
                    .iter()
                    .map(|k| format!("`{}`", k.key))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        verdict_row(report, &mut out);
        let _ = writeln!(out, "\n## Top movers\n");
        top_movers(report, &mut out, top_n);
    }

    let _ = writeln!(out, "\n## Metric history\n");
    history_sparklines(history, &mut out);

    let _ = writeln!(out, "\n## Host self-profile\n");
    self_profile(history, sweep, &mut out);

    if let Some(np) = sweep.and_then(SweepDoc::merged_netprof) {
        let _ = writeln!(out, "\n## Network microscope\n");
        let _ = writeln!(
            out,
            "{} flit(s) routed, {} credit-stall cycle(s), {:.1}% of advanced \
             time skipped ahead. Full detail: `atac-report netmap`.\n",
            np.total_flits_routed(),
            np.total_credit_stalls(),
            np.skip_fraction() * 100.0
        );
        netmap_routers(&np, &mut out, top_n);
        let _ = writeln!(out, "\n### Network sub-phase attribution\n");
        netmap_subphases(sweep.and_then(|d| d.self_profile.as_ref()), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::compare;
    use crate::history::{lines_from_sweep, read_history};
    use crate::sweep::parse_sweep;

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0]), "▄", "singleton sits mid-height");
        assert_eq!(sparkline(&[2.0, 2.0, 2.0]), "▄▄▄", "flat series too");
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s, "▁▂▃▄▅▆▇█");
        assert_eq!(sparkline(&[1.0, 0.0]), "█▁");
    }

    #[test]
    fn report_covers_every_section() {
        let doc = parse_sweep(crate::sweep::SAMPLE).expect("fixture parses");
        let mut text = String::new();
        for sha in ["s1", "s2", "s3"] {
            for line in lines_from_sweep(&doc, sha) {
                text.push_str(&crate::history::encode_line(&line));
                text.push('\n');
            }
        }
        let history = read_history(&text).expect("parses");
        let cfg = GateConfig::default();
        let mut cur = doc.clone();
        cur.summaries[0].cycles += 1; // one regression to render
        let gate = compare(&history, &cur, &cfg);
        let md = render(&history, Some(&cur), Some((&gate, &cfg)), 5);
        for section in [
            "# ATAC bench report",
            "## Regression gate vs baseline",
            "**FAIL**",
            "## Top movers",
            "## Metric history",
            "## Host self-profile",
            "replay",
            "## Network microscope",
            "| r0 |",
            "Sub-phase laps cover",
        ] {
            assert!(md.contains(section), "missing {section:?} in:\n{md}");
        }
        assert!(md.contains(&cur.summaries[0].key));
        // Sparklines appear for the 3-sweep history.
        assert!(md.chars().any(|c| SPARK.contains(&c)));

        // A passing render without a gate still has history + profile.
        let md = render(&history, None, None, 5);
        assert!(!md.contains("Regression gate"));
        assert!(md.contains("## Metric history"));
        assert!(
            !md.contains("Network microscope"),
            "no sweep → no netmap section"
        );
    }

    #[test]
    fn netmap_page_renders_every_section() {
        let doc = parse_sweep(crate::sweep::SAMPLE).expect("fixture parses");
        let md = render_netmap(&doc, 5).expect("fixture carries a netprof block");
        for section in [
            "# ATAC network microscope",
            "## Skip-ahead efficacy",
            "| skip-ahead jumps | 150 |",
            // 2 routers × 500000 cycles, 90000 + 45000 active.
            "| router-cycles simulated | 1000000 (2 routers) |",
            "| cycles skipped (per-router horizon) | 865000 (86.5% of router time) |",
            "## Wormhole fast path",
            // run_hist [150, 60, 20, 0, 0, 0] → 230 grants, 320 flits.
            "| 1 | 150 | 65.2% |",
            "| 3-4 | 20 | 8.7% |",
            "Mean flits per switch grant: **1.39** (320 flits over 230 grants)",
            "Arbitration: 220 grant(s) via the bitset arbiter, 10 via the \
             scalar fallback (95.7% bitset).",
            "## Network sub-phase attribution",
            "route_compute",
            "## Router heat",
            "| r0 | 200 |",
            "## Hottest links",
            "| r0→N | 120 |",
            "## Hub (optical) traffic",
            "| c0 | 400 | 80 |",
        ] {
            assert!(md.contains(section), "missing {section:?} in:\n{md}");
        }
        // Hotspot ordering: r0 (200 flits) before r1 (120 flits).
        let r0 = md.find("| r0 | 200").expect("r0 row");
        let r1 = md.find("| r1 | 120").expect("r1 row");
        assert!(r0 < r1, "routers ordered by flits routed, descending");

        // A sweep without netprof blocks renders no page at all.
        let mut bare = doc.clone();
        for run in &mut bare.runs {
            run.netprof = None;
        }
        assert!(render_netmap(&bare, 5).is_none());
    }
}
