//! Experiment dispatcher: regenerate any table or figure of the paper.
//!
//! ```text
//! experiments <id> [--quick] [--jobs N]
//!
//! ids: fig1 table2 ex31 ex32 ex33 wc approx nmax
//!      ablate-zone ablate-scan ablate-dist cache bench-summary all
//! ```

use mzd_bench::Budget;

mod experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut id: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(jobs) => mzd_par::set_jobs(jobs),
                    None => {
                        eprintln!("--jobs expects a worker count");
                        std::process::exit(2);
                    }
                }
            }
            a if !a.starts_with("--") => id = id.or(Some(a)),
            _ => {}
        }
        i += 1;
    }
    let budget = Budget { quick };

    match id {
        Some("fig1") => experiments::fig1(budget),
        Some("table2") => experiments::table2(budget),
        Some("ex31") => experiments::ex31(),
        Some("ex32") => experiments::ex32(),
        Some("ex33") => experiments::ex33(),
        Some("wc") => experiments::worst_case(),
        Some("approx") => experiments::approx(),
        Some("nmax") => experiments::nmax_tables(),
        Some("ablate-zone") => experiments::ablate_zone(budget),
        Some("ablate-scan") => experiments::ablate_scan(budget),
        Some("ablate-dist") => experiments::ablate_dist(budget),
        Some("ablate-place") => experiments::ablate_placement(budget),
        Some("ablate-corr") => experiments::ablate_correlation(budget),
        Some("baselines") => experiments::baselines(budget),
        Some("mixed") => experiments::mixed(budget),
        Some("saddle") => experiments::saddlepoint(budget),
        Some("buffering") => experiments::buffering(budget),
        Some("cache") => experiments::cache(budget),
        Some("drift") => experiments::drift(budget),
        Some("faults") => experiments::faults(budget),
        Some("fleet") => experiments::fleet(budget),
        Some("health") => experiments::health(budget),
        Some("bench-summary") => experiments::bench_summary(budget),
        Some("bench-check") => experiments::bench_check(budget),
        Some("all") => experiments::all(budget),
        other => {
            if let Some(o) = other {
                eprintln!("unknown experiment id: {o}\n");
            }
            eprintln!(
                "usage: experiments <id> [--quick] [--jobs N]\n\n\
                 ids:\n  \
                 fig1         Figure 1: analytic vs simulated p_late(N)\n  \
                 table2       Table 2: analytic vs simulated p_error\n  \
                 ex31         §3.1 worked example (single-zone)\n  \
                 ex32         §3.2 worked example (multi-zone)\n  \
                 ex33         §3.3 worked example (glitch guarantee)\n  \
                 wc           eq. 4.1 worst-case admission limits\n  \
                 approx       §3.2 Gamma-approximation accuracy\n  \
                 nmax         §5 admission lookup tables\n  \
                 ablate-zone  zone-handling ablation\n  \
                 ablate-scan  SCAN vs FCFS ablation\n  \
                 ablate-dist  size-distribution ablation\n  \
                 ablate-place placement-policy ablation\n  \
                 ablate-corr  temporal-correlation ablation\n  \
                 baselines    CLT/Chebyshev/independent-seek baselines\n  \
                 mixed        mixed continuous+discrete workload\n  \
                 saddle       saddlepoint vs Chernoff vs simulation\n  \
                 buffering    work-ahead prefetching (\u{a7}6 buffering)\n  \
                 cache        fragment cache: glitch rate vs size vs Zipf skew\n  \
                 drift        model drift: conformance checker vs zone skew\n  \
                 faults       fault injection: fault-priced N_max vs observed\n               \
                 glitch rate (writes out/FAULT_sweep.json)\n  \
                 fleet        sharded fleet at scale: 64 nodes x 8 disks, ~100k\n               \
                 streams, composed p_error, jobs=1 vs jobs=8 determinism\n  \
                 health       gray-failure health: inflation factor vs detection\n               \
                 latency vs budget held (writes out/HEALTH_sweep.json)\n  \
                 bench-summary  write BENCH_core.json / BENCH_sim.json /\n                 \
                 BENCH_baseline.json (ns/op, jobs=1 vs jobs=4 speedups)\n  \
                 bench-check  perf-regression gate: fresh --quick measurement vs\n               \
                 crates/bench/golden/BENCH_baseline.json (exit 1 on >25%\n               \
                 host-scaled regression or a row on one side only)\n  \
                 all          everything, in order\n\n\
                 --jobs N     worker threads for parallel phases\n               \
                 (results are byte-identical for any N)"
            );
            std::process::exit(2);
        }
    }
}
