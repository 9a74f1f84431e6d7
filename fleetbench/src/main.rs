//! `fleetbench`: the end-to-end and per-layer benchmark of the mzd fleet.
//!
//! ```text
//! fleetbench --workload steady|churn|observed|all --seed N --seconds S --trace 0|1
//!            [--quick] [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the phase-traced ledger. Both check the program's outputs and
//! end with one JSON result line. See `README.md`.

mod clock;
mod ledger;
mod run;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use run::{Layers, Pass};
use workload::Shape;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        quick: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required ({} or all)",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(shape) = workload::shape(&args.workload, args.quick) else {
        eprintln!("fleetbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    // At jobs = 1 the fleet round steps nodes on the caller's thread, so
    // the server's phase scopes nest under the benchmark's own and no
    // timing includes worker hand-offs (see README.md).
    mzd_par::set_jobs(1);
    let outcome = if args.trace {
        traced(&args, &shape)
    } else {
        timed(&args, &shape)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs every workload in its own process, so each reports its own peak
/// resident set, forwarding the flags.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("fleetbench: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for name in workload::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if args.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("fleetbench: workload {name} failed ({status})");
                ok = false;
            }
            Err(e) => {
                eprintln!("fleetbench: cannot run workload {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Output checks; any failure makes the run's result incorrect.
#[derive(Default)]
struct Checks {
    failed: usize,
}

impl Checks {
    fn check(&mut self, ok: bool, what: String) {
        println!("  check {}: {what}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.failed += 1;
        }
    }

    fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// Every submission is accounted for, by the benchmark's own count and
/// by the program's dispatch counters.
fn check_pass(checks: &mut Checks, label: &str, p: &Pass) {
    let accounted = p.refused + p.completed + p.hosted + p.waiting;
    let counters =
        p.total("cluster.dispatch.submitted") as u64 + p.total("cluster.dispatch.rejected") as u64;
    checks.check(
        p.submitted == accounted && p.submitted == counters && p.errors == 0,
        format!(
            "{label} accounting: submitted {} = refused {} + completed {} + hosted {} + \
             waiting {}; dispatch counters {counters}; submit errors {}",
            p.submitted, p.refused, p.completed, p.hosted, p.waiting, p.errors
        ),
    );
}

/// Run-wide checks on the aggregate of all passes.
fn check_run(checks: &mut Checks, shape: &Shape, passes: &[Pass]) {
    let stream_rounds: u64 = passes.iter().map(|p| p.stream_rounds).sum();
    let host: u64 = passes.iter().map(|p| p.host_glitches).sum();
    let bound = passes[0].p_glitch_round;
    let rate = host as f64 / stream_rounds.max(1) as f64;
    if shape.bound_applies() {
        checks.check(
            rate <= bound,
            format!(
                "guarantee: host glitch rate {rate:.4e} ({host} in {stream_rounds} \
                 stream-rounds, outage charges excluded) <= p_glitch_round {bound:.4e}"
            ),
        );
    } else {
        println!(
            "  host glitch rate {rate:.4e} vs p_glitch_round {bound:.4e} (not checked: the \
             injected faults are not priced by the bound)"
        );
    }
    if shape.operator_stack {
        let dropped: u64 = passes.iter().map(|p| p.trace_dropped).sum();
        checks.check(
            dropped == 0,
            format!("tracer kept every span ({dropped} dropped)"),
        );
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Runs pass `index` on seed `derive_seed(seed, index)`, with a
/// directory for flight-recorder bundles that is removed afterwards.
fn run_pass(
    args: &Args,
    shape: &Shape,
    index: u32,
    layers: Layers,
    rounds: bool,
) -> Result<Pass, String> {
    let bundle_dir = args
        .out
        .join(format!("recorders-{}-{}", shape.name, std::process::id()));
    let seed = mzd_par::derive_seed(args.seed, u64::from(index));
    let result = run::pass(shape, seed, layers, &bundle_dir, rounds);
    if bundle_dir.exists() {
        std::fs::remove_dir_all(&bundle_dir)
            .map_err(|e| format!("cannot remove {}: {e}", bundle_dir.display()))?;
    }
    result
}

fn header(args: &Args, shape: &Shape, p: &Pass) {
    println!(
        "fleetbench {} seed={} seconds={} trace={}",
        shape.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  fleet: {} nodes x {} disks, {} s rounds, n* = {}/disk, composed capacity {} streams",
        shape.nodes, shape.disks, shape.round_length, p.n_star, p.fleet_capacity
    );
    println!(
        "  passes of {} rounds, each from a cold fleet; pass i runs on seed \
         derive_seed({}, i)",
        shape.rounds, args.seed
    );
}

fn print_pass(i: u32, p: &Pass) {
    println!(
        "  pass {i}: setup {:.4} s; {} rounds in {:.4} s = {:.0} stream-rounds/s; \
         submitted {}, refused {}; glitches {} host + {} outage; digest {:016x}",
        p.setup.as_secs_f64(),
        p.rounds,
        p.timed.as_secs_f64(),
        p.stream_rounds_per_s(),
        p.submitted,
        p.refused,
        p.host_glitches,
        p.outage_glitches,
        p.digest
    );
}

/// Appends `"name": {"value": v, "unit": "u"}` to a JSON object body.
fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    mzd_telemetry::json::write_escaped(out, name);
    out.push_str(": {\"value\": ");
    mzd_telemetry::json::write_f64(out, value);
    out.push_str(", \"unit\": ");
    mzd_telemetry::json::write_escaped(out, unit);
    out.push('}');
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}

/// The untraced run: the four end-to-end metrics. It makes passes on
/// seeds `derive_seed(seed, i)` until the next one would end past
/// `--seconds`, and at least the workload's `passes`; the simulated
/// statistics come from those first passes alone, so they are a pure
/// function of the seed. Each pass and set-up is timed in reference
/// seconds at the clock read just before it.
fn timed(args: &Args, shape: &Shape) -> Result<bool, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let layers = Layers::of(shape);
    let mut checks = Checks::default();
    let mut passes = Vec::new();
    let (mut rates, mut host_rates, mut setups, mut readings) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rss = 0.0;
    let mut last = Duration::ZERO;
    for i in 0.. {
        let more = i < shape.passes || !args.quick && start.elapsed() + last <= budget;
        if !more {
            break;
        }
        let pass_start = Instant::now();
        let c = clock::read();
        let p = run_pass(args, shape, i, layers, true)?;
        if i == 0 {
            // The first pass's high-water mark: later passes would only
            // add what the allocator retains from earlier, freed fleets.
            rss = peak_rss_mb()?;
            header(args, shape, &p);
        }
        print_pass(i, &p);
        check_pass(&mut checks, &format!("pass {i}"), &p);
        readings.push(c);
        rates.push(p.stream_rounds as f64 / clock::to_reference(p.timed.as_secs_f64(), c));
        host_rates.push(p.stream_rounds_per_s());
        setups.push(clock::to_reference(p.setup.as_secs_f64(), c));
        for _ in 0..shape.extra_setups {
            let c = clock::read();
            let setup = run_pass(args, shape, i, layers, false)?.setup;
            readings.push(c);
            setups.push(clock::to_reference(setup.as_secs_f64(), c));
        }
        passes.push(p);
        last = pass_start.elapsed();
    }
    check_run(&mut checks, shape, &passes);

    let stream_rounds_per_s = median(&mut rates);
    let setup_s = median(&mut setups);
    let counted = &passes[..shape.passes as usize];
    let mut glitch_rates: Vec<f64> = counted.iter().map(Pass::glitch_rate).collect();
    let glitch_rate = median(&mut glitch_rates);
    let submitted: u64 = passes.iter().map(|p| p.submitted).sum();
    let refused: u64 = passes.iter().map(|p| p.refused).sum();
    let errors: u64 = passes.iter().map(|p| p.errors).sum();
    let streams_per_round = counted.iter().map(|p| p.stream_rounds).sum::<u64>() as f64
        / counted.iter().map(|p| p.rounds).sum::<u64>() as f64;
    readings.sort();

    println!(
        "  submissions: {submitted} submitted, {refused} refused at composed capacity \
         ({:.2}%), {errors} failed",
        100.0 * refused as f64 / submitted.max(1) as f64
    );
    println!(
        "  host clock: reference {:.1} us; readings {:.1} to {:.1} us, median {:.1} us",
        clock::REFERENCE.as_secs_f64() * 1e6,
        readings[0].as_secs_f64() * 1e6,
        readings[readings.len() - 1].as_secs_f64() * 1e6,
        readings[readings.len() / 2].as_secs_f64() * 1e6
    );
    println!(
        "  host seconds: median pass {:.1} stream-rounds/s (informational)",
        median(&mut host_rates)
    );
    println!(
        "  fleet_rounds_per_s = {:.2} 1/s (informational: stream_rounds_per_s over the \
         {streams_per_round:.1} streams a round serves)",
        stream_rounds_per_s / streams_per_round
    );
    println!(
        "  stream_rounds_per_s = {stream_rounds_per_s:.1} 1/s (reference clock; median of {} \
         passes)",
        passes.len()
    );
    println!(
        "  setup_s = {setup_s:.5} s (reference clock; median of {} set-ups)",
        setups.len()
    );
    println!("  peak_rss_mb = {rss:.2} MB (after the first pass)");
    println!(
        "  glitch_rate = {glitch_rate:.6e} 1 (median of the first {} passes)",
        counted.len()
    );

    let mut metrics = String::new();
    json_metric(
        &mut metrics,
        "stream_rounds_per_s",
        stream_rounds_per_s,
        "1/s",
    );
    json_metric(&mut metrics, "setup_s", setup_s, "s");
    json_metric(&mut metrics, "peak_rss_mb", rss, "MB");
    json_metric(&mut metrics, "glitch_rate", glitch_rate, "1");
    let correct = checks.passed();
    println!("{}", result_line(correct, submitted, errors, &metrics));
    Ok(correct)
}

/// The traced run: untraced and traced passes on the same seeds, the
/// per-layer ledger from the phase profile, and, where the workload
/// has them, the marginal cost of tracing and of the flight recorders.
fn traced(args: &Args, shape: &Shape) -> Result<bool, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut last = Duration::ZERO;
    let full = Layers::of(shape);
    let mut checks = Checks::default();
    let mut runs = ledger::Runs::default();
    mzd_prof::reset_profile();
    // Up to four pairs, as many as fit in `--seconds` (at least one).
    for i in 0..4 {
        if i > 0 && (args.quick || start.elapsed() + last > budget) {
            break;
        }
        let pair_start = Instant::now();
        let u = run_pass(args, shape, i, full, true)?;
        if i == 0 {
            header(args, shape, &u);
        }
        let mut same_digest = |label: &str, p: &Pass| {
            checks.check(
                p.digest == u.digest,
                format!(
                    "pass {i} digest {label} {:016x} = untraced {:016x}",
                    p.digest, u.digest
                ),
            );
        };
        if shape.operator_stack {
            let without = |layers| run_pass(args, shape, i, layers, true);
            let p = without(Layers {
                tracing: false,
                ..full
            })?;
            same_digest("without tracing", &p);
            runs.no_tracing.push(p);
            let p = without(Layers {
                recorders: false,
                ..full
            })?;
            same_digest("without recorders", &p);
            runs.no_recorders.push(p);
        }
        mzd_prof::set_profiling(true);
        let t = run_pass(args, shape, i, full, true);
        mzd_prof::set_profiling(false);
        let t = t?;
        same_digest("traced", &t);
        print_pass(i, &t);
        check_pass(&mut checks, &format!("traced pass {i}"), &t);
        runs.untraced.push(u);
        runs.traced.push(t);
        last = pair_start.elapsed();
    }
    check_run(&mut checks, shape, &runs.traced);

    let folded = mzd_prof::collapsed();
    let ledger = ledger::Ledger::build(&folded, &runs);
    print!("{}", ledger.table());
    checks.check(
        ledger.closure_gap().abs() <= 0.05,
        format!(
            "ledger closes: layers sum to {:.1} ns/stream-round vs 1e9 / traced \
             stream_rounds_per_s = {:.1} ({:+.2}%)",
            ledger.layer_sum_ns(),
            ledger.wall_ns(),
            100.0 * ledger.closure_gap()
        ),
    );
    let stem = format!("{}-seed{}", shape.name, args.seed);
    write_outputs(&args.out, &stem, &folded, &ledger)?;

    let mut metrics = String::new();
    for (name, value, unit) in ledger.metrics() {
        json_metric(&mut metrics, name, value, unit);
    }
    let attempted: u64 = runs.traced.iter().map(|p| p.submitted).sum();
    let errors: u64 = runs.traced.iter().map(|p| p.errors).sum();
    let correct = checks.passed();
    println!("{}", result_line(correct, attempted, errors, &metrics));
    Ok(correct)
}

/// The machine-readable trace: the per-layer table as JSON, the
/// collapsed-stack profile, and its flame chart.
fn write_outputs(
    dir: &Path,
    stem: &str,
    folded: &str,
    ledger: &ledger::Ledger,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut line = String::from("  wrote");
    for (ext, body) in [
        ("ledger.json", ledger.to_json()),
        ("folded", folded.to_owned()),
        ("svg", mzd_prof::render_flame_svg(folded)),
    ] {
        let path = dir.join(format!("{stem}.{ext}"));
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let _ = write!(line, " {}", path.display());
    }
    println!("{line}");
    Ok(())
}
