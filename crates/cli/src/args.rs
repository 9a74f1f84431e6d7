//! Command-line parsing for `mzd` — a small, dependency-free parser.
//!
//! ```text
//! mzd <command> [--flag value]...
//!
//! commands:
//!   nmax       admission limit for a quality target
//!   plate      round-overrun probability (bound + saddlepoint estimate)
//!   table      precomputed admission lookup table (§5)
//!   simulate   estimate p_late by simulation
//!   serve      run the round-based server on a Zipf catalog
//!   plan       provisioning: disks for a stream population
//!   worstcase  deterministic worst-case limits (eq. 4.1)
//!   disks      list built-in drive profiles
//! ```
//!
//! Common flags: `--disk <profile>` (default `viking`), `--mean <bytes>`,
//! `--sd <bytes>` (default 200000/100000), `--round <seconds>` (default 1).

use crate::CliError;
use std::collections::BTreeMap;

/// A parsed command line: command word plus `--key value` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The command word.
    pub command: Command,
    flags: BTreeMap<String, String>,
}

/// The `mzd` sub-commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Admission limit for a quality target.
    Nmax,
    /// Round-overrun probability for a given N.
    PLate,
    /// Precomputed admission lookup table.
    Table,
    /// Simulation-based p_late estimate.
    Simulate,
    /// Round-based server run over a popularity-skewed catalog, with an
    /// optional fragment cache.
    Serve,
    /// Disks-for-population provisioning.
    Plan,
    /// Deterministic worst-case limits.
    WorstCase,
    /// List drive profiles.
    Disks,
    /// Analyze a fragment-size trace file.
    AnalyzeTrace,
    /// Render an HTML report from a run's telemetry artifacts.
    Report,
    /// Render a flight-recorder post-mortem bundle as a timeline and
    /// audit its phase decomposition against the analytic model.
    Postmortem,
    /// Print usage.
    Help,
}

/// Usage text shown for `mzd help` and on parse errors.
pub const USAGE: &str = "\
usage: mzd <command> [--flag value]...

commands:
  nmax       admission limit (flags: --delta P | --m R --g G --epsilon P)
  plate      overrun probability for one N (flags: --n N)
  table      admission lookup table (flags: --thresholds p1,p2,...)
  simulate   simulated p_late (flags: --n N --rounds R --seed S
             --reps K   [split the round budget over K independent
                         replications, run in parallel]
             --faults SPEC  [inject disk faults; SPEC is a preset
                             (clean|media1pct|flaky|degrading|zonefail|
                              graynode|flappy|creep)
                             or key=value pairs, e.g.
                             media=0.01:1,stall=0.002:0.05,retries=4,
                             gray=slow:1.6|flap:2:40:20|creep:40:400:2.5]
             --prom-out PATH  [Prometheus text exposition of the
                               metrics registry, written at exit])
  serve      round-based server fleet on a Zipf catalog; a request
             it turns away waits and is offered again, oldest first,
             each round
             (flags: --disks D --streams N --rounds R --seed S
              --objects K --object-rounds M --zipf SKEW
              --nodes N           [fleet size, default 1: N nodes of
                                   --disks disks each, consistent-hash
                                   placement, per-node lease timeouts,
                                   and the guarantee composed fleet-wide
                                   (one node keeps no spare and pays no
                                   failover debit); with N > 1 a
                                   zonefail --fault-profile becomes a
                                   whole-node outage of node zone%N]
              --lease-rounds L    [rounds of silence before a node is
                                   declared failed and its streams
                                   migrate; default 3; needs --nodes N]
              --health            [gray-failure detection: per-node
                                   suspicion scores over per-stream
                                   service times drive a probation ->
                                   ejection -> readmission machine;
                                   probated nodes get hedged dispatch,
                                   ejection re-composes the guarantee
                                   (capacity debited; infeasible load
                                   freezes admission) and dumps a
                                   health.ejection fleet postmortem;
                                   needs --nodes N]
              --gray-node I       [the node carrying any gray=... shape
                                   in --fault-profile (mod N); other
                                   members run it stripped; default 0;
                                   needs --nodes N]
              --cache-bytes B --cache-policy lru|interval|cost
              --cache-safety S    [enables cache-aware admission on
                                   every node; needs --cache-bytes]
              --slo               [burn-rate + model-conformance monitor
                                   on every node]
              --trace-out PATH    [per-stream causal trace, Chrome JSON;
                                   implies --slo; the node traces are
                                   stitched under one root span per
                                   stream, so a migration reads as one
                                   causal chain]
              --fault-profile SPEC [same grammar as --faults; add
                                    disk=D to degrade one spindle only]
              --work-ahead K      [prefetch K fragments/stream into the
                                   cache in post-sweep slack; needs
                                   --cache-bytes]
              --degrade           [graceful-degradation ladder driven by
                                   the burn alert; implies --slo]
              --postmortem-dir DIR [attach a flight recorder to every
                                    node; an SLO fast-burn alert, a
                                    ladder escalation or a round
                                    overrun dumps that node's bundle
                                    under DIR/node-I/, and a fleet
                                    trigger dumps all of them plus a
                                    correlating DIR/MANIFEST.json]
              --recorder-capacity N [rounds retained in the flight
                                     recorder ring; default 64]
              --dump-on-exit      [also dump a manual bundle at exit]
              --profile-out PATH  [phase profile as collapsed stacks,
                                   flamegraph.pl/inferno compatible;
                                   every node's rounds fold into the
                                   same stacks]
              --prom-out PATH     [Prometheus text exposition of the
                                   metrics registry, written per round,
                                   with the fleet's node-labeled
                                   quantile-sketch series and merged
                                   fleet summaries])
  plan       disks for a population (flags: --population N --m R --g G --epsilon P)
  worstcase  deterministic worst-case limits (eq. 4.1)
  disks      list built-in drive profiles
  analyze-trace  fit a trace file and derive its admission limit
                 (flags: --file PATH [--delta P])
  report     render a self-contained HTML page from a run's telemetry
             (flags: --events PATH [--metrics PATH] [--profile PATH]
              --out PATH)
  postmortem render a flight-recorder bundle as a timeline and audit the
             observed phase decomposition against the analytic model
             (flags: --bundle DIR | --fleet DIR  [a fleet bundle written
              by serve: cross-node timeline keyed by round, with the
              decomposition audited per node])
  help       this text

common flags:
  --disk viking|single75|legacy|nextgen|synthetic2to1   (default viking)
  --mean BYTES   fragment-size mean        (default 200000)
  --sd BYTES     fragment-size std. dev.   (default 100000)
  --round SECS   round length              (default 1.0)

execution:
  --jobs N       worker threads for parallel phases (solver scans, CDF
                 tabulation, sweep points, replications); default: all
                 hardware threads. Results are byte-identical for any N.

observability:
  --metrics-out PATH   write a JSON metrics snapshot (counters, gauges,
                       histogram quantiles) at exit
  --events-out PATH    write per-round / per-admission events as JSONL
  -v, --verbose        also stream events to stderr
  -q, --quiet          suppress the normal report on stdout (errors still
                       go to stderr; with -v, events still stream there)";

/// Flags that take no value; presence means `true`.
const BOOLEAN_FLAGS: [&str; 6] = [
    "verbose",
    "quiet",
    "slo",
    "degrade",
    "dump-on-exit",
    "health",
];

/// Flags every command accepts: the worker pool and the telemetry
/// sinks, which `run` and the telemetry setup read for any command.
/// `--prom-out` is not one of them: only `simulate` and `serve` register
/// the run-scoped series its exposition renders.
const SHARED_FLAGS: [&str; 5] = ["jobs", "metrics-out", "events-out", "verbose", "quiet"];

/// Each command word, its command, and the flags it reads beyond
/// [`SHARED_FLAGS`] — the one list [`parse`] checks a command line
/// against.
const COMMANDS: [(&str, Command, &[&str]); 12] = [
    (
        "nmax",
        Command::Nmax,
        &["disk", "mean", "sd", "round", "delta", "m", "g", "epsilon"],
    ),
    (
        "plate",
        Command::PLate,
        &["disk", "mean", "sd", "round", "n"],
    ),
    (
        "table",
        Command::Table,
        &["disk", "mean", "sd", "round", "thresholds"],
    ),
    (
        "simulate",
        Command::Simulate,
        &[
            "disk", "mean", "sd", "round", "n", "rounds", "seed", "reps", "faults", "prom-out",
        ],
    ),
    (
        "serve",
        Command::Serve,
        &[
            "disk",
            "mean",
            "sd",
            "round",
            "disks",
            "streams",
            "rounds",
            "seed",
            "objects",
            "object-rounds",
            "zipf",
            "nodes",
            "lease-rounds",
            "health",
            "gray-node",
            "cache-bytes",
            "cache-policy",
            "cache-safety",
            "slo",
            "trace-out",
            "fault-profile",
            "work-ahead",
            "degrade",
            "postmortem-dir",
            "recorder-capacity",
            "dump-on-exit",
            "profile-out",
            "prom-out",
        ],
    ),
    (
        "plan",
        Command::Plan,
        &[
            "disk",
            "mean",
            "sd",
            "round",
            "population",
            "m",
            "g",
            "epsilon",
        ],
    ),
    (
        "worstcase",
        Command::WorstCase,
        &["disk", "mean", "sd", "round"],
    ),
    ("disks", Command::Disks, &[]),
    (
        "analyze-trace",
        Command::AnalyzeTrace,
        &["disk", "file", "delta"],
    ),
    (
        "report",
        Command::Report,
        &["events", "metrics", "profile", "out"],
    ),
    ("postmortem", Command::Postmortem, &["bundle", "fleet"]),
    ("help", Command::Help, &[]),
];

/// Parse an argument vector (without the program name).
///
/// # Errors
/// [`CliError::Usage`] for unknown commands, flags the command does not
/// read (naming the nearest one it does, within two edits), dangling
/// flags or non-flag positional arguments.
pub fn parse(args: &[String]) -> Result<Parsed, CliError> {
    let mut it = args.iter();
    let word = it.next().map_or("help", String::as_str);
    let Some(&(word, command, own)) = COMMANDS.iter().find(|(name, ..)| *name == word) else {
        return Err(CliError::Usage(format!(
            "unknown command `{word}`\n\n{USAGE}"
        )));
    };
    let mut flags = BTreeMap::new();
    while let Some(key) = it.next() {
        let name = match key.as_str() {
            "-v" => "verbose",
            "-q" => "quiet",
            other => match other.strip_prefix("--") {
                Some(name) => name,
                None => {
                    return Err(CliError::Usage(format!(
                        "expected a --flag, got `{key}`\n\n{USAGE}"
                    )))
                }
            },
        };
        let accepted = SHARED_FLAGS.iter().chain(own);
        if !accepted.clone().any(|&flag| flag == name) {
            let nearest = accepted
                .map(|&flag| (edit_distance(name, flag), flag))
                .filter(|&(d, _)| d <= 2)
                .min_by_key(|&(d, _)| d);
            let hint = nearest.map_or(String::new(), |(_, flag)| {
                format!(" (did you mean --{flag}?)")
            });
            return Err(CliError::Usage(format!(
                "`{word}` does not take --{name}{hint}; see `mzd help`"
            )));
        }
        if BOOLEAN_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(CliError::Usage(format!(
                "flag --{name} is missing its value\n\n{USAGE}"
            )));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(Parsed { command, flags })
}

/// Levenshtein distance between two flag names (insertions, deletions
/// and substitutions of one byte each).
fn edit_distance(a: &str, b: &str) -> usize {
    let b = b.as_bytes();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.as_bytes().iter().enumerate() {
        let mut cur = vec![i + 1; b.len() + 1];
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            cur[j + 1] = substitute.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        prev = cur;
    }
    prev[b.len()]
}

impl Parsed {
    /// String flag with a default.
    #[must_use]
    pub fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map_or(default, String::as_str)
    }

    /// `f64` flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] when present but unparseable.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects a number, got `{v}`"))),
        }
    }

    /// `u64` flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] when present but unparseable.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got `{v}`"))),
        }
    }

    /// Required `u64` flag.
    ///
    /// # Errors
    /// [`CliError::Usage`] when absent or unparseable.
    pub fn u64_required(&self, name: &str) -> Result<u64, CliError> {
        match self.flags.get(name) {
            None => Err(CliError::Usage(format!("missing required flag --{name}"))),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{name} expects an integer, got `{v}`"))),
        }
    }

    /// Comma-separated `f64` list flag with a default.
    ///
    /// # Errors
    /// [`CliError::Usage`] when present but unparseable.
    pub fn f64_list_or(&self, name: &str, default: &[f64]) -> Result<Vec<f64>, CliError> {
        match self.flags.get(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim().parse::<f64>().map_err(|_| {
                        CliError::Usage(format!(
                            "--{name} expects comma-separated numbers, got `{x}`"
                        ))
                    })
                })
                .collect(),
        }
    }

    /// Whether a flag was provided at all.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A boolean (presence-only) flag such as `--verbose`.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.has(name)
    }

    /// A flag's value, if present (e.g. `--metrics-out PATH`).
    #[must_use]
    pub fn str_opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_commands_and_flags() {
        let p = parse(&v(&["nmax", "--delta", "0.01", "--disk", "viking"])).unwrap();
        assert_eq!(p.command, Command::Nmax);
        assert_eq!(p.str_or("disk", "x"), "viking");
        assert_eq!(p.f64_or("delta", 0.5).unwrap(), 0.01);
        assert_eq!(p.f64_or("absent", 0.5).unwrap(), 0.5);
        assert!(p.has("delta"));
        assert!(!p.has("epsilon"));
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&v(&["help"])).unwrap().command, Command::Help);
    }

    #[test]
    fn serve_command_parses() {
        let p = parse(&v(&[
            "serve",
            "--cache-bytes",
            "5e7",
            "--cache-policy",
            "interval",
            "--zipf",
            "1.0",
        ]))
        .unwrap();
        assert_eq!(p.command, Command::Serve);
        assert_eq!(p.f64_or("cache-bytes", 0.0).unwrap(), 5e7);
        assert_eq!(p.str_or("cache-policy", "lru"), "interval");
        assert_eq!(p.f64_or("zipf", 0.0).unwrap(), 1.0);
    }

    #[test]
    fn analyze_trace_command_parses() {
        let p = parse(&v(&["analyze-trace", "--file", "/tmp/x.trace"])).unwrap();
        assert_eq!(p.command, Command::AnalyzeTrace);
        assert_eq!(p.str_or("file", ""), "/tmp/x.trace");
    }

    #[test]
    fn report_and_slo_flags_parse() {
        let p = parse(&v(&["report", "--events", "e.jsonl", "--out", "r.html"])).unwrap();
        assert_eq!(p.command, Command::Report);
        assert_eq!(p.str_opt("events"), Some("e.jsonl"));
        assert_eq!(p.str_opt("out"), Some("r.html"));
        assert_eq!(p.str_opt("metrics"), None);
        let p = parse(&v(&["serve", "--slo", "--trace-out", "t.json"])).unwrap();
        assert!(p.flag("slo"));
        assert_eq!(p.str_opt("trace-out"), Some("t.json"));
    }

    #[test]
    fn fault_flags_parse() {
        let p = parse(&v(&["simulate", "--faults", "media=0.01,retries=4"])).unwrap();
        assert_eq!(p.str_opt("faults"), Some("media=0.01,retries=4"));
        let p = parse(&v(&[
            "serve",
            "--fault-profile",
            "flaky",
            "--degrade",
            "--work-ahead",
            "2",
        ]))
        .unwrap();
        assert_eq!(p.str_opt("fault-profile"), Some("flaky"));
        assert!(p.flag("degrade"));
        assert_eq!(p.u64_or("work-ahead", 0).unwrap(), 2);
    }

    #[test]
    fn prof_flags_parse() {
        let p = parse(&v(&[
            "serve",
            "--postmortem-dir",
            "/tmp/pm",
            "--recorder-capacity",
            "32",
            "--dump-on-exit",
            "--profile-out",
            "prof.folded",
            "--prom-out",
            "metrics.prom",
        ]))
        .unwrap();
        assert_eq!(p.command, Command::Serve);
        assert_eq!(p.str_opt("postmortem-dir"), Some("/tmp/pm"));
        assert_eq!(p.u64_or("recorder-capacity", 64).unwrap(), 32);
        assert!(p.flag("dump-on-exit"));
        assert_eq!(p.str_opt("profile-out"), Some("prof.folded"));
        assert_eq!(p.str_opt("prom-out"), Some("metrics.prom"));
        let p = parse(&v(&["postmortem", "--bundle", "/tmp/pm/b1"])).unwrap();
        assert_eq!(p.command, Command::Postmortem);
        assert_eq!(p.str_opt("bundle"), Some("/tmp/pm/b1"));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let e = parse(&v(&["frobnicate"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
        assert!(e.to_string().contains("frobnicate"));
        assert!(e.to_string().contains("usage:"));
    }

    #[test]
    fn unknown_flags_are_usage_errors_naming_the_nearest() {
        let e = parse(&v(&["serve", "--rounds", "20", "--metrics-outt", "m.json"])).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
        let msg = e.to_string();
        assert!(msg.contains("--metrics-outt"), "{msg}");
        assert!(msg.contains("did you mean --metrics-out?"), "{msg}");
        // A flag another command reads is still foreign here.
        let msg = parse(&v(&["report", "--disk", "viking"]))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("`report` does not take --disk"), "{msg}");
        // Nothing within two edits: no guess.
        let msg = parse(&v(&["nmax", "--frobnicate", "1"]))
            .unwrap_err()
            .to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert_eq!(edit_distance("seed", "seed"), 0);
        assert_eq!(edit_distance("sed", "seed"), 1);
        assert_eq!(edit_distance("rond", "round"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    /// `(command word, flag)` for every `--flag` USAGE lists in a
    /// command's entry, skipping bracketed prose (`[same grammar as
    /// --faults; …]`) but not bracketed optional flags (`[--delta P]`).
    fn usage_flags() -> Vec<(String, String)> {
        let commands = USAGE
            .split("commands:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\ncommon flags:").next())
            .unwrap();
        let mut sections: Vec<(String, String)> = Vec::new();
        for line in commands.lines() {
            let word = line.strip_prefix("  ").and_then(|l| l.split(' ').next());
            match word.filter(|w| !w.is_empty()) {
                Some(word) => sections.push((word.to_string(), line.to_string())),
                None => sections.last_mut().unwrap().1.push_str(line),
            }
        }
        let mut out = Vec::new();
        for (word, text) in sections {
            let mut prose = 0;
            let mut rest = text.as_str();
            while let Some(c) = rest.chars().next() {
                if c == '[' && !rest[1..].starts_with("--") {
                    prose += 1;
                } else if c == ']' && prose > 0 {
                    prose -= 1;
                } else if prose == 0 && rest.starts_with("--") {
                    let flag: String = rest[2..]
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                        .collect();
                    out.push((word.clone(), flag));
                }
                rest = &rest[c.len_utf8()..];
            }
        }
        out
    }

    #[test]
    fn every_command_accepts_the_flags_usage_lists_for_it() {
        let args = |word: &str, flag: &str| {
            let mut line = vec![word.to_string(), format!("--{flag}")];
            if !BOOLEAN_FLAGS.contains(&flag) {
                line.push("1".into());
            }
            line
        };
        let listed = usage_flags();
        assert!(listed.len() > 40, "USAGE parse found only {listed:?}");
        for (word, flag) in &listed {
            assert!(
                parse(&args(word, flag)).is_ok(),
                "`{word} --{flag}` rejected"
            );
        }
        // The execution and observability sections apply to every
        // command, the common model flags to every command that builds
        // a model.
        for &(word, ..) in &COMMANDS {
            for flag in SHARED_FLAGS {
                assert!(
                    parse(&args(word, flag)).is_ok(),
                    "`{word} --{flag}` rejected"
                );
            }
        }
        for word in [
            "nmax",
            "plate",
            "table",
            "simulate",
            "serve",
            "plan",
            "worstcase",
        ] {
            for flag in ["disk", "mean", "sd", "round"] {
                assert!(
                    parse(&args(word, flag)).is_ok(),
                    "`{word} --{flag}` rejected"
                );
            }
        }
        assert!(parse(&args("analyze-trace", "disk")).is_ok());
        assert!(parse(&v(&["serve", "-v", "-q"])).is_ok());
    }

    #[test]
    fn dangling_flag_and_positional_rejected() {
        assert!(parse(&v(&["nmax", "--delta"])).is_err());
        assert!(parse(&v(&["nmax", "stray"])).is_err());
    }

    #[test]
    fn numeric_flag_validation() {
        let p = parse(&v(&["plate", "--n", "abc"])).unwrap();
        assert!(p.u64_or("n", 1).is_err());
        assert!(p.u64_required("n").is_err());
        let p = parse(&v(&["plate"])).unwrap();
        assert!(p.u64_required("n").is_err());
        assert_eq!(p.u64_or("n", 27).unwrap(), 27);
    }

    #[test]
    fn list_flags() {
        let p = parse(&v(&["table", "--thresholds", "0.001, 0.01,0.1"])).unwrap();
        assert_eq!(
            p.f64_list_or("thresholds", &[]).unwrap(),
            vec![0.001, 0.01, 0.1]
        );
        let p = parse(&v(&["table"])).unwrap();
        assert_eq!(p.f64_list_or("thresholds", &[0.5]).unwrap(), vec![0.5]);
        let p = parse(&v(&["table", "--thresholds", "a,b"])).unwrap();
        assert!(p.f64_list_or("thresholds", &[]).is_err());
    }
}
