//! The `mzd` binary: parse, install telemetry sinks, run, print, dump.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match mzd_cli::args::parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = mzd_cli::telemetry::init(&parsed) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let result = mzd_cli::commands::run(&parsed);
    if let Err(e @ mzd_cli::CliError::Usage(_)) = &result {
        // A usage error found inside the command is still a usage
        // error: like one the parser finds, it leaves no file behind.
        mzd_cli::telemetry::discard(&parsed);
        eprintln!("{e}");
        std::process::exit(2);
    }
    // Flush events and dump metrics even when the command failed: a
    // partial run's telemetry is still diagnostic.
    let telemetry_result = mzd_cli::telemetry::finish(&parsed);
    match result {
        Ok(text) => {
            if !parsed.flag("quiet") {
                print!("{text}");
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    if let Err(e) = telemetry_result {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
