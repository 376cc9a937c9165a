//! `ccdn` — command-line driver for the crowdsourced-CDN reproduction.
//!
//! ```text
//! ccdn generate --out-dir DIR [--preset eval|measurement|small] [--seed N] [--days N]
//! ccdn run --hotspots FILE --requests FILE --videos N --slots N [--scheme NAME]
//! ccdn compare [--preset eval|measurement|small] [--seed N]
//! ```
//!
//! `generate` writes a synthetic trace as `hotspots.csv` + `requests.csv`;
//! `run` scores one scheme on a CSV trace (yours or a generated one);
//! `compare` runs the paper's scheme line-up on a preset and prints the
//! four evaluation metrics.

use crowdsourced_cdn::core::{LocalRandom, LpBased, LpBasedConfig, Nearest, Rbcaer, RbcaerConfig};
use crowdsourced_cdn::geo::Rect;
use crowdsourced_cdn::sim::{Runner, Scheme};
use crowdsourced_cdn::trace::{Trace, TraceConfig};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  ccdn generate --out-dir DIR [--preset eval|measurement|small] [--seed N] [--days N]
  ccdn run --hotspots FILE --requests FILE --videos N --slots N [--scheme NAME]
  ccdn compare [--preset eval|measurement|small] [--seed N]

schemes: rbcaer (default), rbcaer-balance-only, nearest, random, lp";

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    command: String,
    options: HashMap<String, String>,
}

/// Splits `argv` (without the program name) into subcommand + options.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let Some(command) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let mut options = HashMap::new();
    let mut rest = &argv[1..];
    while let Some(flag) = rest.first() {
        let key =
            flag.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
        let value = rest.get(1).ok_or_else(|| format!("flag --{key} needs a value"))?;
        if options.insert(key.to_string(), value.to_string()).is_some() {
            return Err(format!("duplicate flag --{key}"));
        }
        rest = &rest[2..];
    }
    Ok(Args { command: command.clone(), options })
}

fn preset(name: &str) -> Result<TraceConfig, String> {
    match name {
        "eval" => Ok(TraceConfig::paper_eval()),
        "measurement" => Ok(TraceConfig::measurement_city()),
        "small" => Ok(TraceConfig::small_test()),
        other => Err(format!("unknown preset {other:?} (eval|measurement|small)")),
    }
}

fn scheme_by_name(name: &str) -> Result<Box<dyn Scheme>, String> {
    match name {
        "rbcaer" => Ok(Box::new(Rbcaer::new(RbcaerConfig::default()))),
        "rbcaer-balance-only" => Ok(Box::new(Rbcaer::new(RbcaerConfig {
            content_aggregation: false,
            ..RbcaerConfig::default()
        }))),
        "nearest" => Ok(Box::new(Nearest::new())),
        "random" => Ok(Box::new(LocalRandom::new(1.5, 42))),
        "lp" => Ok(Box::new(LpBased::new(LpBasedConfig::default()))),
        other => Err(format!("unknown scheme {other:?}")),
    }
}

fn opt_parse<T: std::str::FromStr>(
    args: &Args,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match args.options.get(key) {
        Some(raw) => raw.parse().map_err(|_| format!("cannot parse --{key} {raw:?}")),
        None => default.ok_or_else(|| format!("missing required flag --{key}")),
    }
}

fn report(trace: &Trace, scheme: &mut dyn Scheme) -> Result<(), String> {
    let runner = Runner::new(trace);
    let report = runner.run(scheme).map_err(|e| format!("invalid decision: {e}"))?;
    println!(
        "{:<24} serving {:>6.3}  distance {:>7.3} km  replication {:>7.3}  cdn-load {:>6.3}  time {:?}",
        report.scheme,
        report.total.hotspot_serving_ratio(),
        report.total.average_distance_km(),
        report.total.replication_cost(),
        report.total.cdn_server_load(),
        report.scheduling_time,
    );
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let dir: String = opt_parse(args, "out-dir", None)?;
    let mut config = preset(args.options.get("preset").map_or("small", |s| s))?;
    if args.options.contains_key("seed") {
        config = config.with_seed(opt_parse(args, "seed", None)?);
    }
    if args.options.contains_key("days") {
        config = config.with_days(opt_parse(args, "days", None)?);
    }
    let trace = config.try_generate().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let hotspots =
        std::fs::File::create(format!("{dir}/hotspots.csv")).map_err(|e| e.to_string())?;
    let requests =
        std::fs::File::create(format!("{dir}/requests.csv")).map_err(|e| e.to_string())?;
    trace.write_csv(hotspots, requests).map_err(|e| e.to_string())?;
    println!(
        "wrote {dir}/hotspots.csv ({} hotspots) and {dir}/requests.csv ({} requests)",
        trace.hotspots.len(),
        trace.requests.len()
    );
    println!(
        "metadata for `ccdn run`: --videos {} --slots {}",
        trace.video_count, trace.slot_count
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let hotspots_path: String = opt_parse(args, "hotspots", None)?;
    let requests_path: String = opt_parse(args, "requests", None)?;
    let videos: usize = opt_parse(args, "videos", None)?;
    let slots: u32 = opt_parse(args, "slots", None)?;
    let scheme_name = args.options.get("scheme").map_or("rbcaer", |s| s.as_str());

    let hotspots = std::fs::File::open(&hotspots_path).map_err(|e| e.to_string())?;
    let requests = std::fs::File::open(&requests_path).map_err(|e| e.to_string())?;
    let trace = Trace::read_csv(Rect::paper_eval_region(), videos, slots, hotspots, requests)
        .map_err(|e| e.to_string())?;
    println!(
        "trace: {} hotspots, {} requests, {} videos, {} slots",
        trace.hotspots.len(),
        trace.requests.len(),
        trace.video_count,
        trace.slot_count
    );
    let mut scheme = scheme_by_name(scheme_name)?;
    report(&trace, scheme.as_mut())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let mut config = preset(args.options.get("preset").map_or("small", |s| s))?;
    if args.options.contains_key("seed") {
        config = config.with_seed(opt_parse(args, "seed", None)?);
    }
    let trace = config.try_generate().map_err(|e| e.to_string())?;
    println!(
        "trace: {} hotspots, {} requests, {} videos, {} slots\n",
        trace.hotspots.len(),
        trace.requests.len(),
        trace.video_count,
        trace.slot_count
    );
    for name in ["rbcaer", "nearest", "random"] {
        let mut scheme = scheme_by_name(name)?;
        report(&trace, scheme.as_mut())?;
    }
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    match args.command.as_str() {
        "generate" => cmd_generate(&args),
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let args = parse_args(&argv(&["run", "--videos", "100", "--slots", "24"])).unwrap();
        assert_eq!(args.command, "run");
        assert_eq!(args.options["videos"], "100");
        assert_eq!(args.options["slots"], "24");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv(&["run", "videos", "100"])).is_err());
        assert!(parse_args(&argv(&["run", "--videos"])).is_err());
        assert!(parse_args(&argv(&["run", "--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn preset_and_scheme_lookup() {
        assert!(preset("eval").is_ok());
        assert!(preset("nope").is_err());
        for name in ["rbcaer", "rbcaer-balance-only", "nearest", "random", "lp"] {
            assert!(scheme_by_name(name).is_ok(), "{name}");
        }
        assert!(scheme_by_name("bogus").is_err());
    }

    #[test]
    fn opt_parse_defaults_and_errors() {
        let args = parse_args(&argv(&["run", "--videos", "100"])).unwrap();
        assert_eq!(opt_parse::<usize>(&args, "videos", None).unwrap(), 100);
        assert_eq!(opt_parse::<u32>(&args, "slots", Some(24)).unwrap(), 24);
        assert!(opt_parse::<u32>(&args, "slots", None).is_err());
        let bad = parse_args(&argv(&["run", "--videos", "abc"])).unwrap();
        assert!(opt_parse::<usize>(&bad, "videos", None).is_err());
    }

    #[test]
    fn generate_then_run_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ccdn-cli-test-{}", std::process::id()));
        let dir_str = dir.to_str().unwrap().to_string();
        run(&argv(&["generate", "--out-dir", &dir_str, "--preset", "small", "--seed", "5"]))
            .unwrap();
        let hotspots = format!("{dir_str}/hotspots.csv");
        let requests = format!("{dir_str}/requests.csv");
        run(&argv(&[
            "run",
            "--hotspots",
            &hotspots,
            "--requests",
            &requests,
            "--videos",
            "200",
            "--slots",
            "24",
            "--scheme",
            "nearest",
        ]))
        .unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compare_runs_on_small_preset() {
        run(&argv(&["compare", "--preset", "small", "--seed", "2"])).unwrap();
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&argv(&["frobnicate"])).is_err());
    }
}
