//! `ccdn` — command-line driver for the crowdsourced-CDN reproduction.
//!
//! ```text
//! ccdn generate --out-dir DIR [--preset eval|measurement|small] [--seed N] [--days N]
//! ccdn run --hotspots FILE --requests FILE --videos N --slots N
//!          [--region X0,Y0,X1,Y1] [--scheme NAME]
//! ccdn compare [--preset eval|measurement|small] [--seed N]
//! ```
//!
//! `generate` writes a synthetic trace as `hotspots.csv` + `requests.csv`
//! and prints the metadata `run` needs to read it back;
//! `run` scores one scheme on a CSV trace (yours or a generated one);
//! `compare` runs the paper's scheme line-up on a preset and prints the
//! four evaluation metrics.

use crowdsourced_cdn::core::{LocalRandom, LpBased, Nearest, Rbcaer, RbcaerConfig};
use crowdsourced_cdn::geo::{Point, Rect, MAX_COORDINATE_KM};
use crowdsourced_cdn::sim::{Runner, Scheme};
use crowdsourced_cdn::trace::{Trace, TraceConfig};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  ccdn generate --out-dir DIR [--preset eval|measurement|small] [--seed N] [--days N]
  ccdn run --hotspots FILE --requests FILE --videos N --slots N
           [--region X0,Y0,X1,Y1] [--scheme NAME]
  ccdn compare [--preset eval|measurement|small] [--seed N]

--region is the deployment rectangle in km (default 0,0,17,11, the paper's);
`generate` prints the values `run` needs for its trace.
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
        "random" => Ok(Box::new(LocalRandom::new())),
        "lp" => Ok(Box::new(LpBased::new(120))),
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

/// Parses `--region X0,Y0,X1,Y1`: two opposite corners in km, each
/// coordinate finite and within [`MAX_COORDINATE_KM`].
fn parse_region(raw: &str) -> Result<Rect, String> {
    let bad = || format!("cannot parse --region {raw:?}: expected X0,Y0,X1,Y1 in km");
    let coords = raw
        .split(',')
        .map(|field| field.trim().parse::<f64>().map_err(|_| bad()))
        .collect::<Result<Vec<f64>, String>>()?;
    let [x0, y0, x1, y1] = coords[..] else {
        return Err(bad());
    };
    if coords.iter().any(|c| !c.is_finite() || c.abs() > MAX_COORDINATE_KM) {
        return Err(format!(
            "--region {raw:?}: coordinates must be finite and within ±{MAX_COORDINATE_KM:e} km"
        ));
    }
    Ok(Rect::new(Point::new(x0, y0), Point::new(x1, y1)))
}

/// The flags `ccdn run` needs to read `trace` back from its CSV files:
/// the metadata the CSV does not carry.
fn run_metadata(trace: &Trace) -> String {
    let (min, max) = (trace.region.min(), trace.region.max());
    format!(
        "--videos {} --slots {} --region {},{},{},{}",
        trace.video_count, trace.slot_count, min.x, min.y, max.x, max.y
    )
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

/// Generates `config`'s trace and writes it to `dir` as `hotspots.csv`
/// and `requests.csv`.
fn write_trace(config: &TraceConfig, dir: &str) -> Result<Trace, String> {
    let trace = config.try_generate().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let hotspots =
        std::fs::File::create(format!("{dir}/hotspots.csv")).map_err(|e| e.to_string())?;
    let requests =
        std::fs::File::create(format!("{dir}/requests.csv")).map_err(|e| e.to_string())?;
    trace.write_csv(hotspots, requests).map_err(|e| e.to_string())?;
    Ok(trace)
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
    let trace = write_trace(&config, &dir)?;
    println!(
        "wrote {dir}/hotspots.csv ({} hotspots) and {dir}/requests.csv ({} requests)",
        trace.hotspots.len(),
        trace.requests.len()
    );
    println!("metadata for `ccdn run`: {}", run_metadata(&trace));
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let hotspots_path: String = opt_parse(args, "hotspots", None)?;
    let requests_path: String = opt_parse(args, "requests", None)?;
    let videos: usize = opt_parse(args, "videos", None)?;
    let slots: u32 = opt_parse(args, "slots", None)?;
    let region = args
        .options
        .get("region")
        .map_or(Ok(Rect::paper_eval_region()), |raw| parse_region(raw))?;
    let scheme_name = args.options.get("scheme").map_or("rbcaer", |s| s.as_str());

    let hotspots = std::fs::File::open(&hotspots_path).map_err(|e| e.to_string())?;
    let requests = std::fs::File::open(&requests_path).map_err(|e| e.to_string())?;
    let trace =
        Trace::read_csv(region, videos, slots, hotspots, requests).map_err(|e| e.to_string())?;
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
    fn region_parses_corners_and_rejects_malformed_values() {
        let region = parse_region("0,0,40,40").unwrap();
        assert_eq!((region.min(), region.max()), (Point::new(0.0, 0.0), Point::new(40.0, 40.0)));
        let swapped = parse_region(" 17 , 11 ,0,0").unwrap();
        assert_eq!(swapped, Rect::paper_eval_region());
        for bad in
            ["", "0,0,17", "0,0,17,11,3", "0,0,x,11", "0,0,inf,11", "0,0,NaN,11", "0,0,1e300,1"]
        {
            assert!(parse_region(bad).is_err(), "{bad:?}");
        }
    }

    /// A `measurement` trace (40 km × 40 km) reads back only with the
    /// region `generate` prints: the default paper rectangle rejects its
    /// first point outside 17 km × 11 km with the line it is on.
    #[test]
    fn measurement_trace_roundtrips_with_its_printed_region() {
        let dir = std::env::temp_dir().join(format!("ccdn-cli-region-{}", std::process::id()));
        let dir_str = dir.to_str().unwrap().to_string();
        let trace = write_trace(&preset("measurement").unwrap(), &dir_str).unwrap();
        let metadata = run_metadata(&trace);
        assert!(metadata.ends_with("--region 0,0,40,40"), "{metadata}");
        let hotspots = format!("{dir_str}/hotspots.csv");
        let requests = format!("{dir_str}/requests.csv");
        let mut args =
            argv(&["run", "--hotspots", &hotspots, "--requests", &requests, "--scheme", "nearest"]);
        let without_region: Vec<String> = metadata.split(' ').take(4).map(str::to_string).collect();
        let err = run(&[args.clone(), without_region].concat()).unwrap_err();
        assert!(err.starts_with("hotspots.csv line "), "{err}");
        assert!(err.contains("outside the region"), "{err}");
        args.extend(metadata.split(' ').map(str::to_string));
        run(&args).unwrap();
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
