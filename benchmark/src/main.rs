//! The repository benchmark: times the RBCAer planner and the online
//! predict → place → route loop on four fixed-seed workloads, end to end
//! (probes off) and per layer (a separate traced run). See `README.md`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds T --trace 0|1 [--out RUNS.jsonl] [--spans SPANS.jsonl]
//! benchmark [--seed N] [--seconds T] [--trace 0|1] [--out RUNS.jsonl]   every workload, one child each
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! A single-workload run prints `workload metric value unit` lines and,
//! last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. It exits 0 only when every output check passed.

mod compare;
mod measure;
mod spans;
mod spec;
mod stats;
mod timed;
mod workloads;

use measure::Outcome;
use spec::Spec;
use std::process::Command;
use workloads::{Scale, Workload};

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 2017,
        seconds: 20.0,
        trace: false,
        out: None,
        spans: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                parsed.seconds = s;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--out" => parsed.out = Some(value()?),
            "--spans" => parsed.spans = Some(value()?),
            "--compare" => parsed.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.spans.is_some() && (parsed.workload.is_none() || !parsed.trace) {
        return Err("--spans needs --workload and --trace 1".to_owned());
    }
    Ok(parsed)
}

/// The result line: one JSON object whose metrics are exactly the declared
/// ones, in declaration order.
fn render(spec: &Spec, traced: bool, outcome: &Outcome) -> Result<String, String> {
    let declared = spec.emitted(traced);
    let emitted: Vec<&str> = outcome.metrics.keys().copied().collect();
    let mut names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    if names != emitted {
        return Err(format!("emitted metrics {emitted:?} differ from declared {names:?}"));
    }
    let metrics: Vec<String> = declared
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                ccdn_obs::json_string(&m.name),
                outcome.metrics[m.name.as_str()],
                ccdn_obs::json_string(&m.unit)
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    ))
}

fn append(path: &str, text: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    file.write_all(text.as_bytes()).map_err(|e| format!("{path}: {e}"))
}

fn run_workload(spec: &Spec, w: Workload, args: &Args) -> Result<i32, String> {
    ccdn_par::set_threads(1);
    // End-to-end numbers are measured with the library's probes off, even
    // when CCDN_OBS is set; traced passes switch them on themselves.
    ccdn_obs::set_enabled(false);
    let mut outcome = if args.trace {
        measure::traced(w, args.seed, args.seconds, Scale::Full)
    } else {
        measure::untraced(w, args.seed, args.seconds, Scale::Full)
    };
    if let Some((name, _)) = outcome.metrics.iter().find(|(_, v)| !v.is_finite()) {
        outcome.problems.push(format!("metric {name} is not finite"));
        outcome.metrics.values_mut().for_each(|v| *v = if v.is_finite() { *v } else { 0.0 });
    }
    let line = render(spec, args.trace, &outcome)?;
    for problem in &outcome.problems {
        eprintln!("benchmark: {problem}");
    }
    for m in spec.emitted(args.trace) {
        println!("{} {} {} {}", w.name(), m.name, outcome.metrics[m.name.as_str()], m.unit);
    }
    if let Some(path) = &args.out {
        let record = format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"result\":{line}}}\n",
            ccdn_obs::json_string(w.name()),
            args.seed,
            u8::from(args.trace)
        );
        append(path, &record)?;
    }
    if let Some(path) = &args.spans {
        append(path, &outcome.spans)?;
    }
    println!("{line}");
    Ok(if outcome.correct() { 0 } else { 1 })
}

/// Runs every workload in a child process of its own, so peak memory and
/// allocator state are per workload.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut code = 0;
    for w in Workload::ALL {
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name()]);
        child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            child.args(["--out", out]);
        }
        let status = child.status().map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        if !status.success() {
            eprintln!("benchmark: workload {} failed ({status})", w.name());
            code = 1;
        }
    }
    Ok(code)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Spec::load().and_then(|spec| {
        let args = parse_args(&argv)?;
        match (&args.compare, args.workload) {
            (Some((a, b)), _) => compare::run(&spec, a, b),
            (None, Some(w)) => run_workload(&spec, w, &args),
            (None, None) => run_all(&args),
        }
    });
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_single_workload_command_line() {
        let a = args("--workload online-week --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::OnlineWeek));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert_eq!(args("").unwrap().seed, 2017);
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--spans s.jsonl").is_err());
        assert_eq!(args("--compare a b").unwrap().compare, Some(("a".into(), "b".into())));
    }

    #[test]
    fn workload_names_match_the_declaration() {
        let spec = Spec::load().unwrap();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
    }

    /// Every workload at a tiny scale, untraced and traced: the emitted
    /// metric names and units are exactly the declared ones, every value is
    /// finite, and every work self-check passes.
    #[test]
    fn every_workload_emits_the_declared_metrics_at_tiny_scale() {
        let spec = Spec::load().unwrap();
        ccdn_par::set_threads(1);
        for w in Workload::ALL {
            for traced in [false, true] {
                let outcome = if traced {
                    measure::traced(w, 11, 0.0, Scale::Tiny)
                } else {
                    measure::untraced(w, 11, 0.0, Scale::Tiny)
                };
                assert!(outcome.correct(), "{} traced={traced}: {:?}", w.name(), outcome.problems);
                let line = render(&spec, traced, &outcome).unwrap();
                let parsed = ccdn_obs::json::parse(&line).unwrap();
                let metrics = parsed.get("metrics").and_then(|m| m.as_object()).unwrap();
                let declared = spec.emitted(traced);
                assert_eq!(metrics.len(), declared.len());
                for m in declared {
                    let got = &metrics[&m.name];
                    assert_eq!(got.get("unit").and_then(|u| u.as_str()), Some(m.unit.as_str()));
                    assert!(
                        matches!(got.get("value"), Some(ccdn_obs::json::Value::Number(x)) if x.is_finite())
                    );
                }
            }
        }
    }

    #[test]
    fn render_rejects_an_undeclared_metric_set() {
        let spec = Spec::load().unwrap();
        let outcome = Outcome { metrics: [("setup_s", 1.0)].into(), ..Outcome::default() };
        assert!(render(&spec, false, &outcome).is_err());
    }
}
