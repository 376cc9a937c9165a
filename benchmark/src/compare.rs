//! `--compare A B`: checks that two sets of recorded runs agree.
//!
//! Each set is a file of run records as `--out` appends them. For every
//! (workload, metric) pair the report prints both sets' median and
//! quartiles, and flags a pair whose B median is worse than A's by more
//! than the metric's declared bound, or an exact metric (a work count or a
//! plan-quality value) that differs between runs of the same seed.

use crate::spec::Spec;
use crate::stats::Summary;
use ccdn_obs::json::{self, Value};
use std::collections::BTreeMap;

/// One recorded run: its workload, seed and metric values.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    workload: String,
    seed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn parse_record(line: &str) -> Result<Record, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let field = |key: &str| v.get(key).ok_or_else(|| format!("record without `{key}`"));
    let result = field("result")?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("record without metrics")?
        .iter()
        .map(|(name, m)| match m.get("value") {
            Some(Value::Number(x)) => Ok((name.clone(), *x)),
            _ => Err(format!("metric `{name}` without a numeric value")),
        })
        .collect::<Result<_, String>>()?;
    Ok(Record {
        workload: field("workload")?.as_str().ok_or("non-string workload")?.to_owned(),
        seed: field("seed")?.as_u64().ok_or("non-integer seed")?,
        correct: matches!(result.get("correct"), Some(Value::Bool(true))),
        metrics,
    })
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| parse_record(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

fn show(s: Option<Summary>) -> String {
    match s {
        Some(s) => format!("{:.6} [{:.6} {:.6}] n={}", s.median, s.q1, s.q3, s.count),
        None => "-".to_owned(),
    }
}

/// Prints the comparison; returns how many pairs it flagged.
fn report(spec: &Spec, a: &[Record], b: &[Record]) -> usize {
    let mut flagged = 0;
    for r in a.iter().chain(b).filter(|r| !r.correct) {
        println!("FLAG {} seed {}: run reported incorrect outputs", r.workload, r.seed);
        flagged += 1;
    }
    let metrics: Vec<_> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
    for (w, m) in spec.workloads.iter().flat_map(|w| metrics.iter().map(move |&m| (w, m))) {
        let values = |set: &[Record]| -> Vec<(u64, f64)> {
            set.iter()
                .filter(|r| &r.workload == w)
                .filter_map(|r| r.metrics.get(&m.name).map(|&x| (r.seed, x)))
                .collect()
        };
        let (va, vb) = (values(a), values(b));
        if va.is_empty() && vb.is_empty() {
            continue;
        }
        let summary =
            |v: &[(u64, f64)]| Summary::of(&v.iter().map(|&(_, x)| x).collect::<Vec<_>>());
        let (sa, sb) = (summary(&va), summary(&vb));
        let mut flags = Vec::new();
        if let (Some(bound), Some(sa), Some(sb)) = (m.bound, sa, sb) {
            let worse = m.regression(sa.median, sb.median);
            if worse > bound {
                flags.push(format!("worse by {:.1}% > bound {:.1}%", worse * 100.0, bound * 100.0));
            }
        }
        if m.is_exact() {
            let mut by_seed: BTreeMap<u64, f64> = BTreeMap::new();
            let differs =
                va.iter().chain(&vb).any(|&(seed, x)| *by_seed.entry(seed).or_insert(x) != x);
            if differs {
                flags.push("not identical across runs of one seed".to_owned());
            }
        }
        let verdict =
            if flags.is_empty() { "ok".to_owned() } else { format!("FLAG {}", flags.join("; ")) };
        println!("{w} {} {}  A {}  B {}  {verdict}", m.name, m.unit, show(sa), show(sb));
        flagged += usize::from(!flags.is_empty());
    }
    flagged
}

/// Runs `--compare`; the exit code is 1 when anything was flagged.
pub fn run(spec: &Spec, a: &str, b: &str) -> Result<i32, String> {
    let flagged = report(spec, &load(a)?, &load(b)?);
    println!("{flagged} pair(s) flagged");
    Ok(i32::from(flagged > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> Record {
        Record {
            workload: workload.to_owned(),
            seed,
            correct: true,
            metrics: metrics.iter().map(|&(n, x)| (n.to_owned(), x)).collect(),
        }
    }

    #[test]
    fn records_round_trip_from_the_out_format() {
        let line = r#"{"workload":"paper-day","seed":7,"trace":0,"result":{"correct":true,"attempted":8,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}}"#;
        assert_eq!(parse_record(line).unwrap(), record("paper-day", 7, &[("setup_s", 1.5)]));
        assert!(parse_record(r#"{"workload":"x","seed":1}"#).is_err());
    }

    #[test]
    fn flags_regressions_beyond_the_bound_and_inexact_counts() {
        let spec = Spec::load().unwrap();
        let bound = spec.metric("plan_p50_ms").unwrap().bound.unwrap();
        let a: Vec<Record> =
            (0..3).map(|_| record("paper-day", 1, &[("plan_p50_ms", 10.0)])).collect();
        let within: Vec<Record> = (0..3)
            .map(|_| record("paper-day", 1, &[("plan_p50_ms", 10.0 * (1.0 + bound / 2.0))]))
            .collect();
        assert_eq!(report(&spec, &a, &within), 0);
        let beyond: Vec<Record> = (0..3)
            .map(|_| record("paper-day", 1, &[("plan_p50_ms", 10.0 * (1.0 + bound * 2.0))]))
            .collect();
        assert_eq!(report(&spec, &a, &beyond), 1);

        let counts = |x: f64| vec![record("metro-sharded", 3, &[("flow.mcmf.solves", x)])];
        assert_eq!(report(&spec, &counts(5.0), &counts(5.0)), 0);
        assert_eq!(report(&spec, &counts(5.0), &counts(6.0)), 1);
        // Different seeds may differ.
        let other_seed = vec![record("metro-sharded", 4, &[("flow.mcmf.solves", 6.0)])];
        assert_eq!(report(&spec, &counts(5.0), &other_seed), 0);
    }
}
