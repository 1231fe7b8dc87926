//! `compare A B`: two files of result lines (as `--out` appends them),
//! A the base and B the candidate. Per workload and end-to-end metric:
//! each side's median and quartiles over its runs, the bound, and a
//! verdict. Every ratio is printed with its base.

use crate::json::Json;
use crate::manifest::{Better, END_TO_END, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Untraced runs of a file: workload -> metric -> one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let j = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if j.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let metrics = j
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or(format!("{path}:{}: no result.metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("A (base) = {a_path}\nB        = {b_path}");
    println!(
        "{:<16} {:<13} {:>4} {:>31} {:>4} {:>31} {:>17} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "A q1 / median / q3",
        "nB",
        "B q1 / median / q3",
        "B/A median",
        "bound"
    );
    let mut regressed = 0;
    for w in &WORKLOADS {
        for (m, bound) in &END_TO_END {
            let va = a.get(w.name).and_then(|x| x.get(m.name));
            let vb = b.get(w.name).and_then(|x| x.get(m.name));
            let (Some(va), Some(vb)) = (va, vb) else {
                println!(
                    "{:<16} {:<13} missing on {}",
                    w.name,
                    m.name,
                    if va.is_none() { "A" } else { "B" }
                );
                continue;
            };
            let (a1, a2, a3) = stats::quartiles(va);
            let (b1, b2, b3) = stats::quartiles(vb);
            let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
            // positive = B worse than A, as a share of A's median
            let worse_by = match m.better {
                Better::Lower => (b2 - a2) / a2,
                Better::Higher => (a2 - b2) / a2,
            };
            let verdict = if spread > *bound {
                "unresolved (spread wider than bound)"
            } else if worse_by > *bound {
                regressed += 1;
                "REGRESSED"
            } else if -worse_by > (a3 - a1) / a2 && -worse_by > 0.0 {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{:<16} {:<13} {:>4} {:>9.3} /{:>9.3} /{:>9.3} {:>4} {:>9.3} /{:>9.3} /{:>9.3} {:>7.3}x of {:<6.5} {:>6}  {verdict}",
                w.name,
                m.name,
                va.len(),
                a1,
                a2,
                a3,
                vb.len(),
                b1,
                b2,
                b3,
                b2 / a2,
                format!("{a2:.4}"),
                bound,
            );
        }
    }
    if regressed > 0 {
        println!("{regressed} metric(s) regressed beyond their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
