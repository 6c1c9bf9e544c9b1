//! `--selfcheck`: is the benchmark steady enough for its own bounds?
//!
//! Two sets of untraced runs of the same code. A set runs every workload
//! once per seed (ten seeds, as the driver does), each in a fresh process;
//! the second set walks the workloads in the opposite order. Per workload
//! and end-to-end metric it prints each set's median and quartiles and the
//! spread (quartile distance over median). It fails when a spread exceeds
//! the metric's bound in `BENCHMARK.json` or when the second set's median is
//! worse than the first's by more than the bound. The observed spreads are
//! written to `out/selfcheck.json`.

use crate::json::{self, Access};
use crate::{spec, stats};
use std::collections::BTreeMap;

struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared_metrics() -> Result<Vec<Declared>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(json::Access::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// One untraced run in a fresh process; returns its end-to-end metrics, or
/// `None` when the run failed or reported an incorrect result.
fn child_run(
    workload: &str,
    seed: usize,
    seconds: f64,
    quick: bool,
) -> Result<Option<BTreeMap<String, f64>>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        "0",
    ]);
    if quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(doc) = stdout.lines().last().and_then(|l| json::parse(l).ok()) else {
        return Ok(None);
    };
    if !output.status.success() || doc.get("correct").and_then(json::Access::as_bool) != Some(true)
    {
        return Ok(None);
    }
    let metrics = doc
        .get("metrics")
        .and_then(json::Access::as_obj)
        .ok_or("result line without metrics")?;
    Ok(Some(
        metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    ))
}

/// Seeds per set, as in the driver's acceptance procedure.
const RUNS_PER_SET: usize = 10;

pub fn run(seconds: f64, quick: bool) -> Result<bool, String> {
    let declared = declared_metrics()?;
    // values[set][workload][metric] = one value per seed
    let mut values: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] =
        [BTreeMap::new(), BTreeMap::new()];
    let mut all_correct = true;
    for (set, set_values) in values.iter_mut().enumerate() {
        let mut order = spec::WORKLOADS.to_vec();
        if set == 1 {
            order.reverse();
        }
        for seed in 1..=RUNS_PER_SET {
            for workload in &order {
                eprintln!("# selfcheck: set {} seed {seed} {workload}", set + 1);
                match child_run(workload, seed, seconds, quick)? {
                    Some(metrics) => {
                        let per_workload = set_values.entry(workload).or_default();
                        for (name, value) in metrics {
                            per_workload.entry(name).or_default().push(value);
                        }
                    }
                    None => {
                        eprintln!("# selfcheck: {workload} seed {seed} failed");
                        all_correct = false;
                    }
                }
            }
        }
    }

    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>12} {:>8} | {:>12} {:>8} | {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median_1",
        "q1_1",
        "q3_1",
        "spread_1",
        "median_2",
        "spread_2",
        "worse_by",
        "bound"
    );
    let mut steady = true;
    let mut records = Vec::new();
    for workload in spec::WORKLOADS {
        for d in &declared {
            let sets: Vec<&Vec<f64>> = values
                .iter()
                .filter_map(|set| set.get(workload)?.get(&d.name))
                .collect();
            if sets.len() != 2 || sets.iter().any(|v| v.len() < 2) {
                println!("{workload:<18} {:<18} too few successful runs", d.name);
                steady = false;
                continue;
            }
            let (first, second) = (sets[0], sets[1]);
            let (m1, m2) = (stats::median(first), stats::median(second));
            let (q1, q3) = stats::quartiles(first);
            let (s1, s2) = (stats::spread(first), stats::spread(second));
            let worse_by = if d.higher_is_better {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            let ok = s1 <= d.bound && s2 <= d.bound && worse_by <= d.bound;
            steady &= ok;
            println!(
                "{workload:<18} {:<18} {m1:>12.5} {q1:>12.5} {q3:>12.5} {s1:>8.4} | {m2:>12.5} {s2:>8.4} | {worse_by:>8.4} {:>6.3}  {}",
                d.name,
                d.bound,
                if ok { "ok" } else { "UNSTEADY" }
            );
            records.push(format!(
                "{{\"workload\":{},\"metric\":{},\"bound\":{},\"median_1\":{},\"spread_1\":{},\"median_2\":{},\"spread_2\":{},\"second_worse_by\":{}}}",
                json::quote(workload),
                json::quote(&d.name),
                json::number(d.bound),
                json::number(m1),
                json::number(s1),
                json::number(m2),
                json::number(s2),
                json::number(worse_by)
            ));
        }
    }
    let document = format!(
        "{{\"runs_per_set\":{RUNS_PER_SET},\"seconds\":{},\"quick\":{quick},\"observed\":[\n{}\n]}}\n",
        json::number(seconds),
        records.join(",\n")
    );
    let path = std::path::Path::new(crate::OUT_DIR).join("selfcheck.json");
    std::fs::write(&path, document).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "selfcheck: {}",
        if steady && all_correct {
            "steady"
        } else {
            "NOT steady"
        }
    );
    Ok(steady && all_correct)
}
