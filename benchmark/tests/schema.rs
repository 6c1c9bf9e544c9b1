//! The benchmark's output against what `BENCHMARK.json` declares, on the
//! `--quick` sizes: every workload x metric pair is printed exactly once,
//! nothing undeclared is printed, and the cluster simulation's phase rows
//! account for its per-iteration total.

use mmsb_benchmark::json::{self, Access};
use mmsb_benchmark::spec;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root")
}

fn declaration() -> json::Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &json::Value) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(json::Access::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(json::Access::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declaration_matches_the_code() {
    let doc = declaration();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(json::Access::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(json::Access::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, spec::WORKLOADS);

    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        names_and_units(doc.get("end_to_end").expect("end_to_end")),
        own(&spec::END_TO_END)
    );
    assert_eq!(
        names_and_units(doc.get("per_layer").expect("per_layer")),
        own(&spec::PER_LAYER)
    );

    let mut seen = std::collections::BTreeSet::new();
    for name in workloads.iter().copied().chain(
        spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER.iter())
            .map(|(n, _)| *n),
    ) {
        assert!(well_formed(name), "malformed name {name:?}");
        assert!(seen.insert(name), "name {name:?} is used twice");
    }
    assert!(
        spec::END_TO_END
            .iter()
            .any(|&(n, u)| n == "setup_s" && u == "s"),
        "the contract requires a setup_s metric in seconds"
    );
    for m in doc
        .get("end_to_end")
        .and_then(json::Access::as_arr)
        .expect("end_to_end")
    {
        let bound = m
            .get("bound")
            .and_then(json::Access::as_f64)
            .expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "bound {bound} outside (0, 0.25]"
        );
    }
}

/// One quick run; returns the metric lines and the final JSON object.
fn quick_run(workload: &str, trace: bool) -> (Vec<(String, String, f64, String)>, json::Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_mmsb-benchmark"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--quick",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = json::parse(lines.pop().expect("a result line")).expect("the last line is JSON");
    let metric_lines = lines
        .iter()
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(
                fields.len(),
                4,
                "not `workload metric value unit`: {line:?}"
            );
            (
                fields[0].to_string(),
                fields[1].to_string(),
                fields[2]
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("not a number in {line:?}")),
                fields[3].to_string(),
            )
        })
        .collect();
    (metric_lines, last)
}

#[test]
fn quick_set_prints_every_declared_pair_exactly_once() {
    let started = std::time::Instant::now();
    for workload in spec::WORKLOADS {
        for (trace, declared) in [(false, &spec::END_TO_END[..]), (true, &spec::PER_LAYER[..])] {
            let (lines, last) = quick_run(workload, trace);
            let mut printed: BTreeMap<String, (f64, String)> = BTreeMap::new();
            for (w, name, value, unit) in lines {
                assert_eq!(w, workload);
                assert!(well_formed(&name));
                assert!(
                    printed.insert(name.clone(), (value, unit)).is_none(),
                    "{workload}: {name} printed twice"
                );
            }
            let declared_names: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
            let printed_names: Vec<&str> = printed.keys().map(String::as_str).collect();
            let mut expected = declared_names.clone();
            expected.sort_unstable();
            assert_eq!(
                printed_names, expected,
                "{workload} (trace {trace}): printed names differ from the declared ones"
            );
            for &(name, unit) in declared {
                assert_eq!(printed[name].1, unit, "{workload}: unit of {name}");
                assert!(printed[name].0.is_finite());
            }

            // the JSON line carries the same metrics, in declaration order
            assert_eq!(
                last.get("correct").and_then(json::Access::as_bool),
                Some(true),
                "{workload} (trace {trace})"
            );
            assert_eq!(last.get("failed").and_then(json::Access::as_f64), Some(0.0));
            assert!(
                last.get("attempted")
                    .and_then(json::Access::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let keys: Vec<&str> = last
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = last
                .get("metrics")
                .and_then(json::Access::as_obj)
                .expect("metrics");
            let json_names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(json_names, declared_names);
            for (name, m) in metrics {
                assert_eq!(
                    m.get("value").and_then(json::Access::as_f64),
                    Some(printed[name].0)
                );
                assert_eq!(
                    m.get("unit").and_then(json::Access::as_str),
                    Some(printed[name].1.as_str())
                );
            }

            if !trace {
                for (name, (value, _)) in &printed {
                    assert!(
                        *value > 0.0,
                        "{workload}: end-to-end metric {name} must never be 0"
                    );
                }
                continue;
            }
            let value = |name: &str| printed[name].0;
            assert!(
                value("obs.top_level_coverage") >= 0.95,
                "{workload}: top-level spans cover too little"
            );
            let trace_file = repo_root().join(format!("benchmark/out/{workload}.trace.json"));
            let trace_doc = json::parse(&std::fs::read_to_string(&trace_file).expect("trace file"))
                .expect("trace parses");
            assert!(
                trace_doc
                    .get("traceEvents")
                    .and_then(json::Access::as_arr)
                    .expect("traceEvents")
                    .len()
                    > 10
            );

            // layers that do no work on a workload report exactly 0 there
            let cluster = workload == "train_cluster_sim";
            for (name, _) in printed.iter().filter(|(n, _)| {
                n.starts_with("dkv.") || n.starts_with("comm.") || n.starts_with("netsim.")
            }) {
                assert_eq!(value(name) > 0.0, cluster, "{workload}: {name}");
            }
            let ooc = workload == "train_ooc";
            for (name, _) in printed.iter().filter(|(n, _)| n.starts_with("ooc.")) {
                assert_eq!(value(name) > 0.0, ooc, "{workload}: {name}");
            }
            if cluster {
                // The modelled rows account for the modelled total. Stages
                // that overlap (the master's draw and deploy under the
                // workers' update_phi, and pi loads under the phi compute
                // of the previous chunk) make it less than the plain sum,
                // never less than the critical path.
                let serial = value("netsim.sample_neighbors_ms")
                    + value("netsim.update_pi_ms")
                    + value("netsim.update_beta_theta_ms")
                    + value("netsim.barrier_ms");
                let (load, phi) = (value("netsim.load_pi_ms"), value("netsim.update_phi_ms"));
                let master =
                    value("netsim.draw_minibatch_ms") + value("netsim.deploy_minibatch_ms");
                let total = value("netsim.virtual_ms_per_iter");
                let (lower, upper) = (serial + load.max(phi), serial + load + phi + master);
                assert!(
                    lower * 0.99 <= total && total <= upper * 1.01,
                    "netsim rows bound the total to [{lower}, {upper}], but it is {total}"
                );
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    eprintln!("quick set, traced and untraced: {elapsed:.1} s");
    // An unoptimised build is ten times slower; only the release build is
    // held to the quick set's budget (15 s on the reference host).
    if !cfg!(debug_assertions) {
        assert!(elapsed < 60.0, "the quick set took {elapsed:.0} s");
    }
}
