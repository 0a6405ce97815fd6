//! Runs every workload at smoke scale, untraced and traced, and checks
//! that what the binary prints is exactly what `BENCHMARK.json` declares.

use std::process::Command;

/// The quoted strings that follow `"key":` inside `text`, in order.
fn strings_after(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let open = rest.find('"').expect("a quoted value");
        let close = open + 1 + rest[open + 1..].find('"').expect("a closing quote");
        out.push(rest[open + 1..close].to_string());
        rest = &rest[close + 1..];
    }
    out
}

/// The text of the JSON array stored under the top-level `key`.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').expect("an array");
    let close = open + json[open..].find(']').expect("a closing bracket");
    &json[open..=close]
}

/// `(name, unit)` of every metric on the result line, in printed order.
fn printed_metrics(line: &str) -> Vec<(String, String)> {
    let body = &line[line.find("\"metrics\":").expect("a metrics object")..];
    let units = strings_after(body, "unit");
    let names: Vec<String> = body
        .match_indices("\": {\"value\"")
        .map(|(at, _)| {
            let open = body[..at].rfind('"').expect("an opening quote");
            body[open + 1..at].to_string()
        })
        .collect();
    assert_eq!(names.len(), units.len(), "every metric has a unit");
    names.into_iter().zip(units).collect()
}

fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let section = array(json, key);
    let (names, units) = (
        strings_after(section, "name"),
        strings_after(section, "unit"),
    );
    assert_eq!(
        names.len(),
        units.len(),
        "every {key} metric declares a unit"
    );
    names.into_iter().zip(units).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let workloads = strings_after(array(&json, "workloads"), "name");
    assert_eq!(workloads.len(), 4);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(&json, key);
        assert!(want.iter().all(|(n, u)| well_formed(n) && !u.is_empty()));
        for workload in &workloads {
            assert!(well_formed(workload));
            let out = Command::new(env!("CARGO_BIN_EXE_rsjoin-benchmark"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}"
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{last}");
            let mut got = printed_metrics(last);
            let mut want = want.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_rsjoin-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
