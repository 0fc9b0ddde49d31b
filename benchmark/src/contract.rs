//! The metrics the benchmark prints, as the repository's `BENCHMARK.json`
//! declares them: names, units, directions and, for end-to-end metrics,
//! regression bounds.

use scibench_trace::{parse_json, JsonValue};

use crate::harness::repo_root;
use crate::workloads;

/// End-to-end metrics: (name, unit). Measured with tracing off; each is a
/// field of every run's result, so `BENCHMARK.json` must declare exactly
/// these. Per-layer metrics are whatever `BENCHMARK.json` declares: a
/// traced run refuses a layer value it does not declare.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("setup_s", "s"),
    ("result_bytes", "B"),
];

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Spec {
    pub fn lower_is_better(&self) -> bool {
        self.better == "lower"
    }
}

/// The parts of `BENCHMARK.json` the program uses.
#[derive(Debug, Clone)]
pub struct Contract {
    pub end_to_end: Vec<Spec>,
    pub per_layer: Vec<Spec>,
}

/// Reads `BENCHMARK.json` at the repository root and checks it declares
/// exactly the workloads and metrics this program produces.
pub fn load() -> Result<Contract, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse(&text)
}

fn parse(text: &str) -> Result<Contract, String> {
    let doc = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads: Vec<&str> = array(&doc, "workloads")?
        .iter()
        .map(|w| str_field(w, "name"))
        .collect::<Result<_, _>>()?;
    if workloads != workloads::NAMES {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} differ from {:?}",
            workloads::NAMES
        ));
    }
    let contract = Contract {
        end_to_end: specs(&doc, "end_to_end")?,
        per_layer: specs(&doc, "per_layer")?,
    };
    let mut declared: Vec<(&str, &str)> = contract
        .end_to_end
        .iter()
        .map(|s| (s.name.as_str(), s.unit.as_str()))
        .collect();
    let mut expected = END_TO_END.to_vec();
    declared.sort_unstable();
    expected.sort_unstable();
    if declared != expected {
        return Err(format!(
            "BENCHMARK.json end_to_end (name, unit) pairs differ from what the benchmark \
             produces: declared {declared:?}, produced {expected:?}"
        ));
    }
    if contract.end_to_end.iter().any(|s| s.bound.is_none()) {
        return Err("BENCHMARK.json: every end_to_end metric needs a bound".into());
    }
    Ok(contract)
}

fn specs(doc: &JsonValue, key: &str) -> Result<Vec<Spec>, String> {
    let specs: Vec<Spec> = array(doc, key)?
        .iter()
        .map(|m| {
            Ok(Spec {
                name: str_field(m, "name")?.to_owned(),
                unit: str_field(m, "unit")?.to_owned(),
                better: str_field(m, "better")?.to_owned(),
                bound: m.get("bound").and_then(JsonValue::as_f64),
            })
        })
        .collect::<Result<_, String>>()?;
    if let Some(s) = specs
        .iter()
        .find(|s| s.better != "lower" && s.better != "higher")
    {
        return Err(format!(
            "BENCHMARK.json: {} has better = {:?}",
            s.name, s.better
        ));
    }
    Ok(specs)
}

fn array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_matches_the_program() {
        let contract = load().expect("BENCHMARK.json loads");
        assert_eq!(contract.end_to_end.len(), END_TO_END.len());
        // Set-up lasts microseconds and is the noisiest timing, so it gets
        // the widest relative bound (`compare` adds an absolute floor).
        let setup = contract
            .end_to_end
            .iter()
            .find(|s| s.name == "setup_s")
            .expect("setup_s is declared");
        let largest = contract
            .end_to_end
            .iter()
            .filter_map(|s| s.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn a_metric_the_program_does_not_produce_is_refused() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let renamed = text.replacen("\"wall_s\"", "\"wall_time_s\"", 1);
        assert!(parse(&renamed).unwrap_err().contains("end_to_end"));
    }
}
