//! The benchmark's contract, read from `BENCHMARK.json` at the repository
//! root: workload names, run length, and every metric with its unit,
//! direction and regression bound. The file is compiled in, so the binary
//! always reports and judges exactly what the checked-in contract names.

use std::sync::OnceLock;

use primepar::obs::{parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median a metric may worsen by before a change
    /// counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The compiled-in contract.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse_spec(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("`{key}` must be an array"))?;
    items
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{key} entry lacks string `{field}`"))
            };
            let better = text("better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("{key}: better must be lower|higher, got {better}"));
            }
            Ok(MetricSpec {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = parse_json(text).map_err(|e| e.to_string())?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("`workloads` must be an array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "workload lacks a name".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("`run_seconds` must be a whole number")?,
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_contract_names_the_implemented_workloads() {
        let spec = spec();
        let contract: Vec<&str> = crate::WORKLOADS
            .into_iter()
            .filter(|&w| w != "serve-zipf")
            .collect();
        assert_eq!(spec.workloads, contract);
        assert!((1..=60).contains(&spec.run_seconds));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= setup.bound.unwrap(), "{}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is listed twice");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn malformed_contracts_are_rejected() {
        assert!(parse_spec("{}").is_err());
        let bad_direction = r#"{"run_seconds": 5, "workloads": [{"name": "a"}],
            "end_to_end": [{"name": "x", "unit": "s", "better": "up", "bound": 0.1}],
            "per_layer": []}"#;
        assert!(parse_spec(bad_direction).unwrap_err().contains("better"));
    }
}
