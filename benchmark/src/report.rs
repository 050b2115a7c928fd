//! The result of a run — printed, saved, read back — and `compare`.

use crate::stats::{quantile, sorted, spread, Summary};
use symspmv_verify::jsonio::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample statistics behind a timing; `None` for counts and ratios.
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn plain(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
        }
    }

    pub fn timing(name: &'static str, summary: Summary) -> Metric {
        Metric {
            name,
            unit: "s",
            value: summary.value,
            summary: Some(summary),
        }
    }

    /// `name value unit`, and for a timing the median, the highest
    /// percentile with ten samples beyond it, and the sample count.
    fn line(&self) -> String {
        let head = format!("{:<28} {:>14.6e} {:<5}", self.name, self.value, self.unit);
        match &self.summary {
            None => head,
            Some(s) => {
                let tail = s
                    .tail
                    .map_or("-".to_string(), |(pct, v)| format!("p{pct} {v:.4e}"));
                format!("{head} median {:.4e}  {tail}  n {}", s.median, s.n)
            }
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The human-readable table: every metric by name, with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} {} — ops_attempted {} ops_failed {}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            out.push_str(&m.line());
            out.push('\n');
        }
        out
    }

    /// The object the driver reads from the last line of standard output:
    /// exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// One line of a results file: the contract object plus the run's
    /// identity.
    pub fn record_json(&self) -> Json {
        let Json::Obj(mut fields) = self.contract_json() else {
            unreachable!("contract_json builds an object");
        };
        fields.insert(0, ("workload".into(), Json::Str(self.workload.clone())));
        fields.insert(1, ("seed".into(), Json::Num(self.seed as f64)));
        fields.insert(2, ("traced".into(), Json::Bool(self.traced)));
        Json::Obj(fields)
    }
}

/// A run as `compare` sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub traced: bool,
    pub failed: u64,
    /// `(name, value)` in file order.
    pub values: Vec<(String, f64)>,
}

fn num(json: &Json, key: &str) -> Result<f64, String> {
    match json.get(key) {
        Some(Json::Num(x)) => Ok(*x),
        _ => Err(format!("missing number `{key}`")),
    }
}

fn text<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    match json.get(key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(format!("missing string `{key}`")),
    }
}

fn items<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match json.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("missing array `{key}`")),
    }
}

/// Parses a results file: one [`RunResult::record_json`] object per line.
pub fn parse_records(text_in: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, line) in text_in
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let json = Json::parse(line).map_err(at)?;
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(at("missing object `metrics`".into()));
        };
        let values = metrics
            .iter()
            .map(|(name, m)| Ok((name.clone(), num(m, "value")?)))
            .collect::<Result<_, String>>()
            .map_err(at)?;
        records.push(Record {
            workload: text(&json, "workload").map_err(at)?.to_string(),
            traced: json.get("traced") == Some(&Json::Bool(true)),
            failed: num(&json, "failed").map_err(at)? as u64,
            values,
        });
    }
    Ok(records)
}

/// What `compare` needs of one `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The names `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Gate>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

pub fn parse_spec(text_in: &str) -> Result<Spec, String> {
    let json = Json::parse(text_in)?;
    let names = |key| -> Result<Vec<String>, String> {
        items(&json, key)?
            .iter()
            .map(|w| text(w, "name").map(str::to_string))
            .collect()
    };
    let end_to_end = items(&json, "end_to_end")?
        .iter()
        .map(|m| {
            Ok(Gate {
                name: text(m, "name")?.to_string(),
                unit: text(m, "unit")?.to_string(),
                lower_is_better: text(m, "better")? == "lower",
                bound: num(m, "bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let per_layer = items(&json, "per_layer")?
        .iter()
        .map(|m| Ok((text(m, "name")?.to_string(), text(m, "unit")?.to_string())))
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        run_seconds: num(&json, "run_seconds")?,
        workloads: names("workloads")?,
        end_to_end,
        per_layer,
    })
}

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound, and the spread
    /// does not explain it.
    Regression,
    /// The run-to-run spread is wider than the bound, and the runs of the
    /// two sides overlap: the data cannot tell.
    Unresolved,
    /// Every run of B reads better than every run of A, and B's median by
    /// more than the bound. A label only: claiming a gain takes the paired
    /// runs README.md describes.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is, as a share of A's (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' spreads; `None` with one run a side.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges B's runs of one metric on one workload against A's.
fn judge(workload: &str, gate: &Gate, a: &[f64], b: &[f64]) -> Row {
    let med = |v: &[f64]| quantile(&sorted(v), 0.5);
    let (ma, mb) = (med(a), med(b));
    let sign = if gate.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma;
    let spread = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    // Whether every run of `x` reads better than every run of `y`.
    let all_better =
        |x: &[f64], y: &[f64]| x.iter().all(|x| y.iter().all(|y| sign * (x - y) < 0.0));
    let noisy = spread.is_some_and(|s| s > gate.bound);
    let verdict = if noisy && !all_better(b, a) && !all_better(a, b) {
        Verdict::Unresolved
    } else if worse_by > gate.bound {
        Verdict::Regression
    } else if all_better(b, a) && -worse_by > gate.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        workload: workload.to_string(),
        metric: gate.name.clone(),
        unit: gate.unit.clone(),
        a: ma,
        b: mb,
        worse_by,
        spread,
        bound: gate.bound,
        verdict,
    }
}

/// Compares the untraced runs of two result sets, one row per end-to-end
/// metric per workload, in `spec` order. A workload or metric missing from
/// either side is an error: a comparison that silently drops rows is worse
/// than none.
pub fn compare(spec: &Spec, a: &[Record], b: &[Record]) -> Result<Vec<Row>, String> {
    let values = |set: &[Record], side: &str, workload: &str, metric: &str| {
        let v: Vec<f64> = set
            .iter()
            .filter(|r| !r.traced && r.workload == workload)
            .filter_map(|r| r.values.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
            .collect();
        if v.is_empty() {
            Err(format!(
                "{side}: no untraced `{metric}` for workload `{workload}`"
            ))
        } else {
            Ok(v)
        }
    };
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for gate in &spec.end_to_end {
            let va = values(a, "A", workload, &gate.name)?;
            let vb = values(b, "B", workload, &gate.name)?;
            rows.push(judge(workload, gate, &va, &vb));
        }
    }
    Ok(rows)
}

pub fn rows_table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<14} {:>12} {:>12} {:<4} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "unit", "worse by", "spread", "bound"
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("n=1".to_string(), |s| format!("{:.1}%", 100.0 * s));
        out.push_str(&format!(
            "{:<12} {:<14} {:>12.5e} {:>12.5e} {:<4} {:>8.1}% {:>8} {:>5.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            100.0 * r.worse_by,
            spread,
            100.0 * r.bound,
            match r.verdict {
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
                Verdict::Improved => "improved",
                Verdict::Unchanged => "unchanged",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(lower_is_better: bool) -> Gate {
        Gate {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    fn verdict(a: &[f64], b: &[f64], lower_is_better: bool) -> Verdict {
        judge("w", &gate(lower_is_better), a, b).verdict
    }

    #[test]
    fn result_round_trips_through_the_compare_reader() {
        let run = RunResult {
            workload: "small-cg".into(),
            seed: 7,
            traced: false,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::plain("tts_s", "s", 0.012345678901234),
                Metric::plain("bytes_per_nnz", "B", 6.756),
            ],
        };
        let line = run.record_json().write().unwrap();
        let back = parse_records(&format!("{line}\n\n")).unwrap();
        assert_eq!(
            back,
            vec![Record {
                workload: "small-cg".into(),
                traced: false,
                failed: 0,
                values: vec![
                    ("tts_s".into(), 0.012345678901234),
                    ("bytes_per_nnz".into(), 6.756)
                ],
            }]
        );
        // The driver's line carries exactly the four contract keys.
        let Json::Obj(fields) = run.contract_json() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(parse_records("{\"workload\": 3}").is_err());
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // Tight runs, 5 % worse: inside the 10 % bound.
        assert_eq!(
            verdict(&[1.0, 1.01, 0.99], &[1.05, 1.06, 1.04], true),
            Verdict::Unchanged
        );
        // Tight runs, 20 % worse: regression; for a higher-is-better
        // metric the same numbers are an improvement.
        assert_eq!(
            verdict(&[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19], true),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19], false),
            Verdict::Improved
        );
        // Spread wider than the bound with overlapping runs: cannot tell,
        // whichever way the medians fall.
        assert_eq!(
            verdict(&[1.0, 1.3, 0.9], &[1.25, 0.95, 1.4], true),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[1.0, 1.3, 0.9], &[0.95, 1.2, 0.85], true),
            Verdict::Unresolved
        );
        // Wide spread, but every B run worse than every A run: regression.
        assert_eq!(
            verdict(&[1.0, 1.3, 0.9], &[1.5, 1.9, 1.6], true),
            Verdict::Regression
        );
        // Wide spread, every B run better than every A run: improved.
        assert_eq!(
            verdict(&[1.0, 1.3, 0.9], &[0.5, 0.6, 0.7], true),
            Verdict::Improved
        );
        // One run a side: the spread is unknown, the bound alone decides.
        assert_eq!(verdict(&[1.0], &[1.2], true), Verdict::Regression);
        assert_eq!(verdict(&[1.0], &[1.05], true), Verdict::Unchanged);
    }

    #[test]
    fn compare_demands_every_row() {
        let spec = Spec {
            run_seconds: 1.0,
            workloads: vec!["w".into()],
            end_to_end: vec![gate(true)],
            per_layer: vec![],
        };
        let rec = |traced, value| Record {
            workload: "w".into(),
            traced,
            failed: 0,
            values: vec![("m".into(), value)],
        };
        let rows = compare(
            &spec,
            &[rec(false, 1.0)],
            &[rec(false, 1.3), rec(true, 9.0)],
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].b, rows[0].spread, rows[0].verdict),
            (1.3, None, Verdict::Regression)
        );
        // Traced runs never stand in for untraced ones.
        assert!(compare(&spec, &[rec(false, 1.0)], &[rec(true, 1.0)]).is_err());
    }
}
