//! Report serialization: a minimal JSON value tree (the workspace has no
//! serde; see `vendor/README.md`) plus JSON/CSV renderers for batch
//! results. The bench binaries reuse [`Json`] for their own `--json`
//! output so every emitted artefact shares one serializer.
//!
//! Wall-clock fields are only emitted when `include_timing` is set; with it
//! off, the serialized batch is a pure function of the job specs and is
//! byte-identical across worker counts — the property the determinism
//! tests pin down.

use std::fmt::Write as _;

use crate::backend::SolutionReport;
use crate::pool::BatchReport;
use crate::runner::JobReport;

/// A JSON value. Object keys keep their insertion order, so rendering is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A floating-point number (rendered with Rust's shortest-round-trip
    /// formatting).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for objects.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up `key` in an object. `None` for missing keys and for
    /// non-object values, so lookups chain without intermediate matches.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The unsigned-integer value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders the value with two-space indentation and a trailing newline,
    /// the format the `BENCH_*.json` artefacts are stored in.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => push_quoted(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_quoted(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    push_quoted(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `s` as a quoted JSON string.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    brel_obs::escape_json_into(out, s);
    out.push('"');
}

impl SolutionReport {
    /// The JSON representation of one backend attempt. The `cache` and
    /// `gc` blocks carry the BDD-kernel counters attributed to this run;
    /// like every non-timing field they are deterministic across worker
    /// counts.
    pub fn to_json(&self, include_timing: bool) -> Json {
        let mut fields = vec![
            ("backend", Json::str(self.backend.name())),
            (
                "strategy",
                match self.strategy {
                    Some(strategy) => Json::str(strategy.name()),
                    None => Json::Null,
                },
            ),
            ("cost", Json::UInt(self.cost)),
            ("cubes", Json::UInt(self.cubes as u64)),
            ("literals", Json::UInt(self.literals as u64)),
            ("explored", Json::UInt(self.explored as u64)),
            ("splits", Json::UInt(self.splits as u64)),
            ("frontier_peak", Json::UInt(self.frontier_peak as u64)),
            // Deterministic: a truncated or ladder-recovered attempt is
            // degraded at every worker count or not at all.
            ("degraded", Json::Bool(self.degraded)),
            (
                "cache",
                Json::object(vec![
                    ("lookups", Json::UInt(self.cache.cache_lookups)),
                    ("hits", Json::UInt(self.cache.cache_hits)),
                    ("hit_rate", Json::Float(self.cache.cache_hit_rate())),
                    ("inserts", Json::UInt(self.cache.cache_inserts)),
                    ("evictions", Json::UInt(self.cache.cache_evictions)),
                    ("unique_lookups", Json::UInt(self.cache.unique_lookups)),
                    ("unique_hits", Json::UInt(self.cache.unique_hits)),
                    (
                        "unique_load_factor",
                        Json::Float(self.cache.unique_load_factor()),
                    ),
                    ("nodes", Json::UInt(self.cache.num_nodes)),
                ]),
            ),
            (
                "gc",
                Json::object(vec![
                    ("collections", Json::UInt(self.gc.collections)),
                    ("nodes_reclaimed", Json::UInt(self.gc.nodes_reclaimed)),
                    ("live_nodes", Json::UInt(self.gc.live_nodes)),
                    ("peak_live_nodes", Json::UInt(self.gc.peak_live_nodes)),
                    ("reorder_passes", Json::UInt(self.gc.reorder_passes)),
                    ("var_order_hash", Json::UInt(self.gc.var_order_hash)),
                ]),
            ),
        ];
        if include_timing {
            // Reuse provenance is scheduling-dependent (which worker landed
            // the job decides warm vs cold), so it rides with the timing
            // fields, outside the deterministic surface.
            fields.push((
                "reuse",
                Json::object(vec![
                    ("warm_session", Json::Bool(self.reuse.warm_session)),
                    ("subrel_cache_hit", Json::Bool(self.reuse.subrel_cache_hit)),
                ]),
            ));
            fields.push(("wall_micros", Json::UInt(self.wall_micros)));
        }
        Json::object(fields)
    }
}

impl JobReport {
    /// The JSON representation of one job.
    pub fn to_json(&self, include_timing: bool) -> Json {
        Json::object(vec![
            ("job_id", Json::UInt(self.job_id as u64)),
            ("name", Json::str(&self.name)),
            ("inputs", Json::UInt(self.num_inputs as u64)),
            ("outputs", Json::UInt(self.num_outputs as u64)),
            (
                "winner",
                match self.winning() {
                    Some(w) => Json::str(w.backend.name()),
                    None => Json::Null,
                },
            ),
            (
                "outcome",
                match self.outcome {
                    Some(outcome) => Json::str(outcome.name()),
                    None => Json::Null,
                },
            ),
            (
                "attempts",
                Json::Array(
                    self.attempts
                        .iter()
                        .map(|a| a.to_json(include_timing))
                        .collect(),
                ),
            ),
            (
                "fault",
                match &self.fault {
                    Some(f) => Json::str(f),
                    None => Json::Null,
                },
            ),
            (
                "error",
                match &self.error {
                    Some(e) => Json::str(e),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl BatchReport {
    /// The JSON representation of the whole batch. With `include_timing`
    /// off the output is byte-identical across worker counts.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut fields = vec![
            ("schema", Json::str("brel-engine/batch-v1")),
            ("num_jobs", Json::UInt(self.jobs.len() as u64)),
            ("num_solved", Json::UInt(self.num_solved() as u64)),
        ];
        if include_timing {
            fields.push(("num_workers", Json::UInt(self.num_workers as u64)));
            fields.push(("wall_micros", Json::UInt(self.wall_micros)));
            fields.push((
                "reuse",
                Json::object(vec![
                    ("warm_reuses", Json::UInt(self.reuse.warm_reuses)),
                    ("cold_builds", Json::UInt(self.reuse.cold_builds)),
                    (
                        "subrel_cache_hits",
                        Json::UInt(self.reuse.subrel_cache_hits),
                    ),
                    (
                        "subrel_cache_misses",
                        Json::UInt(self.reuse.subrel_cache_misses),
                    ),
                    ("quarantines", Json::UInt(self.reuse.quarantines)),
                ]),
            ));
        }
        fields.push((
            "wins",
            Json::Object(
                self.wins_by_backend()
                    .into_iter()
                    .map(|(kind, wins)| (kind.name().to_string(), Json::UInt(wins as u64)))
                    .collect(),
            ),
        ));
        fields.push((
            "jobs",
            Json::Array(
                self.jobs
                    .iter()
                    .map(|j| j.to_json(include_timing))
                    .collect(),
            ),
        ));
        Json::object(fields).render_pretty()
    }

    /// The CSV representation: one line per backend attempt, prefixed by a
    /// header. A job on which every backend failed still contributes one
    /// line, with `error` in the backend column and zeroed metrics, so no
    /// job is invisible to CSV consumers. With `include_timing` off the
    /// output is byte-identical across worker counts.
    pub fn to_csv(&self, include_timing: bool) -> String {
        let mut out = String::from(
            "job_id,name,inputs,outputs,backend,strategy,winner,outcome,cost,cubes,literals,explored,splits,frontier_peak,cache_lookups,cache_hits,gc_collections,gc_nodes_reclaimed,gc_peak_live_nodes",
        );
        if include_timing {
            out.push_str(",warm_session,subrel_cache_hit,wall_micros");
        }
        out.push('\n');
        for job in &self.jobs {
            // The outcome classifies the whole job, so every attempt row of
            // a job repeats it ("-" for structural failures, see `error`).
            let outcome = job.outcome.map_or("-", |o| o.name());
            let mut line = |backend: &str, winner: u8, attempt: Option<&SolutionReport>| {
                let _ = write!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    job.job_id,
                    csv_field(&job.name),
                    job.num_inputs,
                    job.num_outputs,
                    backend,
                    attempt
                        .and_then(|a| a.strategy)
                        .map_or("-", |strategy| strategy.name()),
                    winner,
                    outcome,
                    attempt.map_or(0, |a| a.cost),
                    attempt.map_or(0, |a| a.cubes as u64),
                    attempt.map_or(0, |a| a.literals as u64),
                    attempt.map_or(0, |a| a.explored as u64),
                    attempt.map_or(0, |a| a.splits as u64),
                    attempt.map_or(0, |a| a.frontier_peak as u64),
                    attempt.map_or(0, |a| a.cache.cache_lookups),
                    attempt.map_or(0, |a| a.cache.cache_hits),
                    attempt.map_or(0, |a| a.gc.collections),
                    attempt.map_or(0, |a| a.gc.nodes_reclaimed),
                    attempt.map_or(0, |a| a.gc.peak_live_nodes),
                );
                if include_timing {
                    let _ = write!(
                        out,
                        ",{},{},{}",
                        attempt.map_or(0, |a| u8::from(a.reuse.warm_session)),
                        attempt.map_or(0, |a| u8::from(a.reuse.subrel_cache_hit)),
                        attempt.map_or(0, |a| a.wall_micros)
                    );
                }
                out.push('\n');
            };
            if job.attempts.is_empty() {
                line("error", 0, None);
                continue;
            }
            for (i, attempt) in job.attempts.iter().enumerate() {
                line(
                    attempt.backend.name(),
                    u8::from(job.winner == Some(i)),
                    Some(attempt),
                );
            }
        }
        out
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, RelationSpec};
    use crate::pool::Engine;
    use brel_relation::{BooleanRelation, RelationSpace};

    #[test]
    fn json_escaping_and_shapes() {
        let v = Json::object(vec![
            ("s", Json::str("a\"b\\c\nd\u{1}")),
            ("n", Json::UInt(42)),
            ("f", Json::Float(1.5)),
            ("nan", Json::Float(f64::NAN)),
            ("a", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Array(vec![])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"s":"a\"b\\c\nd\u0001","n":42,"f":1.5,"nan":null,"a":[true,null],"empty":[]}"#
        );
        let pretty = v.render_pretty();
        assert!(pretty.ends_with("}\n"));
        assert!(pretty.contains("  \"n\": 42"));
    }

    #[test]
    fn errored_jobs_still_appear_in_csv() {
        let space = RelationSpace::new(1, 1);
        let broken = BooleanRelation::from_table(&space, "1 : {1}").unwrap();
        let jobs = vec![JobSpec::portfolio(
            "broken",
            RelationSpec::from_relation(&broken).unwrap(),
        )];
        let report = Engine::with_workers(1).solve_batch(&jobs);
        let csv = report.to_csv(false);
        assert_eq!(csv.lines().count(), 2, "header plus one error line");
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("0,broken,1,1,error,-,0,-,"));
        let json = report.to_json(false);
        assert!(json.contains("not well defined"));
        // A structural failure has no outcome classification and no fault.
        assert!(json.contains("\"outcome\": null"));
        assert!(json.contains("\"fault\": null"));
    }

    #[test]
    fn csv_fields_are_quoted_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("a\"b"), "\"a\"\"b\"");
    }

    #[test]
    fn batch_serializations_are_deterministic_without_timing() {
        let space = RelationSpace::new(2, 2);
        let r = BooleanRelation::from_table(&space, "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}")
            .unwrap();
        let jobs = vec![JobSpec::portfolio(
            "fig1",
            RelationSpec::from_relation(&r).unwrap(),
        )];
        let a = Engine::with_workers(1).solve_batch(&jobs);
        let b = Engine::with_workers(4).solve_batch(&jobs);
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_eq!(a.to_csv(false), b.to_csv(false));
        // The lifecycle block is part of the deterministic surface.
        assert!(a.to_json(false).contains("\"gc\""));
        assert!(a.to_json(false).contains("\"peak_live_nodes\""));
        assert!(a
            .to_csv(false)
            .starts_with("job_id,name,inputs,outputs,backend,strategy,winner,outcome,cost,cubes,literals,explored,splits,frontier_peak,cache_lookups,cache_hits,gc_collections,gc_nodes_reclaimed,gc_peak_live_nodes\n"));
        // The fault-tolerance columns are part of the deterministic surface:
        // a clean job is classified "solved" with no degraded attempts.
        assert!(a.to_json(false).contains("\"outcome\": \"solved\""));
        assert!(a.to_json(false).contains("\"degraded\": false"));
        assert!(a.to_csv(false).lines().nth(1).unwrap().contains(",solved,"));
        // The search columns are part of the deterministic surface.
        assert!(a.to_json(false).contains("\"strategy\""));
        assert!(a.to_json(false).contains("\"splits\""));
        assert!(a.to_json(false).contains("\"frontier_peak\""));
        // Timing-bearing output still parses structurally: the header gains
        // the extra column and the JSON gains the worker fields.
        assert!(a.to_csv(true).starts_with("job_id,") && a.to_csv(true).contains("wall_micros"));
        assert!(a.to_json(true).contains("\"num_workers\""));
        assert!(!a.to_json(false).contains("\"num_workers\""));
        // Reuse provenance is timing-gated: present with timings, absent
        // from the deterministic surface.
        assert!(a.to_json(true).contains("\"reuse\""));
        assert!(a.to_json(true).contains("\"subrel_cache_hits\""));
        assert!(!a.to_json(false).contains("\"reuse\""));
        assert!(a
            .to_csv(true)
            .contains(",warm_session,subrel_cache_hit,wall_micros"));
        assert!(!a.to_csv(false).contains("warm_session"));
    }
}
