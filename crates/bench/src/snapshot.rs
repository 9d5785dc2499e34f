//! Committed benchmark snapshots: `results/BENCH_<topic>.json`.
//!
//! Every perf-relevant PR regenerates these files so the repo carries a
//! diffable trajectory of kernel and operator throughput alongside the
//! code (the convention EXPERIMENTS.md records). One snapshot is a single
//! JSON object, schema `terasem-bench-v1`:
//!
//! ```json
//! {
//!   "schema": "terasem-bench-v1",
//!   "topic": "mxm",
//!   "arch": "x86_64",
//!   "isa": "avx2",
//!   "backend": "auto(avx2)",
//!   "threads": 1,
//!   "entries": [
//!     {"name": "16x14x16", "naive": 1234.5, "simd": 5678.9}
//!   ]
//! }
//! ```
//!
//! `backend` is always `auto(<isa>)`: the mxm dispatch follows the
//! host's ISA, and the field stays because the v1 schema requires it.
//!
//! Entry fields besides `name` (and the optional string `label`) are
//! finite numbers — throughputs, times, speedup ratios; the unit is the
//! producer's documented convention (MFLOPS for `mxm`, GFLOPS for the
//! solver tables, seconds for operator latencies). Built and validated
//! with the in-repo `sem_obs::json` (zero-dependency policy); validation
//! is exposed here so `bench_check` and the unit tests share one
//! implementation.

use sem_obs::json::{Json, JsonObj};
use std::io::Write;
use std::path::Path;

/// Schema tag every snapshot carries.
pub const SCHEMA: &str = "terasem-bench-v1";

/// One named measurement row.
pub struct Entry {
    name: String,
    label: Option<String>,
    fields: Vec<(String, f64)>,
}

impl Entry {
    /// Attach a free-form string label (e.g. the winning kernel).
    pub fn label(&mut self, v: &str) -> &mut Self {
        self.label = Some(v.to_string());
        self
    }

    /// Add one numeric field. Non-finite values are rejected at
    /// serialization time, not here, so a NaN shows up as a hard error
    /// rather than a silently dropped row.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.fields.push((key.to_string(), v));
        self
    }
}

/// An in-memory snapshot being assembled by a bench producer.
pub struct Snapshot {
    topic: String,
    threads: Option<u64>,
    entries: Vec<Entry>,
}

impl Snapshot {
    /// Start a snapshot for `topic` (becomes `BENCH_<topic>.json`).
    pub fn new(topic: &str) -> Self {
        Snapshot {
            topic: topic.to_string(),
            threads: None,
            entries: Vec::new(),
        }
    }

    /// Record the worker thread count the run used.
    pub fn threads(&mut self, t: u64) -> &mut Self {
        self.threads = Some(t);
        self
    }

    /// Append a row; fill it in through the returned builder.
    pub fn entry(&mut self, name: &str) -> &mut Entry {
        self.entries.push(Entry {
            name: name.to_string(),
            label: None,
            fields: Vec::new(),
        });
        self.entries.last_mut().unwrap()
    }

    /// Serialize to the schema above.
    ///
    /// # Panics
    /// Panics on a non-finite field value or an empty snapshot — a
    /// producer that measured nothing must not overwrite a committed
    /// baseline with an empty file.
    pub fn to_json(&self) -> String {
        assert!(
            !self.entries.is_empty(),
            "snapshot '{}' has no entries",
            self.topic
        );
        let isa = sem_linalg::simd::detected_isa().name();
        let mut o = JsonObj::new();
        o.str("schema", SCHEMA)
            .str("topic", &self.topic)
            .str("arch", std::env::consts::ARCH)
            .str("isa", isa)
            .str("backend", &format!("auto({isa})"));
        if let Some(t) = self.threads {
            o.u64("threads", t);
        }
        let rows: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let mut row = JsonObj::new();
                row.str("name", &e.name);
                if let Some(l) = &e.label {
                    row.str("label", l);
                }
                for (k, v) in &e.fields {
                    assert!(
                        v.is_finite(),
                        "snapshot '{}' entry '{}' field '{k}' is not finite",
                        self.topic,
                        e.name
                    );
                    row.f64(k, *v);
                }
                row.finish()
            })
            .collect();
        o.raw("entries", &format!("[{}]", rows.join(",")));
        o.finish()
    }

    /// Serialize and write to `path` (with a trailing newline so the
    /// committed file is diff-friendly).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

/// Validate one snapshot document against the `terasem-bench-v1` schema.
/// Returns the entry count, or a description of the first violation.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text.trim()).ok_or("not valid JSON")?;
    let need_str = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("missing string field '{key}'"))
    };
    let schema = need_str("schema")?;
    if schema != SCHEMA {
        return Err(format!("schema '{schema}', want '{SCHEMA}'"));
    }
    for key in ["topic", "arch", "isa", "backend"] {
        if need_str(key)?.is_empty() {
            return Err(format!("field '{key}' is empty"));
        }
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'entries'")?;
    if entries.is_empty() {
        return Err("'entries' is empty".to_string());
    }
    for (i, e) in entries.iter().enumerate() {
        let members = e.as_obj().ok_or(format!("entry {i} is not an object"))?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("entry {i} has no 'name'"))?;
        let mut nums = 0usize;
        for (k, v) in members {
            match (k.as_str(), v) {
                ("name" | "label", Json::Str(_)) => {}
                (_, Json::Num(x)) if x.is_finite() => nums += 1,
                _ => return Err(format!("entry '{name}': bad field '{k}'")),
            }
        }
        if nums == 0 {
            return Err(format!("entry '{name}' has no numeric fields"));
        }
    }
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_validates() {
        let mut s = Snapshot::new("selftest");
        s.threads(3);
        s.entry("16x14x16").label("simd").num("mflops", 1234.5);
        s.entry("2x14x2").num("mflops", 99.0).num("speedup", 1.5);
        let text = s.to_json();
        assert!(Json::parse(&text).is_some(), "{text}");
        assert_eq!(validate(&text), Ok(2), "{text}");
    }

    #[test]
    fn rejects_wrong_schema_and_shapes() {
        assert!(validate("not json").is_err());
        assert!(validate(r#"{"schema":"other-v9"}"#).is_err());
        assert!(validate(
            r#"{"schema":"terasem-bench-v1","topic":"t","arch":"a","isa":"i","backend":"b","entries":[]}"#
        )
        .is_err());
        // Entry with only a name (no measurements) is malformed.
        assert!(validate(
            r#"{"schema":"terasem-bench-v1","topic":"t","arch":"a","isa":"i","backend":"b","entries":[{"name":"x"}]}"#
        )
        .is_err());
        // Good minimal document.
        assert_eq!(
            validate(
                r#"{"schema":"terasem-bench-v1","topic":"t","arch":"a","isa":"i","backend":"b","entries":[{"name":"x","v":1.0}]}"#
            ),
            Ok(1)
        );
    }

    #[test]
    #[should_panic(expected = "no entries")]
    fn empty_snapshot_panics() {
        Snapshot::new("empty").to_json();
    }
}
