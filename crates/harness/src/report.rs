//! Machine-readable benchmark reports (`BENCH_*.json`).
//!
//! The container building this repo has no registry access, so there is no
//! serde; this module hand-rolls the narrow slice of JSON the pipeline
//! needs: a writer for [`BenchReport`] and a small recursive-descent
//! parser ([`Json`]) used by the schema validator and its tests.
//!
//! Schema (`"schema": "cqs-bench/v1"`):
//!
//! ```json
//! {
//!   "schema": "cqs-bench/v1",
//!   "meta": { "scale": "quick", "threads": [1, 2], "vcpus": 8,
//!             "git_rev": "abc1234", "chaos": false, "stats": true,
//!             "warmup": 1, "timed": 5, "wake_batch_spills": 0 },
//!   "figures": [ { "name": "fig5", "title": "...", "x_label": "threads",
//!     "wall_clock_ms": 1234.5,
//!     "series": [ { "name": "cqs-barrier", "points": [
//!       { "x": 1, "median_ns": 103.0, "min_ns": 99.0, "max_ns": 120.0,
//!         "p95_ns": 120.0, "rel_iqr": 0.04, "noisy": false,
//!         "samples_ns": [103.0, 99.0, 120.0],
//!         "counters": { "suspends": 12, "...": 0 } } ] } ] } ]
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{PointStats, Series};

/// Run metadata embedded in every report, so a stored `BENCH_*.json` is
/// self-describing.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Benchmark scale label (`"quick"` or `"full"`).
    pub scale: String,
    /// Thread counts swept.
    pub threads: Vec<usize>,
    /// vCPUs available on the machine that produced the numbers.
    pub vcpus: usize,
    /// Git revision of the tree, or `"unknown"` outside a checkout.
    pub git_rev: String,
    /// Whether chaos (fault-injection) was live during the run — numbers
    /// from a chaos run are not comparable to a clean baseline.
    pub chaos: bool,
    /// Whether the `stats` feature was compiled in (if not, every counter
    /// block in the report is all zeros by construction).
    pub stats: bool,
    /// Warmup runs per point.
    pub warmup: usize,
    /// Timed runs per point.
    pub timed: usize,
    /// How many times a deferred-wake batch overflowed its inline buffer
    /// and spilled to the heap during the run (`cqs-future` keeps the
    /// process-wide count). The harness crate does not depend on
    /// `cqs-future`, so [`RunMeta::current`] initializes this to zero and
    /// the bench binary fills it in after the figures have run.
    pub wake_batch_spills: u64,
}

impl RunMeta {
    /// Metadata for the current process: vCPU count probed, git revision
    /// resolved from `git rev-parse` (falling back to `"unknown"`), chaos
    /// and stats flags read from the compiled-in features.
    pub fn current(scale: &str, threads: &[usize], repeats: crate::Repeats) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        RunMeta {
            scale: scale.to_string(),
            threads: threads.to_vec(),
            vcpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(0),
            git_rev,
            chaos: cqs_chaos::is_enabled(),
            stats: cqs_stats::enabled(),
            warmup: repeats.warmup,
            timed: repeats.timed,
            wake_batch_spills: 0,
        }
    }
}

/// One figure's worth of series, named for cross-run matching.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Stable identifier (`"fig5_work100"`, `"a1_cancellation"`, ...).
    pub name: String,
    /// Human-readable title as printed above the table.
    pub title: String,
    /// Label of the sweep variable.
    pub x_label: String,
    /// Wall-clock time spent producing this figure, in milliseconds
    /// (warmup runs and drains included — the cost of regenerating the
    /// figure, not a per-op statistic).
    pub wall_clock_ms: f64,
    /// The measured series.
    pub series: Vec<Series>,
}

/// A full benchmark run: metadata plus every figure produced.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Run metadata.
    pub meta: RunMeta,
    /// Figures, in generation order.
    pub figures: Vec<FigureReport>,
}

/// Schema tag written into (and required from) every report.
pub const SCHEMA: &str = "cqs-bench/v1";

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` so the output is valid JSON (no `NaN`/`inf`, which JSON
/// cannot represent; they become `null` and fail validation loudly rather
/// than silently parsing as something else).
fn number(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn write_point(x: u64, p: &PointStats, out: &mut String) {
    let _ = write!(out, "{{\"x\":{x},");
    out.push_str("\"median_ns\":");
    number(p.median, out);
    out.push_str(",\"min_ns\":");
    number(p.min, out);
    out.push_str(",\"max_ns\":");
    number(p.max, out);
    out.push_str(",\"p95_ns\":");
    number(p.p95, out);
    out.push_str(",\"rel_iqr\":");
    number(p.rel_iqr, out);
    let _ = write!(out, ",\"noisy\":{},", p.noisy);
    out.push_str("\"samples_ns\":[");
    for (i, s) in p.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        number(*s, out);
    }
    out.push_str("],\"counters\":{");
    for (i, (name, value)) in p.counters.fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{value}");
    }
    out.push_str("}}");
}

impl BenchReport {
    /// Serializes the report to a JSON string (single line — the file is
    /// for machines; `python3 -m json.tool` pretty-prints it on demand).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":");
        escape_json(SCHEMA, &mut out);
        out.push_str(",\"meta\":{\"scale\":");
        escape_json(&self.meta.scale, &mut out);
        out.push_str(",\"threads\":[");
        for (i, t) in self.meta.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{t}");
        }
        let _ = write!(out, "],\"vcpus\":{},\"git_rev\":", self.meta.vcpus);
        escape_json(&self.meta.git_rev, &mut out);
        let _ = write!(
            out,
            ",\"chaos\":{},\"stats\":{},\"warmup\":{},\"timed\":{},\"wake_batch_spills\":{}}}",
            self.meta.chaos,
            self.meta.stats,
            self.meta.warmup,
            self.meta.timed,
            self.meta.wake_batch_spills
        );
        out.push_str(",\"figures\":[");
        for (i, fig) in self.figures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape_json(&fig.name, &mut out);
            out.push_str(",\"title\":");
            escape_json(&fig.title, &mut out);
            out.push_str(",\"x_label\":");
            escape_json(&fig.x_label, &mut out);
            out.push_str(",\"wall_clock_ms\":");
            number(fig.wall_clock_ms, &mut out);
            out.push_str(",\"series\":[");
            for (j, s) in fig.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                escape_json(&s.name, &mut out);
                out.push_str(",\"points\":[");
                for (k, (x, p)) in s.points.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_point(*x, p, &mut out);
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// Generic incremental writer
// ---------------------------------------------------------------------------

/// Incremental hand-rolled JSON writer: the reusable face of the same
/// no-serde machinery behind [`BenchReport::to_json`]. `cqs-watch` uses it
/// to serialize stall/deadlock reports; anything else in the workspace that
/// needs machine-readable output without a registry dependency can too.
///
/// Commas are managed automatically; the caller only describes structure:
///
/// ```
/// use cqs_harness::report::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.field_str("kind", "stall");
/// w.key("waiters");
/// w.begin_array();
/// w.unsigned(3);
/// w.unsigned(7);
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"kind":"stall","waiters":[3,7]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether the next value at that level
    /// needs a separating comma.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        JsonWriter {
            out: String::with_capacity(256),
            needs_comma: Vec::new(),
        }
    }

    fn pre_value(&mut self) {
        if let Some(top) = self.needs_comma.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    /// Opens an object (as a root, array element, or the value of a
    /// pending [`key`](Self::key)).
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.out.push('}');
        self.needs_comma.pop();
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.out.push(']');
        self.needs_comma.pop();
    }

    /// Writes an object key; the next emitted value becomes its value.
    pub fn key(&mut self, key: &str) {
        self.pre_value();
        escape_json(key, &mut self.out);
        self.out.push(':');
        if let Some(top) = self.needs_comma.last_mut() {
            *top = false; // the upcoming value continues this entry
        }
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) {
        self.pre_value();
        escape_json(v, &mut self.out);
    }

    /// Writes an `f64` value (`NaN`/`inf` become `null`, as in the bench
    /// writer).
    pub fn float(&mut self, v: f64) {
        self.pre_value();
        number(v, &mut self.out);
    }

    /// Writes a `u64` value.
    pub fn unsigned(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.out, "{v}");
    }

    /// Writes an `i64` value.
    pub fn integer(&mut self, v: i64) {
        self.pre_value();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Shorthand for `key(k); string(v)`.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// Shorthand for `key(k); unsigned(v)`.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.unsigned(v);
    }

    /// Shorthand for `key(k); integer(v)`.
    pub fn field_i64(&mut self, k: &str, v: i64) {
        self.key(k);
        self.integer(v);
    }

    /// Shorthand for `key(k); float(v)`.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.float(v);
    }

    /// Shorthand for `key(k); boolean(v)`.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.boolean(v);
    }

    /// Returns the accumulated JSON text.
    pub fn finish(self) -> String {
        debug_assert!(
            self.needs_comma.is_empty(),
            "JsonWriter finished with {} unclosed container(s)",
            self.needs_comma.len()
        );
        self.out
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects use a `BTreeMap` (reports never rely on key
/// order and deterministic iteration keeps error messages stable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; report integers are exact below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a JSON document, requiring the whole input be consumed.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup; `None` unless this is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
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

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs never appear in reports we write;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input came from &str, so this
                // slice boundary is always valid).
                let rest =
                    std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8".to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Validates that `doc` is a well-formed `cqs-bench/v1` report: schema tag,
/// complete metadata, strictly increasing thread sweep, and per-point
/// statistics that are present, finite, and non-negative. Returns the list
/// of violations (empty means valid).
pub fn validate_report(doc: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let mut err = |msg: String| errors.push(msg);

    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        other => err(format!("schema must be {SCHEMA:?}, got {other:?}")),
    }

    match doc.get("meta") {
        None => err("missing \"meta\" object".to_string()),
        Some(meta) => {
            for key in ["scale", "git_rev"] {
                if meta.get(key).and_then(Json::as_str).is_none() {
                    err(format!("meta.{key} must be a string"));
                }
            }
            for key in ["chaos", "stats"] {
                if meta.get(key).and_then(Json::as_bool).is_none() {
                    err(format!("meta.{key} must be a boolean"));
                }
            }
            for key in ["vcpus", "warmup", "timed", "wake_batch_spills"] {
                match meta.get(key).and_then(Json::as_f64) {
                    Some(n) if n.is_finite() && n >= 0.0 => {}
                    other => err(format!(
                        "meta.{key} must be a non-negative number, got {other:?}"
                    )),
                }
            }
            match meta.get("threads").and_then(Json::as_arr) {
                None => err("meta.threads must be an array".to_string()),
                Some(threads) => {
                    let mut prev = 0.0;
                    for t in threads {
                        match t.as_f64() {
                            Some(n) if n > prev => prev = n,
                            other => err(format!(
                                "meta.threads must be strictly increasing positive \
                                 numbers, got {other:?} after {prev}"
                            )),
                        }
                    }
                }
            }
        }
    }

    let figures = match doc.get("figures").and_then(Json::as_arr) {
        None => {
            err("missing \"figures\" array".to_string());
            return errors;
        }
        Some(figs) => figs,
    };
    if figures.is_empty() {
        err("\"figures\" is empty".to_string());
    }
    for fig in figures {
        let fig_name = fig
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        if fig.get("name").and_then(Json::as_str).is_none() {
            err("figure missing string \"name\"".to_string());
        }
        for key in ["title", "x_label"] {
            if fig.get(key).and_then(Json::as_str).is_none() {
                err(format!("figure {fig_name}: {key} must be a string"));
            }
        }
        match fig.get("wall_clock_ms").and_then(Json::as_f64) {
            Some(n) if n.is_finite() && n >= 0.0 => {}
            other => err(format!(
                "figure {fig_name}: wall_clock_ms must be a non-negative number, got {other:?}"
            )),
        }
        let series = match fig.get("series").and_then(Json::as_arr) {
            None => {
                err(format!("figure {fig_name}: missing \"series\" array"));
                continue;
            }
            Some(s) => s,
        };
        for s in series {
            let s_name = s
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("<unnamed>")
                .to_string();
            let points = match s.get("points").and_then(Json::as_arr) {
                None => {
                    err(format!(
                        "figure {fig_name} series {s_name}: missing \"points\""
                    ));
                    continue;
                }
                Some(p) => p,
            };
            for point in points {
                let ctx = || {
                    format!(
                        "figure {fig_name} series {s_name} x={:?}",
                        point.get("x").and_then(Json::as_f64)
                    )
                };
                if point.get("x").and_then(Json::as_f64).is_none() {
                    err(format!("{}: missing numeric \"x\"", ctx()));
                }
                for key in ["median_ns", "min_ns", "max_ns", "p95_ns", "rel_iqr"] {
                    match point.get(key).and_then(Json::as_f64) {
                        Some(v) if v.is_finite() && v >= 0.0 => {}
                        other => err(format!(
                            "{}: {key} must be a non-negative finite number, \
                             got {other:?}",
                            ctx()
                        )),
                    }
                }
                if point.get("noisy").and_then(Json::as_bool).is_none() {
                    err(format!("{}: missing boolean \"noisy\"", ctx()));
                }
                match point.get("samples_ns").and_then(Json::as_arr) {
                    None => err(format!("{}: missing \"samples_ns\" array", ctx())),
                    Some(samples) => {
                        if samples.is_empty() {
                            err(format!("{}: samples_ns is empty", ctx()));
                        }
                        for s in samples {
                            match s.as_f64() {
                                Some(v) if v.is_finite() && v >= 0.0 => {}
                                other => err(format!(
                                    "{}: sample must be non-negative, got {other:?}",
                                    ctx()
                                )),
                            }
                        }
                    }
                }
                match point.get("counters") {
                    Some(Json::Obj(counters)) => {
                        for (name, v) in counters {
                            match v.as_f64() {
                                Some(n) if n >= 0.0 => {}
                                _ => err(format!("{}: counter {name} must be non-negative", ctx())),
                            }
                        }
                    }
                    _ => err(format!("{}: missing \"counters\" object", ctx())),
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PointStats, Repeats, Series};

    #[test]
    fn json_writer_round_trips_through_parser() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("kind", "dead\"lock");
        w.field_bool("evicting", true);
        w.field_i64("delta", -3);
        w.field_f64("waited_ms", 12.5);
        w.key("cycle");
        w.begin_array();
        w.begin_object();
        w.field_u64("thread", 1);
        w.field_u64("wants", 2);
        w.end_object();
        w.begin_object();
        w.field_u64("thread", 2);
        w.field_u64("wants", 1);
        w.end_object();
        w.end_array();
        w.key("empty");
        w.begin_array();
        w.end_array();
        w.end_object();
        let text = w.finish();
        let doc = Json::parse(&text).expect("writer output must parse");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("dead\"lock"));
        assert_eq!(doc.get("evicting").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("delta").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(doc.get("waited_ms").and_then(Json::as_f64), Some(12.5));
        let cycle = doc.get("cycle").and_then(Json::as_arr).unwrap();
        assert_eq!(cycle.len(), 2);
        assert_eq!(cycle[1].get("wants").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("empty").and_then(Json::as_arr).unwrap().len(), 0);
    }

    fn sample_report() -> BenchReport {
        let mut s = Series::new("cqs");
        s.push(
            1,
            PointStats::from_samples(vec![100.0, 105.0, 95.0], CqsStats::default()),
        );
        s.push(
            2,
            PointStats::from_samples(vec![210.0, 190.0, 200.0], CqsStats::default()),
        );
        BenchReport {
            meta: RunMeta {
                scale: "quick".to_string(),
                threads: vec![1, 2],
                vcpus: 8,
                git_rev: "deadbeef".to_string(),
                chaos: false,
                stats: false,
                warmup: 1,
                timed: 3,
                wake_batch_spills: 0,
            },
            figures: vec![FigureReport {
                name: "fig5".to_string(),
                title: "Fig 5 \"barrier\"".to_string(),
                x_label: "threads".to_string(),
                wall_clock_ms: 42.5,
                series: vec![s],
            }],
        }
    }

    use crate::CqsStats;

    #[test]
    fn roundtrip_parses_and_validates() {
        let report = sample_report();
        let json = report.to_json();
        let doc = Json::parse(&json).expect("self-emitted JSON must parse");
        let errors = validate_report(&doc);
        assert!(errors.is_empty(), "unexpected violations: {errors:?}");
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("scale"))
                .and_then(Json::as_str),
            Some("quick")
        );
        // Escaped quotes in the title survive the round trip.
        let title = doc.get("figures").and_then(Json::as_arr).unwrap()[0]
            .get("title")
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(title, "Fig 5 \"barrier\"");
    }

    #[test]
    fn new_metadata_fields_survive_the_round_trip() {
        let mut report = sample_report();
        report.meta.wake_batch_spills = 7;
        let doc = Json::parse(&report.to_json()).unwrap();
        assert!(validate_report(&doc).is_empty());
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("wake_batch_spills"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        assert_eq!(
            doc.get("figures").and_then(Json::as_arr).unwrap()[0]
                .get("wall_clock_ms")
                .and_then(Json::as_f64),
            Some(42.5)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parser_handles_nested_values() {
        let doc = Json::parse(r#"{"a": [1, {"b": true}, null], "c": -2.5e1}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_f64), Some(-25.0));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[1].get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(arr[2], Json::Null);
    }

    #[test]
    fn validation_flags_missing_fields() {
        let doc = Json::parse(r#"{"schema": "cqs-bench/v1", "figures": []}"#).unwrap();
        let errors = validate_report(&doc);
        assert!(errors.iter().any(|e| e.contains("meta")));
        assert!(errors.iter().any(|e| e == "\"figures\" is empty"));
    }

    #[test]
    fn validation_requires_spills_and_wall_clock() {
        let json = sample_report()
            .to_json()
            .replace(",\"wake_batch_spills\":0", "")
            .replace(",\"wall_clock_ms\":42.5", "");
        let errors = validate_report(&Json::parse(&json).unwrap());
        assert_eq!(errors.len(), 2, "got {errors:?}");
        assert!(errors.iter().any(|e| e.contains("meta.wake_batch_spills")));
        assert!(errors.iter().any(|e| e.contains("wall_clock_ms")));
    }

    #[test]
    fn validation_flags_unsorted_threads() {
        let mut report = sample_report();
        report.meta.threads = vec![2, 1];
        let doc = Json::parse(&report.to_json()).unwrap();
        let errors = validate_report(&doc);
        assert!(
            errors.iter().any(|e| e.contains("strictly increasing")),
            "got {errors:?}"
        );
    }

    #[test]
    fn run_meta_current_probes_environment() {
        let meta = RunMeta::current("quick", &[1, 2, 4], Repeats::default());
        assert_eq!(meta.scale, "quick");
        assert_eq!(meta.threads, vec![1, 2, 4]);
        assert!(!meta.git_rev.is_empty());
        assert_eq!(meta.stats, cqs_stats::enabled());
    }
}
