//! Crash-consistent campaign journal: an append-only, CRC-framed JSONL
//! write-ahead log of per-design-point results.
//!
//! Long, fault-injected campaigns (see [`super::resilience`]) can die at
//! design point 900/1000 — from an OOM kill, an operator `kill -9`, a
//! machine reboot — and the paper's Rule 3 (results must be repeatable
//! and complete) is violated if that loses everything. The journal makes
//! campaign progress durable:
//!
//! * every finished design point is appended as one **CRC-framed JSONL
//!   record** (`XXXXXXXX {json}\n`, where the 8-hex prefix is the IEEE
//!   CRC32 of the JSON payload bytes), so torn or bit-rotted frames are
//!   detectable;
//! * records are **content-addressed**: the key is a stable 64-bit hash
//!   of (design point levels, machine/fault config fingerprint, seed,
//!   code version), so a record is only ever reused for the exact
//!   configuration that produced it;
//! * recovery **tolerates torn trailing records** (the tail written
//!   during the crash is truncated and execution continues), while a
//!   corrupt frame in the *middle* of the journal is rejected with a
//!   typed [`JournalError::CorruptFrame`] — silent data loss is never an
//!   option;
//! * a header frame pins the journal's format version, code version,
//!   config fingerprint, seed and design shape; resuming against a stale
//!   journal (older code, different machine config, different seed) is
//!   **refused** with [`JournalError::Stale`] instead of silently mixing
//!   incompatible results;
//! * floating-point payloads are stored as 16-hex IEEE-754 bit patterns,
//!   so a resumed campaign is **bit-identical** to an uninterrupted one —
//!   including NaN placeholders for dropped samples.
//!
//! [`super::resilience::run_campaign_resilient_journaled`] drives a
//! resilient campaign through this log and skips completed points on
//! restart; [`crate::parallel::shard`] builds per-process shard journals
//! and a persistent quarantine on the same framing.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use scibench_sim::rng::{fnv1a, splitmix64, FNV_OFFSET};
use scibench_trace::export::push_json_escaped;
#[cfg(test)]
use scibench_trace::json::parse as parse_json;
use scibench_trace::json::{JsonError, JsonReader, JsonValue};

use super::design::{Design, RunPoint};
use super::measurement::MeasurementOutcome;
use super::resilience::{PointFate, ResilientRun};

/// Journal format version; bumped whenever the frame layout changes.
/// A mismatch refuses the journal (it is part of the header check).
pub const JOURNAL_FORMAT: u32 = 1;

/// Errors of the campaign journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O operation on the journal file failed.
    Io {
        /// The journal path.
        path: String,
        /// What was being attempted ("open", "read", "append", ...).
        op: &'static str,
        /// The underlying error, rendered.
        error: String,
    },
    /// A frame before the journal tail failed its CRC or did not parse.
    /// (A *trailing* bad frame is a torn write and is truncated instead.)
    CorruptFrame {
        /// 1-based line number of the bad frame.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal does not start with a header frame.
    MissingHeader,
    /// The journal was written by an incompatible configuration (older
    /// code version, different machine/fault config, seed or design).
    Stale {
        /// Which header field mismatched.
        field: &'static str,
        /// The value the resuming campaign expected.
        expected: String,
        /// The value found in the journal.
        found: String,
    },
    /// Two design points have the same key (equal levels), so one
    /// journal record would stand in for both, although each point
    /// forks its own RNG stream from its design index.
    DuplicateKey {
        /// The design index that has the key first.
        first: usize,
        /// The later design index with the same key.
        second: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, op, error } => {
                write!(f, "journal {op} failed for {path}: {error}")
            }
            JournalError::CorruptFrame { line, reason } => {
                write!(f, "corrupt journal frame at line {line}: {reason}")
            }
            JournalError::MissingHeader => write!(f, "journal has no header frame"),
            JournalError::Stale {
                field,
                expected,
                found,
            } => write!(
                f,
                "stale journal refused: {field} mismatch (expected {expected}, found {found})"
            ),
            JournalError::DuplicateKey { first, second } => write!(
                f,
                "design points {first} and {second} share a journal key (equal levels)"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// A content-addressed journal key: a stable 64-bit hash of (design
/// point, config fingerprint, seed, code version).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JournalKey(pub u64);

impl fmt::Display for JournalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The identity a journal is bound to. All five fields must match for a
/// journal to be resumed; any mismatch is [`JournalError::Stale`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Frame-format version ([`JOURNAL_FORMAT`]).
    pub format: u32,
    /// Version of the code that wrote the journal (callers usually pass
    /// the crate version plus any schedule/statistics schema revision).
    pub code_version: String,
    /// Free-form fingerprint of the machine/fault configuration measured.
    pub config_fingerprint: String,
    /// The campaign seed.
    pub seed: u64,
    /// Hash of the design shape (factor names and levels).
    pub design_fingerprint: u64,
}

impl JournalMeta {
    /// Builds the metadata for `design` under `seed`.
    pub fn new(design: &Design, seed: u64, code_version: &str, config_fingerprint: &str) -> Self {
        Self {
            format: JOURNAL_FORMAT,
            code_version: code_version.to_owned(),
            config_fingerprint: config_fingerprint.to_owned(),
            seed,
            design_fingerprint: design_fingerprint(design),
        }
    }
}

/// Where a journal lives and what identity it is bound to (the
/// ergonomic bundle the journaled campaign runners take).
#[derive(Debug, Clone)]
pub struct JournalSpec<'a> {
    /// Path of the journal file (created on first use).
    pub path: &'a Path,
    /// Code version to bind into the header and every key.
    pub code_version: &'a str,
    /// Machine/fault configuration fingerprint to bind in.
    pub config_fingerprint: &'a str,
}

// ---------------------------------------------------------------------------
// Hashing and framing primitives.
// ---------------------------------------------------------------------------

/// Slicing-by-8 lookup tables of the IEEE CRC32: `CRC32_TABLES[0][b]` is
/// the CRC32 register after shifting the single byte `b` through the
/// bitwise division, and `CRC32_TABLES[k][b]` the same after `k` further
/// zero bytes, so one lookup per table folds eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC32 (reflected, polynomial 0xEDB88320) — the frame checksum.
/// Table-driven, eight bytes per step: a byte-at-a-time table loop waits
/// on each lookup before the next and runs about 4x slower.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Stable hash of the design shape: factor names and all levels, each
/// length-prefixed so concatenation ambiguities cannot collide.
pub fn design_fingerprint(design: &Design) -> u64 {
    let mut h = FNV_OFFSET;
    for factor in design.factors() {
        h = fnv1a(h, &(factor.name.len() as u64).to_le_bytes());
        h = fnv1a(h, factor.name.as_bytes());
        for level in &factor.levels {
            h = fnv1a(h, &(level.len() as u64).to_le_bytes());
            h = fnv1a(h, level.as_bytes());
        }
    }
    splitmix64(h)
}

/// Derives the content-addressed key of one design point under `meta`:
/// a pure function of (levels, config fingerprint, seed, code version),
/// independent of the design index, execution order or thread count.
pub fn point_key(meta: &JournalMeta, point: &RunPoint) -> JournalKey {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, meta.code_version.as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, meta.config_fingerprint.as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, &meta.seed.to_le_bytes());
    for level in &point.levels {
        h = fnv1a(h, &(level.len() as u64).to_le_bytes());
        h = fnv1a(h, level.as_bytes());
    }
    JournalKey(splitmix64(h))
}

/// The key of every design point, in design order. Refuses a design in
/// which two points share a key with [`JournalError::DuplicateKey`], so
/// each journal record belongs to exactly one point.
pub fn design_keys(
    meta: &JournalMeta,
    points: &[RunPoint],
) -> Result<Vec<JournalKey>, JournalError> {
    let keys: Vec<JournalKey> = points.iter().map(|p| point_key(meta, p)).collect();
    let mut first_of: HashMap<JournalKey, usize> = HashMap::with_capacity(keys.len());
    for (second, &key) in keys.iter().enumerate() {
        if let Some(&first) = first_of.get(&key) {
            return Err(JournalError::DuplicateKey { first, second });
        }
        first_of.insert(key, second);
    }
    Ok(keys)
}

/// Appends the IEEE-754 bit pattern of `x` as 16 lowercase hex digits.
fn push_f64_hex(out: &mut String, x: f64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bits = x.to_bits();
    for shift in (0..16).rev() {
        out.push(char::from(HEX[(bits >> (4 * shift)) as usize & 0xF]));
    }
}

/// Appends `items` as a JSON array of quoted strings, each written by
/// `push`.
fn push_quoted_array<T>(out: &mut String, items: &[T], push: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        push(out, item);
        out.push('"');
    }
    out.push(']');
}

/// Wraps a JSON payload into one CRC-framed line (with trailing newline).
pub(crate) fn frame_line(json: &str) -> String {
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// Checks and strips the CRC frame of one line, returning the payload.
fn unframe(line: &str) -> Result<&str, String> {
    if line.len() < 10 || line.as_bytes().get(8) != Some(&b' ') {
        return Err("frame shorter than CRC prefix".into());
    }
    let crc = u32::from_str_radix(&line[..8], 16).map_err(|_| "bad CRC hex".to_string())?;
    let payload = &line[9..];
    let actual = crc32(payload.as_bytes());
    if crc != actual {
        return Err(format!(
            "CRC mismatch (frame {crc:08x}, payload {actual:08x})"
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Frame decoding (over the JSON reader from scibench-trace).
// ---------------------------------------------------------------------------

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

fn get_usize(v: &JsonValue, key: &str) -> Result<usize, String> {
    let n = v
        .get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric \"{key}\""))?;
    if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
        return Err(format!("\"{key}\" is not a small non-negative integer"));
    }
    Ok(n as usize)
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean \"{key}\"")),
    }
}

fn get_hex64(v: &JsonValue, key: &str) -> Result<u64, String> {
    let s = get_str(v, key)?;
    u64::from_str_radix(s, 16).map_err(|_| format!("\"{key}\" is not 16-hex"))
}

fn get_strings(v: &JsonValue, key: &str) -> Result<Vec<String>, String> {
    let arr = v
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing or non-array \"{key}\""))?;
    arr.iter()
        .map(|e| {
            e.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("non-string element in \"{key}\""))
        })
        .collect()
}

#[cfg(test)]
fn get_f64_bits_vec(v: &JsonValue, key: &str) -> Result<Vec<f64>, String> {
    let arr = v
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("missing or non-array \"{key}\""))?;
    arr.iter()
        .map(|e| {
            let s = e
                .as_str()
                .ok_or_else(|| format!("non-string bit pattern in \"{key}\""))?;
            u64::from_str_radix(s, 16)
                .map(f64::from_bits)
                .map_err(|_| format!("bad bit pattern in \"{key}\""))
        })
        .collect()
}

/// Hex digit values by byte, and `0xFF` for every byte that is none.
const NIBBLES: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut b = 0;
    while b < 256 {
        if let Some(d) = (b as u8 as char).to_digit(16) {
            table[b] = d as u8;
        }
        b += 1;
    }
    table
};

/// `u64::from_str_radix(s, 16)`. Sixteen hex digits, the form format 1
/// writes, are decoded through [`NIBBLES`] with no branch per digit; any
/// other string takes the library path.
fn hex_u64(s: &str) -> Option<u64> {
    if let Ok(digits) = <&[u8; 16]>::try_from(s.as_bytes()) {
        let (bits, seen) = digits.iter().fold((0u64, 0u8), |(bits, seen), &b| {
            let nibble = NIBBLES[usize::from(b)];
            (bits << 4 | u64::from(nibble & 0xF), seen | nibble)
        });
        if seen <= 0xF {
            return Some(bits);
        }
    }
    u64::from_str_radix(s, 16).ok()
}

/// Reads an object, handing the first occurrence of each key in `keys`
/// to `field`. Later duplicates and every other key are checked and
/// skipped, so the fields read are those [`JsonValue::get`] finds in the
/// object's tree.
fn read_fields<'a, const N: usize>(
    r: &mut JsonReader<'a>,
    keys: &[&'static str; N],
    mut field: impl FnMut(&mut JsonReader<'a>, &'static str) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    let mut seen = [false; N];
    r.object(|r, key| match keys.iter().position(|k| *k == key) {
        Some(i) if !seen[i] => {
            seen[i] = true;
            field(r, keys[i])
        }
        _ => r.skip(),
    })
}

/// Reads `warmup` or `samples`, an array of quoted bit patterns, straight
/// into `f64`s. A value that is not such an array is still read through,
/// and becomes the error a point frame reports.
fn decode_samples(
    r: &mut JsonReader<'_>,
    key: &str,
) -> Result<Result<Vec<f64>, String>, JsonError> {
    if r.peek() != Some(b'[') {
        r.skip()?;
        return Ok(Err(format!("missing or non-array \"{key}\"")));
    }
    let (mut samples, mut valid) = (Vec::new(), true);
    r.array(|r| {
        let bits = match r.fixed_string::<16>() {
            Some(digits) => hex_u64(digits),
            None if r.peek() == Some(b'"') => hex_u64(&r.string()?),
            None => {
                r.skip()?;
                None
            }
        };
        match bits {
            Some(bits) => samples.push(f64::from_bits(bits)),
            None => valid = false,
        }
        Ok(())
    })?;
    Ok(if valid {
        Ok(samples)
    } else {
        Err(format!("bad bit pattern in \"{key}\""))
    })
}

/// Reads an `outcome` value: `null` is no outcome, and an object is
/// decoded with its sample arrays going straight into `f64`s. Any other
/// value is read through and becomes the error a point frame reports.
fn decode_outcome(
    r: &mut JsonReader<'_>,
) -> Result<Result<Option<MeasurementOutcome>, String>, JsonError> {
    if r.peek() != Some(b'{') {
        return Ok(match r.value()? {
            JsonValue::Null => Ok(None),
            _ => Err("non-object \"outcome\"".into()),
        });
    }
    let mut fields = Vec::new();
    let mut warmup = Err("missing \"warmup\"".to_string());
    let mut samples = Err("missing \"samples\"".to_string());
    read_fields(r, &["name", "converged", "warmup", "samples"], |r, key| {
        match key {
            "warmup" => warmup = decode_samples(r, key)?,
            "samples" => samples = decode_samples(r, key)?,
            _ => fields.push((key.to_owned(), r.value()?)),
        }
        Ok(())
    })?;
    let fields = JsonValue::Object(fields);
    Ok((|| {
        Ok(Some(MeasurementOutcome {
            name: get_str(&fields, "name")?.to_owned(),
            converged: get_bool(&fields, "converged")?,
            warmup_samples: warmup?,
            samples: samples?,
        }))
    })())
}

/// What one valid frame says.
enum Frame {
    Header(JournalMeta),
    Begin(usize, JournalKey),
    Point(PointRecord),
}

/// The top-level keys some frame kind reads.
const FRAME_KEYS: [&str; 14] = [
    "kind",
    "format",
    "code_version",
    "config",
    "seed",
    "design",
    "idx",
    "key",
    "levels",
    "fate",
    "panics",
    "outcome",
    "notes",
    "sketch",
];

/// Decodes one frame payload in a single pass. The JSON is checked byte
/// for byte as [`scibench_trace::json::parse`] checks it, but the sample
/// arrays never become a tree: only the small fields come out as
/// [`JsonValue`]s, which the accessors read as they would in the tree of
/// the whole frame. A field of the wrong type fails the frame only if
/// the frame's kind reads it.
fn decode_frame(payload: &str) -> Result<Frame, String> {
    let mut r = JsonReader::new(payload);
    let mut fields = Vec::new();
    let mut outcome = Ok(None);
    read_fields(&mut r, &FRAME_KEYS, |r, key| {
        if key == "outcome" {
            outcome = decode_outcome(r)?;
        } else {
            fields.push((key.to_owned(), r.value()?));
        }
        Ok(())
    })
    .and_then(|()| r.finish())
    .map_err(|e| format!("bad JSON: {e}"))?;
    frame_of_kind(&JsonValue::Object(fields), |v| {
        PointRecord::from_fields(v, outcome)
    })
}

/// Reads the frame's `kind` and converts the fields that kind reads from
/// `v`, the frame's top-level fields; `point` converts a point frame.
fn frame_of_kind(
    v: &JsonValue,
    point: impl FnOnce(&JsonValue) -> Result<PointRecord, String>,
) -> Result<Frame, String> {
    Ok(match get_str(v, "kind")? {
        "header" => Frame::Header(header_from_json(v)?),
        "begin" => Frame::Begin(get_usize(v, "idx")?, JournalKey(get_hex64(v, "key")?)),
        "point" => Frame::Point(point(v)?),
        other => return Err(format!("unknown frame kind \"{other}\"")),
    })
}

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

/// One journaled design-point result (the durable form of a
/// [`ResilientRun`], plus optional free-form notes used by coarser
/// consumers such as `all_figures` figure-level resume).
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Design (full-factorial) index of the point.
    pub index: usize,
    /// Content-addressed key of the point.
    pub key: JournalKey,
    /// The point's factor levels (for human inspection; the key is
    /// authoritative).
    pub levels: Vec<String>,
    /// What happened to the point.
    pub fate: PointFate,
    /// Panics contained while attempting the point.
    pub panics_contained: usize,
    /// The surviving outcome; `None` when the point was quarantined.
    pub outcome: Option<MeasurementOutcome>,
    /// Free-form annotations (e.g. progress lines to replay on resume).
    pub notes: Vec<String>,
    /// Canonical streaming-sketch record for the point, when the
    /// campaign ran in streaming mode (`scibench_stats::sketch`
    /// wire form — bit-exact, NaN-safe).
    pub sketch: Option<String>,
}

impl PointRecord {
    /// Builds the durable record of one executed run.
    pub fn from_run(index: usize, key: JournalKey, run: &ResilientRun) -> Self {
        Self {
            index,
            key,
            levels: run.point.levels.clone(),
            fate: run.fate.clone(),
            panics_contained: run.panics_contained,
            outcome: run.outcome.clone(),
            notes: Vec::new(),
            sketch: None,
        }
    }

    /// Reconstructs the in-memory run this record was made from.
    pub fn into_run(self) -> ResilientRun {
        ResilientRun {
            point: RunPoint {
                levels: self.levels,
            },
            outcome: self.outcome,
            fate: self.fate,
            panics_contained: self.panics_contained,
        }
    }

    /// Serializes the record body as canonical JSON (no CRC frame).
    pub fn to_json(&self) -> String {
        let samples = self
            .outcome
            .as_ref()
            .map_or(0, |o| o.warmup_samples.len() + o.samples.len());
        let strings: usize = self
            .levels
            .iter()
            .chain(&self.notes)
            .chain(&self.sketch)
            .map(|s| s.len() + 3)
            .sum();
        // A quoted bit pattern and its comma take 19 bytes; the fixed
        // fields fit in 256.
        let mut out = String::with_capacity(256 + 19 * samples + strings);
        let _ = write!(
            out,
            "{{\"kind\":\"point\",\"idx\":{},\"key\":\"{}\",\"levels\":",
            self.index, self.key
        );
        push_quoted_array(&mut out, &self.levels, |out, s| push_json_escaped(out, s));
        out.push_str(",\"fate\":");
        match &self.fate {
            PointFate::Completed {
                attempts,
                samples_dropped,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"completed\",\"attempts\":{attempts},\"dropped\":{samples_dropped}}}"
                );
            }
            PointFate::TimedOut {
                attempts,
                elapsed_ns,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"timed_out\",\"attempts\":{attempts},\"elapsed\":\"{:016x}\"}}",
                    elapsed_ns.to_bits()
                );
            }
            PointFate::Abandoned {
                attempts,
                last_error,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"abandoned\",\"attempts\":{attempts},\"error\":\""
                );
                push_json_escaped(&mut out, last_error);
                out.push_str("\"}");
            }
        }
        let _ = write!(out, ",\"panics\":{},\"outcome\":", self.panics_contained);
        match &self.outcome {
            None => out.push_str("null"),
            Some(o) => {
                out.push_str("{\"name\":\"");
                push_json_escaped(&mut out, &o.name);
                let _ = write!(out, "\",\"converged\":{},\"warmup\":", o.converged);
                push_quoted_array(&mut out, &o.warmup_samples, |out, &x| push_f64_hex(out, x));
                out.push_str(",\"samples\":");
                push_quoted_array(&mut out, &o.samples, |out, &x| push_f64_hex(out, x));
                out.push('}');
            }
        }
        out.push_str(",\"notes\":");
        push_quoted_array(&mut out, &self.notes, |out, s| push_json_escaped(out, s));
        if let Some(sketch) = &self.sketch {
            out.push_str(",\"sketch\":\"");
            push_json_escaped(&mut out, sketch);
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Converts a point frame: `v` holds its top-level fields, and
    /// `outcome` is its `outcome` field, decoded.
    fn from_fields(
        v: &JsonValue,
        outcome: Result<Option<MeasurementOutcome>, String>,
    ) -> Result<Self, String> {
        let fate_v = v.get("fate").ok_or("missing \"fate\"")?;
        let attempts = get_usize(fate_v, "attempts")?;
        let fate = match get_str(fate_v, "kind")? {
            "completed" => PointFate::Completed {
                attempts,
                samples_dropped: get_usize(fate_v, "dropped")?,
            },
            "timed_out" => PointFate::TimedOut {
                attempts,
                elapsed_ns: f64::from_bits(get_hex64(fate_v, "elapsed")?),
            },
            "abandoned" => PointFate::Abandoned {
                attempts,
                last_error: get_str(fate_v, "error")?.to_owned(),
            },
            other => return Err(format!("unknown fate kind \"{other}\"")),
        };
        Ok(Self {
            index: get_usize(v, "idx")?,
            key: JournalKey(get_hex64(v, "key")?),
            levels: get_strings(v, "levels")?,
            fate,
            panics_contained: get_usize(v, "panics")?,
            outcome: outcome?,
            notes: get_strings(v, "notes").unwrap_or_default(),
            sketch: match v.get("sketch") {
                Some(JsonValue::Null) | None => None,
                Some(_) => Some(get_str(v, "sketch")?.to_owned()),
            },
        })
    }

    /// The tree decode of a point frame, the oracle of [`decode_frame`]:
    /// `outcome` and its sample arrays are read from `v`, the frame's
    /// whole tree.
    #[cfg(test)]
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let outcome = match v.get("outcome") {
            Some(JsonValue::Null) | None => None,
            Some(o) => Some(MeasurementOutcome {
                name: get_str(o, "name")?.to_owned(),
                converged: get_bool(o, "converged")?,
                warmup_samples: get_f64_bits_vec(o, "warmup")?,
                samples: get_f64_bits_vec(o, "samples")?,
            }),
        };
        Self::from_fields(v, Ok(outcome))
    }
}

/// The tree decode of a frame, the oracle of [`decode_frame`]: the
/// payload is parsed into one [`JsonValue`] first.
#[cfg(test)]
fn decode_frame_tree(payload: &str) -> Result<Frame, String> {
    let v = parse_json(payload).map_err(|e| format!("bad JSON: {e}"))?;
    frame_of_kind(&v, PointRecord::from_json)
}

fn header_json(meta: &JournalMeta) -> String {
    let mut out = format!(
        "{{\"kind\":\"header\",\"format\":{},\"code_version\":\"",
        meta.format
    );
    push_json_escaped(&mut out, &meta.code_version);
    out.push_str("\",\"config\":\"");
    push_json_escaped(&mut out, &meta.config_fingerprint);
    let _ = write!(
        out,
        "\",\"seed\":\"{:016x}\",\"design\":\"{:016x}\"}}",
        meta.seed, meta.design_fingerprint
    );
    out
}

fn header_from_json(v: &JsonValue) -> Result<JournalMeta, String> {
    Ok(JournalMeta {
        format: u32::try_from(get_usize(v, "format")?)
            .map_err(|_| "\"format\" does not fit in u32".to_string())?,
        code_version: get_str(v, "code_version")?.to_owned(),
        config_fingerprint: get_str(v, "config")?.to_owned(),
        seed: get_hex64(v, "seed")?,
        design_fingerprint: get_hex64(v, "design")?,
    })
}

// ---------------------------------------------------------------------------
// Snapshot (the parsed journal) and the Journal handle.
// ---------------------------------------------------------------------------

/// The parsed state of a journal file.
#[derive(Debug, Clone, Default)]
pub struct JournalSnapshot {
    /// The header, if any frame was readable (`None` for an empty file).
    pub meta: Option<JournalMeta>,
    /// Completed point records, keyed content-addressed. Duplicate keys
    /// resolve last-write-wins.
    pub records: HashMap<JournalKey, PointRecord>,
    /// `begin` markers without a later matching `point` record — the
    /// points that were in flight when the writer died. (Duplicates are
    /// possible across respawns.)
    pub dangling_begins: Vec<(usize, JournalKey)>,
    /// Valid frames parsed.
    pub frames: usize,
    /// Byte length of the valid prefix (everything after it is torn).
    pub valid_len: u64,
    /// Whether a torn tail was dropped.
    pub torn: bool,
}

impl JournalSnapshot {
    /// Looks up the completed record for a key.
    pub fn record_for(&self, key: JournalKey) -> Option<&PointRecord> {
        self.records.get(&key)
    }
}

fn io_err(path: &Path, op: &'static str, error: impl fmt::Display) -> JournalError {
    JournalError::Io {
        path: path.display().to_string(),
        op,
        error: error.to_string(),
    }
}

/// An open, append-mode journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Parses a journal file. The file must exist; see
    /// [`Journal::load_or_empty`] for the tolerant variant.
    ///
    /// A bad frame at the very end of the file (a torn write from a
    /// crash) is dropped and reported via [`JournalSnapshot::torn`]; a
    /// bad frame anywhere else is [`JournalError::CorruptFrame`].
    pub fn load(path: &Path) -> Result<JournalSnapshot, JournalError> {
        let bytes = std::fs::read(path).map_err(|e| io_err(path, "read", e))?;
        Self::parse(&bytes)
    }

    /// [`Journal::load`], but a missing file is an empty snapshot.
    pub fn load_or_empty(path: &Path) -> Result<JournalSnapshot, JournalError> {
        if !path.exists() {
            return Ok(JournalSnapshot::default());
        }
        Self::load(path)
    }

    fn parse(bytes: &[u8]) -> Result<JournalSnapshot, JournalError> {
        Self::parse_with(bytes, decode_frame)
    }

    /// [`Journal::parse`] with the frame decoder given, so that tests can
    /// run the tree oracle through the same framing.
    fn parse_with(
        bytes: &[u8],
        decode: impl Fn(&str) -> Result<Frame, String>,
    ) -> Result<JournalSnapshot, JournalError> {
        let mut snap = JournalSnapshot::default();
        // Split into newline-terminated lines; an unterminated tail is a
        // torn write by definition (every append ends with '\n').
        let mut start = 0usize;
        let mut lines: Vec<(usize, &[u8])> = Vec::new(); // (offset, line w/o \n)
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                lines.push((start, &bytes[start..i]));
                start = i + 1;
            }
        }
        let unterminated_tail = start < bytes.len();

        for (lineno, (offset, raw)) in lines.iter().enumerate() {
            let last = lineno + 1 == lines.len() && !unterminated_tail;
            let frame = std::str::from_utf8(raw)
                .map_err(|_| "invalid utf-8".to_string())
                .and_then(unframe)
                .and_then(&decode)
                .and_then(|frame| match frame {
                    Frame::Header(_) if lineno != 0 => Err("header frame not first".to_string()),
                    frame => Ok(frame),
                });
            match frame {
                Ok(Frame::Header(meta)) => snap.meta = Some(meta),
                Ok(Frame::Begin(idx, key)) => snap.dangling_begins.push((idx, key)),
                Ok(Frame::Point(rec)) => {
                    snap.dangling_begins.retain(|(_, k)| *k != rec.key);
                    snap.records.insert(rec.key, rec);
                }
                Err(_) if last => {
                    // Torn trailing record: truncate-and-continue.
                    snap.torn = true;
                    snap.valid_len = *offset as u64;
                    return Ok(snap);
                }
                Err(reason) => {
                    return Err(JournalError::CorruptFrame {
                        line: lineno + 1,
                        reason,
                    });
                }
            }
            if lineno == 0 && snap.meta.is_none() {
                return Err(JournalError::MissingHeader);
            }
            snap.frames += 1;
            snap.valid_len = (*offset + raw.len() + 1) as u64;
        }
        if unterminated_tail {
            snap.torn = true;
        }
        Ok(snap)
    }

    /// Opens (creating if necessary) a journal for appending, bound to
    /// `meta`.
    ///
    /// * Missing or empty file: a fresh header is written.
    /// * Existing journal: the header must match `meta` exactly, else
    ///   the journal is refused as [`JournalError::Stale`] — a journal
    ///   from an older code version or a different machine config must
    ///   never be silently reused.
    /// * A torn tail is physically truncated so new appends continue
    ///   from the last intact frame.
    ///
    /// Returns the open journal and the snapshot of surviving records.
    pub fn open_resume(
        path: &Path,
        meta: &JournalMeta,
    ) -> Result<(Journal, JournalSnapshot), JournalError> {
        let mut snap = Journal::load_or_empty(path)?;
        match &snap.meta {
            None => {}
            Some(found) => {
                let checks: [(&'static str, String, String); 5] = [
                    ("format", meta.format.to_string(), found.format.to_string()),
                    (
                        "code_version",
                        meta.code_version.clone(),
                        found.code_version.clone(),
                    ),
                    (
                        "config_fingerprint",
                        meta.config_fingerprint.clone(),
                        found.config_fingerprint.clone(),
                    ),
                    (
                        "seed",
                        format!("{:016x}", meta.seed),
                        format!("{:016x}", found.seed),
                    ),
                    (
                        "design_fingerprint",
                        format!("{:016x}", meta.design_fingerprint),
                        format!("{:016x}", found.design_fingerprint),
                    ),
                ];
                for (field, expected, found) in checks {
                    if expected != found {
                        return Err(JournalError::Stale {
                            field,
                            expected,
                            found,
                        });
                    }
                }
            }
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| io_err(path, "create-dir", e))?;
            }
        }
        // O_APPEND: every frame is one atomic append, so a straggling
        // writer from a previous incarnation cannot interleave bytes
        // *inside* a frame written by this one — at worst it adds whole
        // frames, which last-write-wins replay absorbs.
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open", e))?;
        // Drop any torn tail so appends continue from the intact prefix.
        file.set_len(snap.valid_len)
            .map_err(|e| io_err(path, "truncate", e))?;
        let mut journal = Journal {
            file,
            path: path.to_owned(),
        };
        if snap.meta.is_none() {
            journal.append_json(&header_json(meta))?;
            snap.meta = Some(meta.clone());
        }
        Ok((journal, snap))
    }

    fn append_json(&mut self, json: &str) -> Result<(), JournalError> {
        let line = frame_line(json);
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, "append", e))?;
        self.file
            .flush()
            .map_err(|e| io_err(&self.path, "flush", e))?;
        Ok(())
    }

    /// Appends a `begin` intent marker: "this point is now in flight".
    /// A begin without a later matching point record marks the point a
    /// crashed worker was executing ([`JournalSnapshot::dangling_begins`]).
    pub fn append_begin(&mut self, index: usize, key: JournalKey) -> Result<(), JournalError> {
        self.append_json(&format!(
            "{{\"kind\":\"begin\",\"idx\":{index},\"key\":\"{key}\"}}"
        ))
    }

    /// Appends one completed point record.
    pub fn append_point(&mut self, record: &PointRecord) -> Result<(), JournalError> {
        self.append_json(&record.to_json())
    }

    /// Forces the journal contents to stable storage (fsync).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file
            .sync_data()
            .map_err(|e| io_err(&self.path, "sync", e))
    }
}

/// A canonical 64-bit digest of a resilient campaign result: a pure
/// function of every run's levels, fate, panics and exact sample bits
/// (in design order). Two results are bit-identical iff their digests
/// match, which lets processes compare results across address spaces.
pub fn result_digest(result: &super::resilience::ResilientCampaignResult) -> u64 {
    let mut h = FNV_OFFSET;
    for (idx, run) in result.runs.iter().enumerate() {
        let rec = PointRecord::from_run(idx, JournalKey(0), run);
        let json = rec.to_json();
        h = fnv1a(h, &(json.len() as u64).to_le_bytes());
        h = fnv1a(h, json.as_bytes());
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::design::Factor;
    use proptest::prelude::*;
    use scibench_sim::rng::SimRng;
    use scibench_trace::json::MAX_DEPTH;
    use std::collections::BTreeMap;
    use std::fs;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scibench-journal-test-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("campaign.journal")
    }

    fn demo_design() -> Design {
        Design::new(vec![
            Factor::new("system", &["a", "b"]),
            Factor::numeric("size", &[8.0, 64.0]),
        ])
    }

    fn demo_meta() -> JournalMeta {
        JournalMeta::new(&demo_design(), 42, "test-v1", "machine=demo")
    }

    fn demo_run(nan: bool) -> ResilientRun {
        ResilientRun {
            point: RunPoint {
                levels: vec!["a".into(), "8".into()],
            },
            outcome: Some(MeasurementOutcome {
                name: "op \"quoted\"\nline".into(),
                warmup_samples: vec![0.5],
                samples: vec![
                    1.0,
                    -2.5e-300,
                    if nan { f64::NAN } else { 3.0 },
                    f64::INFINITY,
                ],
                converged: true,
            }),
            fate: PointFate::Completed {
                attempts: 2,
                samples_dropped: 1,
            },
            panics_contained: 1,
        }
    }

    #[test]
    fn keys_and_point_streams_are_pinned() {
        // Existing journals resume only while point keys stay the same,
        // and results stay bit-identical only while per-point streams do:
        // both hash with FNV-1a + SplitMix64, so pin their literal values.
        let key = point_key(&demo_meta(), &demo_design().full_factorial()[1]);
        assert_eq!(key, JournalKey(0x7d9c_56ed_933b_54a2));
        assert_eq!(design_fingerprint(&demo_design()), 0x281c_6c24_1525_e9ce);
        let stream = SimRng::new(7).fork_indexed("campaign-point", 3);
        assert_eq!(stream.seed(), 0x82e8_e89b_2eff_6a0f);
    }

    #[test]
    fn design_keys_follow_the_design_and_name_the_first_repeat() {
        let meta = demo_meta();
        let points = demo_design().full_factorial();
        let keys = design_keys(&meta, &points).unwrap();
        let each: Vec<JournalKey> = points.iter().map(|p| point_key(&meta, p)).collect();
        assert_eq!(keys, each);
        // Equal levels hash to one key: the error names the first point
        // with the key and the first point that repeats it.
        let repeated = Design::new(vec![
            Factor::new("system", &["a", "b", "a", "b"]),
            Factor::numeric("size", &[8.0]),
        ]);
        let meta = JournalMeta::new(&repeated, 42, "test-v1", "machine=demo");
        let err = design_keys(&meta, &repeated.full_factorial()).unwrap_err();
        assert!(
            matches!(
                err,
                JournalError::DuplicateKey {
                    first: 0,
                    second: 2
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn point_records_give_back_the_run_they_were_made_from() {
        let run = demo_run(false);
        let key = point_key(&demo_meta(), &run.point);
        let record = PointRecord::from_run(3, key, &run);
        assert_eq!((record.index, record.key), (3, key));
        assert_eq!(record.into_run(), run);
    }

    #[test]
    fn crc32_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC32 the table is built from: the oracle the
    /// table-driven [`crc32`] must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn table_crc32_matches_bitwise_oracle(
            bytes in prop::collection::vec(0u32..256, 0..=1024)
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    /// Records covering every fate, escapes in every string field and the
    /// sample bit patterns plain decimal would lose (NaN, -0.0, +inf, the
    /// smallest subnormal, `f64::MAX`).
    fn pinned_records() -> Vec<PointRecord> {
        vec![
            PointRecord {
                index: 5,
                key: JournalKey(0x0123_4567_89ab_cdef),
                levels: vec!["a".into(), "8".into()],
                fate: PointFate::Completed {
                    attempts: 2,
                    samples_dropped: 1,
                },
                panics_contained: 1,
                outcome: Some(MeasurementOutcome {
                    name: "op \"q\"\\\n\u{1}\u{e9}".into(),
                    converged: false,
                    warmup_samples: vec![0.5],
                    samples: vec![f64::NAN, -0.0, f64::INFINITY, 5e-324, f64::MAX],
                }),
                notes: vec!["note\ttab".into()],
                sketch: Some("ss1|x=\"y\"".into()),
            },
            PointRecord {
                index: 6,
                key: JournalKey(0xfedc_ba98_7654_3210),
                levels: vec!["b".into(), "64".into()],
                fate: PointFate::TimedOut {
                    attempts: 7,
                    elapsed_ns: 1.5e9,
                },
                panics_contained: 0,
                outcome: None,
                notes: Vec::new(),
                sketch: None,
            },
            PointRecord {
                index: 7,
                key: JournalKey(7),
                levels: vec!["b".into(), "8".into()],
                fate: PointFate::Abandoned {
                    attempts: 3,
                    last_error: "panicked: \"boom\"\r\n".into(),
                },
                panics_contained: 3,
                outcome: None,
                notes: vec!["x".into(), "y".into()],
                sketch: None,
            },
        ]
    }

    /// `pinned_records` as format 1 encodes them; journals written
    /// earlier must keep loading, so these bytes must never change.
    const PINNED_JSON: [&str; 3] = [
        r#"{"kind":"point","idx":5,"key":"0123456789abcdef","levels":["a","8"],"fate":{"kind":"completed","attempts":2,"dropped":1},"panics":1,"outcome":{"name":"op \"q\"\\\n\u0001é","converged":false,"warmup":["3fe0000000000000"],"samples":["7ff8000000000000","8000000000000000","7ff0000000000000","0000000000000001","7fefffffffffffff"]},"notes":["note\ttab"],"sketch":"ss1|x=\"y\""}"#,
        r#"{"kind":"point","idx":6,"key":"fedcba9876543210","levels":["b","64"],"fate":{"kind":"timed_out","attempts":7,"elapsed":"41d65a0bc0000000"},"panics":0,"outcome":null,"notes":[]}"#,
        r#"{"kind":"point","idx":7,"key":"0000000000000007","levels":["b","8"],"fate":{"kind":"abandoned","attempts":3,"error":"panicked: \"boom\"\r\n"},"panics":3,"outcome":null,"notes":["x","y"]}"#,
    ];

    /// A format-1 journal holding `pinned_records` (with a dangling
    /// begin for point 8), as written before the table CRC and the
    /// single-buffer encoder.
    const PINNED_JOURNAL: &str = r#"6a2e52bd {"kind":"header","format":1,"code_version":"test-v1","config":"machine=demo","seed":"000000000000002a","design":"281c6c241525e9ce"}
d156751f {"kind":"begin","idx":5,"key":"0123456789abcdef"}
88136243 {"kind":"point","idx":5,"key":"0123456789abcdef","levels":["a","8"],"fate":{"kind":"completed","attempts":2,"dropped":1},"panics":1,"outcome":{"name":"op \"q\"\\\n\u0001é","converged":false,"warmup":["3fe0000000000000"],"samples":["7ff8000000000000","8000000000000000","7ff0000000000000","0000000000000001","7fefffffffffffff"]},"notes":["note\ttab"],"sketch":"ss1|x=\"y\""}
0b10ad28 {"kind":"begin","idx":6,"key":"fedcba9876543210"}
03c5aa25 {"kind":"point","idx":6,"key":"fedcba9876543210","levels":["b","64"],"fate":{"kind":"timed_out","attempts":7,"elapsed":"41d65a0bc0000000"},"panics":0,"outcome":null,"notes":[]}
c91bb8be {"kind":"point","idx":7,"key":"0000000000000007","levels":["b","8"],"fate":{"kind":"abandoned","attempts":3,"error":"panicked: \"boom\"\r\n"},"panics":3,"outcome":null,"notes":["x","y"]}
802dc9b2 {"kind":"begin","idx":8,"key":"0000000000000008"}
"#;

    #[test]
    fn point_record_encoding_is_pinned() {
        for (rec, json) in pinned_records().iter().zip(PINNED_JSON) {
            assert_eq!(rec.to_json(), json);
            // The encoding holds every field and sample bit, so equal
            // encodings are bit-exact equality (`==` fails on NaN).
            let parsed = PointRecord::from_json(&parse_json(json).unwrap()).unwrap();
            assert_eq!(parsed.to_json(), json);
        }
    }

    #[test]
    fn journal_in_format_1_encoding_loads_the_same_records() {
        let path = tmp_path("pinned");
        fs::write(&path, PINNED_JOURNAL).unwrap();
        let snap = Journal::load(&path).unwrap();
        assert_eq!(snap.meta, Some(demo_meta()));
        assert_eq!(snap.frames, 7);
        assert!(!snap.torn);
        assert_eq!(snap.valid_len, PINNED_JOURNAL.len() as u64);
        assert_eq!(snap.dangling_begins, vec![(8, JournalKey(8))]);
        assert_eq!(snap.records.len(), 3);
        for rec in pinned_records() {
            assert_eq!(snap.record_for(rec.key).unwrap().to_json(), rec.to_json());
        }
        // Writing the same frames today gives the same bytes.
        let path = tmp_path("pinned-rewrite");
        let (mut journal, _) = Journal::open_resume(&path, &demo_meta()).unwrap();
        let recs = pinned_records();
        journal.append_begin(5, recs[0].key).unwrap();
        journal.append_point(&recs[0]).unwrap();
        journal.append_begin(6, recs[1].key).unwrap();
        journal.append_point(&recs[1]).unwrap();
        journal.append_point(&recs[2]).unwrap();
        journal.append_begin(8, JournalKey(8)).unwrap();
        drop(journal);
        assert_eq!(fs::read_to_string(&path).unwrap(), PINNED_JOURNAL);
    }

    // Byte-level fuzz. `Journal::load` is `std::fs::read` plus
    // `Journal::parse`, so the cases go to `parse` directly; every one
    // must give a snapshot or a typed `JournalError`, never a panic.

    /// The first three frames of `PINNED_JOURNAL`: header, begin, point.
    fn fuzz_base() -> Vec<&'static str> {
        PINNED_JOURNAL.lines().take(3).collect()
    }

    fn join_frames(frames: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for frame in frames {
            bytes.extend_from_slice(frame);
            bytes.push(b'\n');
        }
        bytes
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut line = format!("{:08x} ", crc32(payload)).into_bytes();
        line.extend_from_slice(payload);
        line
    }

    /// Decodes a point payload with the one-pass decoder, and checks that
    /// the tree oracle decodes it to the same record.
    fn decode_point(json: &str) -> PointRecord {
        let Ok(Frame::Point(rec)) = decode_frame(json) else {
            panic!("{json} does not decode");
        };
        let oracle = PointRecord::from_json(&parse_json(json).unwrap()).unwrap();
        assert_eq!(rec.to_json(), oracle.to_json());
        rec
    }

    /// A parse result in the terms two decoders must agree on: every
    /// snapshot field, with each record as its encoding (`==` fails on
    /// NaN), or the error's variant and line. A `CorruptFrame` reason is
    /// left out: it names the first fault found, which depends on the
    /// order the decoder reads fields in.
    type Agreed = Result<
        (
            Option<JournalMeta>,
            usize,
            u64,
            bool,
            Vec<(usize, JournalKey)>,
            BTreeMap<JournalKey, String>,
        ),
        String,
    >;

    fn agreed(result: &Result<JournalSnapshot, JournalError>) -> Agreed {
        match result {
            Ok(snap) => Ok((
                snap.meta.clone(),
                snap.frames,
                snap.valid_len,
                snap.torn,
                snap.dangling_begins.clone(),
                snap.records
                    .iter()
                    .map(|(k, r)| (*k, r.to_json()))
                    .collect(),
            )),
            Err(JournalError::CorruptFrame { line, .. }) => Err(format!("corrupt frame {line}")),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// Parses one fuzz case with the one-pass decoder and with the tree
    /// oracle, naming the case if either panics. The two must agree, and
    /// whatever they accepted must re-encode stably.
    fn parse_case(bytes: &[u8], case: &str) -> Result<JournalSnapshot, JournalError> {
        let (result, oracle) = std::panic::catch_unwind(|| {
            (
                Journal::parse(bytes),
                Journal::parse_with(bytes, decode_frame_tree),
            )
        })
        .unwrap_or_else(|_| panic!("Journal::parse panicked on {case}"));
        assert_eq!(agreed(&result), agreed(&oracle), "{case}");
        if let Ok(snap) = &result {
            assert!(snap.valid_len <= bytes.len() as u64, "{case}");
            for rec in snap.records.values() {
                let json = rec.to_json();
                assert_eq!(decode_point(&json).to_json(), json, "{case}");
            }
        }
        result
    }

    #[test]
    fn fuzz_truncation_at_every_byte_keeps_the_intact_frames() {
        let base = join_frames(&fuzz_base().iter().map(|l| l.as_bytes()).collect::<Vec<_>>());
        let ends: Vec<usize> = (0..base.len())
            .filter(|&i| base[i] == b'\n')
            .map(|i| i + 1)
            .collect();
        for cut in 0..=base.len() {
            let case = format!("truncation at byte {cut}");
            let snap = parse_case(&base[..cut], &case).unwrap_or_else(|e| panic!("{case}: {e}"));
            let intact = ends.iter().filter(|&&end| end <= cut).count();
            let valid_len = ends[..intact].last().copied().unwrap_or(0);
            assert_eq!(snap.frames, intact, "{case}");
            assert_eq!(snap.valid_len, valid_len as u64, "{case}");
            assert_eq!(snap.torn, cut != valid_len, "{case}");
            assert_eq!(snap.records.len(), usize::from(intact == 3), "{case}");
        }
    }

    /// Flips each payload bit of the frame at `target`, one at a time
    /// behind a recomputed CRC, and parses the journal `base` makes with
    /// it; returns how many cases were accepted and how many refused.
    fn flip_each_bit(base: &[&str], target: usize) -> (usize, usize) {
        let (mut accepted, mut refused) = (0usize, 0usize);
        let payload = &base[target].as_bytes()[9..];
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let flipped = framed(&flipped);
            let frames: Vec<&[u8]> = base
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    if i == target {
                        &flipped[..]
                    } else {
                        l.as_bytes()
                    }
                })
                .collect();
            let case = format!("frame {target}, payload bit {bit} flipped");
            match parse_case(&join_frames(&frames), &case) {
                Ok(_) => accepted += 1,
                Err(_) => refused += 1,
            }
        }
        (accepted, refused)
    }

    #[test]
    fn fuzz_bit_flips_behind_a_recomputed_crc_are_ok_or_typed_errors() {
        let base = fuzz_base();
        let (mut accepted, mut refused) = (0usize, 0usize);
        for target in 0..base.len() {
            let (a, r) = flip_each_bit(&base, target);
            accepted += a;
            refused += r;
        }
        // The flips reach both outcomes: the parser accepts some (a flip
        // inside a sample's hex digit) and refuses others.
        assert!(
            accepted > 0 && refused > 0,
            "{accepted} accepted, {refused} refused"
        );
        // A point frame with 64 samples, so that most flips land in a bit
        // pattern: a digit flipped to another digit or to its uppercase
        // form stays on the nibble table, any other byte sends the
        // pattern to the `from_str_radix` fallback. A frame follows it, so
        // that a refused flip is an error rather than a torn tail.
        let mut wide = pinned_records().remove(0);
        if let Some(outcome) = wide.outcome.as_mut() {
            outcome.samples = (0..64).map(|i| f64::from_bits(splitmix64(i))).collect();
        }
        let wide = frame_line(&wide.to_json());
        let (accepted, refused) = flip_each_bit(&[base[0], wide.trim_end(), base[1]], 1);
        assert!(
            accepted > 64 * 16 && refused > 64 * 16,
            "{accepted} accepted, {refused} refused"
        );
    }

    #[test]
    fn fuzz_random_payloads_behind_a_valid_crc_are_ok_or_typed_errors() {
        const ALPHABET: &[u8] = b"{}[]\":,\\ 0123456789abcdefklnoprstu-.+eE\xc3\xa9";
        let base = fuzz_base();
        let point = &base[2].as_bytes()[9..];
        let noise = |rng: &mut SimRng, len: usize| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    if rng.bernoulli(0.05) {
                        // Any byte but a newline: a payload is one line.
                        match rng.index(256) as u8 {
                            b'\n' => 0,
                            b => b,
                        }
                    } else {
                        ALPHABET[rng.index(ALPHABET.len())]
                    }
                })
                .collect()
        };
        let mut rng = SimRng::new(0x5eed_f022);
        for case in 0..256 {
            // Even cases: noise. Odd cases: the point payload with one
            // span replaced by noise, so more cases get past the JSON
            // parser into `PointRecord::from_json`.
            let payload = if case % 2 == 0 {
                let len = rng.index(160);
                noise(&mut rng, len)
            } else {
                let start = rng.index(point.len());
                let end = start + rng.index(point.len() - start + 1);
                let len = rng.index(8);
                let mut spliced = point[..start].to_vec();
                spliced.extend(noise(&mut rng, len));
                spliced.extend_from_slice(&point[end..]);
                spliced
            };
            let payload = framed(&payload);
            // As the tail (a torn write at worst) and before a valid frame.
            let mut tail: Vec<&[u8]> = base.iter().map(|l| l.as_bytes()).collect();
            tail.push(&payload);
            let snap = parse_case(&join_frames(&tail), &format!("random tail payload {case}"))
                .unwrap_or_else(|e| panic!("random tail payload {case}: {e}"));
            assert!(snap.frames >= 3, "random tail payload {case}");
            let mut middle = tail;
            middle.push(base[1].as_bytes());
            let _ = parse_case(&join_frames(&middle), &format!("random mid payload {case}"));
        }
    }

    /// A point payload with `fields` spliced in after `"kind":"point",`.
    fn point_with(fields: &str) -> String {
        format!(
            r#"{{"kind":"point",{fields}"idx":5,"key":"0123456789abcdef","levels":["a","8"],"fate":{{"kind":"completed","attempts":2,"dropped":1}},"panics":1,"outcome":{{"name":"n","converged":true,"warmup":[],"samples":["3ff0000000000000"]}},"notes":[]}}"#
        )
    }

    /// A point payload whose only sample is the JSON value `sample`.
    fn sample(sample: &str) -> String {
        point_with(&format!(
            r#""outcome":{{"name":"n","converged":true,"warmup":[],"samples":[{sample}]}},"#
        ))
    }

    /// A begin payload with `fields` spliced in before its end.
    fn begin_with(fields: &str) -> String {
        format!(r#"{{"kind":"begin","idx":1,"key":"0000000000000001"{fields}}}"#)
    }

    #[test]
    fn hand_written_frames_decode_as_the_tree_does() {
        let nest = |n: usize| begin_with(&format!(",\"x\":{}{}", "[".repeat(n), "]".repeat(n)));
        let cases: Vec<(&str, String, bool)> = vec![
            ("canonical point", point_with(""), true),
            (
                "kind last, whitespace everywhere",
                " {\t\"idx\" : 5 ,\"key\":\"0123456789abcdef\" , \"levels\" : [ \"a\" , \"8\" ] , \
                 \"fate\" : { \"attempts\" : 2 , \"dropped\" : 1 , \"kind\" : \"completed\" } , \
                 \"panics\":1 , \"outcome\" : { \"samples\" : [ \"3ff0000000000000\" , \
                 \"4000000000000000\" ] , \"warmup\" : [ ] , \"converged\" : true , \"name\" : \"n\" } , \
                 \"notes\" : [ ] , \"kind\" : \"point\" }\r "
                    .into(),
                true,
            ),
            // The first occurrence of a key wins; later ones are only checked.
            (
                "later duplicates of every key",
                point_with("").replace(
                    r#""notes":[]}"#,
                    r#""notes":[],"kind":"begin","idx":"x","key":5,"levels":5,"fate":5,"panics":-1,"outcome":5,"notes":[1]}"#,
                ),
                true,
            ),
            (
                "an earlier bad duplicate wins",
                point_with(r#""outcome":5,"#),
                false,
            ),
            (
                "duplicate keys in fate",
                point_with(
                    r#""fate":{"kind":"completed","attempts":2,"dropped":1,"kind":"bogus","attempts":"x"},"#,
                ),
                true,
            ),
            (
                "duplicate keys in outcome",
                point_with(
                    r#""outcome":{"name":"n","converged":true,"warmup":[],"samples":["3ff0000000000000"],"samples":[1],"name":5,"warmup":{}},"#,
                ),
                true,
            ),
            (
                "escaped key",
                point_with(
                    r#""outcome":{"name":"n","converged":true,"warmup":[],"s\u0061mples":["4000000000000000"]},"#,
                ),
                true,
            ),
            ("uppercase pattern", sample(r#""3FF0000000000000""#), true),
            ("short pattern", sample(r#""1""#), true),
            // 16 bytes after the first quote end at a quote, but span two
            // strings: the fixed-width path must not take them as one.
            ("two short patterns", sample(r#""1","0123456789ab""#), true),
            ("plus-prefixed pattern", sample(r#""+3ff0000000000000""#), true),
            ("plus-prefixed short pattern", sample(r#""+3ff000000000000""#), true),
            ("zero-padded pattern", sample(r#""00003ff0000000000000""#), true),
            ("escaped digit", sample(r#""\u0033ff0000000000000""#), true),
            ("overflowing pattern", sample(r#""13ff0000000000000""#), false),
            ("empty pattern", sample(r#""""#), false),
            ("negative pattern", sample(r#""-1""#), false),
            ("non-hex digit", sample(r#""3ff000000000000g""#), false),
            ("multi-byte char", sample("\"3ff00000000000\u{e9}\""), false),
            ("number for a pattern", sample("1"), false),
            ("null outcome", point_with(r#""outcome":null,"#), true),
            (
                "absent outcome",
                point_with("").replace(
                    r#""outcome":{"name":"n","converged":true,"warmup":[],"samples":["3ff0000000000000"]},"#,
                    "",
                ),
                true,
            ),
            ("numeric outcome", point_with(r#""outcome":1,"#), false),
            ("outcome without samples", point_with(r#""outcome":{"name":"n","converged":true,"warmup":[]},"#), false),
            ("malformed notes", point_with(r#""notes":5,"#), true),
            ("notes with a number", point_with(r#""notes":["a",1],"#), true),
            ("null sketch", point_with(r#""sketch":null,"#), true),
            ("numeric sketch", point_with(r#""sketch":5,"#), false),
            (
                "begin with malformed samples",
                begin_with(
                    r#","outcome":{"samples":[1,"zz"],"warmup":5},"samples":["zz"],"fate":5"#,
                ),
                true,
            ),
            ("begin with a bad idx", begin_with(r#","idx":"x""#).replacen(r#""idx":1,"#, "", 1), false),
            ("127 levels inside an ignored field", nest(MAX_DEPTH - 1), true),
            ("128 levels inside an ignored field", nest(MAX_DEPTH), false),
            ("129 levels inside an ignored field", nest(MAX_DEPTH + 1), false),
            ("unknown kind", point_with("").replacen("point", "pont", 1), false),
            ("numeric kind", point_with("").replacen(r#""point""#, "1", 1), false),
            ("no kind", point_with("").replacen(r#""kind":"point","#, "", 1), false),
            ("trailing garbage", point_with("") + "]", false),
            ("an array", format!("[{}]", point_with("")), false),
        ];
        let header = PINNED_JOURNAL.lines().next().unwrap();
        let begin = PINNED_JOURNAL.lines().nth(1).unwrap();
        for (case, payload, accepted) in &cases {
            assert_eq!(
                decode_frame(payload).is_ok(),
                *accepted,
                "{case}: {payload}"
            );
            assert_eq!(
                decode_frame_tree(payload).is_ok(),
                *accepted,
                "{case}: {payload}"
            );
            let frame = framed(payload.as_bytes());
            // In the middle of a journal, and as its torn tail.
            let middle = join_frames(&[header.as_bytes(), &frame, begin.as_bytes()]);
            let result = parse_case(&middle, case);
            assert_eq!(result.is_ok(), *accepted, "{case}");
            let tail = join_frames(&[header.as_bytes(), &frame]);
            let snap = parse_case(&tail, case).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(snap.torn, !*accepted, "{case}");
        }
    }

    #[test]
    fn header_format_beyond_u32_is_refused() {
        // 2^32 + 1 used to wrap to format 1.
        let header = format!(
            r#"{{"kind":"header","format":{},"code_version":"test-v1","config":"machine=demo","seed":"000000000000002a","design":"281c6c241525e9ce"}}"#,
            (1u64 << 32) + 1
        );
        let begin = PINNED_JOURNAL.lines().nth(1).unwrap();
        let journal = join_frames(&[&framed(header.as_bytes()), begin.as_bytes()]);
        assert!(matches!(
            parse_case(&journal, "format 2^32 + 1"),
            Err(JournalError::CorruptFrame { line: 1, .. })
        ));
        let path = tmp_path("format-wrap");
        fs::write(&path, &journal).unwrap();
        assert!(matches!(
            Journal::open_resume(&path, &demo_meta()),
            Err(JournalError::CorruptFrame { line: 1, .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn nibble_table_decodes_as_from_str_radix(
            digits in prop::collection::vec(0usize..24, 14..=18)
        ) {
            const CHARS: &[u8; 24] = b"0123456789abcdefABCDEFg+";
            let s: String = digits.iter().map(|&i| char::from(CHARS[i])).collect();
            prop_assert_eq!(hex_u64(&s), u64::from_str_radix(&s, 16).ok(), "{}", s);
        }
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let meta = demo_meta();
        let points = demo_design().full_factorial();
        let k0 = point_key(&meta, &points[0]);
        assert_eq!(k0, point_key(&meta, &points[0]));
        assert_ne!(k0, point_key(&meta, &points[1]));
        let mut other = meta.clone();
        other.seed = 43;
        assert_ne!(k0, point_key(&other, &points[0]));
        let mut other = meta.clone();
        other.code_version = "test-v2".into();
        assert_ne!(k0, point_key(&other, &points[0]));
        let mut other = meta.clone();
        other.config_fingerprint = "machine=other".into();
        assert_ne!(k0, point_key(&other, &points[0]));
    }

    #[test]
    fn record_roundtrip_is_bit_exact_including_nan() {
        let run = demo_run(true);
        let rec = PointRecord::from_run(3, JournalKey(0xdead_beef), &run);
        let json = rec.to_json();
        let parsed = decode_point(&json);
        assert_eq!(parsed.index, 3);
        assert_eq!(parsed.key, JournalKey(0xdead_beef));
        assert_eq!(parsed.fate, rec.fate);
        assert_eq!(parsed.panics_contained, 1);
        let (a, b) = (
            parsed.outcome.as_ref().unwrap(),
            rec.outcome.as_ref().unwrap(),
        );
        assert_eq!(a.name, b.name);
        assert_eq!(a.converged, b.converged);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.samples), bits(&b.samples));
        assert_eq!(bits(&a.warmup_samples), bits(&b.warmup_samples));
    }

    #[test]
    fn timed_out_and_abandoned_fates_roundtrip() {
        for fate in [
            PointFate::TimedOut {
                attempts: 7,
                elapsed_ns: 1.5e9,
            },
            PointFate::Abandoned {
                attempts: 3,
                last_error: "panicked: \"boom\"\n".into(),
            },
        ] {
            let rec = PointRecord {
                index: 0,
                key: JournalKey(1),
                levels: vec!["x".into()],
                fate: fate.clone(),
                panics_contained: 0,
                outcome: None,
                notes: vec!["note one".into()],
                sketch: None,
            };
            let parsed = decode_point(&rec.to_json());
            assert_eq!(parsed.fate, fate);
            assert!(parsed.outcome.is_none());
            assert_eq!(parsed.notes, vec!["note one".to_string()]);
            assert!(parsed.sketch.is_none());
        }
    }

    #[test]
    fn sketch_field_roundtrips_bit_exactly_and_is_optional() {
        // A record with an embedded NaN-bearing sketch wire form must
        // survive the JSON round trip byte-for-byte; records written
        // before the field existed must still parse.
        let wire = "ss1|thr=16|delta=200|mom=om1;2;1;3ff8000000000000;\
                    0000000000000000;3ff8000000000000;3ff8000000000000|grid=-|\
                    repr=exact:3ff8000000000000,7ff8000000000000";
        let rec = PointRecord {
            index: 4,
            key: JournalKey(0xdead_beef),
            levels: vec!["n=8".into()],
            fate: PointFate::Completed {
                attempts: 1,
                samples_dropped: 0,
            },
            panics_contained: 0,
            outcome: None,
            notes: Vec::new(),
            sketch: Some(wire.to_owned()),
        };
        let parsed = decode_point(&rec.to_json());
        assert_eq!(parsed.sketch.as_deref(), Some(wire));
        assert_eq!(parsed.to_json(), rec.to_json());
        // Pre-sketch-era JSON (no "sketch" key) parses as None.
        let legacy = rec
            .to_json()
            .replace(&format!(",\"sketch\":\"{wire}\""), "");
        let parsed = decode_point(&legacy);
        assert!(parsed.sketch.is_none());
    }

    #[test]
    fn empty_file_is_an_empty_snapshot() {
        let path = tmp_path("empty");
        fs::write(&path, b"").unwrap();
        let snap = Journal::load(&path).unwrap();
        assert!(snap.meta.is_none());
        assert_eq!(snap.frames, 0);
        assert!(!snap.torn);
        // Resume treats it as fresh: header written, journal usable.
        let (mut journal, snap) = Journal::open_resume(&path, &demo_meta()).unwrap();
        assert_eq!(snap.records.len(), 0);
        journal.append_begin(0, JournalKey(9)).unwrap();
        drop(journal);
        let snap = Journal::load(&path).unwrap();
        assert_eq!(snap.meta, Some(demo_meta()));
        assert_eq!(snap.dangling_begins, vec![(0, JournalKey(9))]);
    }

    #[test]
    fn missing_file_load_or_empty() {
        let path = tmp_path("missing");
        assert!(Journal::load(&path).is_err());
        let snap = Journal::load_or_empty(&path).unwrap();
        assert_eq!(snap.frames, 0);
    }

    #[test]
    fn torn_trailing_record_is_truncated_and_appends_continue() {
        let path = tmp_path("torn");
        let meta = demo_meta();
        let (mut journal, _) = Journal::open_resume(&path, &meta).unwrap();
        let rec = PointRecord::from_run(0, JournalKey(7), &demo_run(false));
        journal.append_point(&rec).unwrap();
        drop(journal);
        let intact = fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half a frame, no newline.
        let mut bytes = fs::read(&path).unwrap();
        let torn = frame_line(&rec.to_json());
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        fs::write(&path, &bytes).unwrap();

        let snap = Journal::load(&path).unwrap();
        assert!(snap.torn);
        assert_eq!(snap.valid_len, intact);
        assert_eq!(snap.records.len(), 1);

        // Resume truncates the torn tail and appends cleanly after it.
        let (mut journal, snap) = Journal::open_resume(&path, &meta).unwrap();
        assert_eq!(snap.records.len(), 1);
        let rec2 = PointRecord::from_run(1, JournalKey(8), &demo_run(false));
        journal.append_point(&rec2).unwrap();
        drop(journal);
        let snap = Journal::load(&path).unwrap();
        assert!(!snap.torn);
        assert_eq!(snap.records.len(), 2);
    }

    #[test]
    fn torn_trailing_crc_mismatch_is_tolerated() {
        let path = tmp_path("torn-crc");
        let meta = demo_meta();
        let (mut journal, _) = Journal::open_resume(&path, &meta).unwrap();
        journal
            .append_point(&PointRecord::from_run(0, JournalKey(7), &demo_run(false)))
            .unwrap();
        drop(journal);
        // A complete line whose payload was corrupted in place: if it is
        // the last line it is treated as torn, not as corruption.
        let mut bytes = fs::read(&path).unwrap();
        let line = frame_line("{\"kind\":\"begin\",\"idx\":1,\"key\":\"0002\"}");
        let mut corrupted = line.into_bytes();
        let mid = corrupted.len() - 5;
        corrupted[mid] ^= 0x01;
        bytes.extend_from_slice(&corrupted);
        fs::write(&path, &bytes).unwrap();
        let snap = Journal::load(&path).unwrap();
        assert!(snap.torn);
        assert_eq!(snap.records.len(), 1);
    }

    #[test]
    fn corrupt_middle_frame_is_a_typed_error() {
        let path = tmp_path("corrupt");
        let meta = demo_meta();
        let (mut journal, _) = Journal::open_resume(&path, &meta).unwrap();
        journal
            .append_point(&PointRecord::from_run(0, JournalKey(1), &demo_run(false)))
            .unwrap();
        journal
            .append_point(&PointRecord::from_run(1, JournalKey(2), &demo_run(false)))
            .unwrap();
        drop(journal);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte inside the *second* frame (the first
        // point record), which is not the trailing frame.
        let first_nl = bytes.iter().position(|&b| b == b'\n').unwrap();
        bytes[first_nl + 30] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        match Journal::load(&path) {
            Err(JournalError::CorruptFrame { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        // open_resume refuses it the same way.
        assert!(matches!(
            Journal::open_resume(&path, &meta),
            Err(JournalError::CorruptFrame { .. })
        ));
    }

    #[test]
    fn duplicate_keys_last_write_wins() {
        let path = tmp_path("dups");
        let meta = demo_meta();
        let (mut journal, _) = Journal::open_resume(&path, &meta).unwrap();
        let mut rec = PointRecord::from_run(0, JournalKey(5), &demo_run(false));
        journal.append_point(&rec).unwrap();
        rec.fate = PointFate::Abandoned {
            attempts: 9,
            last_error: "second write".into(),
        };
        rec.outcome = None;
        journal.append_point(&rec).unwrap();
        drop(journal);
        let snap = Journal::load(&path).unwrap();
        assert_eq!(snap.records.len(), 1);
        let rec = snap.record_for(JournalKey(5)).unwrap();
        assert!(matches!(rec.fate, PointFate::Abandoned { attempts: 9, .. }));
    }

    #[test]
    fn stale_journal_is_refused_not_reused() {
        let path = tmp_path("stale");
        let meta = demo_meta();
        let (journal, _) = Journal::open_resume(&path, &meta).unwrap();
        drop(journal);
        // Same design point content, newer code version: the key would
        // differ anyway, but the header check refuses the whole file
        // before any record could be considered.
        let mut newer = meta.clone();
        newer.code_version = "test-v2".into();
        match Journal::open_resume(&path, &newer) {
            Err(JournalError::Stale {
                field,
                expected,
                found,
            }) => {
                assert_eq!(field, "code_version");
                assert_eq!(expected, "test-v2");
                assert_eq!(found, "test-v1");
            }
            other => panic!("expected Stale, got {other:?}"),
        }
        // Different seed: refused too.
        let mut reseeded = meta.clone();
        reseeded.seed = 43;
        assert!(matches!(
            Journal::open_resume(&path, &reseeded),
            Err(JournalError::Stale { field: "seed", .. })
        ));
        // Different design shape: refused.
        let other_design = Design::new(vec![Factor::new("system", &["a"])]);
        let other_meta = JournalMeta::new(&other_design, 42, "test-v1", "machine=demo");
        assert!(matches!(
            Journal::open_resume(&path, &other_meta),
            Err(JournalError::Stale {
                field: "design_fingerprint",
                ..
            })
        ));
    }

    #[test]
    fn begin_then_point_clears_dangling() {
        let path = tmp_path("dangling");
        let meta = demo_meta();
        let (mut journal, _) = Journal::open_resume(&path, &meta).unwrap();
        journal.append_begin(0, JournalKey(1)).unwrap();
        journal.append_begin(1, JournalKey(2)).unwrap();
        journal
            .append_point(&PointRecord::from_run(0, JournalKey(1), &demo_run(false)))
            .unwrap();
        drop(journal);
        let snap = Journal::load(&path).unwrap();
        assert_eq!(snap.dangling_begins, vec![(1, JournalKey(2))]);
        assert_eq!(snap.records.len(), 1);
    }

    #[test]
    fn non_header_first_frame_is_rejected() {
        let path = tmp_path("headless");
        let line = frame_line("{\"kind\":\"begin\",\"idx\":0,\"key\":\"01\"}");
        // Two frames so the first is not the (tolerated) trailing one.
        fs::write(&path, format!("{line}{line}")).unwrap();
        let err = Journal::load(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::CorruptFrame { line: 1, .. })
                || matches!(err, JournalError::MissingHeader),
            "{err:?}"
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = JournalError::Stale {
            field: "code_version",
            expected: "v2".into(),
            found: "v1".into(),
        };
        assert!(e.to_string().contains("stale journal refused"));
        let e = JournalError::CorruptFrame {
            line: 3,
            reason: "CRC mismatch".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
