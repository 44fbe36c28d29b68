//! Crash-durable write-ahead job journal.
//!
//! With `dbscan serve --journal DIR` every admitted `submit` is appended to
//! `DIR/journal.log` before the acknowledgement goes out, and every terminal
//! transition (`done` / `failed` / `cancelled`) appends a tombstone before
//! the terminal state becomes visible to clients. On startup the daemon
//! replays the log: non-terminal jobs are re-enqueued (`recovered:true`),
//! a torn or corrupt tail is truncated — never fatal — and a size-triggered
//! compaction rewrites the log keeping only non-terminal jobs.
//!
//! Record framing (all integers little-endian):
//!
//! ```text
//! [u32 body_len][u64 fnv1a(body)][body]
//! ```
//!
//! The body's first byte is the record type: `b'S'` (submit), `b'T'`
//! (tombstone), or `b'M'` (id high-water marker, written by compaction so
//! job ids stay monotonic across restarts even after terminal history is
//! dropped). A submit body is the type byte, one JSON metadata line
//! (id, tag, params, algorithm, policies, and an FNV-1a fingerprint of the
//! point payload), a `\n`, then the raw point coordinates as `f64` bit
//! patterns — the dominant payload stays binary instead of ballooning 3-4×
//! through decimal JSON. A tombstone body is the type byte plus
//! `{"id":N,"state":"done"}`. See EXPERIMENTS.md ("Journal record format")
//! for the full field list and the durability contract.
//!
//! Deliberately *not* journaled: fault-injection specs and `boom` (test-only
//! knobs — replaying an injected panic after a crash would be chaos squared)
//! and inline trace requests are kept, since they only affect the response.

use crate::json::{obj, parse, Value};
use crate::server::{Algorithm, JobSpec};
use dbscan_core::dim::MAX_DIM;
use dbscan_core::hash::{fnv1a, fnv1a_f64s};
use dbscan_core::{parse_duration, DbscanParams, DeadlineConfig, DeadlinePolicy, RecoveryPolicy};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The journal file inside `--journal DIR`.
pub const JOURNAL_FILE: &str = "journal.log";

/// Scratch file used by compaction before the atomic rename.
pub const JOURNAL_TMP: &str = "journal.tmp";

/// Frame header: u32 length + u64 checksum.
const HEADER_BYTES: usize = 12;

/// A frame length above this is treated as a torn/corrupt header during
/// replay (the admission path caps request frames far below it).
const MAX_RECORD_BYTES: u32 = 1 << 30;

/// When appended records hit the disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JournalSync {
    /// `fsync` after every append, before the submit ack goes out: an acked
    /// job survives `kill -9` of both the daemon and the OS page cache.
    Always,
    /// Batch appends and `fsync` at most once per interval: bounded data
    /// loss (jobs acked in the last interval may vanish), much cheaper.
    Interval(Duration),
}

impl JournalSync {
    /// Parses the `--journal-sync` flag: `always`, `interval`, or
    /// `interval=DURATION` (default interval 100ms).
    pub fn parse_flag(s: &str) -> Result<JournalSync, String> {
        match s {
            "always" => Ok(JournalSync::Always),
            "interval" => Ok(JournalSync::Interval(Duration::from_millis(100))),
            other => match other.strip_prefix("interval=") {
                Some(d) => Ok(JournalSync::Interval(
                    parse_duration(d).map_err(|e| format!("--journal-sync: {e}"))?,
                )),
                None => Err(format!(
                    "--journal-sync must be \"always\", \"interval\", or \"interval=DUR\", got {s:?}"
                )),
            },
        }
    }

    pub fn name(&self) -> String {
        match self {
            JournalSync::Always => "always".to_string(),
            JournalSync::Interval(d) => format!("interval={}ms", d.as_millis()),
        }
    }
}

/// Journal configuration; maps to the `--journal*` serve flags.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Directory holding `journal.log` (created if absent).
    pub dir: PathBuf,
    pub sync: JournalSync,
    /// Once the log grows past this, the next tombstone triggers a
    /// compaction that rewrites it keeping only non-terminal jobs.
    pub compact_bytes: u64,
}

impl JournalConfig {
    pub fn new(dir: PathBuf) -> JournalConfig {
        JournalConfig {
            dir,
            sync: JournalSync::Always,
            compact_bytes: 8 << 20,
        }
    }
}

/// Why and where replay stopped accepting records.
pub struct Truncation {
    /// Bytes of valid prefix kept.
    pub valid_bytes: u64,
    /// Bytes dropped from the tail.
    pub dropped_bytes: u64,
    pub reason: String,
}

/// What replay found: the non-terminal jobs to re-enqueue (sorted by id),
/// the highest id ever journaled (the id counter resumes above it, keeping
/// ids stable across restarts), and the tail truncation, if any.
pub(crate) struct Replay {
    pub recovered: Vec<(u64, JobSpec)>,
    pub max_id: u64,
    pub truncation: Option<Truncation>,
}

/// The open journal: an append handle plus the in-memory set of live
/// (non-terminal) record bodies that compaction rewrites from.
pub struct Journal {
    cfg: JournalConfig,
    path: PathBuf,
    file: File,
    len: u64,
    /// Encoded submit bodies of jobs with no tombstone yet. Bounded by the
    /// admission queue bound plus in-flight jobs, not by journal size.
    live: HashMap<u64, Vec<u8>>,
    /// Highest job id ever journaled; compaction persists it as a marker
    /// record so restarts never reuse an id whose history was compacted away.
    max_seen: u64,
    dirty: bool,
    last_sync: Instant,
    compactions: u64,
}

impl Journal {
    /// Opens (creating if needed) and replays the journal. A torn or corrupt
    /// tail is truncated on disk and reported in the [`Replay`] — corruption
    /// is never fatal; the valid prefix is always recovered.
    pub(crate) fn open(cfg: &JournalConfig) -> std::io::Result<(Journal, Replay)> {
        std::fs::create_dir_all(&cfg.dir)?;
        // A crash between compaction's tmp write and its rename leaves a
        // stale tmp behind; the real log is still authoritative.
        let _ = std::fs::remove_file(cfg.dir.join(JOURNAL_TMP));
        let path = cfg.dir.join(JOURNAL_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        let mut live: HashMap<u64, (Vec<u8>, JobSpec)> = HashMap::new();
        let mut max_id = 0u64;
        let mut off = 0usize;
        let mut truncation = None;
        while off < bytes.len() {
            let fail = |reason: &str| Truncation {
                valid_bytes: off as u64,
                dropped_bytes: (bytes.len() - off) as u64,
                reason: reason.to_string(),
            };
            if bytes.len() - off < HEADER_BYTES {
                truncation = Some(fail("torn header"));
                break;
            }
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            if len == 0 || len > MAX_RECORD_BYTES {
                truncation = Some(fail("implausible record length"));
                break;
            }
            let body_end = off + HEADER_BYTES + len as usize;
            if body_end > bytes.len() {
                truncation = Some(fail("torn record body"));
                break;
            }
            let sum = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().unwrap());
            let body = &bytes[off + HEADER_BYTES..body_end];
            if fnv1a(body) != sum {
                truncation = Some(fail("checksum mismatch"));
                break;
            }
            match body[0] {
                b'S' => match decode_submit_body(body) {
                    Ok((id, spec)) => {
                        max_id = max_id.max(id);
                        live.insert(id, (body.to_vec(), spec));
                    }
                    Err(reason) => {
                        truncation = Some(fail(&format!("undecodable submit: {reason}")));
                        break;
                    }
                },
                b'T' => match decode_tombstone_body(body) {
                    Ok(id) => {
                        max_id = max_id.max(id);
                        live.remove(&id);
                    }
                    Err(reason) => {
                        truncation = Some(fail(&format!("undecodable tombstone: {reason}")));
                        break;
                    }
                },
                b'M' => match decode_marker_body(body) {
                    Ok(id) => max_id = max_id.max(id),
                    Err(reason) => {
                        truncation = Some(fail(&format!("undecodable marker: {reason}")));
                        break;
                    }
                },
                other => {
                    truncation = Some(fail(&format!("unknown record type {other:#04x}")));
                    break;
                }
            }
            off = body_end;
        }

        let valid = off as u64;
        if truncation.is_some() {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid)?;
            f.sync_data()?;
        }

        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut recovered: Vec<(u64, JobSpec)> = live
            .iter()
            .map(|(&id, (_, spec))| (id, spec.clone()))
            .collect();
        recovered.sort_by_key(|(id, _)| *id);
        let journal = Journal {
            cfg: cfg.clone(),
            path,
            file,
            len: valid,
            live: live.into_iter().map(|(id, (body, _))| (id, body)).collect(),
            max_seen: max_id,
            dirty: false,
            last_sync: Instant::now(),
            compactions: 0,
        };
        Ok((
            journal,
            Replay {
                recovered,
                max_id,
                truncation,
            },
        ))
    }

    fn append_body(&mut self, body: &[u8]) -> std::io::Result<()> {
        let frame = frame_body(body);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        match self.cfg.sync {
            JournalSync::Always => self.file.sync_data(),
            JournalSync::Interval(_) => {
                self.dirty = true;
                Ok(())
            }
        }
    }

    /// Journals an admitted submission. The caller must not ack the client
    /// until this returns: with `sync=always` the record is on disk.
    pub(crate) fn record_submit(&mut self, id: u64, spec: &JobSpec) -> std::io::Result<()> {
        let body = encode_submit_body(id, spec);
        self.append_body(&body)?;
        self.live.insert(id, body);
        self.max_seen = self.max_seen.max(id);
        Ok(())
    }

    /// Journals a terminal transition. Called *before* the terminal state
    /// becomes visible to clients, so an observed (or consumed) result
    /// implies a durable tombstone — after a crash the job is never run
    /// again. May trigger compaction once the log passes `compact_bytes`.
    pub(crate) fn record_terminal(&mut self, id: u64, state: &str) -> std::io::Result<()> {
        if self.live.remove(&id).is_none() {
            // Not journaled (pre-journal job or duplicate finish): nothing
            // to tombstone.
            return Ok(());
        }
        self.append_body(&encode_tombstone_body(id, state))?;
        if self.len > self.cfg.compact_bytes {
            self.compact()?;
        }
        Ok(())
    }

    /// Interval-mode flush, driven by the orchestrator's idle loop.
    pub(crate) fn sync_if_due(&mut self) -> std::io::Result<()> {
        if let JournalSync::Interval(iv) = self.cfg.sync {
            if self.dirty && self.last_sync.elapsed() >= iv {
                self.file.sync_data()?;
                self.dirty = false;
                self.last_sync = Instant::now();
            }
        }
        Ok(())
    }

    /// Rewrites the log keeping only live (non-terminal) jobs: write a tmp
    /// file, fsync it, atomically rename over the log, fsync the directory.
    fn compact(&mut self) -> std::io::Result<()> {
        let tmp = self.cfg.dir.join(JOURNAL_TMP);
        {
            let mut f = File::create(&tmp)?;
            if self.max_seen > 0 {
                f.write_all(&frame_body(&encode_marker_body(self.max_seen)))?;
            }
            let mut ids: Vec<u64> = self.live.keys().copied().collect();
            ids.sort_unstable();
            for id in ids {
                f.write_all(&frame_body(&self.live[&id]))?;
            }
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        if let Ok(d) = File::open(&self.cfg.dir) {
            let _ = d.sync_all();
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = self.file.metadata()?.len();
        self.dirty = false;
        self.compactions += 1;
        Ok(())
    }

    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    pub fn live_jobs(&self) -> usize {
        self.live.len()
    }

    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

/// Frames a record body with its length and checksum header.
pub fn frame_body(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Builds a complete framed submit record for an exact, sequential job with
/// default policies — the shape `record_submit` writes for the simplest
/// `submit`. Public so tests and tooling can fabricate journals to corrupt.
pub fn submit_record(
    id: u64,
    tag: Option<&str>,
    eps: f64,
    min_pts: usize,
    dim: usize,
    points: &[f64],
) -> Vec<u8> {
    let spec = JobSpec {
        points: Arc::new(points.to_vec()),
        points_fnv: fnv1a_f64s(points),
        dim,
        params: DbscanParams::new(eps, min_pts).expect("valid journal fixture params"),
        algorithm: Algorithm::Exact,
        parallel: false,
        recovery: RecoveryPolicy::Fail,
        deadline: DeadlineConfig::default(),
        faults: None,
        pause_ms: 0,
        boom: false,
        return_labels: true,
        tag: tag.map(str::to_string),
        trace: None,
        recovered: false,
    };
    frame_body(&encode_submit_body(id, &spec))
}

/// Builds a complete framed tombstone record.
pub fn tombstone_record(id: u64, state: &str) -> Vec<u8> {
    frame_body(&encode_tombstone_body(id, state))
}

pub(crate) fn encode_submit_body(id: u64, spec: &JobSpec) -> Vec<u8> {
    let mut point_bytes = Vec::with_capacity(spec.points.len() * 8);
    for v in spec.points.iter() {
        point_bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let (algorithm, rho) = match spec.algorithm {
        Algorithm::Exact => ("exact", Value::Null),
        Algorithm::Approx { rho } => ("approx", Value::Num(rho)),
    };
    let meta = obj(vec![
        ("id", Value::Num(id as f64)),
        (
            "tag",
            match &spec.tag {
                Some(t) => Value::Str(t.clone()),
                None => Value::Null,
            },
        ),
        ("eps", Value::Num(spec.params.eps())),
        ("min_pts", Value::Num(spec.params.min_pts() as f64)),
        ("algorithm", Value::Str(algorithm.to_string())),
        ("rho", rho),
        ("dim", Value::Num(spec.dim as f64)),
        ("vals", Value::Num(spec.points.len() as f64)),
        ("parallel", Value::Bool(spec.parallel)),
        ("recovery", Value::Str(spec.recovery.name().to_string())),
        (
            "deadline_us",
            match spec.deadline.budget {
                Some(d) => Value::Num(d.as_micros() as f64),
                None => Value::Null,
            },
        ),
        (
            "deadline_policy",
            Value::Str(spec.deadline.policy.name().to_string()),
        ),
        ("degrade_rho", Value::Num(spec.deadline.degrade_rho)),
        (
            "stall_us",
            match spec.deadline.stall_timeout {
                Some(d) => Value::Num(d.as_micros() as f64),
                None => Value::Null,
            },
        ),
        ("pause_ms", Value::Num(spec.pause_ms as f64)),
        ("labels", Value::Bool(spec.return_labels)),
        (
            "trace",
            match spec.trace {
                Some(fmt) => Value::Str(fmt.name().to_string()),
                None => Value::Null,
            },
        ),
        (
            "points_fnv",
            Value::Str(format!("{:016x}", spec.points_fnv)),
        ),
    ]);
    let mut body = Vec::with_capacity(64 + point_bytes.len());
    body.push(b'S');
    body.extend_from_slice(meta.to_line().as_bytes());
    body.push(b'\n');
    body.extend_from_slice(&point_bytes);
    body
}

fn encode_tombstone_body(id: u64, state: &str) -> Vec<u8> {
    let meta = obj(vec![
        ("id", Value::Num(id as f64)),
        ("state", Value::Str(state.to_string())),
    ]);
    let mut body = vec![b'T'];
    body.extend_from_slice(meta.to_line().as_bytes());
    body
}

fn decode_submit_body(body: &[u8]) -> Result<(u64, JobSpec), String> {
    let payload = &body[1..];
    let nl = payload
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing metadata line terminator")?;
    let meta_text =
        std::str::from_utf8(&payload[..nl]).map_err(|_| "metadata is not UTF-8".to_string())?;
    let meta = parse(meta_text).map_err(|e| format!("metadata: {e}"))?;
    let point_bytes = &payload[nl + 1..];

    let id = meta.get("id").and_then(Value::as_u64).ok_or("missing id")?;
    let vals = meta
        .get("vals")
        .and_then(Value::as_u64)
        .ok_or("missing vals")? as usize;
    if point_bytes.len() != vals * 8 {
        return Err(format!(
            "point payload is {} bytes, expected {}",
            point_bytes.len(),
            vals * 8
        ));
    }
    let points: Vec<f64> = point_bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
        .collect();
    // A record without `points_fnv` still replays: the hash is computed here
    // either way, because the job's cache key needs it.
    let points_fnv = fnv1a(point_bytes);
    if let Some(expect) = meta.get("points_fnv").and_then(Value::as_str) {
        if format!("{points_fnv:016x}") != expect {
            return Err("point payload fingerprint mismatch".to_string());
        }
    }
    let dim = meta
        .get("dim")
        .and_then(Value::as_u64)
        .ok_or("missing dim")? as usize;
    if !(1..=MAX_DIM).contains(&dim) || !vals.is_multiple_of(dim) {
        return Err(format!("bad dim {dim} for {vals} values"));
    }
    let eps = meta
        .get("eps")
        .and_then(Value::as_f64)
        .ok_or("missing eps")?;
    let min_pts = meta
        .get("min_pts")
        .and_then(Value::as_u64)
        .ok_or("missing min_pts")? as usize;
    let params = DbscanParams::new(eps, min_pts).map_err(|e| e.to_string())?;
    let algorithm = match meta.get("algorithm").and_then(Value::as_str) {
        Some("exact") => Algorithm::Exact,
        Some("approx") => Algorithm::Approx {
            rho: meta
                .get("rho")
                .and_then(Value::as_f64)
                .ok_or("approx record missing rho")?,
        },
        other => return Err(format!("bad algorithm {other:?}")),
    };
    let recovery = match meta.get("recovery").and_then(Value::as_str) {
        Some(name) => name.parse().map_err(|_| format!("bad recovery {name:?}"))?,
        None => RecoveryPolicy::Fail,
    };
    let mut deadline = DeadlineConfig {
        budget: meta
            .get("deadline_us")
            .and_then(Value::as_u64)
            .map(Duration::from_micros),
        stall_timeout: meta
            .get("stall_us")
            .and_then(Value::as_u64)
            .map(Duration::from_micros),
        ..DeadlineConfig::default()
    };
    if let Some(p) = meta.get("deadline_policy").and_then(Value::as_str) {
        deadline.policy = p
            .parse::<DeadlinePolicy>()
            .map_err(|e| format!("deadline_policy: {e}"))?;
    }
    if let Some(r) = meta.get("degrade_rho").and_then(Value::as_f64) {
        deadline.degrade_rho = r;
    }
    let trace = meta
        .get("trace")
        .and_then(Value::as_str)
        .and_then(|s| s.parse().ok());
    Ok((
        id,
        JobSpec {
            points: Arc::new(points),
            points_fnv,
            dim,
            params,
            algorithm,
            parallel: meta
                .get("parallel")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            recovery,
            deadline,
            faults: None,
            pause_ms: meta.get("pause_ms").and_then(Value::as_u64).unwrap_or(0),
            boom: false,
            return_labels: meta.get("labels").and_then(Value::as_bool).unwrap_or(true),
            tag: meta.get("tag").and_then(Value::as_str).map(str::to_string),
            trace,
            recovered: false,
        },
    ))
}

fn encode_marker_body(max_id: u64) -> Vec<u8> {
    let meta = obj(vec![("max_id", Value::Num(max_id as f64))]);
    let mut body = vec![b'M'];
    body.extend_from_slice(meta.to_line().as_bytes());
    body
}

fn decode_marker_body(body: &[u8]) -> Result<u64, String> {
    let meta_text =
        std::str::from_utf8(&body[1..]).map_err(|_| "marker is not UTF-8".to_string())?;
    let meta = parse(meta_text).map_err(|e| format!("marker: {e}"))?;
    meta.get("max_id")
        .and_then(Value::as_u64)
        .ok_or_else(|| "marker missing max_id".to_string())
}

fn decode_tombstone_body(body: &[u8]) -> Result<u64, String> {
    let meta_text =
        std::str::from_utf8(&body[1..]).map_err(|_| "tombstone is not UTF-8".to_string())?;
    let meta = parse(meta_text).map_err(|e| format!("tombstone: {e}"))?;
    meta.get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| "tombstone missing id".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dbscan-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec_fixture(rho: Option<f64>) -> JobSpec {
        let points = vec![0.0, 1.5, -2.25, 1e9, f64::MIN_POSITIVE, 42.0];
        JobSpec {
            points_fnv: fnv1a_f64s(&points),
            points: Arc::new(points),
            dim: 2,
            params: DbscanParams::new(1.5, 4).unwrap(),
            algorithm: match rho {
                Some(rho) => Algorithm::Approx { rho },
                None => Algorithm::Exact,
            },
            parallel: true,
            recovery: RecoveryPolicy::FallbackSequential,
            deadline: DeadlineConfig {
                budget: Some(Duration::from_millis(250)),
                degrade_rho: 5e-3,
                ..DeadlineConfig::default()
            },
            faults: None,
            pause_ms: 7,
            boom: false,
            return_labels: false,
            tag: Some("tenant-a".to_string()),
            trace: Some(dbscan_core::TraceFormat::Folded),
            recovered: false,
        }
    }

    #[test]
    fn submit_record_roundtrips_bit_exactly() {
        for spec in [spec_fixture(None), spec_fixture(Some(1e-3))] {
            let body = encode_submit_body(99, &spec);
            let (id, back) = decode_submit_body(&body).expect("decode");
            assert_eq!(id, 99);
            assert_eq!(back.points, spec.points, "f64 bit patterns must survive");
            assert_eq!(back.points_fnv, spec.points_fnv);
            assert_eq!(back.dim, spec.dim);
            assert_eq!(back.params.eps(), spec.params.eps());
            assert_eq!(back.params.min_pts(), spec.params.min_pts());
            assert_eq!(back.algorithm, spec.algorithm);
            assert_eq!(back.parallel, spec.parallel);
            assert_eq!(back.recovery, spec.recovery);
            assert_eq!(back.deadline.budget, spec.deadline.budget);
            assert_eq!(back.deadline.policy, spec.deadline.policy);
            assert_eq!(back.deadline.degrade_rho, spec.deadline.degrade_rho);
            assert_eq!(back.pause_ms, spec.pause_ms);
            assert_eq!(back.return_labels, spec.return_labels);
            assert_eq!(back.tag, spec.tag);
            assert_eq!(back.trace, spec.trace);
            assert!(
                !back.recovered,
                "recovered is set at re-enqueue, not decode"
            );
        }
    }

    #[test]
    fn replay_keeps_live_jobs_and_drops_tombstoned_ones() {
        let dir = tmp_dir("replay");
        let cfg = JournalConfig::new(dir.clone());
        {
            let (mut j, replay) = Journal::open(&cfg).unwrap();
            assert!(replay.recovered.is_empty());
            j.record_submit(1, &spec_fixture(None)).unwrap();
            j.record_submit(2, &spec_fixture(Some(1e-3))).unwrap();
            j.record_submit(3, &spec_fixture(None)).unwrap();
            j.record_terminal(2, "done").unwrap();
        }
        let (j, replay) = Journal::open(&cfg).unwrap();
        assert!(replay.truncation.is_none());
        assert_eq!(replay.max_id, 3);
        let ids: Vec<u64> = replay.recovered.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(j.live_jobs(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmp_dir("torn");
        let cfg = JournalConfig::new(dir.clone());
        {
            let (mut j, _) = Journal::open(&cfg).unwrap();
            j.record_submit(1, &spec_fixture(None)).unwrap();
            j.record_submit(2, &spec_fixture(None)).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // Cut the second record short mid-body.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, replay) = Journal::open(&cfg).unwrap();
        let t = replay.truncation.expect("tail must be reported");
        assert_eq!(t.reason, "torn record body");
        assert_eq!(replay.recovered.len(), 1);
        assert_eq!(replay.recovered[0].0, 1);
        // The file was physically truncated to the valid prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), t.valid_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_fails_checksum_and_truncates_from_there() {
        let dir = tmp_dir("flip");
        let cfg = JournalConfig::new(dir.clone());
        {
            let (mut j, _) = Journal::open(&cfg).unwrap();
            j.record_submit(1, &spec_fixture(None)).unwrap();
            j.record_submit(2, &spec_fixture(None)).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = HEADER_BYTES + u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        bytes[first_len + HEADER_BYTES + 20] ^= 0xff; // inside record 2's body
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&cfg).unwrap();
        assert_eq!(replay.truncation.unwrap().reason, "checksum mismatch");
        assert_eq!(replay.recovered.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_garbage_is_dropped() {
        let dir = tmp_dir("garbage");
        let cfg = JournalConfig::new(dir.clone());
        {
            let (mut j, _) = Journal::open(&cfg).unwrap();
            j.record_submit(1, &spec_fixture(None)).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"\xde\xad\xbe\xef not a record");
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Journal::open(&cfg).unwrap();
        assert!(replay.truncation.is_some());
        assert_eq!(replay.recovered.len(), 1);
        // Re-opening after the repair is clean.
        let (_, replay2) = Journal::open(&cfg).unwrap();
        assert!(replay2.truncation.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_only_live_jobs_and_shrinks_the_log() {
        let dir = tmp_dir("compact");
        let mut cfg = JournalConfig::new(dir.clone());
        cfg.compact_bytes = 512; // force frequent compaction
        let (mut j, _) = Journal::open(&cfg).unwrap();
        for id in 1..=40u64 {
            j.record_submit(id, &spec_fixture(None)).unwrap();
            if id % 2 == 0 {
                j.record_terminal(id, "done").unwrap();
            }
        }
        assert!(j.compactions() > 0, "512-byte trigger must have fired");
        // Close every odd job; the log must shrink below the trigger.
        for id in (1..=40u64).step_by(2) {
            j.record_terminal(id, "cancelled").unwrap();
        }
        assert_eq!(j.live_jobs(), 0);
        assert!(
            j.len_bytes() <= 512,
            "empty live set must compact below the trigger, got {}",
            j.len_bytes()
        );
        drop(j);
        let (_, replay) = Journal::open(&cfg).unwrap();
        assert!(replay.recovered.is_empty());
        assert_eq!(
            replay.max_id, 40,
            "the compaction marker must keep ids monotonic across restarts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_sync_marks_dirty_and_flushes_on_due() {
        let dir = tmp_dir("interval");
        let mut cfg = JournalConfig::new(dir.clone());
        cfg.sync = JournalSync::Interval(Duration::from_millis(0));
        let (mut j, _) = Journal::open(&cfg).unwrap();
        j.record_submit(1, &spec_fixture(None)).unwrap();
        assert!(j.dirty);
        j.sync_if_due().unwrap();
        assert!(!j.dirty);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The frame checksum is standard FNV-1a-64: the header of a record
    /// whose body is one of the published test strings carries its vector.
    #[test]
    fn frame_checksum_is_standard_fnv1a() {
        for (body, fnv) in [
            (&b""[..], 0xcbf29ce484222325u64),
            (b"a", 0xaf63dc4c8601ec8c),
            (b"foobar", 0x85944171f73967e8),
        ] {
            let frame = frame_body(body);
            assert_eq!(frame[4..12], fnv.to_le_bytes(), "body {body:?}");
        }
    }

    /// Committed bytes of a submit and a tombstone record. Records written
    /// by older builds must keep replaying, so any change to the encoding
    /// shows up here first.
    const GOLDEN_SUBMIT: &str = concat!(
        "650100003f1f2e8105908bc4537b226964223a34322c22746167223a2274656e",
        "616e742d61222c22657073223a312e352c226d696e5f707473223a342c22616c",
        "676f726974686d223a22617070726f78222c2272686f223a302e3030312c2264",
        "696d223a322c2276616c73223a362c22706172616c6c656c223a747275652c22",
        "7265636f76657279223a2266616c6c6261636b2d73657175656e7469616c222c",
        "22646561646c696e655f7573223a3235303030302c22646561646c696e655f70",
        "6f6c696379223a2261626f7274222c22646567726164655f72686f223a302e30",
        "30352c227374616c6c5f7573223a6e756c6c2c2270617573655f6d73223a372c",
        "226c6162656c73223a66616c73652c227472616365223a22666f6c646564222c",
        "22706f696e74735f666e76223a2234373964633237396233313035623137227d",
        "0a0000000000000000000000000000f83f00000000000002c00000000065cdcd",
        "4100000000000010000000000000004540",
    );
    const GOLDEN_TOMBSTONE: &str =
        "19000000c36047f1be06d8f6547b226964223a34322c227374617465223a22646f6e65227d";

    #[test]
    fn golden_records_encode_to_committed_bytes_and_replay() {
        let spec = spec_fixture(Some(1e-3));
        assert_eq!(
            hex(&frame_body(&encode_submit_body(42, &spec))),
            GOLDEN_SUBMIT
        );
        assert_eq!(hex(&tombstone_record(42, "done")), GOLDEN_TOMBSTONE);

        let dir = tmp_dir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        std::fs::write(&path, unhex(GOLDEN_SUBMIT)).unwrap();
        let cfg = JournalConfig::new(dir.clone());
        {
            let (_, replay) = Journal::open(&cfg).unwrap();
            assert!(replay.truncation.is_none());
            assert_eq!(replay.max_id, 42);
            let [(id, back)] = &replay.recovered[..] else {
                panic!("one live job expected")
            };
            assert_eq!(*id, 42);
            assert_eq!(back.points, spec.points);
            assert_eq!(back.dim, spec.dim);
            assert_eq!(back.params.eps(), spec.params.eps());
            assert_eq!(back.params.min_pts(), spec.params.min_pts());
            assert_eq!(back.algorithm, spec.algorithm);
            assert_eq!(back.parallel, spec.parallel);
            assert_eq!(back.recovery, spec.recovery);
            assert_eq!(back.deadline.budget, spec.deadline.budget);
            assert_eq!(back.deadline.degrade_rho, spec.deadline.degrade_rho);
            assert_eq!(back.pause_ms, spec.pause_ms);
            assert_eq!(back.return_labels, spec.return_labels);
            assert_eq!(back.tag, spec.tag);
            assert_eq!(back.trace, spec.trace);
        }
        let mut log = unhex(GOLDEN_SUBMIT);
        log.extend_from_slice(&unhex(GOLDEN_TOMBSTONE));
        std::fs::write(&path, log).unwrap();
        let (_, replay) = Journal::open(&cfg).unwrap();
        assert!(replay.truncation.is_none());
        assert!(replay.recovered.is_empty());
        assert_eq!(replay.max_id, 42);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The decoded `points_fnv` is the hash of the payload: checked against
    /// the record's field when present, computed when the field is missing.
    #[test]
    fn points_fnv_is_verified_or_computed_on_decode() {
        let spec = spec_fixture(None);
        let body = encode_submit_body(5, &spec);
        let field = format!(",\"points_fnv\":\"{:016x}\"", spec.points_fnv);
        let strip = |replacement: &str| {
            let at = (body.windows(field.len()))
                .position(|w| w == field.as_bytes())
                .expect("the record names its points_fnv");
            let mut out = body[..at].to_vec();
            out.extend_from_slice(replacement.as_bytes());
            out.extend_from_slice(&body[at + field.len()..]);
            out
        };
        let (_, back) = decode_submit_body(&strip("")).expect("field is optional");
        assert_eq!(back.points_fnv, spec.points_fnv);
        let wrong = strip(",\"points_fnv\":\"0000000000000000\"");
        assert_eq!(
            decode_submit_body(&wrong).unwrap_err(),
            "point payload fingerprint mismatch"
        );
    }

    /// Replay applies the same 1..=8 dimension bound as admission: a record
    /// claiming 9 dimensions (checksum intact) stops replay there.
    #[test]
    fn record_with_dim_9_is_refused_on_replay() {
        let dir = tmp_dir("dim9");
        let cfg = JournalConfig::new(dir.clone());
        {
            let (mut j, _) = Journal::open(&cfg).unwrap();
            j.record_submit(1, &spec_fixture(None)).unwrap();
        }
        let mut spec = spec_fixture(None);
        let points: Vec<f64> = (0..18).map(f64::from).collect();
        spec.points_fnv = fnv1a_f64s(&points);
        spec.points = Arc::new(points);
        spec.dim = 9;
        let path = dir.join(JOURNAL_FILE);
        let mut log = std::fs::read(&path).unwrap();
        log.extend_from_slice(&frame_body(&encode_submit_body(2, &spec)));
        std::fs::write(&path, log).unwrap();
        let (_, replay) = Journal::open(&cfg).unwrap();
        let t = replay.truncation.expect("the dim-9 record must be refused");
        assert_eq!(t.reason, "undecodable submit: bad dim 9 for 18 values");
        let ids: Vec<u64> = replay.recovered.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_flag_parses() {
        assert_eq!(JournalSync::parse_flag("always"), Ok(JournalSync::Always));
        assert_eq!(
            JournalSync::parse_flag("interval"),
            Ok(JournalSync::Interval(Duration::from_millis(100)))
        );
        assert_eq!(
            JournalSync::parse_flag("interval=250ms"),
            Ok(JournalSync::Interval(Duration::from_millis(250)))
        );
        assert!(JournalSync::parse_flag("sometimes").is_err());
    }
}
