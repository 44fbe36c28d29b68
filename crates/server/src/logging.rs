//! Structured leveled logging for the daemon: JSON lines to stderr or a
//! file, std-only.
//!
//! Each line is one `json::Value` object — `ts_ms` (unix millis), `level`,
//! `event`, then the caller's fields in order. Job-lifecycle events carry
//! `job`, `tag`, `verb`, outcome, and durations, so operators can reconstruct
//! any request's history from the log alone (the PR 9 lifecycle satellite).
//!
//! File sinks rotate atomically: when a line would push the file past
//! `max_bytes`, the current file is renamed to `<path>.1` (clobbering any
//! previous rotation) and a fresh file is created before the line is
//! written. Rotation and writes happen under the sink mutex, so concurrent
//! executors never interleave partial lines.

use crate::json::{obj, Value};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, ordered so `Error < Warn < Info < Debug`; a logger at
/// level `L` emits every record with level ≤ `L`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error,
    Warn,
    Info,
    Debug,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

enum Sink {
    Stderr,
    File {
        path: PathBuf,
        file: File,
        written: u64,
        max_bytes: u64,
    },
}

/// A leveled JSON-lines logger. Cheap to share behind an `Arc`; emitting a
/// disabled level is a single enum compare with no formatting.
pub struct Logger {
    level: Level,
    sink: Mutex<Sink>,
}

impl Logger {
    pub fn stderr(level: Level) -> Logger {
        Logger {
            level,
            sink: Mutex::new(Sink::Stderr),
        }
    }

    pub fn to_file(level: Level, path: PathBuf, max_bytes: u64) -> io::Result<Logger> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        Ok(Logger {
            level,
            sink: Mutex::new(Sink::File {
                path,
                file,
                written,
                max_bytes,
            }),
        })
    }

    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    /// Emits one structured record. `fields` keep their order in the output
    /// line (the `json::Value` object is a Vec of pairs).
    pub fn log(&self, level: Level, event: &str, fields: Vec<(&str, Value)>) {
        if !self.enabled(level) {
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut pairs = vec![
            ("ts_ms", Value::Num(ts_ms as f64)),
            ("level", Value::Str(level.name().to_string())),
            ("event", Value::Str(event.to_string())),
        ];
        pairs.extend(fields);
        let line = obj(pairs).to_line();
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        match &mut *sink {
            Sink::Stderr => {
                let mut err = io::stderr().lock();
                let _ = writeln!(err, "{line}");
            }
            Sink::File {
                path,
                file,
                written,
                max_bytes,
            } => {
                let needed = line.len() as u64 + 1;
                if *written > 0 && *written + needed > *max_bytes {
                    // Atomic rotation: rename the full file aside, then start
                    // a fresh one. A failed rename keeps writing in place
                    // rather than losing records.
                    let mut rotated = path.clone().into_os_string();
                    rotated.push(".1");
                    if std::fs::rename(&path, &rotated).is_ok() {
                        if let Ok(fresh) = OpenOptions::new().create(true).append(true).open(&path)
                        {
                            *file = fresh;
                            *written = 0;
                        }
                    }
                }
                if writeln!(file, "{line}").is_ok() {
                    *written += needed;
                }
            }
        }
    }

    pub fn error(&self, event: &str, fields: Vec<(&str, Value)>) {
        self.log(Level::Error, event, fields);
    }

    pub fn warn(&self, event: &str, fields: Vec<(&str, Value)>) {
        self.log(Level::Warn, event, fields);
    }

    pub fn info(&self, event: &str, fields: Vec<(&str, Value)>) {
        self.log(Level::Info, event, fields);
    }

    pub fn debug(&self, event: &str, fields: Vec<(&str, Value)>) {
        self.log(Level::Debug, event, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "dbscan-logging-{}-{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        let mut rotated = p.clone().into_os_string();
        rotated.push(".1");
        let _ = std::fs::remove_file(PathBuf::from(rotated));
        p
    }

    #[test]
    fn level_ordering_filters_records() {
        assert!(Level::Error < Level::Debug);
        let log = Logger::stderr(Level::Warn);
        assert!(log.enabled(Level::Error));
        assert!(log.enabled(Level::Warn));
        assert!(!log.enabled(Level::Info));
        assert!(!log.enabled(Level::Debug));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn file_sink_writes_parseable_json_lines() {
        let path = temp_path("lines");
        let log = Logger::to_file(Level::Info, path.clone(), u64::MAX).unwrap();
        log.info(
            "job_done",
            vec![("job", Value::Num(7.0)), ("ok", Value::Bool(true))],
        );
        log.debug("hidden", vec![]); // below the level → not written
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let v = json::parse(lines[0]).unwrap();
        assert_eq!(v.get("event").and_then(|e| e.as_str()), Some("job_done"));
        assert_eq!(v.get("level").and_then(|e| e.as_str()), Some("info"));
        assert_eq!(v.get("job").and_then(|e| e.as_u64()), Some(7));
        assert!(v.get("ts_ms").and_then(|e| e.as_u64()).unwrap() > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_sink_rotates_at_max_bytes() {
        let path = temp_path("rotate");
        // Cap small enough that every record triggers a rotation check; each
        // line is ~70 bytes, so 128 holds one line but not two.
        let log = Logger::to_file(Level::Info, path.clone(), 128).unwrap();
        for i in 0..5 {
            log.info("tick", vec![("i", Value::Num(f64::from(i)))]);
        }
        drop(log);
        let mut rotated = path.clone().into_os_string();
        rotated.push(".1");
        let rotated = PathBuf::from(rotated);
        assert!(rotated.exists(), "rotation must have happened");
        // Every line in both files still parses; nothing was torn.
        let mut total = 0;
        for p in [&path, &rotated] {
            for line in std::fs::read_to_string(p).unwrap().lines() {
                json::parse(line).unwrap();
                total += 1;
            }
        }
        // Rotation clobbers older generations, so some ticks may be gone,
        // but the newest record always survives in the live file.
        assert!(total >= 2);
        let live = std::fs::read_to_string(&path).unwrap();
        assert!(live.contains("\"i\":4"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }
}
