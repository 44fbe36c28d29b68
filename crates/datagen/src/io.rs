//! Plain CSV persistence for point sets (one point per line, comma-separated
//! coordinates, no header). Used by the `repro` binary to dump the Figure 8/9
//! datasets and cluster labelings for external plotting.
//!
//! The dynamic readers used by the CLI report malformed input as
//! [`DbscanError::Parse`] carrying the 1-based line number and the offending
//! token, so front ends can print the diagnostic verbatim.

use dbscan_core::DbscanError;
use dbscan_geom::Point;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Writes `points` to `path` as CSV.
pub fn write_points_csv<const D: usize>(path: &Path, points: &[Point<D>]) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for p in points {
        write_point_line(&mut w, p)?;
    }
    w.flush()
}

fn write_point_line<const D: usize>(w: &mut impl Write, p: &Point<D>) -> io::Result<()> {
    for (i, c) in p.coords().iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(w, "{c}")?;
    }
    w.write_all(b"\n")
}

/// Writes points together with an integer label per point (e.g. cluster ids,
/// with -1 for noise), as `x1,...,xd,label` lines.
pub fn write_labeled_csv<const D: usize>(
    path: &Path,
    points: &[Point<D>],
    labels: &[i64],
) -> io::Result<()> {
    assert_eq!(points.len(), labels.len());
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for (p, l) in points.iter().zip(labels) {
        for c in p.coords() {
            write!(w, "{c},")?;
        }
        writeln!(w, "{l}")?;
    }
    w.flush()
}

/// Reads a CSV written by [`write_points_csv`]. Lines must have exactly `D`
/// fields; empty lines are skipped.
pub fn read_points_csv<const D: usize>(path: &Path) -> io::Result<Vec<Point<D>>> {
    let file = std::fs::File::open(path)?;
    let reader = io::BufReader::new(file);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut coords = [0.0; D];
        let mut fields = line.split(',');
        for (i, c) in coords.iter_mut().enumerate() {
            let field = fields.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: expected {D} fields, got {i}", lineno + 1),
                )
            })?;
            *c = field.trim().parse::<f64>().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad float {field:?}: {e}", lineno + 1),
                )
            })?;
        }
        if fields.next().is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: more than {D} fields", lineno + 1),
            ));
        }
        out.push(Point(coords));
    }
    Ok(out)
}

/// Reads a CSV of unknown dimensionality: returns `(dim, flat coordinates)`
/// where `flat.len() == dim * n`. The dimension is inferred from the first
/// non-empty line; all lines must agree. Used by the `dbscan` CLI, which picks
/// the compile-time dimension at runtime.
///
/// Malformed rows yield [`DbscanError::Parse`] with the 1-based line number
/// and the offending token (the bad field, or the whole row for shape
/// errors); underlying read failures yield [`DbscanError::Io`].
pub fn read_csv_dynamic(path: &Path) -> Result<(usize, Vec<f64>), DbscanError> {
    let file = std::fs::File::open(path)?;
    let reader = io::BufReader::new(file);
    let mut dim = 0usize;
    let mut flat = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let start = flat.len();
        for field in line.split(',') {
            let v = field
                .trim()
                .parse::<f64>()
                .map_err(|e| DbscanError::Parse {
                    line: lineno + 1,
                    token: field.trim().to_string(),
                    message: format!("not a valid number ({e})"),
                })?;
            flat.push(v);
        }
        let this_dim = flat.len() - start;
        if dim == 0 {
            dim = this_dim;
        } else if this_dim != dim {
            return Err(DbscanError::Parse {
                line: lineno + 1,
                token: line.trim().to_string(),
                message: format!("row has {this_dim} fields, expected {dim}"),
            });
        }
    }
    if dim == 0 {
        return Err(DbscanError::Parse {
            line: 1,
            token: String::new(),
            message: "empty input file (no non-blank lines)".to_string(),
        });
    }
    Ok((dim, flat))
}

pub use dbscan_core::dim::{points_from_flat, try_points_from_flat};

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::p2;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dbscan-datagen-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip() {
        let path = tmpfile("roundtrip.csv");
        let pts = vec![p2(1.5, -2.25), p2(0.0, 1e5)];
        write_points_csv(&path, &pts).unwrap();
        let back: Vec<Point<2>> = read_points_csv(&path).unwrap();
        assert_eq!(back, pts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn labeled_roundtrip_via_text() {
        let path = tmpfile("labeled.csv");
        let pts = vec![p2(1.0, 2.0)];
        write_labeled_csv(&path, &pts, &[-1]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.trim(), "1,2,-1");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_field_count_is_rejected() {
        let path = tmpfile("bad.csv");
        std::fs::write(&path, "1.0,2.0,3.0\n").unwrap();
        assert!(read_points_csv::<2>(&path).is_err());
        assert!(read_points_csv::<4>(&path).is_err());
        assert!(read_points_csv::<3>(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_reader_infers_dim() {
        let path = tmpfile("dyn.csv");
        std::fs::write(&path, "1,2,3\n4,5,6\n\n7,8,9\n").unwrap();
        let (dim, flat) = read_csv_dynamic(&path).unwrap();
        assert_eq!(dim, 3);
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let pts = points_from_flat::<3>(&flat);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[2].coords(), &[7.0, 8.0, 9.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_reader_rejects_ragged_rows_with_line_and_token() {
        let path = tmpfile("ragged.csv");
        std::fs::write(&path, "1,2\n3,4,5\n").unwrap();
        match read_csv_dynamic(&path).unwrap_err() {
            DbscanError::Parse {
                line,
                token,
                message,
            } => {
                assert_eq!(line, 2);
                assert_eq!(token, "3,4,5");
                assert!(message.contains("3 fields, expected 2"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dynamic_reader_names_the_bad_token() {
        let path = tmpfile("dynbadfloat.csv");
        std::fs::write(&path, "1,2\n\n3,oops\n").unwrap();
        match read_csv_dynamic(&path).unwrap_err() {
            DbscanError::Parse { line, token, .. } => {
                assert_eq!(line, 3); // 1-based, blank line still counted
                assert_eq!(token, "oops");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn try_points_from_flat_rejects_partial_rows() {
        assert_eq!(
            try_points_from_flat::<2>(&[1.0, 2.0, 3.0, 4.0])
                .unwrap()
                .len(),
            2
        );
        match try_points_from_flat::<2>(&[1.0, 2.0, 3.0]).unwrap_err() {
            DbscanError::Parse { line, token, .. } => {
                assert_eq!(line, 2);
                assert!(token.contains("1 trailing"), "{token}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn dynamic_reader_rejects_empty_file() {
        let path = tmpfile("emptyfile.csv");
        std::fs::write(&path, "\n\n").unwrap();
        assert!(read_csv_dynamic(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_float_is_rejected() {
        let path = tmpfile("badfloat.csv");
        std::fs::write(&path, "1.0,abc\n").unwrap();
        let err = read_points_csv::<2>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
