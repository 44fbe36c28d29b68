//! Output checks. Every check runs outside the timed intervals; a failed
//! check counts into `failed` and makes the run incorrect.

use dbscan_core::Clustering;
use dbscan_eval::sandwich::{check_sandwich, SandwichOutcome};
use dbscan_server::json::Value;
use dbscan_server::label_hash;

/// The label hash the daemon reports, computed on a library result.
pub fn hash_of(c: &Clustering) -> u64 {
    label_hash(&c.flat_labels())
}

/// Exact results from two code paths must label every point identically.
pub fn same_labels(what: &str, expected: u64, got: u64) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: label hash {got:016x}, expected {expected:016x}"
        ))
    }
}

/// Theorem 3: the ρ-approximate result must sit between the exact results at
/// `ε` and `ε(1+ρ)`.
pub fn sandwich(inner: &Clustering, approx: &Clustering, outer: &Clustering) -> Result<(), String> {
    match check_sandwich(inner, approx, outer) {
        SandwichOutcome::Holds => Ok(()),
        bad => Err(format!(
            "approx result breaks the sandwich guarantee: {bad:?}"
        )),
    }
}

/// Decodes a `labels` array of a `result` reply.
pub fn labels_of(v: &Value) -> Option<Vec<Option<u32>>> {
    v.as_arr()?
        .iter()
        .map(|l| match l {
            Value::Null => Some(None),
            other => other.as_u64().and_then(|c| u32::try_from(c).ok()).map(Some),
        })
        .collect()
}

/// A served `result` reply must be `done`, and both its `label_hash` and its
/// returned labels must match the standalone run on the same points.
pub fn served(resp: &Value, expected: u64) -> Result<(), String> {
    if resp.get("state").and_then(Value::as_str) != Some("done") {
        return Err(format!("job did not finish: {}", resp.to_line()));
    }
    let reported = resp.get("label_hash").and_then(Value::as_str).unwrap_or("");
    if reported != format!("{expected:016x}") {
        return Err(format!(
            "served label_hash {reported}, expected {expected:016x}"
        ));
    }
    let labels = resp
        .get("labels")
        .and_then(labels_of)
        .ok_or_else(|| "result carries no labels".to_string())?;
    same_labels("served labels", expected, label_hash(&labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_core::algorithms::{grid_exact, rho_approx};
    use dbscan_core::{Assignment, DbscanParams};
    use dbscan_server::json::obj;

    fn reply(hash: u64, labels: &[Option<u32>]) -> Value {
        obj(vec![
            ("state", Value::Str("done".to_string())),
            ("label_hash", Value::Str(format!("{hash:016x}"))),
            (
                "labels",
                Value::Arr(
                    labels
                        .iter()
                        .map(|l| l.map_or(Value::Null, |c| Value::Num(c as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn corrupted_labels_trip_the_check() {
        let pts = crate::data::ss_dataset::<3>(3_000, 5);
        let c = grid_exact(&pts, DbscanParams::new(5000.0, 100).unwrap());
        let expected = hash_of(&c);
        let mut labels = c.flat_labels();
        assert!(served(&reply(expected, &labels), expected).is_ok());

        // One point moved to another (or no) cluster must be caught, both
        // through the returned labels and through the reported hash.
        let i = labels
            .iter()
            .position(Option::is_some)
            .expect("a clustered point");
        labels[i] = labels[i].map(|c| c + 1);
        let corrupted = label_hash(&labels);
        assert!(served(&reply(expected, &labels), expected).is_err());
        assert!(served(&reply(corrupted, &labels), expected).is_err());
        assert!(same_labels("par", expected, corrupted).is_err());
    }

    #[test]
    fn sandwich_accepts_approx_and_rejects_a_merge() {
        let pts = crate::data::ss_dataset::<2>(4_000, 9);
        let p = DbscanParams::new(5000.0, 20).unwrap();
        let inner = grid_exact(&pts, p);
        let outer = grid_exact(&pts, p.inflate(0.001));
        let approx = rho_approx(&pts, p, 0.001);
        assert!(sandwich(&inner, &approx, &outer).is_ok());
        assert!(outer.num_clusters >= 2, "fixture needs two clusters");
        // An "approx" result that merges every cluster into one is coarser
        // than the outer clustering: statement 2 must fail.
        let mut merged = approx.clone();
        for a in &mut merged.assignments {
            *a = match a {
                Assignment::Noise => Assignment::Noise,
                Assignment::Core(_) => Assignment::Core(0),
                Assignment::Border(_) => Assignment::Border(vec![0]),
            };
        }
        merged.num_clusters = 1;
        assert!(sandwich(&inner, &merged, &outer).is_err());
    }
}
