//! What one tier's run reports, and how it is printed.

use crate::stats::{Outcomes, Tail};

/// One named figure with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as printed and as keyed in the result line.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`ms`, `s`, `us`, `count`, ...).
    pub unit: &'static str,
}

/// A tier's figures, gates and notes.
#[derive(Debug, Default)]
pub struct TierReport {
    /// End-to-end figures, from the untraced windows.
    pub e2e: Vec<Metric>,
    /// Per-layer figures (traced runs only).
    pub layers: Vec<Metric>,
    /// Human-readable lines: tails with sample counts, accounting,
    /// tracing overhead, gate outcomes.
    pub notes: Vec<String>,
    /// Operation accounting behind `failed_ratio`.
    pub outcomes: Outcomes,
    /// Gate failures, by description.
    pub gate_failures: Vec<String>,
}

impl TierReport {
    /// Adds an end-to-end figure.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a per-layer figure.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a tail latency (ms) with its percentile and sample count.
    pub fn tail_ms(&mut self, name: &str, tail: Option<Tail>) {
        let Some(t) = tail else {
            self.notes.push(format!("{name}: no samples"));
            return;
        };
        self.e2e(name, t.value, "ms");
        self.notes.push(format!(
            "{name} = {} {:.4} ms over {} samples ({} beyond)",
            t.label(),
            t.value,
            t.samples,
            t.beyond
        ));
    }

    /// Records a correctness gate; a failure fails the run and counts in
    /// `failed_ratio`.
    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.outcomes.attempted += 1;
        if ok {
            self.notes.push(format!("gate {name}: pass ({detail})"));
        } else {
            self.outcomes.gates_failed += 1;
            self.gate_failures.push(format!("{name}: {detail}"));
            self.notes.push(format!("gate {name}: FAIL ({detail})"));
        }
    }

    /// Looks up an end-to-end figure by name.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }
}
