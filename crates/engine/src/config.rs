//! Engine configuration.

use crate::load::{LoadPolicy, WatchdogConfig};
use crate::validate::{BackpressurePolicy, ValidationPolicy};
use serde::{Deserialize, Serialize};
use umicro::UMicroConfig;
use ustream_snapshot::{PyramidConfig, SnapshotBudget};

/// How the novelty detector baselines "ordinary" isolation levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoveltyBaseline {
    /// Running mean of non-alerting isolations (cheap; sensitive to skew).
    Mean,
    /// A streaming quantile (P² sketch) of non-alerting isolations —
    /// robust to heavy-tailed isolation distributions; `q` is typically
    /// 0.95–0.99.
    Quantile(f64),
}

/// Configuration of a [`crate::StreamEngine`].
///
/// `Deserialize` is hand-written (not derived) so configs serialized before
/// the resilience fields existed — e.g. inside old checkpoints — still
/// parse, with `checkpoint_generations = 1` and no governor.
#[derive(Debug, Clone, Serialize)]
pub struct EngineConfig {
    /// The clustering configuration (budget, dimensionality, similarity,
    /// boundary mode).
    pub umicro: UMicroConfig,
    /// Pyramidal time-frame geometry for the snapshot store.
    pub pyramid: PyramidConfig,
    /// Ticks between snapshots (1 = every tick; larger values trade horizon
    /// resolution for memory/CPU).
    pub snapshot_every: u64,
    /// Optional exponential decay half-life in ticks (§II-E); `None`
    /// disables decay.
    pub decay_half_life: Option<f64>,
    /// Novelty alerting: a record is flagged when its error-corrected
    /// distance to the nearest micro-cluster (its pre-insertion
    /// [`OnlineClusterer::isolation`](umicro::OnlineClusterer::isolation))
    /// exceeds `novelty_factor ×` the baseline isolation. The isolation is
    /// one corrected sweep of the shard's SIMD kernel over every live
    /// cluster — O(k·d) per point, no division — and is skipped entirely
    /// when `None` disables the monitor.
    pub novelty_factor: Option<f64>,
    /// Baseline statistic the factor multiplies.
    pub novelty_baseline: NoveltyBaseline,
    /// Capacity of each shard's ingestion channel (backpressure bound).
    pub channel_capacity: usize,
    /// Maximum retained (undrained) novelty alerts.
    pub max_alerts: usize,
    /// Number of shard workers. The micro-cluster budget `umicro.n_micro`
    /// is a *global* budget divided evenly across shards (ceiling division,
    /// at least 1 per shard); records are routed round-robin and each shard
    /// clusters its slice independently, with periodic exact ECF merges
    /// producing the global view. `1` (the default) reproduces the
    /// single-worker engine byte-for-byte.
    pub shards: usize,
    /// What to do with points that fail validation (NaN coordinates,
    /// invalid error vectors, dimension mismatches). `None` disables
    /// producer-side validation entirely — only safe when the producer
    /// guarantees well-formed input (e.g. the synthetic benchmarks).
    pub validation: Option<ValidationPolicy>,
    /// When validating, also require timestamps to be non-decreasing with
    /// respect to the engine clock (`last_tick`). Off by default: many real
    /// streams are mildly out of order and the pyramid tolerates it.
    pub monotone_timestamps: bool,
    /// Capacity of the quarantine buffer under
    /// [`ValidationPolicy::Quarantine`].
    pub quarantine_capacity: usize,
    /// What producers experience when every shard channel is full.
    pub backpressure: BackpressurePolicy,
    /// Automatic checkpoint cadence: every `n` ingested points the engine
    /// writes its full state to [`checkpoint_path`](Self::checkpoint_path).
    /// `None` (default) disables auto-checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Destination for automatic checkpoints; required when
    /// [`checkpoint_every`](Self::checkpoint_every) is set.
    pub checkpoint_path: Option<String>,
    /// Number of rotated checkpoint generations. `1` (default) keeps the
    /// historical single-file behaviour; `n > 1` rotates
    /// `<path>.0 … <path>.{n-1}` plus a manifest, and restore falls back
    /// generation by generation past corrupt files.
    pub checkpoint_generations: u64,
    /// Degradation ladder driven by channel pressure; `None` (default)
    /// never degrades. Setting a policy starts the governor thread.
    pub load_policy: Option<LoadPolicy>,
    /// Stall watchdog over the shard workers; `None` (default) disables it.
    /// Setting a config starts the governor thread.
    pub watchdog: Option<WatchdogConfig>,
    /// Memory budget for the pyramidal snapshot store; `None` (default)
    /// retains the full `α^l + 1` per order.
    pub snapshot_budget: Option<SnapshotBudget>,
}

impl Deserialize for EngineConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_obj()
            .ok_or_else(|| serde::Error::msg("expected object for `EngineConfig`"))?;
        let get = |name: &str| serde::field(fields, name, "EngineConfig");
        // Fields added after the first released config format default when
        // absent, so old checkpoints keep restoring.
        let opt = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        Ok(Self {
            umicro: Deserialize::from_value(get("umicro")?)?,
            pyramid: Deserialize::from_value(get("pyramid")?)?,
            snapshot_every: Deserialize::from_value(get("snapshot_every")?)?,
            decay_half_life: Deserialize::from_value(get("decay_half_life")?)?,
            novelty_factor: Deserialize::from_value(get("novelty_factor")?)?,
            novelty_baseline: Deserialize::from_value(get("novelty_baseline")?)?,
            channel_capacity: Deserialize::from_value(get("channel_capacity")?)?,
            max_alerts: Deserialize::from_value(get("max_alerts")?)?,
            shards: Deserialize::from_value(get("shards")?)?,
            validation: Deserialize::from_value(get("validation")?)?,
            monotone_timestamps: Deserialize::from_value(get("monotone_timestamps")?)?,
            quarantine_capacity: Deserialize::from_value(get("quarantine_capacity")?)?,
            backpressure: Deserialize::from_value(get("backpressure")?)?,
            checkpoint_every: Deserialize::from_value(get("checkpoint_every")?)?,
            checkpoint_path: Deserialize::from_value(get("checkpoint_path")?)?,
            checkpoint_generations: match opt("checkpoint_generations") {
                Some(v) => Deserialize::from_value(v)?,
                None => 1,
            },
            load_policy: match opt("load_policy") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
            watchdog: match opt("watchdog") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
            snapshot_budget: match opt("snapshot_budget") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
        })
    }
}

impl EngineConfig {
    /// Defaults: snapshot every tick, no decay, novelty at 8× the running
    /// isolation level, 4 096-record channel.
    pub fn new(umicro: UMicroConfig) -> Self {
        Self {
            umicro,
            pyramid: PyramidConfig::default(),
            snapshot_every: 1,
            decay_half_life: None,
            novelty_factor: Some(8.0),
            novelty_baseline: NoveltyBaseline::Mean,
            channel_capacity: 4_096,
            max_alerts: 1_024,
            shards: 1,
            validation: Some(ValidationPolicy::Reject),
            monotone_timestamps: false,
            quarantine_capacity: 256,
            backpressure: BackpressurePolicy::Block,
            checkpoint_every: None,
            checkpoint_path: None,
            checkpoint_generations: 1,
            load_policy: None,
            watchdog: None,
            snapshot_budget: None,
        }
    }

    /// Overrides (or disables, with `None`) producer-side validation.
    pub fn with_validation(mut self, policy: Option<ValidationPolicy>) -> Self {
        self.validation = policy;
        self
    }

    /// Requires non-decreasing timestamps (validated against the engine
    /// clock).
    pub fn with_monotone_timestamps(mut self, enforce: bool) -> Self {
        self.monotone_timestamps = enforce;
        self
    }

    /// Overrides the quarantine buffer capacity.
    pub fn with_quarantine_capacity(mut self, capacity: usize) -> Self {
        self.quarantine_capacity = capacity;
        self
    }

    /// Overrides the backpressure policy.
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Enables automatic checkpoints every `every` points, written to
    /// `path`.
    pub fn with_auto_checkpoint(mut self, every: u64, path: impl Into<String>) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.checkpoint_every = Some(every);
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Rotates automatic checkpoints through `generations` files instead
    /// of overwriting one; see [`crate::checkpoint::write_rotated`].
    pub fn with_checkpoint_generations(mut self, generations: u64) -> Self {
        assert!(generations >= 1, "need at least one checkpoint generation");
        assert!(generations <= 64, "checkpoint generations capped at 64");
        self.checkpoint_generations = generations;
        self
    }

    /// Installs the degradation ladder (validated immediately).
    pub fn with_load_policy(mut self, policy: LoadPolicy) -> Self {
        policy.validate();
        self.load_policy = Some(policy);
        self
    }

    /// Installs the stall watchdog (validated immediately).
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        watchdog.validate();
        self.watchdog = Some(watchdog);
        self
    }

    /// Caps the snapshot store's memory; see [`SnapshotBudget`].
    pub fn with_snapshot_budget(mut self, budget: SnapshotBudget) -> Self {
        self.snapshot_budget = Some(budget);
        self
    }

    /// Overrides the shard-worker count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "engine needs at least one shard");
        assert!(shards <= 1 << 16, "shard count exceeds the id namespace");
        self.shards = shards;
        self
    }

    /// The per-shard micro-cluster budget: the global budget split evenly
    /// (ceiling division, at least 1).
    pub fn shard_n_micro(&self) -> usize {
        self.umicro.n_micro.div_ceil(self.shards).max(1)
    }

    /// Overrides the snapshot cadence.
    pub fn with_snapshot_every(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "snapshot cadence must be positive");
        self.snapshot_every = ticks;
        self
    }

    /// Enables exponential decay.
    pub fn with_decay_half_life(mut self, half_life: f64) -> Self {
        assert!(half_life > 0.0, "half-life must be positive");
        self.decay_half_life = Some(half_life);
        self
    }

    /// Overrides (or disables, with `None`) novelty alerting.
    pub fn with_novelty_factor(mut self, factor: Option<f64>) -> Self {
        if let Some(f) = factor {
            assert!(f > 1.0, "novelty factor must exceed 1");
        }
        self.novelty_factor = factor;
        self
    }

    /// Overrides the pyramid geometry.
    pub fn with_pyramid(mut self, pyramid: PyramidConfig) -> Self {
        self.pyramid = pyramid;
        self
    }

    /// Switches the novelty baseline to a streaming quantile.
    pub fn with_novelty_quantile(mut self, q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        self.novelty_baseline = NoveltyBaseline::Quantile(q);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EngineConfig {
        EngineConfig::new(UMicroConfig::new(8, 2).unwrap())
    }

    #[test]
    fn builder_overrides() {
        let c = base()
            .with_snapshot_every(16)
            .with_decay_half_life(500.0)
            .with_novelty_factor(Some(5.0));
        assert_eq!(c.snapshot_every, 16);
        assert_eq!(c.decay_half_life, Some(500.0));
        assert_eq!(c.novelty_factor, Some(5.0));
    }

    #[test]
    fn novelty_can_be_disabled() {
        let c = base().with_novelty_factor(None);
        assert_eq!(c.novelty_factor, None);
    }

    #[test]
    fn quantile_baseline_override() {
        let c = base().with_novelty_quantile(0.99);
        assert_eq!(c.novelty_baseline, NoveltyBaseline::Quantile(0.99));
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn bad_quantile_rejected() {
        let _ = base().with_novelty_quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn zero_cadence_rejected() {
        let _ = base().with_snapshot_every(0);
    }

    #[test]
    #[should_panic(expected = "must exceed 1")]
    fn tiny_novelty_factor_rejected() {
        let _ = base().with_novelty_factor(Some(0.5));
    }

    #[test]
    fn shard_budget_splits_evenly_with_floor_of_one() {
        assert_eq!(base().shards, 1);
        assert_eq!(base().shard_n_micro(), 8);
        let c = base().with_shards(4);
        assert_eq!(c.shard_n_micro(), 2);
        let c = base().with_shards(3);
        assert_eq!(c.shard_n_micro(), 3); // ceil(8/3)
        let c = base().with_shards(64);
        assert_eq!(c.shard_n_micro(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = base().with_shards(0);
    }

    #[test]
    fn validation_defaults_to_reject() {
        let c = base();
        assert_eq!(c.validation, Some(ValidationPolicy::Reject));
        assert_eq!(c.backpressure, BackpressurePolicy::Block);
        assert!(!c.monotone_timestamps);
        assert_eq!(c.checkpoint_every, None);
    }

    #[test]
    fn robustness_builders() {
        let c = base()
            .with_validation(Some(ValidationPolicy::Quarantine))
            .with_quarantine_capacity(32)
            .with_monotone_timestamps(true)
            .with_backpressure(BackpressurePolicy::DropNewest)
            .with_auto_checkpoint(1_000, "/tmp/engine.ckpt");
        assert_eq!(c.validation, Some(ValidationPolicy::Quarantine));
        assert_eq!(c.quarantine_capacity, 32);
        assert!(c.monotone_timestamps);
        assert_eq!(c.backpressure, BackpressurePolicy::DropNewest);
        assert_eq!(c.checkpoint_every, Some(1_000));
        assert_eq!(c.checkpoint_path.as_deref(), Some("/tmp/engine.ckpt"));
    }

    #[test]
    fn resilience_builders() {
        let c = base()
            .with_checkpoint_generations(3)
            .with_load_policy(LoadPolicy::default())
            .with_watchdog(WatchdogConfig::default())
            .with_snapshot_budget(SnapshotBudget::by_snapshots(64));
        assert_eq!(c.checkpoint_generations, 3);
        assert!(c.load_policy.is_some());
        assert!(c.watchdog.is_some());
        assert_eq!(c.snapshot_budget.unwrap().max_snapshots, Some(64));
    }

    #[test]
    #[should_panic(expected = "at least one checkpoint generation")]
    fn zero_generations_rejected() {
        let _ = base().with_checkpoint_generations(0);
    }

    #[test]
    fn old_configs_without_resilience_fields_still_parse() {
        // A config serialized before the resilience fields existed must
        // deserialize with the defaults (generations=1, no governor).
        let serde::Value::Obj(mut fields) = base().to_value() else {
            panic!("config must serialize to an object");
        };
        fields.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                "checkpoint_generations" | "load_policy" | "watchdog" | "snapshot_budget"
            )
        });
        let back = EngineConfig::from_value(&serde::Value::Obj(fields)).unwrap();
        assert_eq!(back.checkpoint_generations, 1);
        assert!(back.load_policy.is_none());
        assert!(back.watchdog.is_none());
        assert!(back.snapshot_budget.is_none());
    }

    #[test]
    fn config_serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let c = base()
            .with_shards(4)
            .with_decay_half_life(250.0)
            .with_novelty_quantile(0.95)
            .with_validation(Some(ValidationPolicy::Clamp))
            .with_auto_checkpoint(500, "ckpt.bin");
        let v = c.to_value();
        let back = EngineConfig::from_value(&v).unwrap();
        assert_eq!(back.shards, 4);
        assert_eq!(back.decay_half_life, Some(250.0));
        assert_eq!(back.novelty_baseline, NoveltyBaseline::Quantile(0.95));
        assert_eq!(back.validation, Some(ValidationPolicy::Clamp));
        assert_eq!(back.checkpoint_every, Some(500));
        assert_eq!(back.checkpoint_path.as_deref(), Some("ckpt.bin"));
        assert_eq!(back.umicro.n_micro, c.umicro.n_micro);
        assert_eq!(back.snapshot_every, c.snapshot_every);
    }
}
