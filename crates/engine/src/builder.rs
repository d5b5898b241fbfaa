//! The one way to construct a [`StreamEngine`].
//!
//! The engine has many knobs — validation, watchdog, load policy,
//! checkpointing, snapshot budgets — over an assert-happy
//! [`EngineConfig`]. [`EngineBuilder`] is a single chained-setter builder
//! whose `build()` *returns* a [`UStreamError::InvalidConfig`] instead of
//! panicking, so servers can reject a bad tenant configuration without
//! dying.
//!
//! ```
//! use ustream_engine::{EngineBuilder, LoadPolicy, WatchdogConfig};
//! use umicro::UMicroConfig;
//! use ustream_common::UncertainPoint;
//!
//! let engine = EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
//!     .shards(2)
//!     .snapshot_every(8)
//!     .load_policy(LoadPolicy::default())
//!     .watchdog(WatchdogConfig::default())
//!     .build()
//!     .expect("valid configuration");
//! engine
//!     .push(UncertainPoint::new(vec![1.0, -1.0], vec![0.3, 0.3], 1, None))
//!     .unwrap();
//! engine.flush();
//! assert_eq!(engine.points_processed(), 1);
//! engine.shutdown();
//! ```

use crate::config::{EngineConfig, NoveltyBaseline};
use crate::engine::{DynClusterer, StreamEngine};
use crate::load::{LoadPolicy, WatchdogConfig};
use crate::validate::{BackpressurePolicy, ValidationPolicy};
use umicro::UMicroConfig;
use ustream_common::{Result, UStreamError};
use ustream_snapshot::{PyramidConfig, SnapshotBudget};

/// Chained-setter construction of a [`StreamEngine`].
///
/// Every setter records its value without validating; [`Self::build`] (or
/// [`Self::into_config`]) validates the whole configuration at once and
/// reports the *first* problem as [`UStreamError::InvalidConfig`]. This is
/// the deliberate difference from the `EngineConfig::with_*` family, which
/// asserts eagerly: a serving front-end constructing engines from untrusted
/// tenant configs needs errors, not panics.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// A builder over the engine defaults for the given clustering
    /// configuration (see [`EngineConfig::new`]).
    pub fn new(umicro: UMicroConfig) -> Self {
        Self {
            config: EngineConfig::new(umicro),
        }
    }

    /// A builder seeded from an existing configuration (e.g. one read back
    /// from a checkpoint) — setters override individual fields from there.
    pub fn from_config(config: EngineConfig) -> Self {
        Self { config }
    }

    /// Number of shard workers (round-robin routing, exact periodic merge).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Ticks between pyramidal snapshots.
    pub fn snapshot_every(mut self, ticks: u64) -> Self {
        self.config.snapshot_every = ticks;
        self
    }

    /// Pyramidal time-frame geometry.
    pub fn pyramid(mut self, pyramid: PyramidConfig) -> Self {
        self.config.pyramid = pyramid;
        self
    }

    /// Exponential decay half-life in ticks (`None` disables decay).
    pub fn decay_half_life(mut self, half_life: Option<f64>) -> Self {
        self.config.decay_half_life = half_life;
        self
    }

    /// Novelty alerting factor (`None` disables the monitor).
    pub fn novelty_factor(mut self, factor: Option<f64>) -> Self {
        self.config.novelty_factor = factor;
        self
    }

    /// Switches the novelty baseline to a streaming quantile.
    pub fn novelty_quantile(mut self, q: f64) -> Self {
        self.config.novelty_baseline = NoveltyBaseline::Quantile(q);
        self
    }

    /// Capacity of each shard's ingestion channel.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.config.channel_capacity = capacity;
        self
    }

    /// Maximum retained (undrained) novelty alerts.
    pub fn max_alerts(mut self, max: usize) -> Self {
        self.config.max_alerts = max;
        self
    }

    /// Producer-side validation policy (`None` disables validation).
    pub fn validation(mut self, policy: Option<ValidationPolicy>) -> Self {
        self.config.validation = policy;
        self
    }

    /// Requires non-decreasing timestamps at the producer boundary.
    pub fn monotone_timestamps(mut self, enforce: bool) -> Self {
        self.config.monotone_timestamps = enforce;
        self
    }

    /// Quarantine buffer capacity under [`ValidationPolicy::Quarantine`].
    pub fn quarantine_capacity(mut self, capacity: usize) -> Self {
        self.config.quarantine_capacity = capacity;
        self
    }

    /// What producers experience when every shard channel is full.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.config.backpressure = policy;
        self
    }

    /// Automatic checkpoints every `every` points, written to `path`.
    pub fn auto_checkpoint(mut self, every: u64, path: impl Into<String>) -> Self {
        self.config.checkpoint_every = Some(every);
        self.config.checkpoint_path = Some(path.into());
        self
    }

    /// Number of rotated checkpoint generations (1..=64).
    pub fn checkpoint_generations(mut self, generations: u64) -> Self {
        self.config.checkpoint_generations = generations;
        self
    }

    /// Installs the degradation ladder (starts the governor thread).
    pub fn load_policy(mut self, policy: LoadPolicy) -> Self {
        self.config.load_policy = Some(policy);
        self
    }

    /// Installs the stall watchdog (starts the governor thread).
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.config.watchdog = Some(watchdog);
        self
    }

    /// Caps the snapshot store's memory.
    pub fn snapshot_budget(mut self, budget: SnapshotBudget) -> Self {
        self.config.snapshot_budget = Some(budget);
        self
    }

    /// Validates the accumulated configuration and hands it back without
    /// starting an engine — for callers that persist or ship configs.
    ///
    /// # Errors
    ///
    /// [`UStreamError::InvalidConfig`] describing the first invalid field.
    pub fn into_config(self) -> Result<EngineConfig> {
        validate(&self.config)?;
        Ok(self.config)
    }

    /// Validates and starts the engine with the default UMicro clusterers
    /// (decayed when a half-life is set).
    ///
    /// # Errors
    ///
    /// [`UStreamError::InvalidConfig`] for a bad configuration,
    /// [`UStreamError::Io`] when a worker thread cannot be spawned.
    pub fn build(self) -> Result<StreamEngine> {
        StreamEngine::launch_default(self.into_config()?)
    }

    /// Validates and starts the engine with caller-supplied clusterers —
    /// any [`umicro::OnlineClusterer`] over ECF summaries. The factory is
    /// invoked once per shard index (and again on supervised respawn); it
    /// is responsible for sizing each shard's budget.
    ///
    /// # Errors
    ///
    /// [`UStreamError::InvalidConfig`] for a bad configuration,
    /// [`UStreamError::Io`] when a worker thread cannot be spawned.
    pub fn build_with(
        self,
        clusterer: impl Fn(usize) -> DynClusterer + Send + Sync + 'static,
    ) -> Result<StreamEngine> {
        StreamEngine::launch(self.into_config()?, clusterer)
    }
}

/// The non-panicking mirror of the `EngineConfig::with_*` assertions.
fn validate(config: &EngineConfig) -> Result<()> {
    let fail = |msg: String| Err(UStreamError::InvalidConfig(msg));
    if config.shards == 0 || config.shards > 1 << 16 {
        return fail(format!(
            "shards must be in 1..={} (got {})",
            1u32 << 16,
            config.shards
        ));
    }
    if config.snapshot_every == 0 {
        return fail("snapshot_every must be positive".into());
    }
    if config.channel_capacity == 0 {
        return fail("channel_capacity must be positive".into());
    }
    if let Some(hl) = config.decay_half_life {
        if hl <= 0.0 || hl.is_nan() {
            return fail(format!("decay half-life must be positive (got {hl})"));
        }
    }
    if let Some(f) = config.novelty_factor {
        if f <= 1.0 || f.is_nan() {
            return fail(format!("novelty factor must exceed 1 (got {f})"));
        }
    }
    if let NoveltyBaseline::Quantile(q) = config.novelty_baseline {
        if !(q > 0.0 && q < 1.0) {
            return fail(format!("novelty quantile must be in (0, 1) (got {q})"));
        }
    }
    match (config.checkpoint_every, config.checkpoint_path.as_deref()) {
        (Some(0), _) => return fail("checkpoint cadence must be positive".into()),
        (Some(_), None) => return fail("checkpoint_every needs a checkpoint path".into()),
        _ => {}
    }
    if !(1..=64).contains(&config.checkpoint_generations) {
        return fail(format!(
            "checkpoint generations must be in 1..=64 (got {})",
            config.checkpoint_generations
        ));
    }
    if let Some(policy) = config.load_policy {
        if let Err(msg) = check_load_policy(&policy) {
            return fail(msg);
        }
    }
    if let Some(watchdog) = config.watchdog {
        if watchdog.stall_deadline_ms == 0 {
            return fail("watchdog stall_deadline_ms must be positive".into());
        }
        if watchdog.poll_ms == 0 {
            return fail("watchdog poll_ms must be positive".into());
        }
    }
    if let Some(budget) = config.snapshot_budget {
        if budget.max_snapshots == Some(0) {
            return fail("snapshot budget of 0 snapshots would retain nothing".into());
        }
        if budget.max_bytes == Some(0) {
            return fail("snapshot budget of 0 bytes would retain nothing".into());
        }
    }
    Ok(())
}

/// [`LoadPolicy::validate`] without the panics.
fn check_load_policy(p: &LoadPolicy) -> std::result::Result<(), String> {
    if !(p.high_watermark > 0.0 && p.high_watermark <= 1.0) {
        return Err("load policy high_watermark must be in (0, 1]".into());
    }
    if !(p.low_watermark >= 0.0 && p.low_watermark < p.high_watermark) {
        return Err("load policy low_watermark must be in [0, high_watermark)".into());
    }
    if p.trip_polls == 0 {
        return Err("load policy trip_polls must be positive".into());
    }
    if p.clear_polls == 0 {
        return Err("load policy clear_polls must be positive".into());
    }
    if p.widen_factor == 0 {
        return Err("load policy widen_factor must be >= 1".into());
    }
    if !(1..=1000).contains(&p.keep_per_mille) {
        return Err("load policy keep_per_mille must be in [1, 1000]".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use umicro::UMicro;
    use ustream_common::UncertainPoint;

    fn base() -> EngineBuilder {
        EngineBuilder::new(UMicroConfig::new(16, 2).unwrap())
    }

    fn pt(x: f64, t: u64) -> UncertainPoint {
        UncertainPoint::new(vec![x, -x], vec![0.2, 0.2], t, None)
    }

    #[test]
    fn build_runs_an_engine_end_to_end() {
        let engine = base().shards(2).snapshot_every(4).build().unwrap();
        for t in 1..=50 {
            engine
                .push(pt(if t % 2 == 0 { 0.0 } else { 8.0 }, t))
                .unwrap();
        }
        engine.flush();
        assert_eq!(engine.points_processed(), 50);
        let report = engine.shutdown();
        assert_eq!(report.per_shard.len(), 2);
    }

    #[test]
    fn build_with_uses_the_factory() {
        let engine = base()
            .build_with(|_shard| -> DynClusterer {
                Box::new(UMicro::new(UMicroConfig::new(4, 2).unwrap()))
            })
            .unwrap();
        engine.push(pt(1.0, 1)).unwrap();
        engine.flush();
        assert_eq!(engine.points_processed(), 1);
        engine.shutdown();
    }

    #[test]
    fn invalid_configs_error_instead_of_panicking() {
        let cases: Vec<(EngineBuilder, &str)> = vec![
            (base().shards(0), "shards"),
            (base().snapshot_every(0), "snapshot_every"),
            (base().channel_capacity(0), "channel_capacity"),
            (base().decay_half_life(Some(-1.0)), "half-life"),
            (base().novelty_factor(Some(0.5)), "novelty factor"),
            (base().novelty_quantile(1.5), "quantile"),
            (base().auto_checkpoint(0, "x.ckpt"), "cadence"),
            (base().checkpoint_generations(0), "generations"),
            (
                base().load_policy(LoadPolicy {
                    keep_per_mille: 0,
                    ..LoadPolicy::default()
                }),
                "keep_per_mille",
            ),
            (
                base().watchdog(WatchdogConfig {
                    stall_deadline_ms: 0,
                    ..WatchdogConfig::default()
                }),
                "stall_deadline_ms",
            ),
            (
                base().snapshot_budget(SnapshotBudget::by_snapshots(0)),
                "snapshots",
            ),
        ];
        for (builder, needle) in cases {
            match builder.build() {
                Err(UStreamError::InvalidConfig(msg)) => {
                    assert!(msg.contains(needle), "`{msg}` should mention `{needle}`");
                }
                Err(other) => panic!("expected InvalidConfig mentioning `{needle}`, got {other}"),
                Ok(_) => panic!("expected InvalidConfig mentioning `{needle}`, got an engine"),
            }
        }
    }

    #[test]
    fn from_config_round_trips_through_into_config() {
        let config = EngineConfig::new(UMicroConfig::new(8, 2).unwrap()).with_shards(3);
        let out = EngineBuilder::from_config(config.clone())
            .snapshot_every(16)
            .into_config()
            .unwrap();
        assert_eq!(out.shards, 3);
        assert_eq!(out.snapshot_every, 16);
        assert_eq!(out.umicro.n_micro, config.umicro.n_micro);
    }

    #[test]
    fn build_matches_build_with_the_default_factory() {
        let drive = |engine: StreamEngine| {
            for t in 1..=80 {
                engine
                    .push(pt(if t % 2 == 0 { 0.0 } else { 9.0 }, t))
                    .unwrap();
            }
            engine.flush();
            let mut ids: Vec<u64> = engine.micro_clusters().iter().map(|c| c.id).collect();
            ids.sort_unstable();
            let n = engine.points_processed();
            engine.shutdown();
            (ids, n)
        };
        let via_build = drive(base().shards(2).build().unwrap());
        let config = base().shards(2).into_config().unwrap();
        let mut shard_umicro = config.umicro.clone();
        shard_umicro.n_micro = config.shard_n_micro();
        let via_build_with = drive(
            EngineBuilder::from_config(config)
                .build_with(move |_shard| -> DynClusterer {
                    Box::new(UMicro::new(shard_umicro.clone()))
                })
                .unwrap(),
        );
        assert_eq!(via_build, via_build_with);
    }
}
