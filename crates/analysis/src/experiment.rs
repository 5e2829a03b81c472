//! The first-class experiment API: trait, registry, shared compile cache
//! and the cross-point parallel runner.
//!
//! Every reproduction (one per table/figure of the paper) implements
//! [`Experiment`]: a named, tagged unit that consumes an
//! [`ExperimentContext`] and returns a schema-versioned
//! [`Report`] artifact. The [`registry`] replaces ad-hoc dispatch — the
//! `repro` binary, tests and library consumers all discover experiments
//! through it, so adding a workload is: implement the trait, add one line
//! to [`REGISTRY`].
//!
//! The context carries three things:
//!
//! - the [`RunConfig`] budget (trials, seed, threads, backend/estimator
//!   policy) every Monte-Carlo call site derives its options from;
//! - a keyed [`CompileCache`] so compile-once artifacts — concatenated
//!   [`ConcatMc`] programs and [`Engine`]s — are built once per process
//!   even when several experiments (or several sweep points) need the
//!   same one;
//! - the cross-point scheduler ([`ExperimentContext::run_parallel`] /
//!   [`ExperimentContext::sweep`]): independent work items are pulled
//!   from a shared queue by a small worker pool, splitting the global
//!   thread budget between outer (cross-point) and inner (within-point)
//!   parallelism.
//!
//! **Determinism.** Reports are bit-identical for a fixed seed regardless
//! of the thread budget or schedule: every Monte-Carlo word derives its
//! RNG stream from `(seed, global word index)` (see
//! [`rft_revsim::engine`]), the scheduler only reorders *execution*, and
//! results are collected by item index. The
//! `tests/experiment_api.rs` suite pins this.

use crate::cache::CostLru;
use crate::experiments::RunConfig;
use crate::montecarlo::ConcatMc;
use crate::report::{Report, SCHEMA_VERSION};
use crate::stats::ErrorEstimate;
use crate::sweep::SweepPoint;
use rft_core::ftcheck::CycleSpec;
use rft_obs::{Collector, Hist, Metric};
use rft_revsim::circuit::Circuit;
use rft_revsim::engine::{Engine, McOptions};
use rft_revsim::gate::Gate;
use rft_revsim::noise::NoiseModel;
use rft_revsim::op::Op;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One reproduction of a table, figure or analysis of the paper.
///
/// Implementations are stateless unit structs registered in [`REGISTRY`];
/// all run state flows through the [`ExperimentContext`].
pub trait Experiment: Sync {
    /// Stable registry id (the CLI name, e.g. `"threshold"`).
    fn id(&self) -> &'static str;

    /// One-line human-readable title.
    fn title(&self) -> &'static str;

    /// Classification tags (e.g. `"mc"`, `"exact"`, `"sweep"`).
    fn tags(&self) -> &'static [&'static str];

    /// Runs the experiment under `ctx`'s budget, returning the artifact.
    fn run(&self, ctx: &mut ExperimentContext) -> Report;
}

// ---------------------------------------------------------------------------
// Compile cache
// ---------------------------------------------------------------------------

/// Keyed cache of compile-once artifacts, shared across experiments,
/// sweep points and served estimation jobs.
///
/// One bounded store holds both artifact kinds: concatenated programs
/// ([`ConcatMc`], keyed by `(level, gate, cycles)`) and [`Engine`]s
/// (keyed by the circuit contents plus the per-op fault probabilities the
/// noise model assigns to it — the two inputs that fully determine an
/// engine). The store is behind a mutex taken only around lookup/insert;
/// the artifacts themselves are shared via [`Arc`] and used lock-free.
///
/// **Bounding.** By default the cache is unbounded (the short-lived
/// `repro` behaviour). A long-lived server constructs it with
/// [`CompileCache::bounded`]: entries then carry their approximate
/// resident bytes ([`Engine::approx_bytes`], [`ConcatMc::approx_bytes`])
/// and measured compile nanoseconds (the same quantity the obs layer's
/// `cache.compile` span records), and the [`CostLru`] GreedyDual-Size
/// policy evicts the entries cheapest to recompile per byte retained once
/// the byte budget is exceeded. Eviction only drops the cache's
/// reference — in-flight users of an evicted `Arc` are unaffected — and
/// the monotonic hit/miss/eviction counters survive it.
///
/// **Single flight.** Compiles run outside the store lock. Concurrent
/// misses on one key compile once: the first caller compiles, the others
/// wait for its artifact and count as hits.
///
/// Hit/miss accounting goes through the shared metrics registry
/// ([`rft_obs`]): lookups bump `cache.hits` / `cache.misses` on the
/// caller's [`Collector`] (defaulting to the cache's own), so
/// per-experiment child collectors attribute cache traffic to the
/// experiment that caused it while the cache-level [`CompileCache::hits`]
/// / [`CompileCache::misses`] read the aggregate.
#[derive(Debug)]
pub struct CompileCache {
    store: Mutex<CostLru<CacheKey, CacheValue>>,
    /// Compiles in progress, one slot per key.
    inflight: Mutex<HashMap<CacheKey, Arc<OnceLock<CacheValue>>>>,
    obs: Collector,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::with_collector_and_budget(Collector::default(), None)
    }
}

/// Unified key over both cached artifact kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    Program(u8, Gate, usize),
    Engine(EngineKey),
}

/// Unified value: cheap-to-clone shared handles.
#[derive(Debug, Clone)]
enum CacheValue {
    Program(Arc<ConcatMc>),
    Engine(Arc<Engine>),
}

/// Cache key of an engine: the circuit contents and the per-op fault
/// probabilities `noise` assigns to it — the two inputs that fully
/// determine the compiled artifact, held verbatim so a lookup can never
/// alias two different engines (a fingerprint-only key could collide
/// undetectably). A few kilobytes per cached engine, of which there are
/// dozens per process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EngineKey {
    n_wires: usize,
    ops: Vec<Op>,
    prob_bits: Vec<u64>,
}

impl EngineKey {
    fn new<N: NoiseModel + ?Sized>(circuit: &Circuit, noise: &N) -> Self {
        EngineKey {
            n_wires: circuit.n_wires(),
            ops: circuit.ops().to_vec(),
            prob_bits: circuit
                .ops()
                .iter()
                .map(|op| noise.fault_probability(op).to_bits())
                .collect(),
        }
    }
}

impl CompileCache {
    /// Creates an empty unbounded cache with its own live metrics
    /// collector.
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// Creates an empty cache bounded to approximately `byte_budget`
    /// bytes of compiled artifacts (cost-based LRU eviction past it),
    /// with its own live metrics collector.
    pub fn bounded(byte_budget: usize) -> Self {
        CompileCache::with_collector_and_budget(Collector::default(), Some(byte_budget))
    }

    /// Creates an empty unbounded cache recording into `obs` (how the
    /// runner wires every cache into the run-wide collector).
    pub fn with_collector(obs: Collector) -> Self {
        CompileCache::with_collector_and_budget(obs, None)
    }

    /// Creates an empty cache recording into `obs`, bounded to
    /// `byte_budget` bytes when given (how the serve daemon constructs
    /// its process-wide cache).
    pub fn with_collector_and_budget(obs: Collector, byte_budget: Option<usize>) -> Self {
        CompileCache {
            store: Mutex::new(CostLru::new(byte_budget)),
            inflight: Mutex::new(HashMap::new()),
            obs,
        }
    }

    /// The collector cache-level lookups record into.
    pub fn collector(&self) -> &Collector {
        &self.obs
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn byte_budget(&self) -> Option<usize> {
        self.store.lock().expect("cache poisoned").byte_budget()
    }

    /// The compiled `cycles`-cycle program of `gate` at concatenation
    /// `level`, building it on first use.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as [`ConcatMc::new`].
    pub fn concat(&self, level: u8, gate: Gate, cycles: usize) -> Arc<ConcatMc> {
        self.concat_with(&self.obs, level, gate, cycles)
    }

    /// [`CompileCache::concat`] recording the lookup into `obs` (pass a
    /// per-experiment child collector for attribution; bumps propagate
    /// to the cache-wide aggregate through the parent chain).
    pub fn concat_with(
        &self,
        obs: &Collector,
        level: u8,
        gate: Gate,
        cycles: usize,
    ) -> Arc<ConcatMc> {
        let key = CacheKey::Program(level, gate, cycles);
        let value = self.get_or_compile(obs, key, || {
            let mc = {
                let _span = obs.span_metric("cache.compile", Metric::CompileNanos);
                Arc::new(ConcatMc::new(level, gate, cycles))
            };
            let bytes = mc.approx_bytes();
            (CacheValue::Program(mc), bytes)
        });
        match value {
            CacheValue::Program(mc) => mc,
            CacheValue::Engine(_) => unreachable!("program key always maps to a program"),
        }
    }

    /// The [`Engine`] of `circuit` bound to `noise`, compiling on first
    /// use. Cached engines also share their lazily built fault-count
    /// distribution (the stratified estimator's Poisson-binomial tables),
    /// so repeated rare-event estimates on one circuit pay for it once.
    ///
    /// # Panics
    ///
    /// Panics if the model reports a probability outside `[0, 1]`.
    pub fn engine<N: NoiseModel + ?Sized>(&self, circuit: &Circuit, noise: &N) -> Arc<Engine> {
        self.engine_with(&self.obs, circuit, noise)
    }

    /// [`CompileCache::engine`] recording the lookup into `obs`.
    pub fn engine_with<N: NoiseModel + ?Sized>(
        &self,
        obs: &Collector,
        circuit: &Circuit,
        noise: &N,
    ) -> Arc<Engine> {
        let key = CacheKey::Engine(EngineKey::new(circuit, noise));
        let value = self.get_or_compile(obs, key, || {
            obs.incr(Metric::EngineCompiles);
            let engine = {
                let _span = obs.span_metric("cache.compile", Metric::CompileNanos);
                Arc::new(Engine::compile(circuit, noise))
            };
            let bytes = engine.approx_bytes();
            (CacheValue::Engine(engine), bytes)
        });
        match value {
            CacheValue::Engine(e) => e,
            CacheValue::Program(_) => unreachable!("engine key always maps to an engine"),
        }
    }

    /// The artifact of `key`: a hit returns the cached one; a miss
    /// compiles it with `compile` (artifact and its approximate bytes),
    /// outside the store lock, and inserts it. Concurrent misses on one
    /// key share a single compile — the callers that waited for it count
    /// as hits.
    fn get_or_compile(
        &self,
        obs: &Collector,
        key: CacheKey,
        compile: impl FnOnce() -> (CacheValue, usize),
    ) -> CacheValue {
        let lookup = || self.store.lock().expect("cache poisoned").get(&key);
        if let Some(value) = lookup() {
            obs.incr(Metric::CacheHits);
            return value;
        }
        let flight = {
            let mut inflight = self.inflight.lock().expect("cache poisoned");
            // A compile that finished since the lookup above has already
            // inserted its artifact (and left the in-flight table).
            if let Some(value) = lookup() {
                obs.incr(Metric::CacheHits);
                return value;
            }
            Arc::clone(inflight.entry(key.clone()).or_default())
        };
        let mut compiled = false;
        let value = flight
            .get_or_init(|| {
                compiled = true;
                obs.incr(Metric::CacheMisses);
                let start = Instant::now();
                let (value, bytes) = compile();
                let cost_nanos = start.elapsed().as_nanos() as u64;
                let (value, evicted) = self.store.lock().expect("cache poisoned").insert(
                    key.clone(),
                    value,
                    bytes,
                    cost_nanos,
                );
                self.publish_store_stats(obs, evicted);
                value
            })
            .clone();
        if compiled {
            self.inflight.lock().expect("cache poisoned").remove(&key);
        } else {
            obs.incr(Metric::CacheHits);
        }
        value
    }

    /// Publishes the store-level gauges (and eviction count) after an
    /// insert changed them.
    fn publish_store_stats(&self, obs: &Collector, evicted: usize) {
        if evicted > 0 {
            obs.add(Metric::CacheEvictions, evicted as u64);
        }
        let store = self.store.lock().expect("cache poisoned");
        let mut programs = 0usize;
        let mut engines = 0usize;
        for key in store.keys() {
            match key {
                CacheKey::Program(..) => programs += 1,
                CacheKey::Engine(_) => engines += 1,
            }
        }
        obs.set_gauge(rft_obs::Gauge::CachedPrograms, programs as f64);
        obs.set_gauge(rft_obs::Gauge::CachedEngines, engines as f64);
        obs.set_gauge(rft_obs::Gauge::CacheBytes, store.total_bytes() as f64);
    }

    /// Cache hits so far (read from the metrics registry: `cache.hits`).
    pub fn hits(&self) -> u64 {
        self.obs.get(Metric::CacheHits)
    }

    /// Cache misses (i.e. compiles) so far (`cache.misses`).
    pub fn misses(&self) -> u64 {
        self.obs.get(Metric::CacheMisses)
    }

    /// Entries evicted by the byte-budget policy so far.
    pub fn evictions(&self) -> u64 {
        self.store.lock().expect("cache poisoned").evictions()
    }

    /// Approximate bytes of compiled artifacts currently cached.
    pub fn cached_bytes(&self) -> usize {
        self.store.lock().expect("cache poisoned").total_bytes()
    }

    /// Number of distinct compiled programs currently cached.
    pub fn programs_cached(&self) -> usize {
        self.store
            .lock()
            .expect("cache poisoned")
            .keys()
            .filter(|k| matches!(k, CacheKey::Program(..)))
            .count()
    }

    /// Number of distinct compiled engines currently cached.
    pub fn engines_cached(&self) -> usize {
        self.store
            .lock()
            .expect("cache poisoned")
            .keys()
            .filter(|k| matches!(k, CacheKey::Engine(_)))
            .count()
    }
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

/// Everything an [`Experiment`] needs at run time: the budget, the shared
/// compile cache, the instrumentation collector, and the cross-point
/// scheduler.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    cfg: RunConfig,
    cache: Arc<CompileCache>,
    obs: Collector,
}

impl ExperimentContext {
    /// A context over `cfg` with its own fresh compile cache and
    /// collector.
    pub fn new(cfg: RunConfig) -> Self {
        let obs = Collector::default();
        ExperimentContext {
            cfg,
            cache: Arc::new(CompileCache::with_collector(obs.clone())),
            obs,
        }
    }

    /// A context over `cfg` sharing an existing `cache` (how the runner
    /// lets concurrent experiments reuse each other's artifacts). The
    /// context records into the cache's collector.
    pub fn with_cache(cfg: RunConfig, cache: Arc<CompileCache>) -> Self {
        let obs = cache.collector().clone();
        ExperimentContext { cfg, cache, obs }
    }

    /// [`ExperimentContext::with_cache`] recording into an explicit
    /// collector — typically a [`Collector::child`] of the cache's, so
    /// the experiment gets its own attribution while aggregates still
    /// flow up.
    pub fn with_cache_and_collector(
        cfg: RunConfig,
        cache: Arc<CompileCache>,
        obs: Collector,
    ) -> Self {
        ExperimentContext { cfg, cache, obs }
    }

    /// The Monte-Carlo budget.
    pub fn cfg(&self) -> &RunConfig {
        &self.cfg
    }

    /// Engine options lowered from the budget (see [`RunConfig::options`]).
    pub fn options(&self) -> McOptions {
        self.cfg.options()
    }

    /// The shared compile cache.
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// This context's instrumentation collector.
    pub fn obs(&self) -> &Collector {
        &self.obs
    }

    /// Cached [`CompileCache::concat`].
    pub fn concat(&self, level: u8, gate: Gate, cycles: usize) -> Arc<ConcatMc> {
        self.cache.concat_with(&self.obs, level, gate, cycles)
    }

    /// [`ConcatMc::estimate`] through the cached engine.
    pub fn estimate_concat<N: NoiseModel + ?Sized>(
        &self,
        mc: &ConcatMc,
        noise: &N,
        opts: &McOptions,
    ) -> ErrorEstimate {
        self.cache
            .engine_with(&self.obs, mc.program().circuit(), noise)
            .estimate_obs(&mc.trial(), opts, &self.obs)
            .into()
    }

    /// [`crate::montecarlo::estimate_cycle_error`] through the cached
    /// engine.
    pub fn estimate_cycle<N: NoiseModel + ?Sized>(
        &self,
        spec: &CycleSpec,
        noise: &N,
        opts: &McOptions,
    ) -> ErrorEstimate {
        self.cache
            .engine_with(&self.obs, spec.circuit(), noise)
            .estimate_obs(spec, opts, &self.obs)
            .into()
    }

    /// Runs `n` independent work items through the cross-point scheduler,
    /// returning `f`'s results **in item order**.
    ///
    /// Workers pull the next unstarted index from a shared queue (a
    /// finishing worker immediately steals the next item, so uneven
    /// per-item cost — the norm under adaptive/stratified Monte Carlo —
    /// cannot idle the pool). The global thread budget `cfg.threads` is
    /// split: `min(threads, n)` outer workers, each handing `f` a
    /// [`RunConfig`] whose `threads` is the per-item share — recomputed
    /// from the *live* worker count as each item starts, so when the
    /// queue drains and workers retire, the threads they free flow back
    /// to the items still running instead of idling through the tail.
    /// `f` must derive any randomness from its index (per-point seed
    /// salting), so results are schedule-independent; the scheduler only
    /// reorders execution.
    pub fn run_parallel<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &RunConfig) -> T + Sync,
    {
        let threads = self.cfg.threads.max(1);
        let outer = threads.min(n.max(1));
        let obs = &self.obs;
        if outer <= 1 || n <= 1 {
            let inner = self.cfg;
            let out = (0..n)
                .map(|i| {
                    obs.incr(Metric::SchedItems);
                    obs.observe(Hist::QueueDepth, (n - i - 1) as u64);
                    let _sp = obs.labeled_span_metric("sched.point", Metric::PointNanos, || {
                        format!("item {i}")
                    });
                    f(i, &inner)
                })
                .collect();
            if n > 0 {
                obs.observe(Hist::ItemsPerWorker, n as u64);
            }
            return out;
        }
        let next = AtomicUsize::new(0);
        let live = AtomicUsize::new(outer);
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..outer {
                scope.spawn(|| {
                    let mut pulled = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        obs.incr(Metric::SchedItems);
                        if pulled > 0 {
                            // Every pull past a worker's first is a steal:
                            // the worker finished its item and grabbed the
                            // next unstarted one instead of idling.
                            obs.incr(Metric::SchedSteals);
                        }
                        pulled += 1;
                        obs.observe(Hist::QueueDepth, n.saturating_sub(i + 1) as u64);
                        let share = RunConfig {
                            threads: (threads / live.load(Ordering::Relaxed).max(1)).max(1),
                            ..self.cfg
                        };
                        let _sp =
                            obs.labeled_span_metric("sched.point", Metric::PointNanos, || {
                                format!("item {i}")
                            });
                        let out = f(i, &share);
                        *results[i].lock().expect("result slot poisoned") = Some(out);
                    }
                    live.fetch_sub(1, Ordering::Relaxed);
                    obs.observe(Hist::ItemsPerWorker, pulled);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Cross-point parallel sweep: like [`crate::sweep::sweep`] but the
    /// grid points run concurrently under the scheduler. `f` receives the
    /// rate and the per-point [`RunConfig`] share; results come back in
    /// grid order and are bit-identical to a serial sweep at the same
    /// seed.
    pub fn sweep<F>(&self, grid: &[f64], f: F) -> Vec<SweepPoint>
    where
        F: Fn(f64, &RunConfig) -> ErrorEstimate + Sync,
    {
        self.run_parallel(grid.len(), |i, cfg| SweepPoint {
            g: grid[i],
            estimate: f(grid[i], cfg),
        })
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Every registered experiment, in the order `repro` runs them by
/// default: structural/exact reproductions first, Monte-Carlo sweeps last.
pub static REGISTRY: [&dyn Experiment; 16] = [
    &crate::experiments::table1::Table1Experiment,
    &crate::experiments::fig2::Fig2Experiment,
    &crate::experiments::blowup::BlowupExperiment,
    &crate::experiments::levelreq::LevelReqExperiment,
    &crate::experiments::table2::Table2Experiment,
    &crate::experiments::nand::NandExperiment,
    &crate::experiments::advantage::AdvantageExperiment,
    &crate::experiments::detect::DetectCovExperiment,
    &crate::experiments::detect::DetectOverheadExperiment,
    &crate::experiments::ablation::AblationExperiment,
    &crate::experiments::local::LocalExperiment,
    &crate::experiments::entropy::EntropyExperiment,
    &crate::experiments::threshold::ThresholdExperiment,
    &crate::experiments::suppression::SuppressionExperiment,
    &crate::experiments::detect::DetectWidthExperiment,
    &crate::experiments::detect::DetectHybridExperiment,
];

/// The experiment registry.
pub fn registry() -> &'static [&'static dyn Experiment] {
    &REGISTRY
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.id() == id)
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// One experiment's outcome under [`run_experiments`]: the deterministic
/// [`Report`] plus per-run facts (wall time, executed words) that stay
/// out of the artifact.
#[derive(Debug)]
pub struct ExperimentRun {
    /// The experiment's registry id.
    pub id: &'static str,
    /// The experiment's title.
    pub title: &'static str,
    /// The deterministic report artifact.
    pub report: Report,
    /// Wall-clock time this experiment took.
    pub wall: Duration,
    /// Monte-Carlo words this experiment executed (0 when the runner has
    /// no live collector).
    pub executed_words: u64,
}

/// How [`run_experiments_with`] observes and narrates a run.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// The run-wide collector. Every experiment gets a
    /// [`Collector::child`] of this for attribution; the shared compile
    /// cache records into it directly. Defaults to disabled (record
    /// nothing).
    pub obs: Collector,
    /// Print per-experiment start/finish lines to stderr.
    pub progress: bool,
    /// Attach a [`crate::report::ResourceUsage`] section to every
    /// report, built from the experiment's child collector. Off by
    /// default: resources are non-deterministic (wall times), so golden
    /// artifacts are produced without them.
    pub attach_resources: bool,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions {
            obs: Collector::disabled(),
            progress: false,
            attach_resources: false,
        }
    }
}

/// Runs `experiments` under one shared compile cache, concurrently up to
/// the thread budget, returning outcomes **in input order**.
///
/// The scheduler is the same work-stealing queue as
/// [`ExperimentContext::run_parallel`]: `min(threads, n)` workers each
/// pull the next unstarted experiment and run it with a proportional
/// share of the thread budget (so a machine-wide budget of `t` threads is
/// never oversubscribed by more than the rounding of `t / workers`).
/// Reports are bit-identical to a serial run at the same seed.
pub fn run_experiments(
    experiments: &[&'static dyn Experiment],
    cfg: &RunConfig,
) -> Vec<ExperimentRun> {
    run_experiments_with(experiments, cfg, &RunnerOptions::default())
}

/// [`run_experiments`] with explicit [`RunnerOptions`]: a run-wide
/// collector (spans land on one shared timeline, counters aggregate at
/// the root with per-experiment children), optional stderr progress
/// lines, and optional per-report resource sections.
pub fn run_experiments_with(
    experiments: &[&'static dyn Experiment],
    cfg: &RunConfig,
    opts: &RunnerOptions,
) -> Vec<ExperimentRun> {
    let cache = Arc::new(CompileCache::with_collector(opts.obs.clone()));
    let outer_ctx =
        ExperimentContext::with_cache_and_collector(*cfg, Arc::clone(&cache), opts.obs.clone());
    outer_ctx.run_parallel(experiments.len(), |i, share| {
        let exp = experiments[i];
        if opts.progress {
            eprintln!("[repro] {} ...", exp.id());
        }
        let child = opts.obs.child();
        let mut ctx =
            ExperimentContext::with_cache_and_collector(*share, Arc::clone(&cache), child.clone());
        let start = Instant::now();
        let mut report = {
            let _span = child.labeled_span("experiment", || exp.id().to_string());
            exp.run(&mut ctx)
        };
        let wall = start.elapsed();
        let snapshot = child.snapshot();
        let executed_words = snapshot.counter(Metric::ExecutedWords);
        if opts.progress {
            eprintln!(
                "[repro] {} done in {:.2}s ({executed_words} words)",
                exp.id(),
                wall.as_secs_f64(),
            );
        }
        if opts.attach_resources {
            report.resources = Some(crate::report::ResourceUsage::from_observations(
                &snapshot, wall,
            ));
        }
        ExperimentRun {
            id: exp.id(),
            title: exp.title(),
            report,
            wall,
            executed_words,
        }
    })
}

// ---------------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------------

/// Per-experiment entry of a [`RunManifest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Experiment id.
    pub id: String,
    /// Experiment title.
    pub title: String,
    /// File name of the report artifact (relative to the manifest).
    pub file: String,
    /// Whether every self-check passed.
    pub passed: bool,
    /// Number of self-checks in the report.
    pub checks: usize,
    /// Wall-clock milliseconds this experiment took.
    pub wall_ms: f64,
}

/// The `manifest.json` written next to the per-experiment reports by
/// `repro --json`: the run configuration, provenance and timing that are
/// deliberately **not** part of the deterministic [`Report`] artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// JSON schema version (shared with [`Report`]).
    pub schema_version: u32,
    /// The Monte-Carlo budget the run used.
    pub config: RunConfig,
    /// `git describe --always --dirty` of the source tree, if available.
    pub git: Option<String>,
    /// Total wall-clock milliseconds across the whole run.
    pub wall_ms: f64,
    /// One entry per experiment, in run order.
    pub experiments: Vec<ManifestEntry>,
}

impl RunManifest {
    /// Builds a manifest over the runner's outcomes.
    pub fn new(config: RunConfig, git: Option<String>, wall: Duration) -> Self {
        RunManifest {
            schema_version: SCHEMA_VERSION,
            config,
            git,
            wall_ms: wall.as_secs_f64() * 1e3,
            experiments: Vec::new(),
        }
    }

    /// Appends one experiment outcome.
    pub fn push(&mut self, run: &ExperimentRun, file: impl Into<String>) {
        self.experiments.push(ManifestEntry {
            id: run.id.to_string(),
            title: run.title.to_string(),
            file: file.into(),
            passed: run.report.passed(),
            checks: run.report.checks.len(),
            wall_ms: run.wall.as_secs_f64() * 1e3,
        });
    }

    /// Serializes the manifest to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization is infallible")
    }

    /// Parses a manifest back from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed JSON or a shape
    /// mismatch.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rft_revsim::noise::UniformNoise;
    use rft_revsim::wire::w;

    fn toffoli() -> Gate {
        Gate::Toffoli {
            controls: [w(0), w(1)],
            target: w(2),
        }
    }

    #[test]
    fn compile_cache_dedupes_programs_and_engines() {
        let cache = CompileCache::new();
        let a = cache.concat(1, toffoli(), 3);
        let b = cache.concat(1, toffoli(), 3);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one program");
        let c = cache.concat(1, toffoli(), 4);
        assert!(!Arc::ptr_eq(&a, &c), "different cycles, different program");

        let noise = UniformNoise::new(0.01);
        let e1 = cache.engine(a.program().circuit(), &noise);
        let e2 = cache.engine(b.program().circuit(), &noise);
        assert!(Arc::ptr_eq(&e1, &e2), "same circuit+noise shares an engine");
        let e3 = cache.engine(a.program().circuit(), &UniformNoise::new(0.02));
        assert!(!Arc::ptr_eq(&e1, &e3), "different rate, different engine");

        assert_eq!(cache.programs_cached(), 2);
        assert_eq!(cache.engines_cached(), 2);
        assert!(cache.hits() >= 2);
        assert!(cache.misses() >= 4);
    }

    #[test]
    fn concurrent_misses_on_one_key_compile_once() {
        let cache = CompileCache::new();
        let mc = ConcatMc::new(2, toffoli(), 1);
        let noise = UniformNoise::new(1e-3);
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let (engines, programs): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let engine = cache.engine(mc.program().circuit(), &noise);
                        (engine, cache.concat(2, toffoli(), 2))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("racing thread"))
                .unzip()
        });
        assert!(engines.windows(2).all(|p| Arc::ptr_eq(&p[0], &p[1])));
        assert!(programs.windows(2).all(|p| Arc::ptr_eq(&p[0], &p[1])));
        assert_eq!(cache.collector().get(Metric::EngineCompiles), 1);
        assert_eq!(cache.misses(), 2, "one compile per key");
        assert_eq!(cache.hits(), 2 * threads as u64 - 2, "the waiters are hits");
    }

    #[test]
    fn bounded_cache_evicts_and_recompiles() {
        // A budget far below one compiled artifact: every insert evicts
        // its predecessor, so distinct keys never coexist.
        let cache = CompileCache::bounded(1);
        let a = cache.concat(1, toffoli(), 1);
        let b = cache.concat(1, toffoli(), 2);
        assert!(cache.evictions() >= 1, "second insert evicted the first");
        assert_eq!(
            cache.programs_cached(),
            1,
            "byte budget holds one artifact at a time"
        );
        // Re-asking for the evicted key recompiles: a fresh allocation.
        let a2 = cache.concat(1, toffoli(), 1);
        assert!(!Arc::ptr_eq(&a, &a2), "evicted artifact was recompiled");
        // Evicted handles stay alive for their holders.
        assert_eq!(a.program().circuit().len(), b.program().circuit().len() / 2);
    }

    #[test]
    fn cache_counters_survive_eviction() {
        let cache = CompileCache::bounded(1);
        assert_eq!(cache.byte_budget(), Some(1));
        cache.concat(1, toffoli(), 1); // miss
        cache.concat(1, toffoli(), 1); // hit (still resident)
        cache.concat(1, toffoli(), 2); // miss, evicts cycles=1
        cache.concat(1, toffoli(), 1); // miss again (was evicted), evicts cycles=2
        assert_eq!(cache.misses(), 3, "evicted keys recompile as misses");
        assert_eq!(cache.hits(), 1, "hit count unaffected by later eviction");
        assert_eq!(cache.evictions(), 2);
        let evictions_metric = cache.collector().get(Metric::CacheEvictions);
        assert_eq!(
            evictions_metric, 2,
            "cache.evictions metric tracks the store"
        );
        // Gauges reflect the post-eviction store.
        assert_eq!(cache.programs_cached(), 1);
        assert!(cache.cached_bytes() > 0);
    }

    #[test]
    fn unbounded_cache_never_evicts_artifacts() {
        let cache = CompileCache::new();
        assert_eq!(cache.byte_budget(), None);
        for cycles in 1..=4 {
            cache.concat(1, toffoli(), cycles);
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.programs_cached(), 4);
    }

    #[test]
    fn run_parallel_preserves_order_and_results() {
        let ctx = ExperimentContext::new(RunConfig {
            threads: 4,
            ..RunConfig::quick()
        });
        let out = ctx.run_parallel(17, |i, share| {
            assert!(share.threads >= 1);
            i * i
        });
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_matches_serial() {
        let grid: Vec<f64> = (1..20).map(|i| i as f64 * 1e-3).collect();
        let serial = ExperimentContext::new(RunConfig {
            threads: 1,
            ..RunConfig::quick()
        });
        let parallel = ExperimentContext::new(RunConfig {
            threads: 8,
            ..RunConfig::quick()
        });
        let f = |g: f64, _cfg: &RunConfig| ErrorEstimate::from_counts((g * 1e4) as u64, 10_000);
        let a = serial.sweep(&grid, f);
        let b = parallel.sweep(&grid, f);
        assert_eq!(a, b);
    }

    #[test]
    fn manifest_round_trips() {
        let mut m = RunManifest::new(RunConfig::quick(), Some("abc123".into()), Duration::ZERO);
        m.push(
            &ExperimentRun {
                id: "demo",
                title: "Demo",
                report: Report::new("demo", "Demo", &[]),
                wall: Duration::from_millis(5),
                executed_words: 0,
            },
            "demo.json",
        );
        let back = RunManifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(back, m);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
    }
}
