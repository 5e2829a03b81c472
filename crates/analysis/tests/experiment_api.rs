//! Integration tests of the experiment API: registry completeness and
//! uniqueness, `Report` JSON round-trips and schema versioning, and the
//! determinism contract — a parallel-scheduled run is bit-identical to a
//! serial run at a fixed seed.

use rft_analysis::experiment::{
    find, registry, run_experiments, run_experiments_with, CompileCache, ExperimentContext,
    RunnerOptions,
};
use rft_analysis::experiments::{suppression, threshold, RunConfig};
use rft_analysis::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// The experiment ids of the `DESIGN.md` table (one per module under
/// `experiments/`), in the registry's canonical run order.
const EXPECTED_IDS: [&str; 16] = [
    "table1",
    "fig2",
    "blowup",
    "levelreq",
    "table2",
    "nand",
    "advantage",
    "detectcov",
    "detectoverhead",
    "ablation",
    "local",
    "entropy",
    "threshold",
    "suppression",
    "detectwidth",
    "detecthybrid",
];

fn tiny() -> RunConfig {
    RunConfig {
        trials: 800,
        seed: 7,
        threads: 1,
        ..RunConfig::quick()
    }
}

#[test]
fn registry_matches_the_design_table_exactly_once() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    assert_eq!(ids, EXPECTED_IDS, "registry must list every module once");
    let unique: HashSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "ids must be unique");
    for exp in registry() {
        assert!(!exp.title().is_empty(), "{} needs a title", exp.id());
        assert!(!exp.tags().is_empty(), "{} needs tags", exp.id());
        let found = find(exp.id()).expect("find must resolve every id");
        assert_eq!(found.id(), exp.id());
    }
    assert!(find("no-such-experiment").is_none());
}

#[test]
fn every_experiment_report_round_trips_through_json() {
    let cfg = tiny();
    for run in run_experiments(registry(), &cfg) {
        let report = &run.report;
        assert_eq!(report.id, run.id, "report id must match the registry id");
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        let json = report.to_json();
        let back = Report::from_json(&json).expect("report JSON must parse back");
        assert_eq!(
            &back, report,
            "{}: JSON round trip must be lossless",
            run.id
        );
        assert!(
            !report.checks.is_empty(),
            "{}: every experiment must self-check",
            run.id
        );
    }
}

#[test]
fn schema_version_is_pinned_in_the_artifact() {
    let mut ctx = ExperimentContext::new(tiny());
    let report = find("table1").unwrap().run(&mut ctx);
    assert_eq!(report.schema_version, 1);
    assert!(report.to_json().contains("\"schema_version\": 1"));
}

#[test]
fn parallel_run_is_bit_identical_to_serial() {
    // The two sweep-heaviest experiments, at 1 vs 8 threads: same seeds,
    // same salts, same word schedule — the scheduler must only reorder
    // execution, never results.
    let serial_cfg = RunConfig {
        threads: 1,
        ..tiny()
    };
    let parallel_cfg = RunConfig {
        threads: 8,
        ..tiny()
    };
    for id in ["threshold", "suppression", "local"] {
        let exp = find(id).unwrap();
        let a = exp.run(&mut ExperimentContext::new(serial_cfg));
        let b = exp.run(&mut ExperimentContext::new(parallel_cfg));
        assert_eq!(a, b, "{id}: parallel report must equal serial report");
        assert_eq!(a.to_json(), b.to_json(), "{id}: and byte-identical JSON");
    }
}

#[test]
fn runner_matches_standalone_contexts() {
    // run_experiments shares one cache across experiments; sharing must
    // not change any report.
    let cfg = tiny();
    let runs = run_experiments(
        &[find("threshold").unwrap(), find("suppression").unwrap()],
        &cfg,
    );
    let solo_t = threshold::run(&cfg).to_report();
    let solo_s = suppression::run(&cfg).to_report();
    assert_eq!(runs[0].report, solo_t);
    assert_eq!(runs[1].report, solo_s);
}

#[test]
fn shared_cache_reuses_programs_across_experiments() {
    let cfg = tiny();
    let cache = Arc::new(CompileCache::new());
    // suppression compiles levels 0..=2 of the 3-cycle Toffoli program …
    let mut ctx = ExperimentContext::with_cache(cfg, Arc::clone(&cache));
    let _ = suppression::run_ctx(&mut ctx);
    let programs_after_first = cache.programs_cached();
    assert_eq!(
        programs_after_first, 3,
        "one compiled program per level, shared by all five rates"
    );
    // … and a second suppression run compiles nothing new: every program
    // and every (circuit, rate) engine is already cached.
    let misses_before = cache.misses();
    let mut ctx2 = ExperimentContext::with_cache(cfg, Arc::clone(&cache));
    let _ = suppression::run_ctx(&mut ctx2);
    assert_eq!(cache.programs_cached(), programs_after_first);
    assert_eq!(
        cache.misses(),
        misses_before,
        "a repeated run must be compile-free"
    );
    assert!(cache.hits() > 0, "second run must hit the caches");
}

#[test]
fn reports_render_and_pass_at_tiny_budget() {
    // Exact experiments must pass their checks even at a tiny budget;
    // render must include the self-check table.
    let cfg = tiny();
    for id in [
        "table1",
        "fig2",
        "blowup",
        "levelreq",
        "table2",
        "nand",
        "advantage",
        "detectcov",
    ] {
        let report = find(id).unwrap().run(&mut ExperimentContext::new(cfg));
        assert!(report.passed(), "{id}: {:?}", report.failed_checks());
        assert!(report.render().contains("self-checks"));
    }
}

#[test]
fn manifest_reflects_run_outcomes() {
    let cfg = tiny();
    let runs = run_experiments(&[find("table1").unwrap()], &cfg);
    let mut manifest = RunManifest::new(cfg, None, std::time::Duration::from_millis(1));
    manifest.push(&runs[0], "table1.json");
    let back = RunManifest::from_json(&manifest.to_json()).expect("manifest parses");
    assert_eq!(back.experiments.len(), 1);
    assert_eq!(back.experiments[0].id, "table1");
    assert!(back.experiments[0].passed);
    assert_eq!(back.schema_version, SCHEMA_VERSION);
}

/// `entropy` runs on the engine's word loop, so its resources section
/// accounts for every scheduled trial: at each of 4 rates, a 1-cycle and
/// a 3-cycle program at L1 (`trials / 2` each) and at L2 (`trials / 8`,
/// at least 200) — 16 programs — with execute time and `engine.words`
/// spans to match.
#[test]
fn entropy_resources_account_for_every_scheduled_trial() {
    let cfg = RunConfig {
        trials: 4_000,
        seed: 11,
        threads: 2,
        ..RunConfig::quick()
    };
    let obs = rft_obs::Collector::new();
    let opts = RunnerOptions {
        obs: obs.clone(),
        progress: false,
        attach_resources: true,
    };
    let runs = run_experiments_with(&[find("entropy").unwrap()], &cfg, &opts);
    let res = runs[0]
        .report
        .resources
        .clone()
        .expect("resources attached");
    let per_rate = |trials: u64| 2 * trials;
    let l1 = (cfg.trials / 2).max(200);
    let l2 = (cfg.trials / 8).max(200);
    assert_eq!(res.executed_trials, 4 * (per_rate(l1) + per_rate(l2)));
    assert_eq!(
        res.executed_words,
        4 * (per_rate(l1.div_ceil(64)) + per_rate(l2.div_ceil(64)))
    );
    assert!(res.execute_ms > 0.0, "execute time unattributed");
    let words_spans = obs
        .span_events()
        .iter()
        .filter(|e| e.name == "engine.words")
        .count();
    assert!(words_spans >= 16, "only {words_spans} engine.words spans");
}
