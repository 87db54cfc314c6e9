//! Oracle tests for the `brel-obs` observability layer.
//!
//! Five contracts are pinned here:
//!
//! 1. the Chrome trace export is well-formed JSON whose per-track
//!    timestamps never decrease (so Perfetto renders it without repair);
//! 2. span guards rebalance the per-thread nesting depth even when the
//!    instrumented code panics (RAII across unwinding);
//! 3. tracing is write-only: a fully traced batch produces byte-identical
//!    timing-free output to an untraced one, at 1/2/8 workers, in narrow
//!    and wide mode, warm and cold;
//! 4. a job's wall time is explained: at least 90% of a wide solve, and
//!    of a narrow job, falls in named nested phases;
//! 5. the search event stream agrees with the solver's counters: each
//!    `search` event fires exactly once per step of its `SolveStats`
//!    field, in narrow and wide mode alike.
//!
//! The collector is process-global, so the tests serialize on a mutex
//! (`cargo test` runs the functions of one binary concurrently).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use brel_suite::benchdata::random_relation::random_well_defined_relation;
use brel_suite::benchdata::{figures, table2};
use brel_suite::brel::{BrelConfig, BrelSolver, SearchStrategy};
use brel_suite::engine::{BackendKind, Engine, JobSpec, Json, RelationSpec, WideOptions};
use brel_suite::obs::{self, Category, RecordingCollector};
use brel_suite::relation::{BooleanRelation, RelationSpace};
use brel_suite::serve::json;

/// Serializes the tests of this binary: each installs/uninstalls the
/// process-global collector. `into_inner` because the panic test poisons
/// the lock by design.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn small_batch() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for instance in table2::instances().into_iter().take(2) {
        let (_space, relation) = table2::generate(&instance);
        jobs.push(JobSpec::portfolio(
            instance.name,
            RelationSpec::from_relation(&relation).unwrap(),
        ));
    }
    let (_space, relation) = random_well_defined_relation(4, 3, 0.25, 11);
    jobs.push(JobSpec::portfolio(
        "rand11",
        RelationSpec::from_relation(&relation).unwrap(),
    ));
    jobs
}

#[test]
fn chrome_trace_is_well_formed_with_monotone_tracks() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let collector = Arc::new(RecordingCollector::new());
    obs::install(collector.clone());
    let report = Engine::with_workers(2)
        .with_wide(WideOptions::default())
        .solve_batch(&small_batch());
    obs::uninstall();
    assert_eq!(report.num_solved(), 3);

    // The strict protocol parser shares no code with the trace writer
    // it checks, so the oracle stays independent of the exporter.
    let trace = collector.chrome_trace();
    let root = json::parse(&trace).expect("the trace is well-formed JSON");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "the traced batch recorded no events");

    // Track names arrive as thread_name metadata; the wide workers must
    // be pinned to their own stable tracks.
    let mut names = Vec::new();
    let mut last_ts: std::collections::BTreeMap<u64, u64> = Default::default();
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        let tid = event.get("tid").and_then(Json::as_u64).expect("tid");
        assert_eq!(event.get("pid").and_then(Json::as_u64), Some(1));
        match ph {
            "M" => {
                assert_eq!(
                    event.get("name").and_then(Json::as_str),
                    Some("thread_name")
                );
                let args = event.get("args").expect("metadata args");
                names.push(args.get("name").and_then(Json::as_str).unwrap().to_string());
            }
            "X" => {
                let ts = event.get("ts").and_then(Json::as_u64).expect("ts");
                event.get("dur").and_then(Json::as_u64).expect("dur");
                event.get("cat").and_then(Json::as_str).expect("cat");
                event.get("name").and_then(Json::as_str).expect("name");
                // Per-track timestamps never decrease in file order, so
                // viewers need no repair pass.
                let prev = last_ts.insert(tid, ts).unwrap_or(0);
                assert!(ts >= prev, "track {tid}: ts {ts} after {prev}");
            }
            "i" => {
                event.get("ts").and_then(Json::as_u64).expect("ts");
                assert_eq!(event.get("s").and_then(Json::as_str), Some("t"));
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // Worker 0 drives inline on the coordinator's thread; every other
    // wide worker gets its own stable track.
    assert!(
        names.iter().any(|n| n == "wide-worker-1"),
        "tracks: {names:?}"
    );

    // The aggregate view of the same recording attributes the wide solve
    // to its seed/parallel phases (the >= 90% acceptance criterion). The
    // ratio is computed on the coordinator's own track, where the seed
    // and the parallel section nest directly under `wide_solve` —
    // concurrent workers' drive time lives on other tracks.
    let phase = collector.phase_report();
    let coordinator = phase.track_with("wide_solve").expect("coordinator track");
    let wide_solve = coordinator.total_us("wide_solve");
    let attributed = coordinator.total_us("seed") + coordinator.total_us("parallel");
    assert!(wide_solve > 0);
    assert!(
        attributed * 100 >= wide_solve * 90,
        "only {attributed} of {wide_solve} us attributed"
    );
    // The barrier-synchronous rounds are gone for good.
    assert_eq!(phase.total_us("barrier_wait"), 0);
    assert_eq!(phase.total_us("round"), 0);
    // A portfolio job rehydrates twice: once for its quick and gyocro
    // attempts and once for the wide seed. A steal copies its subproblem
    // by structural import and never rehydrates.
    let count = |name: &str| -> u64 {
        phase
            .rows
            .iter()
            .filter(|row| row.name == name)
            .map(|row| row.count)
            .sum()
    };
    assert!(
        count("rehydrate") <= 2 * count("wide_solve"),
        "{} rehydrations across {} wide solves",
        count("rehydrate"),
        count("wide_solve")
    );
}

#[test]
fn narrow_job_time_is_attributed_to_its_phases() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let collector = Arc::new(RecordingCollector::new());
    obs::install(collector.clone());
    let report = Engine::with_workers(1).solve_batch(&small_batch());
    obs::uninstall();
    assert_eq!(report.num_solved(), 3);

    // A narrow job's time lives in its nested phases: the cache key and
    // lookup, rehydration, each backend, and the post-solve verification
    // and scoring. Its own self time (bookkeeping) stays under 10%.
    let phase = collector.phase_report();
    let worker = phase.track_with("job").expect("pool worker track");
    let row = |name: &str| worker.rows.iter().find(|row| row.name == name);
    let job = row("job").expect("job row");
    assert_eq!(job.count, 3);
    for (name, count) in [
        ("subrel_lookup", 3),
        ("rehydrate", 3),
        ("backend", 9),
        ("verify", 9),
    ] {
        assert_eq!(row(name).map(|r| r.count), Some(count), "{name}");
    }
    let attributed = job.total_us - job.self_us;
    assert!(
        attributed * 100 >= job.total_us * 90,
        "only {attributed} of {} us attributed",
        job.total_us
    );
}

#[test]
fn span_guards_rebalance_depth_across_panics() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let collector = Arc::new(RecordingCollector::new());
    obs::install(collector.clone());
    assert_eq!(obs::current_depth(), 0);

    let unwound = std::panic::catch_unwind(|| {
        let _outer = obs::span(Category::Engine, "outer");
        let _inner = obs::span(Category::Search, "inner");
        assert_eq!(obs::current_depth(), 2);
        panic!("instrumented code failed");
    });
    assert!(unwound.is_err());

    // Both guards unwound: the depth is rebalanced and both spans were
    // still reported to the collector.
    assert_eq!(obs::current_depth(), 0);
    obs::uninstall();
    let spans = collector.spans();
    assert!(spans.iter().any(|s| s.name == "outer" && s.depth == 0));
    assert!(spans.iter().any(|s| s.name == "inner" && s.depth == 1));
}

#[test]
fn tracing_leaves_batch_output_byte_identical() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    obs::uninstall();
    let jobs = small_batch();
    let solve = |workers: usize, wide: bool, warm: bool| {
        let mut engine = Engine::with_workers(workers).with_reuse(warm);
        if wide {
            engine = engine.with_wide(WideOptions::default());
        }
        let report = engine.solve_batch(&jobs);
        (report.to_json(false), report.to_csv(false))
    };
    for wide in [false, true] {
        for warm in [true, false] {
            for workers in [1usize, 2, 8] {
                let baseline = solve(workers, wide, warm);
                let collector = Arc::new(RecordingCollector::new());
                obs::install(collector.clone());
                let traced = solve(workers, wide, warm);
                obs::uninstall();
                assert_eq!(
                    baseline, traced,
                    "tracing changed output: {workers} workers, wide={wide}, warm={warm}"
                );
                assert!(!collector.spans().is_empty());
            }
        }
    }
}

/// Each search event and the `SolveStats` field it must match one for
/// one, by the field's name in `SolveStats::metrics`.
const SEARCH_EVENTS: [(&str, &str); 7] = [
    ("explored", "explored"),
    ("improved", "improvements"),
    ("pruned_by_cost", "pruned_by_cost"),
    ("pruned_dominated", "pruned_dominated"),
    ("split", "splits"),
    ("skipped_by_symmetry", "skipped_by_symmetry"),
    ("fifo_drop", "dropped_by_fifo"),
];

/// Runs `solve` under a collector armed for the search category only and
/// returns what it produced plus the recorded events, counted by name.
fn recording_search<T>(solve: impl FnOnce() -> T) -> (T, BTreeMap<&'static str, usize>) {
    let collector = Arc::new(RecordingCollector::with_mask(Category::Search.bit()));
    obs::install(collector.clone());
    let result = solve();
    obs::uninstall();
    let mut counts = BTreeMap::new();
    for event in collector.events() {
        assert_eq!(event.cat, Category::Search);
        *counts.entry(event.name).or_insert(0) += 1;
    }
    (result, counts)
}

#[test]
fn search_events_match_the_solve_stats_counters() {
    let _lock = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // The two-output relation symmetric in (x, y) from the solver's
    // symmetry-pruning test: its split halves are swaps of each other.
    let symmetric_space = RelationSpace::with_names(&["a", "b"], &["x", "y"]);
    let symmetric = BooleanRelation::from_table(
        &symmetric_space,
        "00 : {01, 10}\n01 : {01, 10}\n10 : {01, 10}\n11 : {11}",
    )
    .unwrap();
    let mut cases: Vec<(String, BooleanRelation, BrelConfig)> = Vec::new();
    let mut relations = vec![("fig10".to_string(), figures::fig10().1)];
    relations.push(("fig7".to_string(), figures::fig7().1));
    for seed in [3u64, 11, 29] {
        let (_space, r) = random_well_defined_relation(4, 3, 0.3, seed);
        relations.push((format!("rand{seed}"), r));
    }
    for strategy in SearchStrategy::all() {
        for (name, r) in &relations {
            for (label, config) in [
                ("exact", BrelConfig::exact()),
                ("default", BrelConfig::default()),
                ("fifo2", BrelConfig::default().with_fifo_capacity(Some(2))),
            ] {
                let config = config.with_strategy(strategy);
                cases.push((format!("{name}/{label}/{strategy}"), r.clone(), config));
            }
        }
        let config = BrelConfig::exact().with_symmetry(true);
        cases.push((
            format!("symmetric/{strategy}"),
            symmetric.clone(),
            config.with_strategy(strategy),
        ));
    }

    let mut totals: BTreeMap<&str, usize> = BTreeMap::new();
    for (case, relation, config) in cases {
        let (solution, counts) = recording_search(|| BrelSolver::new(config).solve(&relation));
        let metrics = solution.unwrap().stats.metrics();
        for (event, field) in SEARCH_EVENTS {
            let counter = metrics.iter().find(|(name, _)| *name == field).unwrap().1;
            let seen = counts.get(event).copied().unwrap_or(0);
            assert_eq!(seen as u64, counter, "{case}: `{event}` events");
            *totals.entry(event).or_insert(0) += seen;
        }
    }
    // Every event fired somewhere, so no comparison above is vacuous.
    for (event, _) in SEARCH_EVENTS {
        assert!(totals[event] > 0, "no case emitted `{event}`: {totals:?}");
    }

    // Wide mode commits through the same explorer from any worker: the
    // batch's explored and split events add up to its reports. Reuse is
    // off, so no job is answered from the solved-subrelation cache.
    let mut jobs = Vec::new();
    for seed in [3u64, 11, 29] {
        let (_space, r) = random_well_defined_relation(4, 3, 0.3, seed);
        let spec = RelationSpec::from_relation(&r).unwrap();
        for strategy in SearchStrategy::all() {
            jobs.push(
                JobSpec::single(format!("rand{seed}"), spec.clone(), BackendKind::Brel)
                    .with_strategy(strategy),
            );
        }
    }
    let (report, counts) = recording_search(|| {
        Engine::with_workers(2)
            .with_reuse(false)
            .with_wide(WideOptions::default())
            .solve_batch(&jobs)
    });
    assert_eq!(report.num_solved(), jobs.len());
    let attempts = || report.jobs.iter().flat_map(|job| &job.attempts);
    let explored: usize = attempts().map(|a| a.explored).sum();
    let splits: usize = attempts().map(|a| a.splits).sum();
    assert!(splits > 0);
    assert_eq!(counts.get("explored").copied().unwrap_or(0), explored);
    assert_eq!(counts.get("split").copied().unwrap_or(0), splits);
}
