//! Per-layer rows of the traced run. Each row times calls into one
//! layer's public functions from outside. Admission rows time blocks of
//! `BLOCK` calls (one clock read costs a sizeable share of a decision)
//! on one thread and on two threads at once.

use crate::pipeline::{Setup, TOL};
use crate::spans::{Span, Tracer};
use crate::stats::median;
use crate::Metrics;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;
use uba::admission::{AdmissionController, BackendKind, ConfigGeneration};
use uba::graph::k_shortest_paths;
use uba::obs::SplitMix64;
use uba::prelude::*;
use uba_cli::Scenario;

const BLOCK: usize = 1024;
const ROUNDS: usize = 150;
/// Calls behind a one-thread row.
pub const BLOCK_CALLS: u64 = (BLOCK * ROUNDS) as u64;

/// One timed block: `a` and `b` are ns per call of up to two measured
/// loops, `retries` the CAS retries the block saw.
#[derive(Clone, Copy, Default)]
struct Block {
    a: f64,
    b: f64,
    retries: u64,
}

/// Runs `ROUNDS` blocks on each of `threads` threads started together.
fn blocks(threads: usize, f: &(dyn Fn(usize) -> Block + Sync)) -> Vec<Block> {
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    (0..ROUNDS).map(|_| f(t)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("row thread panicked"))
            .collect()
    })
}

fn med_a(bs: &[Block]) -> f64 {
    median(&bs.iter().map(|b| b.a).collect::<Vec<_>>())
}

fn med_b(bs: &[Block]) -> f64 {
    median(&bs.iter().map(|b| b.b).collect::<Vec<_>>())
}

fn ns_per(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Seeded request keys, one list per thread.
fn keys(pairs: &[Pair], seed: u64, threads: usize) -> Vec<Vec<Pair>> {
    (0..threads as u64)
        .map(|t| {
            let mut rng = SplitMix64::new(seed ^ (t + 7).wrapping_mul(0xD1B5_4A32_D192_ED03));
            (0..BLOCK).map(|_| pairs[rng.index(pairs.len())]).collect()
        })
        .collect()
}

/// Reserve then release every key's route on `gen`'s backend; returns
/// ns per reserve, ns per release and CAS retries.
fn reserve_release(gen: &ConfigGeneration, routes: &[Box<[u32]>], rate: f64) -> Block {
    let backend = gen.backend();
    let mut results = Vec::with_capacity(routes.len());
    let t0 = Instant::now();
    for r in routes {
        results.push(backend.try_reserve_path(r, 0, rate));
    }
    let reserve = ns_per(t0, routes.len());
    let held: Vec<&Box<[u32]>> = routes
        .iter()
        .zip(&results)
        .filter(|(_, res)| res.is_ok())
        .map(|(r, _)| r)
        .collect();
    let t1 = Instant::now();
    for r in &held {
        backend.release_path(r, 0, rate);
    }
    let release = ns_per(t1, held.len());
    let retries = results.iter().map(|r| match r {
        Ok(n) => *n as u64,
        Err(e) => e.retries as u64,
    });
    Block {
        a: reserve,
        b: release,
        retries: retries.sum(),
    }
}

fn decisions(ctrl: &AdmissionController, keys: &[Pair]) -> f64 {
    let t0 = Instant::now();
    for p in keys {
        drop(black_box(ctrl.try_admit(ClassId(0), p.src, p.dst)));
    }
    ns_per(t0, keys.len())
}

/// The admission, obs and loadgen rows.
pub fn admission_rows(s: &Setup, seed: u64, m: &mut Metrics) {
    let pairs = &s.scenario.pairs;
    let rate = s.class.bucket.rate;
    let keys = keys(pairs, seed, 2);
    let routes_of = |gen: &ConfigGeneration| -> Vec<Vec<Box<[u32]>>> {
        keys.iter()
            .map(|ks| {
                ks.iter()
                    .map(|p| {
                        gen.table()
                            .route(p.src, p.dst, ClassId(0))
                            .expect("configured")
                            .into()
                    })
                    .collect()
            })
            .collect()
    };
    let per_op = BLOCK as u64 * ROUNDS as u64;
    for threads in [1usize, 2] {
        let sfx = format!("t{threads}");
        let n = per_op * threads as u64;

        let ctrl = AdmissionController::from_generation(s.config.apply(BackendKind::Atomic));
        let gen = ctrl.current_generation();
        let bs = blocks(threads, &|t| {
            let t0 = Instant::now();
            for p in &keys[t] {
                black_box(gen.table().route(p.src, p.dst, ClassId(0)));
            }
            Block {
                a: ns_per(t0, BLOCK),
                ..Block::default()
            }
        });
        m.add(
            &format!("admission.route_lookup_ns.{sfx}"),
            med_a(&bs),
            "ns",
            n,
        );

        let bs = blocks(threads, &|_| {
            let t0 = Instant::now();
            for _ in 0..BLOCK {
                black_box(ctrl.current_generation());
            }
            Block {
                a: ns_per(t0, BLOCK),
                ..Block::default()
            }
        });
        m.add(
            &format!("admission.generation_pin_ns.{sfx}"),
            med_a(&bs),
            "ns",
            n,
        );

        let gen = s.config.apply(BackendKind::Atomic);
        let routes = routes_of(&gen);
        let bs = blocks(threads, &|t| reserve_release(&gen, &routes[t], rate));
        m.add(
            &format!("admission.backend_reserve_ns.{sfx}"),
            med_a(&bs),
            "ns",
            n,
        );
        m.add(
            &format!("admission.backend_release_ns.{sfx}"),
            med_b(&bs),
            "ns",
            n,
        );
        if threads == 2 {
            let retries: u64 = bs.iter().map(|b| b.retries).sum();
            m.add(
                "admission.cas_retries_per_op",
                retries as f64 / n as f64,
                "ratio",
                n,
            );
            let sharded = s.config.apply(BackendKind::Sharded(8));
            let routes = routes_of(&sharded);
            let bs = blocks(threads, &|t| reserve_release(&sharded, &routes[t], rate));
            m.add(
                "admission.backend_sharded8.reserve_ns.t2",
                med_a(&bs),
                "ns",
                n,
            );
        }

        let ctrl = AdmissionController::from_generation(s.config.apply(BackendKind::Atomic));
        let bs = blocks(threads, &|t| Block {
            a: decisions(&ctrl, &keys[t]),
            ..Block::default()
        });
        m.add(&format!("admission.decision_ns.{sfx}"), med_a(&bs), "ns", n);
    }

    // Metered minus unmetered controller, interleaved blocks on one thread.
    let metered = AdmissionController::from_generation(s.config.apply(BackendKind::Atomic));
    let bare = AdmissionController::from_generation_unmetered(s.config.apply(BackendKind::Atomic));
    let bs = blocks(1, &|_| Block {
        a: decisions(&metered, &keys[0]),
        b: decisions(&bare, &keys[0]),
        ..Block::default()
    });
    m.add(
        "obs.metered_delta_ns",
        med_a(&bs) - med_b(&bs),
        "ns",
        per_op,
    );
}

/// ns per clock read, from blocks of reads; printed by every run so the
/// cost behind each timed decision (two reads) is visible.
pub fn clock_ns() -> f64 {
    med_a(&blocks(1, &|_| {
        let t0 = Instant::now();
        for _ in 0..BLOCK {
            black_box(Instant::now());
        }
        Block {
            a: ns_per(t0, BLOCK),
            ..Block::default()
        }
    }))
}

/// Cost of the benchmark's own tracing: ns per recorded span, and the
/// decision-loop slowdown at the traffic stages' sampling rate
/// (interleaved blocks with and without span recording).
pub fn trace_rows(s: &Setup, seed: u64, tr: &Tracer, m: &mut Metrics) {
    let keys = keys(&s.scenario.pairs, seed, 1).remove(0);
    let ctrl = AdmissionController::from_generation(s.config.apply(BackendKind::Atomic));
    let record = |out: &mut Vec<Span>, i: usize| {
        let t = tr.now_ns();
        out.push(Span {
            id: tr.next_id(),
            parent: 0,
            req: i as u64,
            name: "bench.probe",
            start_ns: t,
            end_ns: t,
            weight: 1,
        });
    };
    let bs = blocks(1, &|_| {
        let mut out = Vec::with_capacity(BLOCK);
        let t0 = Instant::now();
        for i in 0..BLOCK {
            record(&mut out, i);
        }
        let a = ns_per(t0, BLOCK);
        black_box(out);
        let mut out = Vec::new();
        let t1 = Instant::now();
        for (i, p) in keys.iter().enumerate() {
            drop(black_box(ctrl.try_admit(ClassId(0), p.src, p.dst)));
            if i % 256 == 0 {
                for _ in 0..3 {
                    record(&mut out, i);
                }
            }
        }
        let traced = ns_per(t1, BLOCK);
        let untraced = decisions(&ctrl, &keys);
        Block {
            a,
            b: (traced / untraced - 1.0) * 100.0,
            ..Block::default()
        }
    });
    let n = (BLOCK * ROUNDS) as u64;
    m.add("trace.span_ns", med_a(&bs), "ns", n);
    m.add("trace.overhead_pct", med_b(&bs), "%", n);
}

/// Times `f` `reps` times; median seconds.
fn timed<T>(reps: usize, tr: &Tracer, name: &'static str, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(tr.span(name, 0, |_| f()));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("reps > 0"))
}

/// The cli, routing, graph and delay rows. `search` is the median α*
/// search time of the run's set-ups and the probes of one search.
/// Returns whether the configured routes verify at the configured α.
pub fn config_rows(
    s: &Setup,
    scenario_text: &str,
    (search_s, probes): (f64, usize),
    tr: &Tracer,
    m: &mut Metrics,
) -> bool {
    let sc = &s.scenario;
    let cfg = HeuristicConfig::default();
    let (parse_s, _) = timed(20, tr, "cli.scenario_parse", || {
        Scenario::from_str(scenario_text)
    });
    m.add("cli.scenario_parse_us", parse_s * 1e6, "us", 20);

    m.add("routing.search_s", search_s, "s", 1);
    m.add("routing.probes", probes as f64, "count", 1);
    let (select_s, _) = timed(1, tr, "routing.select_routes", || {
        select_routes(&sc.graph, &sc.servers, &s.class, s.alpha, &sc.pairs, &cfg)
    });
    m.add("routing.select_s", select_s, "s", 1);
    let (sp_s, _) = timed(1, tr, "routing.max_utilization", || {
        max_utilization(
            &sc.graph,
            &sc.servers,
            &s.class,
            &sc.pairs,
            &Selector::ShortestPath,
            TOL,
        )
    });
    m.add("routing.sp_search_s", sp_s, "s", 1);

    let (yen_s, _) = timed(1, tr, "graph.k_shortest_paths", || {
        sc.pairs
            .iter()
            .map(|p| k_shortest_paths(&sc.graph, p.src, p.dst, cfg.k_candidates).len())
            .sum::<usize>()
    });
    m.add("graph.yen_ms", yen_s * 1e3, "ms", 1);

    let mut routes = RouteSet::new(sc.graph.edge_count());
    for p in s.config.paths() {
        routes.push(Route::from_path(ClassId(0), p));
    }
    let (solve_s, _) = timed(5, tr, "delay.solve_two_class", || {
        solve_two_class(
            &sc.servers,
            &s.class,
            s.alpha,
            &routes,
            &SolveConfig::default(),
            None,
        )
    });
    m.add("delay.solve_us", solve_s * 1e6, "us", 5);
    let (verify_s, report) = timed(3, tr, "delay.verify", || {
        verify(
            &sc.servers,
            &ClassSet::single(s.class.clone()),
            &[s.alpha],
            &routes,
            &SolveConfig::default(),
        )
    });
    m.add("delay.verify_ms", verify_s * 1e3, "ms", 3);
    report.safe
}
