//! The repository's benchmark: one workload of the scenario → α* →
//! admit → validate pipeline per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mci-churn --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints the provenance, every metric with its unit and sample count,
//! the failure share, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Results and spans are also written under `.bench_out/`. See
//! `perfbench/README.md` for the metric definitions.

mod layers;
mod pipeline;
mod spans;
mod stats;
mod workloads;

use pipeline::{Bisect, Failover, Ledger, TrafficStats};
use spans::Tracer;
use stats::{median, quantile, tail_q, QUIET_Q};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use uba::admission::{AdmissionController, BackendKind};
use workloads::{Stage, Workload, CHURN_UNIT_S, FAILOVER_UNIT_S, RATE, STAGES, TRIAL_S};

const OUT_DIR: &str = ".bench_out";
/// Self-time layers reported by the traced run.
const LAYERS: [&str; 6] = ["bench", "cli", "routing", "admission", "sim", "loadgen"];

pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Metrics by name, in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.0.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, m)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }

    fn print(&self, heading: &str) {
        println!("# {heading}");
        for (name, m) in &self.0 {
            println!(
                "{name:<44} {:>16} {:<9} n={}",
                num(m.value),
                m.unit,
                m.samples
            );
        }
    }
}

/// A JSON number; non-finite values (a benchmark bug) print as null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
    eprintln!(
        "{msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {k}")));
        kv.insert(k, v);
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing {k}")))
    };
    let workload = get("--workload");
    let args = Args {
        workload: workloads::by_name(&workload)
            .unwrap_or_else(|| usage(&format!("unknown workload {workload}"))),
        seed: get("--seed")
            .parse()
            .unwrap_or_else(|_| usage("--seed takes a whole number")),
        seconds: get("--seconds")
            .parse()
            .unwrap_or_else(|_| usage("--seconds takes a number")),
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage("--trace takes 0 or 1"),
        },
    };
    if args.seconds.is_nan() || args.seconds < 1.0 {
        usage("--seconds must be at least 1");
    }
    args
}

/// FNV-1a over the repository's and the benchmark's sources: identifies
/// the code outside a git checkout, and keys the invariants record.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn provenance(a: &Args, source_fnv: &str) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"commit\": \"{commit}\", \"source_fnv\": \"{}\", \"rustc\": \"{}\"}}",
        a.workload.name,
        a.seed,
        a.seconds,
        a.trace,
        source_fnv,
        env!("PERFBENCH_RUSTC"),
    )
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn counter(name: &str) -> u64 {
    uba::obs::global().counter(name).get()
}

struct Outcome {
    e2e: Metrics,
    layer: Metrics,
    ledger: Ledger,
}

fn run(a: &Args, source_fnv: &str, tr: &Tracer) -> Outcome {
    let w = &a.workload;
    let mut ledger = Ledger::default();
    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();
    // The first set-up serves the traffic, the rate search and the
    // failovers; later set-ups are only timed.
    let (sweeps0, touched0) = (
        counter("delay.solve.sweeps_skipped"),
        counter("delay.solve.servers_touched"),
    );
    let t0 = tr.now_ns();
    let main = pipeline::setup(w, tr);
    let mut setup_s = vec![(tr.now_ns() - t0) as f64 * 1e-9];
    let sweeps = counter("delay.solve.sweeps_skipped") - sweeps0;
    let touched = counter("delay.solve.servers_touched") - touched0;
    let mut search_s = vec![main.search_s];
    let mut alpha_differs = 0;
    let (ctrl, pairs) = (&main.ctrl, &main.scenario.pairs);
    let bound = pipeline::analytic_bound(&main.config);

    // The rate search and the failovers run on controllers of their own,
    // so they leave the fixed-rate churn's state alone.
    let fresh = || AdmissionController::from_generation(main.config.apply(BackendKind::Atomic));
    let (rate_ctrl, fo_ctrl) = (fresh(), fresh());
    let mut workers = pipeline::workers(a.seed);
    let mut rate_workers = pipeline::workers(!a.seed);
    let mut failover = Failover::new(&main.config, &main.scenario.graph, a.seed);
    let mut bisect = Bisect::default();

    // Warm-ups, unmeasured: a second of churn at `RATE` on each traffic
    // controller, so the measured units start from a loaded network.
    if !w.fill {
        let win = pipeline::window_from_now(tr, RATE, 1.0, 1.0);
        let mut st = pipeline::run_workers(&mut workers, ctrl, pairs, win, tr);
        st.record_to(&mut ledger, "warm-up");
        tr.extend(std::mem::take(&mut st.spans));
    }
    let win = pipeline::window_from_now(tr, RATE, 1.0, 1.0);
    let mut st = pipeline::run_workers(&mut rate_workers, &rate_ctrl, pairs, win, tr);
    st.record_to(&mut ledger, "rate warm-up");
    tr.extend(std::mem::take(&mut st.spans));

    // The stages interleave in short units over the whole run: the next
    // unit goes to the stage furthest below its share of the time spent
    // so far. The machine has slow phases of about a second; spread over
    // the run, they land on every stage alike, and the pooled figures
    // average over many of them.
    let mut validate_s = vec![];
    let (mut unit_p50, mut unit_p99) = (vec![], vec![]);
    let mut traffic = TrafficStats::default();
    let mut filled = Vec::new();
    let mut fills = 0u64;
    let mut last = None;
    let mut used = [0.0f64; STAGES.len()];
    let mut units = 0;
    let deadline = tr.now_ns() + (a.seconds * 1e9) as u64;
    while tr.now_ns() < deadline || used.contains(&0.0) {
        let i = (0..STAGES.len())
            .min_by(|&i, &j| (used[i] / w.shares[i]).total_cmp(&(used[j] / w.shares[j])))
            .expect("stages");
        let t0 = tr.now_ns();
        match STAGES[i] {
            Stage::Setup => {
                let s = pipeline::setup(w, tr);
                setup_s.push((tr.now_ns() - t0) as f64 * 1e-9);
                search_s.push(s.search_s);
                alpha_differs += (s.alpha.to_bits() != main.alpha.to_bits()) as u64;
            }
            Stage::Traffic => {
                let mut st = if w.fill {
                    // The fill's flows end with the unit, so every stage
                    // starts on the same memory; their routes stay for
                    // validation.
                    fills += 1;
                    let seed = a.seed ^ fills << 32;
                    let (st, held) =
                        tr.span("bench.fill", 0, |_| pipeline::fill(ctrl, pairs, seed, tr));
                    filled = held
                        .iter()
                        .map(|(src, h)| (*src, h.route().to_vec()))
                        .collect();
                    drop(held);
                    pipeline::teardown(ctrl, &mut ledger);
                    st
                } else {
                    let win = pipeline::window_from_now(tr, RATE, CHURN_UNIT_S, 0.0);
                    pipeline::run_workers(&mut workers, ctrl, pairs, win, tr)
                };
                unit_p50.push(st.service.quantile(0.5));
                unit_p99.push(st.service.tail().1);
                st.record_to(&mut ledger, "traffic");
                tr.extend(std::mem::take(&mut st.spans));
                traffic.merge(st);
            }
            Stage::Validate => {
                // The last fill's admitted set, or every live churn flow.
                let live: Vec<_>;
                let flows = if w.fill {
                    &filled
                } else {
                    live = workers.iter().flat_map(|wk| wk.live_routes()).collect();
                    &live
                };
                let (secs, report) = pipeline::validate(flows, &main, tr);
                ledger.check(
                    "validation: deadline misses",
                    report.total_packets,
                    report.total_misses(),
                );
                ledger.check(
                    "validation: worst delay above the analytic bound",
                    1,
                    (report.max_delay() > bound) as u64,
                );
                ledger.check("validation: no flows validated", 1, flows.is_empty() as u64);
                validate_s.push(secs);
                last = Some((report, secs, flows.len()));
            }
            Stage::Rate => {
                let mut st = bisect.trial(&mut rate_workers, &rate_ctrl, pairs, TRIAL_S, tr);
                st.record_to(&mut ledger, "rate search");
                tr.extend(std::mem::take(&mut st.spans));
            }
            Stage::Failover => failover.run_for(&fo_ctrl, FAILOVER_UNIT_S, tr),
        }
        used[i] += (tr.now_ns() - t0) as f64 * 1e-9;
        units += 1;
    }
    failover.finish_first_pass(&fo_ctrl, tr);
    ledger.check(
        "setup: alpha differs between set-ups",
        setup_s.len() as u64,
        alpha_differs,
    );
    failover.record_to(&mut ledger);
    let fo = &failover.stats;
    ledger.check(
        "failover: no accepted failure to time",
        1,
        fo.reconfig_ms.is_empty() as u64,
    );

    // 6. Teardown: every flow ends; nothing may stay reserved.
    let live: usize = workers
        .iter()
        .chain(&rate_workers)
        .map(|wk| wk.live())
        .sum();
    drop(workers);
    drop(rate_workers);
    for c in [ctrl, &rate_ctrl, &fo_ctrl] {
        pipeline::teardown(c, &mut ledger);
    }

    // End-to-end metrics.
    let (report, last_secs, validated) = last.expect("at least one validation");
    let n = traffic.service.count();
    e2e.add("setup_s", median(&setup_s), "s", setup_s.len() as u64);
    e2e.add("alpha_star", main.alpha, "ratio", setup_s.len() as u64);
    // Decision timings are taken per traffic unit; the p50 is reported at
    // `QUIET_Q` over the units, the p99 at the median.
    e2e.add("admit_p50_ns", quantile(&unit_p50, QUIET_Q), "ns", n);
    e2e.add("admit_p99_ns", median(&unit_p99), "ns", n);
    e2e.add(
        "admitted_share",
        traffic.admitted_share(),
        "ratio",
        traffic.offered,
    );
    let nr = fo.reconfig_ms.len() as u64;
    let rq = tail_q(nr as usize);
    e2e.add("reconfig_p50_ms", fo.reconfig_p50_ms(), "ms", nr);
    e2e.add(
        "validate_s",
        quantile(&validate_s, QUIET_Q),
        "s",
        validate_s.len() as u64,
    );
    e2e.add("peak_rss_mb", peak_rss_mib(), "MiB", 1);
    // Seen by a user too, but host interference moves them far more than
    // any bound could absorb (see the README), so they are not gated.
    layer.add(
        "sojourn_p50_ns",
        traffic.sojourn.quantile(0.5),
        "ns",
        traffic.sojourn.count(),
    );
    layer.add(
        "max_admit_rate",
        bisect.max_rate(),
        "setups/s",
        bisect.trials.len() as u64,
    );
    layer.add("reconfig_p99_ms", quantile(&fo.reconfig_ms, rq), "ms", nr);

    let clock = layers::clock_ns();
    println!("# loadgen.clock_ns = {clock:.2} ns per clock read (two per timed decision)");
    println!(
        "# {units} units; per-unit admit p99 at q=0.99; reconfig tail at q={rq:.4}; {} decisions; \
         last validation: {validated} flows, {} packets, worst {:.3} ms vs bound {:.3} ms; \
         {live} flows live at teardown",
        traffic.decisions,
        report.total_packets,
        report.max_delay() * 1e3,
        bound * 1e3,
    );
    let show = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# per-unit admit_p50_ns: {}", show(&unit_p50));
    println!("# per-run setup_s: {}", show(&setup_s));
    println!("# per-run validate_s: {}", show(&validate_s));
    let stage_s: Vec<String> = STAGES
        .iter()
        .zip(used)
        .map(|(s, u)| format!("{s:?} {u:.2} s"))
        .collect();
    println!("# time per stage: {}", stage_s.join(", "));
    println!(
        "# per-link reconfig ms at q={QUIET_Q}: {}",
        show(&fo.per_link_quiet_ms())
    );
    let (lo, hi) = bisect.bracket();
    println!(
        "# rate bracket: passed {lo:.0}/s, failed {hi:.0}/s (ratio {:.3})",
        hi / lo
    );
    for (r, pass, soj, growth) in &bisect.trials {
        println!("# rate trial {r:>12.0}/s pass={pass} sojourn_p50={soj:.0} ns late_growth={growth:.0} ns");
    }
    println!(
        "# failover: {} cycles, {} refused on {} of {} links",
        fo.cycles,
        fo.refused,
        fo.verdicts.values().filter(|&&r| r).count(),
        fo.verdicts.len()
    );

    if tr.on() {
        let self_times = tr.self_times();
        let total: f64 = self_times.values().sum();
        println!("# self time per layer (spans minus child spans, sampled requests scaled up)");
        for l in LAYERS {
            let v = self_times.get(l).copied().unwrap_or(0.0);
            println!(
                "#   {l:<10} {v:>10.4} s {:>6.1}%",
                100.0 * v / total.max(1e-12)
            );
            layer.add(&format!("selftime.{l}_s"), v, "s", 1);
        }
        let search = (median(&search_s), main.probes);
        let verified = layers::config_rows(&main, w.scenario, search, tr, &mut layer);
        ledger.check(
            "delay: configured routes fail verification",
            1,
            !verified as u64,
        );
        layers::admission_rows(&main, a.seed, &mut layer);
        layers::trace_rows(&main, a.seed, tr, &mut layer);
        layer.add("loadgen.clock_ns", clock, "ns", layers::BLOCK_CALLS);
        layer.add("delay.sweeps_skipped", sweeps as f64, "count", 1);
        layer.add("delay.servers_touched", touched as f64, "count", 1);
        layer.add("routing.fail_link_ms", median(&fo.fail_link_ms), "ms", nr);
        layer.add("routing.apply_ms", median(&fo.apply_ms), "ms", nr);
        layer.add(
            "routing.reroutes_refused",
            fo.refused as f64,
            "count",
            fo.cycles,
        );
        layer.add(
            "admission.reconfigure_us",
            median(&fo.reconfigure_us),
            "us",
            nr,
        );
        layer.add(
            "admission.drain_us",
            median(&fo.drain_us),
            "us",
            fo.drain_us.len() as u64,
        );
        layer.add(
            "admission.retired_pinned",
            median(&fo.retired_pinned),
            "count",
            fo.retired_pinned.len() as u64,
        );
        layer.add("sim.events", report.events as f64, "count", 1);
        layer.add("sim.packets", report.total_packets as f64, "count", 1);
        layer.add(
            "sim.events_per_s",
            report.events as f64 / last_secs,
            "1/s",
            1,
        );
        layer.add("sim.peak_backlog", report.peak_backlog as f64, "count", 1);
        layer.add(
            "sim.worst_over_bound",
            report.max_delay() / bound,
            "ratio",
            1,
        );
        layer.add(
            "loadgen.late_p50_ns",
            traffic.late.quantile(0.5),
            "ns",
            traffic.late.count(),
        );
        layer.add(
            "loadgen.late_p99_us",
            traffic.late.tail().1 * 1e-3,
            "us",
            traffic.late.count(),
        );
        println!("# {} spans recorded", tr.len());
    }
    check_invariants(w.name, source_fnv, main.alpha, &fo.verdicts, &mut ledger);
    Outcome { e2e, layer, ledger }
}

/// `alpha_star` and each link's failover verdict depend only on the
/// scenario and the code, so they must repeat exactly across seeds. The
/// first run of a workload on given sources records them under
/// `.bench_out/`, keyed by the sources' fingerprint; later runs of the
/// same sources compare. Runs of other sources never see the record.
fn check_invariants(
    workload: &str,
    source_fnv: &str,
    alpha: f64,
    verdicts: &BTreeMap<(u32, u32), bool>,
    ledger: &mut Ledger,
) {
    let path = Path::new(OUT_DIR).join(format!("invariants-{workload}-{source_fnv}.txt"));
    let mut known: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            l.split_once(' ')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect();
    let mut mine = vec![("alpha_star".to_string(), format!("{alpha}"))];
    for ((x, y), refused) in verdicts {
        mine.push((format!("link-{x}-{y}-refused"), refused.to_string()));
    }
    let mut mismatches = 0;
    for (k, v) in &mine {
        match known.get(k) {
            Some(prev) if prev != v => {
                mismatches += 1;
                ledger.notes.push(format!(
                    "{k} is {v} here but {prev} in an earlier run of these sources"
                ));
            }
            Some(_) => {}
            None => {
                known.insert(k.clone(), v.clone());
            }
        }
    }
    ledger.check(
        "invariants: differ from an earlier seed",
        mine.len() as u64,
        mismatches,
    );
    let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let _ = std::fs::write(&path, text);
}

fn main() {
    let args = parse_args();
    let _ = std::fs::create_dir_all(OUT_DIR);
    let source_fnv = source_fingerprint();
    let prov = provenance(&args, &source_fnv);
    println!("provenance {prov}");
    let tr = Tracer::new(args.trace);
    let outcome = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run(&args, &source_fnv, &tr)
    })) {
        Ok(o) => o,
        Err(_) => {
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    };
    let Outcome { e2e, layer, ledger } = outcome;
    e2e.print("end-to-end metrics");
    layer.print("per-layer metrics");
    for note in &ledger.notes {
        println!("# FAILED {note}");
    }
    let metrics = if args.trace { &layer } else { &e2e };
    let all_finite = metrics.0.values().all(|m| m.value.is_finite());
    let correct = ledger.failed == 0 && all_finite;
    println!(
        "# failure share: {} of {} attempted ({:.3e}); correct={correct}",
        ledger.failed,
        ledger.attempted,
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name, args.seed, args.trace as u8
    );
    let out = Path::new(OUT_DIR);
    let _ = std::fs::write(
        out.join(format!("{tag}.json")),
        format!(
            "{{\"provenance\": {prov}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
            e2e.json(),
            layer.json()
        ),
    );
    if args.trace {
        let _ = tr.write_jsonl(&out.join(format!("spans-{tag}.jsonl")));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted.max(1),
        ledger.failed,
        metrics.json()
    );
}
