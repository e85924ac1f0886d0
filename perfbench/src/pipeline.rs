//! The stages every workload runs: set-up, traffic (open-loop churn or a
//! closed-loop fill), packet-level validation, rate search, link
//! failover and teardown. Each stage calls the layers' public functions
//! and checks their outputs; failures are counted against attempts.

use crate::spans::{Span, Tracer};
use crate::stats::{median, quantile, Hist, QUIET_Q};
use crate::workloads::{Workload, HOLD_S, HORIZON_S, RATE, WORKERS};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::spin_loop;
use uba::admission::{AdmissionController, BackendKind, FlowHandle, Reject};
use uba::obs::SplitMix64;
use uba::prelude::*;
use uba::routing::Configuration;
use uba::sim::{simulate, FlowSpec, SimConfig, SimReport, SourceModel};
use uba_cli::Scenario;

/// α* search tolerance (the paper reports two decimals).
pub const TOL: f64 = 0.005;
/// The sojourn limit a rate must meet in the rate search. Unloaded
/// sojourn p50s here run 0.7–1.8 µs, so a 2 µs limit would sit in the
/// flat part of the sojourn-vs-rate curve where machine noise, not the
/// program, decides the crossing; 5 µs sits at the knee.
const SOJOURN_LIMIT_NS: f64 = 5_000.0;
/// Allowed growth of the generator's median lateness over a trial.
const LATE_GROWTH_LIMIT_NS: f64 = 1_000.0;

/// Failures counted against attempts; any failure makes the run incorrect.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ledger {
    /// Records `attempts` checked operations of which `failures` failed.
    pub fn check(&mut self, what: &str, attempts: u64, failures: u64) {
        self.attempted += attempts;
        self.failed += failures;
        if failures > 0 {
            self.notes
                .push(format!("{what}: {failures} of {attempts} failed"));
        }
    }
}

/// One set-up's output: the scenario, the configured α and routes, and a
/// live controller on the first generation.
pub struct Setup {
    pub scenario: Scenario,
    pub class: TrafficClass,
    pub alpha: f64,
    pub probes: usize,
    /// Wall seconds of the α* search.
    pub search_s: f64,
    pub config: Configuration,
    pub ctrl: AdmissionController,
    pub caps: Vec<f64>,
}

/// Scenario text → parse → α* search → `Configuration` → first
/// generation → controller.
pub fn setup(w: &Workload, tr: &Tracer) -> Setup {
    tr.span("bench.setup", 0, |p| {
        let scenario = tr.span("cli.scenario_parse", p, |_| {
            Scenario::from_str(w.scenario).expect("benchmark scenarios parse")
        });
        let class = scenario.classes.iter().next().expect("one class").1.clone();
        let cfg = HeuristicConfig::default();
        let t_search = tr.now_ns();
        let r = tr.span("routing.max_utilization", p, |_| {
            max_utilization(
                &scenario.graph,
                &scenario.servers,
                &class,
                &scenario.pairs,
                &Selector::Heuristic(cfg.clone()),
                TOL,
            )
        });
        let search_s = (tr.now_ns() - t_search) as f64 * 1e-9;
        let (alpha, probes) = (r.alpha, r.probes.len());
        let selection = r.selection.expect("the Theorem 4 lower bound is safe");
        let config = Configuration::from_selection(
            scenario.graph.clone(),
            scenario.servers.clone(),
            class.clone(),
            alpha,
            cfg,
            selection,
        );
        let generation = tr.span("routing.apply", p, |_| config.apply(BackendKind::Atomic));
        let ctrl = tr.span("admission.from_generation", p, |_| {
            AdmissionController::from_generation(generation)
        });
        let caps = (0..scenario.servers.len())
            .map(|k| scenario.servers.capacity_at(k))
            .collect();
        Setup {
            scenario,
            class,
            alpha,
            probes,
            search_s,
            config,
            ctrl,
            caps,
        }
    })
}

/// Servers of the live generation whose reserved rate exceeds α·C.
pub fn audit(ctrl: &AdmissionController) -> u64 {
    let g = ctrl.current_generation();
    let b = g.backend();
    (0..b.servers())
        .filter(|&s| (0..b.classes()).any(|c| b.snapshot(s, c) > b.budget(s, c)))
        .count() as u64
}

/// Decision-path samples of one traffic stage.
#[derive(Default)]
pub struct TrafficStats {
    /// `try_admit` service time: clock read before the call to clock
    /// read on return.
    pub service: Hist,
    /// From the request's due time to its verdict.
    pub sojourn: Hist,
    /// From the due time to when the generator picked the request up.
    pub late: Hist,
    /// Lateness in the first and last quarter of the measured window.
    pub late_first: Hist,
    pub late_last: Hist,
    /// Measured-window offers and admits.
    pub offered: u64,
    pub admitted: u64,
    /// Every decision, measured or not, and the `NoRoute` verdicts
    /// among them (each one a failure: every pair is configured).
    pub decisions: u64,
    pub no_route: u64,
    pub audits: u64,
    pub audit_violations: u64,
    /// The generator overran its window by more than 50 ms and stopped.
    pub cut: bool,
    pub spans: Vec<Span>,
}

impl TrafficStats {
    pub fn merge(&mut self, o: TrafficStats) {
        self.service.merge(&o.service);
        self.sojourn.merge(&o.sojourn);
        self.late.merge(&o.late);
        self.late_first.merge(&o.late_first);
        self.late_last.merge(&o.late_last);
        self.offered += o.offered;
        self.admitted += o.admitted;
        self.decisions += o.decisions;
        self.no_route += o.no_route;
        self.audits += o.audits;
        self.audit_violations += o.audit_violations;
        self.cut |= o.cut;
        self.spans.extend(o.spans);
    }

    pub fn admitted_share(&self) -> f64 {
        self.admitted as f64 / self.offered.max(1) as f64
    }

    pub fn record_to(&self, ledger: &mut Ledger, stage: &str) {
        ledger.check(
            &format!("{stage}: NoRoute on a configured pair"),
            self.decisions,
            self.no_route,
        );
        ledger.check(
            &format!("{stage}: budget audit"),
            self.audits,
            self.audit_violations,
        );
    }
}

/// A time window of open-loop traffic, in seconds on the tracer's clock.
#[derive(Clone, Copy)]
pub struct Window {
    pub from_s: f64,
    pub until_s: f64,
    /// Decisions due before this are warm-up and not measured.
    pub measure_from_s: f64,
    /// This worker's share of the offered rate.
    pub rate: f64,
    /// Audit the live generation every this many decisions (0: never).
    pub audit_every: u64,
    /// Record spans for every this-many-th request (0: none).
    pub sample_every: u64,
}

/// One open-loop generator thread and the flows it holds. Departures
/// run on a virtual timeline of due times, so which flows are live at a
/// decision depends on the seed, not on how late the generator runs.
/// The timeline continues from one window to the next: flows held across
/// the gap between two windows depart as if there had been no gap.
pub struct Worker {
    rng: SplitMix64,
    departures: BinaryHeap<Reverse<(u64, usize)>>,
    slots: Vec<Option<(NodeId, FlowHandle)>>,
    free: Vec<usize>,
    requests: u64,
    /// Virtual seconds at the end of the last window.
    virt_s: f64,
}

impl Worker {
    pub fn new(seed: u64) -> Self {
        // Room for every flow the workloads hold at once, so the peak
        // memory does not depend on when a vector happens to grow.
        const FLOWS: usize = 1 << 17;
        Self {
            rng: SplitMix64::new(seed),
            departures: BinaryHeap::with_capacity(FLOWS),
            slots: Vec::with_capacity(FLOWS),
            free: Vec::new(),
            requests: 0,
            virt_s: 0.0,
        }
    }

    /// Offers Poisson setups over `w` and returns the samples.
    pub fn run(
        &mut self,
        ctrl: &AdmissionController,
        pairs: &[Pair],
        w: Window,
        tr: &Tracer,
    ) -> TrafficStats {
        let mut st = TrafficStats::default();
        // Wall time = virtual time + offset.
        let offset = w.from_s - self.virt_s;
        let (until, measure_from) = (w.until_s - offset, w.measure_from_s - offset);
        let quarter = (until - measure_from) / 4.0;
        let cut_ns = ((w.until_s + 0.05) * 1e9) as u64;
        let mut t = self.virt_s;
        loop {
            t += -(1.0 - self.rng.next_f64()).ln() / w.rate;
            if t >= until {
                break;
            }
            let pair = pairs[self.rng.index(pairs.len())];
            let hold_ns = (-(1.0 - self.rng.next_f64()).ln() * HOLD_S * 1e9) as u64;
            let due_virt = (t * 1e9) as u64;
            let due = ((t + offset) * 1e9) as u64;
            let mut picked = tr.now_ns();
            if picked > cut_ns {
                st.cut = true;
                break;
            }
            while picked < due {
                spin_loop();
                picked = tr.now_ns();
            }
            while let Some(&Reverse((at, slot))) = self.departures.peek() {
                if at > due_virt {
                    break;
                }
                self.departures.pop();
                self.slots[slot] = None;
                self.free.push(slot);
            }
            let t0 = tr.now_ns();
            let verdict = ctrl.try_admit(ClassId(0), pair.src, pair.dst);
            let t1 = tr.now_ns();

            st.decisions += 1;
            let measured = t >= measure_from;
            if measured {
                let late = picked - due;
                st.service.record(t1 - t0);
                st.sojourn.record(t1 - due);
                st.late.record(late);
                if t < measure_from + quarter {
                    st.late_first.record(late);
                } else if t >= until - quarter {
                    st.late_last.record(late);
                }
                st.offered += 1;
            }
            match verdict {
                Ok(h) => {
                    st.admitted += measured as u64;
                    let slot = match self.free.pop() {
                        Some(s) => s,
                        None => {
                            self.slots.push(None);
                            self.slots.len() - 1
                        }
                    };
                    self.slots[slot] = Some((pair.src, h));
                    self.departures.push(Reverse((due_virt + hold_ns, slot)));
                }
                Err(Reject::NoRoute) => st.no_route += 1,
                Err(_) => {}
            }
            self.requests += 1;
            if w.sample_every > 0 && self.requests.is_multiple_of(w.sample_every) {
                sample_spans(&mut st.spans, tr, w.sample_every, [picked, t0, t1]);
            }
            if w.audit_every > 0 && self.requests.is_multiple_of(w.audit_every) {
                st.audits += 1;
                st.audit_violations += audit(ctrl);
            }
        }
        self.virt_s = until;
        st
    }

    /// `(ingress, route)` of every live flow.
    pub fn live_routes(&self) -> Vec<(NodeId, Vec<u32>)> {
        self.slots
            .iter()
            .flatten()
            .map(|(src, h)| (*src, h.route().to_vec()))
            .collect()
    }

    pub fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// The spans of one sampled request: the request (pick-up → its samples
/// recorded; the wait from its due time is lateness, reported on its
/// own), the releases of departed flows, and the decision itself.
fn sample_spans(out: &mut Vec<Span>, tr: &Tracer, weight: u64, [picked, t0, t1]: [u64; 3]) {
    let done = tr.now_ns();
    let req = tr.next_id();
    let mk = |id, parent, name, start_ns, end_ns| Span {
        id,
        parent,
        req,
        name,
        start_ns,
        end_ns,
        weight: weight as u32,
    };
    out.push(mk(req, 0, "loadgen.request", picked, done));
    out.push(mk(tr.next_id(), req, "admission.release", picked, t0));
    out.push(mk(tr.next_id(), req, "admission.try_admit", t0, t1));
}

/// Runs every worker over the same window, one thread each.
pub fn run_workers(
    workers: &mut [Worker],
    ctrl: &AdmissionController,
    pairs: &[Pair],
    w: Window,
    tr: &Tracer,
) -> TrafficStats {
    let results: Vec<TrafficStats> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(i, worker)| {
                // Only the first worker audits, between its decisions.
                let w = Window {
                    audit_every: if i == 0 { w.audit_every } else { 0 },
                    ..w
                };
                s.spawn(move || worker.run(ctrl, pairs, w, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut all = TrafficStats::default();
    for r in results {
        all.merge(r);
    }
    all
}

pub fn workers(seed: u64) -> Vec<Worker> {
    (0..WORKERS as u64)
        .map(|i| Worker::new(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// A window starting just after now, lasting `secs`, measuring after
/// `warm_s`, offering `rate` setups per second over all workers.
pub fn window_from_now(tr: &Tracer, rate: f64, secs: f64, warm_s: f64) -> Window {
    let from_s = tr.now_ns() as f64 * 1e-9 + 0.002;
    Window {
        from_s,
        until_s: from_s + secs,
        measure_from_s: from_s + warm_s,
        rate: rate / WORKERS as f64,
        audit_every: 1 << 14,
        sample_every: if tr.on() { 256 } else { 0 },
    }
}

/// Closed-loop greedy fill on one thread: offer pairs round-robin in a
/// seeded order, dropping each pair at its first reject, until none is
/// left. A request is due when the previous verdict returned.
pub fn fill(
    ctrl: &AdmissionController,
    pairs: &[Pair],
    seed: u64,
    tr: &Tracer,
) -> (TrafficStats, Vec<(NodeId, FlowHandle)>) {
    let mut rng = SplitMix64::new(seed);
    let mut active = pairs.to_vec();
    for i in (1..active.len()).rev() {
        active.swap(i, rng.index(i + 1));
    }
    let mut st = TrafficStats::default();
    let mut held = Vec::new();
    let mut prev = tr.now_ns();
    while !active.is_empty() {
        let mut i = 0;
        while i < active.len() {
            let p = active[i];
            let t0 = tr.now_ns();
            let verdict = ctrl.try_admit(ClassId(0), p.src, p.dst);
            let t1 = tr.now_ns();
            st.service.record(t1 - t0);
            st.sojourn.record(t1 - prev);
            st.late.record(t0 - prev);
            st.decisions += 1;
            st.offered += 1;
            if tr.on() && st.decisions % 256 == 0 {
                sample_spans(&mut st.spans, tr, 256, [t0, t0, t1]);
            }
            prev = t1;
            match verdict {
                Ok(h) => {
                    st.admitted += 1;
                    held.push((p.src, h));
                    i += 1;
                }
                Err(r) => {
                    if r == Reject::NoRoute {
                        st.no_route += 1;
                    }
                    active.swap_remove(i);
                }
            }
        }
    }
    st.audits += 1;
    st.audit_violations += audit(ctrl);
    (st, held)
}

/// Link-failover samples.
#[derive(Default)]
pub struct FailoverStats {
    /// fail_link → apply → reconfigure, per accepted failure.
    pub reconfig_ms: Vec<f64>,
    pub fail_link_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub reconfigure_us: Vec<f64>,
    pub drain_us: Vec<f64>,
    pub retired_pinned: Vec<f64>,
    pub cycles: u64,
    pub refused: u64,
    /// Links whose failure verdict changed between two of their failures.
    pub inconsistent: u64,
    pub audits: u64,
    pub audit_violations: u64,
    /// Verdict per physical link: `true` if the reroute was refused.
    pub verdicts: BTreeMap<(u32, u32), bool>,
    /// `reconfig_ms` samples per accepted link.
    pub per_link_ms: BTreeMap<(u32, u32), Vec<f64>>,
}

impl FailoverStats {
    /// Each accepted link's fail_link → apply → reconfigure time at
    /// [`QUIET_Q`] over its failures.
    pub fn per_link_quiet_ms(&self) -> Vec<f64> {
        self.per_link_ms
            .values()
            .map(|v| quantile(v, QUIET_Q))
            .collect()
    }

    /// Median over links of [`Self::per_link_quiet_ms`]. Links differ up
    /// to 10x in reroute cost, so every link weighs the same however many
    /// of its failures the run reached.
    pub fn reconfig_p50_ms(&self) -> f64 {
        median(&self.per_link_quiet_ms())
    }
}

/// Most physical links a run fails. A link's time is a low quantile over
/// its failures, which takes about ten failures of every link in a run;
/// a larger topology fails this many of its links, evenly spaced in id
/// order, the same ones whatever the seed.
const FAILOVER_LINKS: usize = 32;

/// Fails physical links in a seeded order, one per cycle. Every cycle
/// starts from the base configuration, so a link's verdict does not
/// depend on the order: fail the link and reroute (`fail_link`), install
/// the result (`apply` + `reconfigure`), restore the link by installing
/// the base configuration again, then `drain`.
pub struct Failover<'a> {
    base: &'a Configuration,
    links: Vec<(NodeId, NodeId)>,
    next: usize,
    pub stats: FailoverStats,
}

impl<'a> Failover<'a> {
    pub fn new(base: &'a Configuration, g: &Digraph, seed: u64) -> Self {
        let mut links: Vec<(NodeId, NodeId)> = g
            .edges()
            .map(|e| (g.src(e), g.dst(e)))
            .filter(|(a, b)| a.0 < b.0)
            .collect();
        links.sort_by_key(|(a, b)| (a.0, b.0));
        links.dedup();
        if links.len() > FAILOVER_LINKS {
            let step = links.len() as f64 / FAILOVER_LINKS as f64;
            links = (0..FAILOVER_LINKS)
                .map(|i| links[(i as f64 * step) as usize])
                .collect();
        }
        let mut rng = SplitMix64::new(seed);
        for i in (1..links.len()).rev() {
            links.swap(i, rng.index(i + 1));
        }
        Self {
            base,
            links,
            next: 0,
            stats: FailoverStats::default(),
        }
    }

    pub fn cycle(&mut self, ctrl: &AdmissionController, tr: &Tracer) {
        let (a, b) = self.links[self.next % self.links.len()];
        self.next += 1;
        let st = &mut self.stats;
        st.cycles += 1;
        tr.span("bench.failover_cycle", 0, |p| {
            let mut c = self.base.clone();
            let t0 = tr.now_ns();
            let outcome = tr.span("routing.fail_link", p, |_| c.fail_link(a, b));
            let t1 = tr.now_ns();
            let refused = outcome.is_err();
            if !refused {
                let generation = tr.span("routing.apply", p, |_| c.apply(BackendKind::Atomic));
                let t2 = tr.now_ns();
                tr.span("admission.reconfigure", p, |_| ctrl.reconfigure(generation));
                let t3 = tr.now_ns();
                let ms = (t3 - t0) as f64 * 1e-6;
                st.reconfig_ms.push(ms);
                st.per_link_ms.entry((a.0, b.0)).or_default().push(ms);
                st.fail_link_ms.push((t1 - t0) as f64 * 1e-6);
                st.apply_ms.push((t2 - t1) as f64 * 1e-6);
                st.reconfigure_us.push((t3 - t2) as f64 * 1e-3);
                st.audits += 1;
                st.audit_violations += audit(ctrl);
                // Restore the link: the base configuration goes live again.
                let restored =
                    tr.span("routing.apply", p, |_| self.base.apply(BackendKind::Atomic));
                tr.span("admission.reconfigure", p, |_| ctrl.reconfigure(restored));
            } else {
                st.refused += 1;
            }
            if let Some(&before) = st.verdicts.get(&(a.0, b.0)) {
                st.inconsistent += (before != refused) as u64;
            }
            st.verdicts.insert((a.0, b.0), refused);
            let t4 = tr.now_ns();
            let drained = tr.span("admission.drain", p, |_| ctrl.drain());
            st.drain_us.push((tr.now_ns() - t4) as f64 * 1e-3);
            st.retired_pinned.push(drained.pinned_flows() as f64);
        });
    }

    /// Back-to-back cycles for `secs`.
    pub fn run_for(&mut self, ctrl: &AdmissionController, secs: f64, tr: &Tracer) {
        let until = tr.now_ns() + (secs * 1e9) as u64;
        while tr.now_ns() < until {
            self.cycle(ctrl, tr);
        }
    }

    /// Fails the links the run has not reached yet, so every link has a
    /// verdict and, if accepted, a time.
    pub fn finish_first_pass(&mut self, ctrl: &AdmissionController, tr: &Tracer) {
        while self.next < self.links.len() {
            self.cycle(ctrl, tr);
        }
    }

    pub fn record_to(&self, ledger: &mut Ledger) {
        let st = &self.stats;
        ledger.check(
            "failover: verdict changed for a link",
            st.cycles,
            st.inconsistent,
        );
        ledger.check("failover: budget audit", st.audits, st.audit_violations);
    }
}

/// Packet-level validation of a flow set: burst-synchronised greedy VoIP
/// sources over `HORIZON_S`; returns the wall seconds and the report.
pub fn validate(flows: &[(NodeId, Vec<u32>)], setup: &Setup, tr: &Tracer) -> (f64, SimReport) {
    tr.span("bench.validate", 0, |p| {
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|(src, route)| FlowSpec {
                class: 0,
                ingress: src.0,
                route: route.clone(),
                source: SourceModel::voip_greedy(0.0),
            })
            .collect();
        let cfg = SimConfig::new(HORIZON_S, vec![setup.class.deadline]);
        let t0 = tr.now_ns();
        let report = tr.span("sim.simulate", p, |_| simulate(&setup.caps, &specs, &cfg));
        ((tr.now_ns() - t0) as f64 * 1e-9, report)
    })
}

/// The analytic bound the validation compares against: the worst
/// configured route delay.
pub fn analytic_bound(config: &Configuration) -> f64 {
    config.route_delays().iter().cloned().fold(0.0, f64::max)
}

/// The rate bisection: double (or halve) from `RATE` until
/// one trial passes and one fails, then split the bracket geometrically.
/// One trial runs per call to [`Bisect::trial`], so the trials can be
/// spread over the run.
pub struct Bisect {
    lo: f64,
    hi: f64,
    /// `(offered rate, passed, sojourn p50 ns, lateness growth ns)`.
    pub trials: Vec<(f64, bool, f64, f64)>,
}

impl Default for Bisect {
    fn default() -> Self {
        Self {
            lo: 0.0,
            hi: f64::INFINITY,
            trials: Vec::new(),
        }
    }
}

impl Bisect {
    fn next_rate(&self) -> f64 {
        match (self.lo > 0.0, self.hi.is_finite()) {
            (true, true) => (self.lo * self.hi).sqrt(),
            (true, false) => (self.lo * 2.0).min(RATE * 64.0),
            (false, true) => (self.hi / 2.0).max(RATE / 64.0),
            (false, false) => RATE,
        }
    }

    /// Highest rate that passed (0 if none did).
    pub fn max_rate(&self) -> f64 {
        self.lo
    }

    /// `(highest passed, lowest failed)` rate so far.
    pub fn bracket(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Runs one open-loop trial of `secs` at the next rate on the
    /// workers' flows; passes if the sojourn p50 is within 5 µs and the
    /// generator's median lateness grew by at most 1 µs. A failed rate is
    /// tried once more, so one stall of the machine does not decide it.
    pub fn trial(
        &mut self,
        workers: &mut [Worker],
        ctrl: &AdmissionController,
        pairs: &[Pair],
        secs: f64,
        tr: &Tracer,
    ) -> TrafficStats {
        let rate = self.next_rate();
        let mut all = TrafficStats::default();
        let mut pass = false;
        for _ in 0..2 {
            let st = run_workers(
                workers,
                ctrl,
                pairs,
                window_from_now(tr, rate, secs, 0.0),
                tr,
            );
            let sojourn = st.sojourn.quantile(0.5);
            let growth = st.late_last.quantile(0.5) - st.late_first.quantile(0.5);
            pass = !st.cut && sojourn <= SOJOURN_LIMIT_NS && growth <= LATE_GROWTH_LIMIT_NS;
            self.trials.push((rate, pass, sojourn, growth));
            all.merge(st);
            if pass {
                break;
            }
        }
        if pass {
            self.lo = self.lo.max(rate);
        } else {
            self.hi = self.hi.min(rate);
        }
        all
    }
}

/// Drops every flow and checks the controller is empty: no retired
/// generation still pinned, no reservation left in the live one.
pub fn teardown(ctrl: &AdmissionController, ledger: &mut Ledger) {
    let drained = ctrl.drain();
    ledger.check(
        "teardown: retired generations still pinned",
        1,
        !drained.is_drained() as u64,
    );
    let g = ctrl.current_generation();
    let b = g.backend();
    let cells = (b.servers() * b.classes()) as u64;
    let leaked = (0..b.servers())
        .flat_map(|s| (0..b.classes()).map(move |c| (s, c)))
        .filter(|&(s, c)| b.snapshot(s, c) != 0.0)
        .count() as u64;
    ledger.check(
        "teardown: reservations left after all flows ended",
        cells,
        leaked,
    );
    ledger.check(
        "teardown: live generation still pinned",
        1,
        (g.pinned() != 0) as u64,
    );
}
