//! The discrete-event engine.
//!
//! Stations = real link servers plus one virtual access shaper per
//! (ingress router, first server) pair. Each station is a non-preemptive
//! class-based static-priority queue (FIFO within a class) — the paper's
//! packet forwarding module. Events are processed in (time, sequence)
//! order, so runs are bit-for-bit deterministic.

use crate::metrics::SimMetrics;
use crate::report::{SimReport, StatsAccumulator};
use crate::sched::{Discipline, SchedJob, Scheduler};
use crate::source::SourceModel;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One flow to simulate.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Class index (0 = highest priority).
    pub class: usize,
    /// Ingress router id — flows sharing (ingress, first server) share an
    /// access shaper.
    pub ingress: u32,
    /// Real link servers traversed, in order.
    pub route: Vec<u32>,
    /// Emission model.
    pub source: SourceModel,
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Sources emit packets up to this time (seconds); the run then
    /// drains until every packet is delivered.
    pub horizon: f64,
    /// Per-class deadlines, for miss counting.
    pub deadlines: Vec<f64>,
    /// Optional per-class ingress policers `(burst bits, rate bits/s)`:
    /// non-conforming packets are dropped at the network entrance, as the
    /// paper's edge routers do. `None` disables policing (sources are
    /// then trusted to conform).
    pub policers: Option<Vec<(f64, f64)>>,
}

impl SimConfig {
    /// Config with the given horizon and deadlines, no policing.
    pub fn new(horizon: f64, deadlines: Vec<f64>) -> Self {
        Self {
            horizon,
            deadlines,
            policers: None,
        }
    }
}

/// A mid-run routing reconfiguration for
/// [`simulate_reconfigured`]: at sim time `at` the listed flows switch
/// to their new routes. Packets already inside the network finish on the
/// route they entered with (exactly the live-swap semantics of
/// `AdmissionController::reconfigure`: in-flight work drains against the
/// old configuration while new arrivals see the new one).
#[derive(Clone, Debug)]
pub struct Reconfiguration {
    /// Sim time (seconds) at which the swap takes effect.
    pub at: f64,
    /// `(flow index, new route)` — flows not listed keep their route.
    pub reroutes: Vec<(usize, Vec<u32>)>,
}

const NS: f64 = 1e9;

/// Cumulative progress of a running simulation, handed to the observer
/// of [`simulate_observed`] / [`simulate_reconfigured_observed`] at
/// each observation interval and once more at the end of the run.
///
/// By the time the observer runs, the engine has already published the
/// covered packet/miss deltas into the global `sim.packets` /
/// `sim.deadline_misses` counters, so an observer that snapshots the
/// registry (e.g. to feed [`uba_obs::SloEngine`]) sees the window it is
/// being told about.
#[derive(Clone, Copy, Debug)]
pub struct SimProgress {
    /// Sim time of the observation, seconds.
    pub t: f64,
    /// Packets delivered end to end so far.
    pub packets: u64,
    /// Deadline misses so far.
    pub misses: u64,
    /// True exactly once, on the final end-of-run observation.
    pub done: bool,
}

/// A packet in flight. Its route is the slice `hops[pos..end]` of the
/// run's flat route table, so advancing a hop touches no per-flow state.
#[derive(Clone, Copy, Debug)]
struct Job {
    /// Measurement start (ns): arrival at the first real server.
    t0: u64,
    flow: u32,
    class: u32,
    /// Index into `hops` of the station the packet is at.
    pos: u32,
    /// One past the index of its last station.
    end: u32,
}

/// A pending transmission completion, `(t, seq, station)`: the payload
/// rides inline, and since seqs are unique the order is `(t, seq)`.
type Completion = (u64, u64, u32);

/// The pending completions, popped in `(t, seq)` order. Seqs only grow,
/// so a completion due no earlier than the last one queued extends a
/// sorted run, kept in a FIFO; only one due earlier goes to the heap.
/// When every packet on a link has the same transmission time — the
/// validation workloads — the heap stays empty.
#[derive(Default)]
struct Completions {
    run: VecDeque<Completion>,
    heap: BinaryHeap<Reverse<Completion>>,
}

impl Completions {
    fn push(&mut self, c: Completion) {
        match self.run.back() {
            Some(last) if c.0 < last.0 => self.heap.push(Reverse(c)),
            _ => self.run.push_back(c),
        }
    }

    /// The earliest pending completion, and whether it heads the run.
    fn peek(&self) -> Option<(Completion, bool)> {
        match (self.run.front(), self.heap.peek()) {
            (Some(&r), Some(&Reverse(h))) if h < r => Some((h, false)),
            (Some(&r), _) => Some((r, true)),
            (None, h) => h.map(|&Reverse(h)| (h, false)),
        }
    }

    fn pop(&mut self) -> Option<Completion> {
        match self.peek()? {
            (_, true) => self.run.pop_front(),
            (_, false) => self.heap.pop().map(|Reverse(c)| c),
        }
    }
}

/// A packet handed from one station to the next, arriving at the
/// instant its previous transmission completed.
struct Handoff {
    seq: u64,
    job: Job,
    bits: u64,
}

/// A conforming source emission, in the run's one sorted emission stream.
#[derive(Clone, Copy)]
struct Emission {
    t: u64,
    seq: u64,
    flow: u32,
}

/// What an emission needs to know about its flow, flattened out of
/// [`FlowSpec`]; `start..end` is the flow's route (shaper first) in the
/// flat route table.
#[derive(Clone, Copy)]
struct FlowRow {
    bits: u64,
    class: u32,
    start: u32,
    end: u32,
}

struct Station {
    capacity: f64,
    sched: Scheduler<Job>,
    current: Option<SchedJob<Job>>,
    backlog: usize,
}

impl Station {
    fn new(capacity: f64, classes: usize, discipline: &Discipline) -> Self {
        Self {
            capacity,
            sched: Scheduler::new(discipline.clone(), classes),
            current: None,
            backlog: 0,
        }
    }
}

/// Tally of station backlogs at each enqueue, indexed by depth, so the
/// event loop writes no shared atomics. Flushed into the
/// `sim.queue_depth` histogram with one `record_n` per depth.
#[derive(Default)]
struct DepthTally(Vec<u64>);

impl DepthTally {
    fn record(&mut self, depth: usize) {
        if depth >= self.0.len() {
            self.0.resize(depth + 1, 0);
        }
        self.0[depth] += 1;
    }

    fn flush(&mut self, hist: &uba_obs::Histogram) {
        for (depth, n) in self.0.iter_mut().enumerate() {
            hist.record_n(depth as f64, std::mem::take(n));
        }
    }
}

/// Runs the simulation under the paper's class-based static-priority
/// forwarding. See [`simulate_with`] to choose another discipline.
///
/// `capacities[k]` is the capacity of real link server `k`; flows' routes
/// index into it. Every flow must have a non-empty route.
pub fn simulate(capacities: &[f64], flows: &[FlowSpec], cfg: &SimConfig) -> SimReport {
    simulate_with(capacities, flows, cfg, &Discipline::StaticPriority)
}

/// Runs the simulation under an arbitrary scheduling discipline.
pub fn simulate_with(
    capacities: &[f64],
    flows: &[FlowSpec],
    cfg: &SimConfig,
    discipline: &Discipline,
) -> SimReport {
    run(
        capacities,
        flows,
        cfg,
        discipline,
        None,
        None,
        crate::metrics::sim(),
    )
}

/// Like [`simulate_with`], but invokes `observer` every `every` sim
/// seconds (measured on packet deliveries) and once at the end of the
/// run, with cumulative delivery/miss tallies.
///
/// Observed runs also publish `sim.packets` / `sim.deadline_misses`
/// *incrementally* — the delta covered by each observation is added
/// just before the observer runs, with the remainder published at the
/// end — so windowed consumers ([`uba_obs::Snapshot::delta_since`],
/// the SLO engine) see deadline misses as they happen instead of one
/// end-of-run burst. Lifetime totals are unchanged. Observation points
/// are derived from deterministic sim time, so runs stay bit-for-bit
/// reproducible.
pub fn simulate_observed(
    capacities: &[f64],
    flows: &[FlowSpec],
    cfg: &SimConfig,
    discipline: &Discipline,
    every: f64,
    observer: &mut dyn FnMut(SimProgress),
) -> SimReport {
    assert!(
        every > 0.0 && every.is_finite(),
        "observation interval must be positive"
    );
    run(
        capacities,
        flows,
        cfg,
        discipline,
        None,
        Some((every, observer)),
        crate::metrics::sim(),
    )
}

fn check_reconfiguration(capacities: &[f64], flows: &[FlowSpec], reconfig: &Reconfiguration) {
    assert!(
        reconfig.at.is_finite() && reconfig.at >= 0.0,
        "reconfiguration time must be finite and non-negative"
    );
    for (fi, route) in &reconfig.reroutes {
        assert!(*fi < flows.len(), "reroute flow index out of range");
        assert!(!route.is_empty(), "reroute must be non-empty");
        for &k in route {
            assert!(
                (k as usize) < capacities.len(),
                "reroute server out of range"
            );
        }
    }
}

/// Runs the simulation with a mid-run routing reconfiguration.
///
/// Until `reconfig.at` the run is identical to [`simulate_with`]; from
/// then on, packets entering the network from a rerouted flow follow the
/// flow's new route, while packets already in flight drain along the old
/// one. Emissions at exactly `reconfig.at` still use the old routes (the
/// swap is processed after same-instant arrivals), keeping runs
/// bit-for-bit deterministic. A `ReconfigApplied` trace event marks the
/// swap (`a` = swap time in seconds, `b` = number of rerouted flows).
pub fn simulate_reconfigured(
    capacities: &[f64],
    flows: &[FlowSpec],
    cfg: &SimConfig,
    discipline: &Discipline,
    reconfig: &Reconfiguration,
) -> SimReport {
    check_reconfiguration(capacities, flows, reconfig);
    run(
        capacities,
        flows,
        cfg,
        discipline,
        Some(reconfig),
        None,
        crate::metrics::sim(),
    )
}

/// [`simulate_reconfigured`] with the observation/incremental-publish
/// behavior of [`simulate_observed`] — the combination that lets an SLO
/// engine watch deadline-miss behavior change across a mid-run route
/// swap (see the `slo_sees_misses_across_a_route_swap` test).
pub fn simulate_reconfigured_observed(
    capacities: &[f64],
    flows: &[FlowSpec],
    cfg: &SimConfig,
    discipline: &Discipline,
    reconfig: &Reconfiguration,
    every: f64,
    observer: &mut dyn FnMut(SimProgress),
) -> SimReport {
    assert!(
        every > 0.0 && every.is_finite(),
        "observation interval must be positive"
    );
    check_reconfiguration(capacities, flows, reconfig);
    run(
        capacities,
        flows,
        cfg,
        discipline,
        Some(reconfig),
        Some((every, observer)),
        crate::metrics::sim(),
    )
}

/// The event loop. Events are processed in `(time, seq)` order, with
/// sequence numbers assigned as if every event went through one heap:
/// conforming emissions get `1..=E` in (flow, emission) order, the swap
/// `E + 1`, and events created during the run follow in creation order.
/// No heap holds them all; four sources are merged instead:
///
/// 1. emissions, in one array sorted by `(time, seq)`;
/// 2. the swap;
/// 3. transmission completions (see [`Completions`]);
/// 4. hand-offs — a packet arriving at its next station at the instant
///    its last transmission completed — in a FIFO.
///
/// At equal times this source order is seq order. Emissions and the
/// swap carry the lowest seqs. A completion is always scheduled for a
/// later instant than the one that creates it, so every completion due
/// at `t` was created before `t`, while a hand-off due at `t` is created
/// at `t`: completions go first. Hand-offs are created, and so queued,
/// in seq order, and all of them are due at the current instant.
fn run(
    capacities: &[f64],
    flows: &[FlowSpec],
    cfg: &SimConfig,
    discipline: &Discipline,
    reconfig: Option<&Reconfiguration>,
    observe: Option<(f64, &mut dyn FnMut(SimProgress))>,
    metrics: &SimMetrics,
) -> SimReport {
    let t_run = uba_obs::Stopwatch::start();
    let classes = cfg.deadlines.len();
    assert!(classes > 0, "need at least one class deadline");
    for f in flows {
        assert!(!f.route.is_empty(), "flow route must be non-empty");
        assert!(f.class < classes, "flow class out of range");
        for &k in &f.route {
            assert!((k as usize) < capacities.len(), "route server out of range");
        }
    }

    // Stations: real servers first, then one access shaper per
    // (ingress, first server) pair, created on first use. `hops` is the
    // flat route table: each sim-route is a shaper followed by the real
    // route, and `add_route` appends one and returns its extent.
    let mut stations: Vec<Station> = capacities
        .iter()
        .map(|&c| Station::new(c, classes, discipline))
        .collect();
    let mut shaper_of: HashMap<(u32, u32), u32> = HashMap::new();
    let mut hops: Vec<u32> = Vec::with_capacity(flows.iter().map(|f| f.route.len() + 1).sum());
    let mut add_route = |ingress: u32, route: &[u32]| {
        let shaper = *shaper_of.entry((ingress, route[0])).or_insert_with(|| {
            let id = stations.len() as u32;
            let cap = capacities[route[0] as usize];
            stations.push(Station::new(cap, classes, discipline));
            id
        });
        let start = hops.len() as u32;
        hops.push(shaper);
        hops.extend_from_slice(route);
        assert!(
            hops.len() <= u32::MAX as usize,
            "route table exceeds u32 offsets"
        );
        (start, hops.len() as u32)
    };
    let rows: Vec<FlowRow> = flows
        .iter()
        .map(|f| {
            let (start, end) = add_route(f.ingress, &f.route);
            FlowRow {
                bits: f.source.packet_bits(),
                class: f.class as u32,
                start,
                end,
            }
        })
        .collect();
    // Post-swap routes: identical except for rerouted flows, which get
    // (creating if needed) the shaper for their new first server.
    let rows_after: Option<Vec<FlowRow>> = reconfig.map(|rc| {
        let mut after = rows.clone();
        for (fi, new_route) in &rc.reroutes {
            (after[*fi].start, after[*fi].end) = add_route(flows[*fi].ingress, new_route);
        }
        after
    });

    // Source emissions, through the per-flow ingress policer when
    // configured: a token bucket that silently drops non-conforming
    // packets (edge-router policing, Section 3).
    let mut policed_drops = vec![0u64; classes];
    let mut emissions: Vec<Emission> = Vec::new();
    let mut seq: u64 = 0;
    for (fi, f) in flows.iter().enumerate() {
        let bits = f.source.packet_bits() as f64;
        let mut tokens;
        let mut last_t = 0.0f64;
        let policer = cfg.policers.as_ref().map(|p| p[f.class]);
        tokens = policer.map(|(burst, _)| burst).unwrap_or(0.0);
        for t in f.source.emissions(cfg.horizon) {
            if let Some((burst, rate)) = policer {
                tokens = (tokens + rate * (t - last_t)).min(burst);
                last_t = t;
                if tokens + 1e-9 < bits {
                    policed_drops[f.class] += 1;
                    continue;
                }
                tokens -= bits;
            }
            seq += 1;
            emissions.push(Emission {
                t: (t * NS).round() as u64,
                seq,
                flow: fi as u32,
            });
        }
    }
    emissions.sort_unstable_by_key(|e| (e.t, e.seq));

    // The swap takes the next sequence number after every emission:
    // arrivals at exactly `at` sort before it and still use the old
    // routes.
    let mut swap = reconfig.map(|rc| {
        seq += 1;
        ((rc.at * NS).round() as u64, rc)
    });
    let mut completions = Completions::default();
    let mut handoffs: VecDeque<Handoff> = VecDeque::new();

    let mut acc: Vec<StatsAccumulator> = vec![StatsAccumulator::default(); classes];
    let mut histograms = vec![crate::report::DelayHistogram::default(); classes];
    let mut depths = DepthTally::default();
    let mut total_packets = 0u64;
    let mut total_misses = 0u64;
    let mut events = 0u64;
    let mut peak_backlog = 0usize;
    let tracer = uba_obs::trace::global();
    let mut reconfigured = false;
    // Observation state: next sim-time mark, and how much of the
    // packet/miss tallies has already been published incrementally.
    let mut observe = observe;
    let mut next_obs = observe.as_ref().map(|&(every, _)| every);
    let mut published_packets = 0u64;
    let mut published_misses = 0u64;
    let mut last_t = 0u64;
    let mut next_emission = emissions.iter().peekable();

    loop {
        // The four sources, each in `(t, seq)` order, merged by time;
        // at equal times the source order below is seq order (see
        // `run`'s docs). Pending hand-offs are due now.
        let due = [
            next_emission.peek().map(|e| e.t),
            swap.map(|(t, _)| t),
            completions.peek().map(|((t, ..), _)| t),
            (!handoffs.is_empty()).then_some(last_t),
        ];
        let Some((t, source)) = due
            .into_iter()
            .zip(0u8..)
            .filter_map(|(t, source)| Some((t?, source)))
            .min()
        else {
            break;
        };
        events += 1;
        last_t = t;
        // The packet that arrives at a station, with the seq that stamps it.
        let (s, job, bits) = match source {
            0 => {
                let e = next_emission.next().expect("peeked emission");
                // Entering the network: the packet commits to the routes
                // in force right now and keeps them for life.
                let row = match (&rows_after, reconfigured) {
                    (Some(after), true) => after[e.flow as usize],
                    _ => rows[e.flow as usize],
                };
                let job = Job {
                    t0: e.t,
                    flow: e.flow,
                    class: row.class,
                    pos: row.start,
                    end: row.end,
                };
                (e.seq, job, row.bits)
            }
            1 => {
                let (_, rc) = swap.take().expect("swap was due");
                reconfigured = true;
                tracer.emit(
                    uba_obs::EventKind::ReconfigApplied,
                    0,
                    0,
                    u32::MAX,
                    rc.at,
                    rc.reroutes.len() as f64,
                );
                continue;
            }
            2 => {
                let (.., station) = completions.pop().expect("peeked completion");
                let st_id = station as usize;
                let done = {
                    let st = &mut stations[st_id];
                    st.backlog -= 1;
                    st.current.take().expect("completion without job")
                };
                let mut job = done.payload;
                if st_id >= capacities.len() {
                    // Leaving the access shaper: the guarantee clock
                    // starts now.
                    job.t0 = t;
                }
                if job.pos + 1 < job.end {
                    job.pos += 1;
                    seq += 1;
                    handoffs.push_back(Handoff {
                        seq,
                        job,
                        bits: done.bits,
                    });
                } else {
                    let class = job.class as usize;
                    let delay = (t - job.t0) as f64 / NS;
                    let deadline = cfg.deadlines[class];
                    if delay > deadline {
                        total_misses += 1;
                        tracer.emit(
                            uba_obs::EventKind::DeadlineMiss,
                            class,
                            job.flow as u64,
                            st_id as u32,
                            delay,
                            deadline,
                        );
                    }
                    acc[class].record(delay, deadline);
                    histograms[class].record(delay);
                    total_packets += 1;
                    if let (Some((every, obs)), Some(mark)) = (observe.as_mut(), next_obs.as_mut())
                    {
                        let t_secs = t as f64 / NS;
                        if t_secs >= *mark {
                            while *mark <= t_secs {
                                *mark += *every;
                            }
                            // Publish the covered delta before the
                            // observer runs, so a registry snapshot
                            // taken inside it reflects this window.
                            metrics.packets.add(total_packets - published_packets);
                            metrics.deadline_misses.add(total_misses - published_misses);
                            depths.flush(&metrics.queue_depth);
                            published_packets = total_packets;
                            published_misses = total_misses;
                            obs(SimProgress {
                                t: t_secs,
                                packets: total_packets,
                                misses: total_misses,
                                done: false,
                            });
                        }
                    }
                }
                // Start the next queued packet, if any.
                let st = &mut stations[st_id];
                if let Some(next) = st.sched.dequeue() {
                    let dur = (next.bits as f64 / st.capacity * NS).round() as u64;
                    st.current = Some(next);
                    seq += 1;
                    completions.push((t + dur.max(1), seq, station));
                }
                continue;
            }
            _ => {
                let h = handoffs.pop_front().expect("hand-off was due");
                (h.seq, h.job, h.bits)
            }
        };

        // An arrival: enqueue `job` at its current station.
        let st_id = hops[job.pos as usize];
        let st = &mut stations[st_id as usize];
        st.sched.enqueue(
            job.class as usize,
            SchedJob {
                payload: job,
                bits,
                seq: s,
            },
            t as f64 / NS,
        );
        st.backlog += 1;
        if st.backlog > peak_backlog {
            peak_backlog = st.backlog;
            tracer.emit(
                uba_obs::EventKind::QueueHighWater,
                job.class as usize,
                job.flow as u64,
                st_id,
                peak_backlog as f64,
                t as f64 / NS,
            );
        }
        depths.record(st.backlog);
        if st.current.is_none() {
            let next = st.sched.dequeue().unwrap();
            let dur = (next.bits as f64 / st.capacity * NS).round() as u64;
            st.current = Some(next);
            seq += 1;
            completions.push((t + dur.max(1), seq, st_id));
        }
    }

    let report = SimReport {
        classes: acc
            .iter()
            .zip(&policed_drops)
            .map(|(a, &d)| a.finish_with_drops(d))
            .collect(),
        histograms,
        total_packets,
        events,
        peak_backlog,
    };
    let elapsed = t_run.elapsed_secs();
    depths.flush(&metrics.queue_depth);
    metrics.runs.inc();
    metrics.events.add(events);
    // Observed runs published most of these deltas mid-run; only the
    // remainder lands here, so lifetime totals match unobserved runs.
    metrics.packets.add(total_packets - published_packets);
    metrics.deadline_misses.add(total_misses - published_misses);
    metrics.policed_drops.add(policed_drops.iter().sum());
    metrics.run_seconds.record(elapsed);
    if elapsed > 0.0 {
        metrics.events_per_sec.set(events as f64 / elapsed);
    }
    metrics.peak_backlog.set(peak_backlog as f64);
    if let Some((_, obs)) = observe.as_mut() {
        obs(SimProgress {
            t: last_t as f64 / NS,
            packets: total_packets,
            misses: total_misses,
            done: true,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 1e6; // 1 Mb/s links for visible delays

    fn cfg(classes: usize) -> SimConfig {
        SimConfig {
            horizon: 0.2,
            deadlines: vec![0.1; classes],
            policers: None,
        }
    }

    #[test]
    fn single_flow_single_hop_transmission_only() {
        // One CBR flow over one server: per-packet delay = one
        // transmission time (the shaper hands packets over serially).
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let r = simulate(&[C], &flows, &cfg(1));
        assert!(r.total_packets > 0);
        let tx = 640.0 / C;
        assert!(
            (r.classes[0].max_delay - tx).abs() < 2e-9,
            "max {} vs tx {tx}",
            r.classes[0].max_delay
        );
        assert_eq!(r.total_misses(), 0);
    }

    #[test]
    fn two_greedy_flows_collide_at_merge() {
        // Flows from different ingresses merge on server 0: the second
        // packet waits one transmission.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let r = simulate(&[C], &flows, &cfg(1));
        let tx = 640.0 / C;
        assert!(r.classes[0].max_delay >= 1.9 * tx);
        assert!(r.classes[0].max_delay <= 2.1 * tx);
    }

    #[test]
    fn same_ingress_flows_are_shaped() {
        // Same ingress, same first server: the shaper serializes them, so
        // the real server never queues; per-packet delay stays one tx.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 7,
                route: vec![0],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 7,
                route: vec![0],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let r = simulate(&[C], &flows, &cfg(1));
        let tx = 640.0 / C;
        assert!(
            r.classes[0].max_delay <= tx + 2e-9,
            "max {} vs tx {tx}",
            r.classes[0].max_delay
        );
    }

    #[test]
    fn high_priority_unaffected_by_low() {
        // A saturating low-priority flow shares the link with one
        // high-priority CBR flow; the high class sees at most one
        // packet of non-preemption blocking per hop.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.001),
            },
            FlowSpec {
                class: 1,
                ingress: 1,
                route: vec![0],
                source: SourceModel::GreedyOnOff {
                    burst_bits: 64_000.0,
                    rate_bps: 0.9 * C,
                    packet_bits: 8000,
                    start: 0.0,
                },
            },
        ];
        let r = simulate(&[C], &flows, &cfg(2));
        let blocking = 8000.0 / C; // one low-priority packet
        let tx = 640.0 / C;
        assert!(
            r.classes[0].max_delay <= blocking + tx + 1e-9,
            "high-priority delay {} exceeds non-preemption bound",
            r.classes[0].max_delay
        );
        // The low class, by contrast, queues heavily.
        assert!(r.classes[1].max_delay > r.classes[0].max_delay);
    }

    #[test]
    fn fifo_within_class() {
        // Two same-class CBR flows, phase-shifted; delivery order at the
        // sink must follow arrival order => delays stay bounded by one
        // extra transmission.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0],
                source: SourceModel::voip_cbr(0.01),
            },
        ];
        let r = simulate(&[C], &flows, &cfg(1));
        let tx = 640.0 / C;
        assert!(r.classes[0].max_delay <= tx + 1e-9);
    }

    #[test]
    fn multi_hop_route_accumulates_transmissions() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0, 1, 2],
            source: SourceModel::voip_cbr(0.0),
        }];
        let r = simulate(&[C, C, C], &flows, &cfg(1));
        let tx = 640.0 / C;
        assert!((r.classes[0].max_delay - 3.0 * tx).abs() < 3e-9);
    }

    #[test]
    fn deterministic_runs() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let a = simulate(&[C, C], &flows, &cfg(1));
        let b = simulate(&[C, C], &flows, &cfg(1));
        assert_eq!(a.total_packets, b.total_packets);
        assert_eq!(a.classes[0].max_delay, b.classes[0].max_delay);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn deadline_misses_counted() {
        // Deadline of ~0: every packet misses.
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let cfg = SimConfig {
            horizon: 0.1,
            deadlines: vec![1e-12],
            policers: None,
        };
        let r = simulate(&[C], &flows, &cfg);
        assert_eq!(r.total_misses(), r.total_packets);
        assert!(r.total_packets > 0);
    }

    #[test]
    fn fifo_lets_low_priority_hurt_high() {
        // Two bulk ingresses merge on server 0 (joint arrival rate up to
        // 2C), so a real backlog builds; under FIFO the voice packets
        // wait inside it, under priority they jump it.
        let mut flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.001),
        }];
        for ingress in [1, 2] {
            flows.push(FlowSpec {
                class: 1,
                ingress,
                route: vec![0],
                source: SourceModel::GreedyOnOff {
                    burst_bits: 64_000.0,
                    rate_bps: 0.45 * C,
                    packet_bits: 8000,
                    start: 0.0,
                },
            });
        }
        let pri = simulate(&[C], &flows, &cfg(2));
        let fifo = simulate_with(&[C], &flows, &cfg(2), &Discipline::Fifo);
        assert!(
            fifo.classes[0].max_delay > 3.0 * pri.classes[0].max_delay,
            "FIFO {} vs priority {}",
            fifo.classes[0].max_delay,
            pri.classes[0].max_delay
        );
    }

    #[test]
    fn wfq_isolates_better_than_fifo() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.001),
            },
            FlowSpec {
                class: 1,
                ingress: 1,
                route: vec![0],
                source: SourceModel::GreedyOnOff {
                    burst_bits: 64_000.0,
                    rate_bps: 0.9 * C,
                    packet_bits: 8000,
                    start: 0.0,
                },
            },
        ];
        let fifo = simulate_with(&[C], &flows, &cfg(2), &Discipline::Fifo);
        let wfq = simulate_with(
            &[C],
            &flows,
            &cfg(2),
            &Discipline::Wfq {
                weights: vec![1.0, 1.0],
            },
        );
        assert!(wfq.classes[0].max_delay < fifo.classes[0].max_delay);
    }

    #[test]
    fn virtual_clock_bounds_voice_delay() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.001),
            },
            FlowSpec {
                class: 1,
                ingress: 1,
                route: vec![0],
                source: SourceModel::GreedyOnOff {
                    burst_bits: 64_000.0,
                    rate_bps: 0.5 * C,
                    packet_bits: 8000,
                    start: 0.0,
                },
            },
        ];
        let vc = simulate_with(
            &[C],
            &flows,
            &cfg(2),
            &Discipline::VirtualClock {
                rates: vec![0.1 * C, 0.9 * C],
            },
        );
        // Voice is light against its clock; it never waits for more than
        // a couple of bulk packets.
        assert!(vc.classes[0].max_delay <= 3.0 * 8000.0 / C);
        assert_eq!(vc.total_misses(), 0);
    }

    #[test]
    fn all_disciplines_conserve_packets() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 1,
                ingress: 1,
                route: vec![1, 0],
                source: SourceModel::voip_cbr(0.003),
            },
        ];
        let disciplines = [
            Discipline::StaticPriority,
            Discipline::Fifo,
            Discipline::Wfq {
                weights: vec![1.0, 2.0],
            },
            Discipline::VirtualClock {
                rates: vec![0.2 * C, 0.2 * C],
            },
        ];
        let reference = simulate(&[C, C], &flows, &cfg(2)).total_packets;
        for d in disciplines {
            let r = simulate_with(&[C, C], &flows, &cfg(2), &d);
            assert_eq!(r.total_packets, reference, "discipline {d:?}");
        }
    }

    #[test]
    fn policer_passes_conforming_traffic() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let mut c = cfg(1);
        c.policers = Some(vec![(640.0, 32_000.0)]);
        let policed = simulate(&[C], &flows, &c);
        let open = simulate(&[C], &flows, &cfg(1));
        assert_eq!(policed.total_packets, open.total_packets);
        assert_eq!(policed.classes[0].policed_drops, 0);
    }

    #[test]
    fn policer_drops_rogue_excess() {
        // Rogue at 4x the contract: ~3/4 of its packets must be dropped.
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::Rogue {
                period: 0.02,
                packet_bits: 640,
                factor: 4.0,
            },
        }];
        let mut c = cfg(1);
        c.policers = Some(vec![(640.0, 32_000.0)]);
        let r = simulate(&[C], &flows, &c);
        let emitted = flows[0].source.emissions(0.2).len() as u64;
        assert_eq!(r.total_packets + r.classes[0].policed_drops, emitted);
        assert!(
            r.classes[0].policed_drops as f64 >= 0.6 * emitted as f64,
            "only {} of {emitted} dropped",
            r.classes[0].policed_drops
        );
    }

    #[test]
    fn policing_isolates_conforming_flows_from_a_rogue() {
        // A rogue same-class source shares the link with a conforming
        // flow. Without policing the conforming flow's delay explodes;
        // with policing it stays at the two-flow contention level.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0],
                source: SourceModel::voip_cbr(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0],
                source: SourceModel::Rogue {
                    period: 0.02,
                    packet_bits: 640,
                    factor: 40.0, // 1.28 Mb/s > link rate
                },
            },
        ];
        let unpoliced = simulate(&[C], &flows, &cfg(1));
        let mut c = cfg(1);
        c.policers = Some(vec![(640.0, 32_000.0)]);
        let policed = simulate(&[C], &flows, &c);
        assert!(
            policed.classes[0].max_delay * 5.0 < unpoliced.classes[0].max_delay,
            "policed {} vs unpoliced {}",
            policed.classes[0].max_delay,
            unpoliced.classes[0].max_delay
        );
        assert!(policed.classes[0].policed_drops > 0);
    }

    #[test]
    fn runs_record_metrics() {
        // A private registry: other tests' runs record into the global one.
        let m = &SimMetrics::new(&uba_obs::Registry::new());
        let (runs0, events0, packets0, misses0) = (
            m.runs.get(),
            m.events.get(),
            m.packets.get(),
            m.deadline_misses.get(),
        );
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let tight = SimConfig {
            horizon: 0.1,
            deadlines: vec![1e-12],
            policers: None,
        };
        let r = run(
            &[C],
            &flows,
            &tight,
            &Discipline::StaticPriority,
            None,
            None,
            m,
        );
        assert_eq!(m.runs.get() - runs0, 1);
        assert_eq!(m.events.get() - events0, r.events);
        assert_eq!(m.packets.get() - packets0, r.total_packets);
        assert_eq!(m.deadline_misses.get() - misses0, r.total_packets);
        assert!(m.queue_depth.count() > 0);
        assert!(m.peak_backlog.get() >= 1.0);
    }

    #[test]
    fn reconfigure_conserves_packets() {
        // Moving a flow to a fresh link mid-run loses nothing: every
        // emitted packet is still delivered, on one route or the other.
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0],
                source: SourceModel::voip_cbr(0.003),
            },
        ];
        let plain = simulate(&[C, C, C], &flows, &cfg(1));
        let rc = Reconfiguration {
            at: 0.1,
            reroutes: vec![(0, vec![2])],
        };
        let rec = simulate_reconfigured(
            &[C, C, C],
            &flows,
            &cfg(1),
            &Discipline::StaticPriority,
            &rc,
        );
        assert_eq!(rec.total_packets, plain.total_packets);
    }

    #[test]
    fn reconfigure_identity_matches_plain_run() {
        // Swapping a flow onto its own route is a semantic no-op: the
        // report matches the plain run exactly (one extra heap event).
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![1, 0],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let plain = simulate(&[C, C], &flows, &cfg(1));
        let rc = Reconfiguration {
            at: 0.1,
            reroutes: vec![(0, vec![0, 1])],
        };
        let rec = simulate_reconfigured(&[C, C], &flows, &cfg(1), &Discipline::StaticPriority, &rc);
        assert_eq!(rec.total_packets, plain.total_packets);
        assert_eq!(rec.classes[0].max_delay, plain.classes[0].max_delay);
        assert_eq!(rec.total_misses(), plain.total_misses());
        assert_eq!(rec.events, plain.events + 1);
    }

    #[test]
    fn reconfigure_runs_are_deterministic() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let rc = Reconfiguration {
            at: 0.07,
            reroutes: vec![(1, vec![1])],
        };
        let a = simulate_reconfigured(&[C, C], &flows, &cfg(1), &Discipline::StaticPriority, &rc);
        let b = simulate_reconfigured(&[C, C], &flows, &cfg(1), &Discipline::StaticPriority, &rc);
        assert_eq!(a.total_packets, b.total_packets);
        assert_eq!(a.classes[0].max_delay, b.classes[0].max_delay);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn reconfigure_moves_load_off_the_congested_link() {
        // Two bulk ingresses merge on server 0 at a joint rate above C,
        // so a real (post-shaper) queue builds and late packets miss
        // their deadline. Rerouting one flow to an idle link mid-run
        // caps the damage — packets entering after the swap see an
        // empty server, and the old queue drains.
        let bulk = |ingress| FlowSpec {
            class: 0,
            ingress,
            route: vec![0],
            source: SourceModel::GreedyOnOff {
                burst_bits: 64_000.0,
                rate_bps: 0.9 * C,
                packet_bits: 8000,
                start: 0.0,
            },
        };
        let flows = vec![bulk(0), bulk(1)];
        let c = SimConfig {
            horizon: 0.2,
            deadlines: vec![0.02],
            policers: None,
        };
        let plain = simulate(&[C, C], &flows, &c);
        let rc = Reconfiguration {
            at: 0.05,
            reroutes: vec![(1, vec![1])],
        };
        let rec = simulate_reconfigured(&[C, C], &flows, &c, &Discipline::StaticPriority, &rc);
        assert_eq!(rec.total_packets, plain.total_packets);
        assert!(plain.total_misses() > 0);
        assert!(
            rec.total_misses() < plain.total_misses(),
            "reroute {} vs plain {} misses",
            rec.total_misses(),
            plain.total_misses()
        );
    }

    #[test]
    fn observed_run_reports_monotone_progress_and_exact_totals() {
        let m = &SimMetrics::new(&uba_obs::Registry::new());
        let (packets0, misses0) = (m.packets.get(), m.deadline_misses.get());
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let tight = SimConfig {
            horizon: 0.1,
            deadlines: vec![1e-12], // every packet misses
            policers: None,
        };
        let mut seen: Vec<SimProgress> = Vec::new();
        let r = run(
            &[C],
            &flows,
            &tight,
            &Discipline::StaticPriority,
            None,
            Some((0.02, &mut |p| seen.push(p))),
            m,
        );
        assert!(seen.len() >= 3, "only {} observations", seen.len());
        for w in seen.windows(2) {
            assert!(w[1].t >= w[0].t);
            assert!(w[1].packets >= w[0].packets);
            assert!(w[1].misses >= w[0].misses);
        }
        let last = seen.last().unwrap();
        assert!(last.done);
        assert!(!seen[0].done);
        assert_eq!(last.packets, r.total_packets);
        assert_eq!(last.misses, r.total_misses());
        // Mid-run observations saw genuinely partial tallies.
        assert!(seen[0].packets < r.total_packets);
        // Incremental publishing left the lifetime counters exactly
        // where an unobserved run would have.
        assert_eq!(m.packets.get() - packets0, r.total_packets);
        assert_eq!(m.deadline_misses.get() - misses0, r.total_misses());
    }

    #[test]
    fn observed_run_matches_unobserved_report() {
        let flows = vec![
            FlowSpec {
                class: 0,
                ingress: 0,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
            FlowSpec {
                class: 0,
                ingress: 1,
                route: vec![0, 1],
                source: SourceModel::voip_greedy(0.0),
            },
        ];
        let plain = simulate(&[C, C], &flows, &cfg(1));
        let observed = simulate_observed(
            &[C, C],
            &flows,
            &cfg(1),
            &Discipline::StaticPriority,
            0.01,
            &mut |_| {},
        );
        assert_eq!(observed.total_packets, plain.total_packets);
        assert_eq!(observed.events, plain.events);
        assert_eq!(observed.classes[0].max_delay, plain.classes[0].max_delay);
    }

    #[test]
    fn slo_sees_misses_across_a_route_swap() {
        // The end-to-end story of ISSUE 8's tentpole, in miniature: a
        // congested link drives the deadline-miss SLO pending→firing;
        // the mid-run reroute drains the queue, misses stop, and the
        // rule resolves. The observer bridges sim progress into a
        // private registry so the test is immune to other tests'
        // traffic on the global counters, and miss-ratio rules are
        // window-width independent, so this is fully deterministic.
        use uba_obs::{Cmp, Registry, RuleState, SloEngine, SloRule, SloSignal};
        let bulk = |ingress| FlowSpec {
            class: 0,
            ingress,
            route: vec![0],
            source: SourceModel::GreedyOnOff {
                burst_bits: 64_000.0,
                rate_bps: 0.9 * C,
                packet_bits: 8000,
                start: 0.0,
            },
        };
        let flows = vec![bulk(0), bulk(1)];
        let c = SimConfig {
            horizon: 0.4,
            deadlines: vec![0.02],
            policers: None,
        };
        // Both flows move to their own fresh link: server 0 drains its
        // backlog at full rate, and each flow alone at 0.9C is
        // miss-free — so post-drain windows are clean and the rule can
        // actually resolve within the horizon.
        let rc = Reconfiguration {
            at: 0.05,
            reroutes: vec![(0, vec![1]), (1, vec![2])],
        };
        let registry = Registry::new();
        let packets = registry.counter("sim.packets");
        let misses = registry.counter("sim.deadline_misses");
        let rule = SloRule::named(
            "deadline_miss_ratio",
            SloSignal::Ratio {
                numerator: "sim.deadline_misses".into(),
                denominator: "sim.packets".into(),
            },
            Cmp::Above,
            0.01,
            2,
            2,
        );
        let mut engine = SloEngine::new(&registry, vec![rule]);
        engine.evaluate(registry.snapshot()); // anchor
        let mut states: Vec<RuleState> = Vec::new();
        let mut prev = (0u64, 0u64);
        let r = simulate_reconfigured_observed(
            &[C, C, C],
            &flows,
            &c,
            &Discipline::StaticPriority,
            &rc,
            0.01,
            &mut |p| {
                packets.add(p.packets - prev.0);
                misses.add(p.misses - prev.1);
                prev = (p.packets, p.misses);
                engine.evaluate(registry.snapshot());
                states.push(engine.state_of("deadline_miss_ratio").unwrap());
            },
        );
        assert!(r.total_misses() > 0, "the congested phase must miss");
        assert!(
            states.contains(&RuleState::Firing),
            "congestion must fire the rule: {states:?}"
        );
        assert_eq!(
            *states.last().unwrap(),
            RuleState::Ok,
            "post-swap windows must resolve the alert: {states:?}"
        );
        assert_eq!(engine.active_alerts().len(), 0);
        let recent: Vec<_> = engine.recent_alerts().collect();
        assert_eq!(recent.len(), 1, "exactly one fire→resolve cycle");
        assert!(recent[0].resolved_at.is_some());
    }

    #[test]
    #[should_panic(expected = "flow index out of range")]
    fn reconfigure_rejects_bad_flow_index() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let rc = Reconfiguration {
            at: 0.1,
            reroutes: vec![(3, vec![0])],
        };
        simulate_reconfigured(&[C], &flows, &cfg(1), &Discipline::StaticPriority, &rc);
    }

    #[test]
    #[should_panic(expected = "server out of range")]
    fn reconfigure_rejects_bad_server() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![0],
            source: SourceModel::voip_cbr(0.0),
        }];
        let rc = Reconfiguration {
            at: 0.1,
            reroutes: vec![(0, vec![9])],
        };
        simulate_reconfigured(&[C], &flows, &cfg(1), &Discipline::StaticPriority, &rc);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_route_rejected() {
        let flows = vec![FlowSpec {
            class: 0,
            ingress: 0,
            route: vec![],
            source: SourceModel::voip_cbr(0.0),
        }];
        simulate(&[C], &flows, &cfg(1));
    }
}
