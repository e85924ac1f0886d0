//! Golden equivalence test for the event engine.
//!
//! Seeded randomized networks go through every public entry point —
//! `simulate_with` under all four disciplines with and without ingress
//! policers, `simulate_reconfigured`, and `simulate_observed` at two
//! observation intervals — and every `SimReport` field is compared with
//! a pinned constant: per-class packet/miss/drop counts, delays as
//! `f64::to_bits`, the delay-histogram buckets, total packets, events
//! and peak backlog, plus the observer's `SimProgress` sequence. The
//! constants were recorded from the engine that processed events through
//! a payload map beside a `(time, seq)` heap; any rewrite of the event
//! core must reproduce them bit for bit.
//!
//! The cases are built to hit the engine's tie-breaks: emission times
//! sit on a 1 ms grid, so many events share an instant and their order
//! rests on the sequence numbers alone, and one swap lands exactly on
//! an emission instant.
//!
//! To re-record after an intended behavior change:
//! `cargo test -p uba-sim --test engine_golden -- --ignored --nocapture`
//! prints the tables in the form used below.

use uba_sim::{
    simulate_observed, simulate_reconfigured, simulate_with, Discipline, FlowSpec, Reconfiguration,
    SimConfig, SimProgress, SimReport, SourceModel,
};

/// splitmix64: a dependency-free, seedable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn route(&mut self, servers: usize) -> Vec<u32> {
        let mut pool: Vec<u32> = (0..servers as u32).collect();
        let len = 1 + self.below(3) as usize;
        (0..len)
            .map(|_| pool.swap_remove(self.below(pool.len() as u64) as usize))
            .collect()
    }
}

struct Net {
    caps: Vec<f64>,
    flows: Vec<FlowSpec>,
    cfg: SimConfig,
}

const HORIZON: f64 = 0.08;

fn network(seed: u64, classes: usize, policed: bool) -> Net {
    let mut r = Rng(seed);
    let servers = 3 + r.below(4) as usize;
    let caps = (0..servers)
        .map(|_| 1e6 * (1 + r.below(3)) as f64)
        .collect();
    let flows = (0..6 + r.below(10))
        .map(|_| {
            let ms = |r: &mut Rng, n| r.below(n) as f64 * 1e-3;
            let source = match r.below(4) {
                0 => SourceModel::GreedyOnOff {
                    burst_bits: 640.0 * (1 + r.below(4)) as f64,
                    rate_bps: 32e3 * (1 + r.below(8)) as f64,
                    packet_bits: 640,
                    start: ms(&mut r, 5),
                },
                1 => SourceModel::Cbr {
                    period: 0.005 * (1 + r.below(4)) as f64,
                    packet_bits: [640, 8000][r.below(2) as usize],
                    offset: ms(&mut r, 10),
                },
                2 => SourceModel::OnOff {
                    peak_bps: 2e5 * (1 + r.below(3)) as f64,
                    packet_bits: 8000,
                    on_s: 0.01,
                    off_s: 0.02,
                    start: ms(&mut r, 10),
                    stop: HORIZON,
                },
                _ => SourceModel::Rogue {
                    period: 0.02,
                    packet_bits: 640,
                    factor: (2 + r.below(6)) as f64,
                },
            };
            FlowSpec {
                class: r.below(classes as u64) as usize,
                ingress: r.below(4) as u32,
                route: r.route(servers),
                source,
            }
        })
        .collect();
    let cfg = SimConfig {
        horizon: HORIZON,
        deadlines: (0..classes).map(|c| 0.004 * (c + 1) as f64).collect(),
        policers: policed.then(|| {
            (0..classes)
                .map(|c| (1280.0 * (c + 1) as f64, 64e3 * (c + 1) as f64))
                .collect()
        }),
    };
    Net { caps, flows, cfg }
}

fn disciplines(classes: usize) -> [Discipline; 4] {
    [
        Discipline::StaticPriority,
        Discipline::Fifo,
        Discipline::Wfq {
            weights: (0..classes).map(|c| (classes - c) as f64).collect(),
        },
        Discipline::VirtualClock {
            rates: (0..classes).map(|c| 2e5 * (c + 1) as f64).collect(),
        },
    ]
}

/// The pinned form of a report.
#[derive(Debug, PartialEq)]
struct Pinned {
    /// Per class: packets, deadline misses, policed drops, max delay
    /// bits, mean delay bits.
    classes: Vec<[u64; 5]>,
    /// Per class: the non-empty `(bucket, count)` histogram entries.
    hist: Vec<Vec<(u32, u64)>>,
    /// Total packets, events, peak backlog.
    totals: [u64; 3],
}

/// A recorded report, as a constant.
struct Golden {
    classes: &'static [[u64; 5]],
    hist: &'static [&'static [(u32, u64)]],
    totals: [u64; 3],
}

impl Golden {
    fn pinned(&self) -> Pinned {
        Pinned {
            classes: self.classes.to_vec(),
            hist: self.hist.iter().map(|h| h.to_vec()).collect(),
            totals: self.totals,
        }
    }
}

/// `DelayHistogram` bucket counts, recovered through its public
/// `fraction_above`: the threshold `1 µs · 2^(i-1)` falls exactly on
/// bucket `i`'s lower edge, so the count of samples at or above bucket
/// `i` is the fraction times the total (exact after rounding).
fn pin(r: &SimReport) -> Pinned {
    let hist = r
        .histograms
        .iter()
        .map(|h| {
            let total = h.total() as f64;
            let at_or_above = |i: usize| -> u64 {
                if i >= 48 {
                    return 0;
                }
                let threshold = if i == 0 {
                    0.0
                } else {
                    1e-6 * 2f64.powi(i as i32 - 1)
                };
                (h.fraction_above(threshold) * total).round() as u64
            };
            (0..48)
                .map(|i| (i as u32, at_or_above(i) - at_or_above(i + 1)))
                .filter(|&(_, n)| n > 0)
                .collect()
        })
        .collect();
    Pinned {
        classes: r
            .classes
            .iter()
            .map(|c| {
                [
                    c.packets,
                    c.deadline_misses,
                    c.policed_drops,
                    c.max_delay.to_bits(),
                    c.mean_delay.to_bits(),
                ]
            })
            .collect(),
        hist,
        totals: [r.total_packets, r.events, r.peak_backlog as u64],
    }
}

/// A `SimProgress` as `(t bits, packets, misses, done)`.
type ProgressBits = (u64, u64, u64, bool);

fn progress_bits(seen: &[SimProgress]) -> Vec<ProgressBits> {
    seen.iter()
        .map(|p| (p.t.to_bits(), p.packets, p.misses, p.done))
        .collect()
}

/// `simulate_with` on seeds 101–108: disciplines in order, policing off
/// then on, alternating two and three classes.
fn plain_cases() -> Vec<Pinned> {
    let mut out = Vec::new();
    for (i, policed) in [(0u64, false), (1, true)] {
        for d in 0..4 {
            let seed = 101 + 4 * i + d as u64;
            let classes = 2 + (seed % 2) as usize;
            let net = network(seed, classes, policed);
            let disc = &disciplines(classes)[d];
            out.push(pin(&simulate_with(&net.caps, &net.flows, &net.cfg, disc)));
        }
    }
    out
}

/// `simulate_reconfigured` on seeds 201–204, one per discipline: three
/// flows move to fresh random routes. Seeds 201 and 203 swap at 40 ms,
/// on the 1 ms emission grid (same-instant emissions keep the old
/// routes); 202 and 204 swap at 27.5 ms.
fn reconfigured_cases() -> Vec<Pinned> {
    (0..4usize)
        .map(|d| {
            let seed = 201 + d as u64;
            let net = network(seed, 2, d % 2 == 1);
            let mut r = Rng(seed ^ 0xFFFF);
            let reroutes = (0..3)
                .map(|_| {
                    let fi = r.below(net.flows.len() as u64) as usize;
                    (fi, r.route(net.caps.len()))
                })
                .collect();
            let rc = Reconfiguration {
                at: if d % 2 == 0 { 0.04 } else { 0.0275 },
                reroutes,
            };
            let disc = &disciplines(2)[d];
            pin(&simulate_reconfigured(
                &net.caps, &net.flows, &net.cfg, disc, &rc,
            ))
        })
        .collect()
}

/// `simulate_observed` on seed 301 (three classes, unpoliced, static
/// priority) at a 10 ms and a 37 ms interval.
fn observed_cases() -> Vec<(Pinned, Vec<ProgressBits>)> {
    [0.01, 0.037]
        .into_iter()
        .map(|every| {
            let net = network(301, 3, false);
            let mut seen = Vec::new();
            let r = simulate_observed(
                &net.caps,
                &net.flows,
                &net.cfg,
                &Discipline::StaticPriority,
                every,
                &mut |p| seen.push(p),
            );
            (pin(&r), progress_bits(&seen))
        })
        .collect()
}

fn check(kind: &str, got: &[Pinned], want: &[Golden]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(*g, w.pinned(), "{kind} case {i} moved");
    }
}

#[test]
fn plain_runs_match_golden() {
    check("simulate_with", &plain_cases(), PLAIN);
}

#[test]
fn reconfigured_runs_match_golden() {
    check("simulate_reconfigured", &reconfigured_cases(), RECONFIGURED);
}

#[test]
fn observed_runs_match_golden() {
    let got = observed_cases();
    let (reports, progress): (Vec<_>, Vec<_>) = got.into_iter().unzip();
    check("simulate_observed", &reports, OBSERVED);
    assert_eq!(progress.len(), PROGRESS.len());
    for (i, (g, w)) in progress.iter().zip(PROGRESS).enumerate() {
        assert_eq!(g.as_slice(), *w, "observer sequence {i} moved");
    }
    // An observed run reports exactly what the plain run reports.
    let net = network(301, 3, false);
    let plain = simulate_with(&net.caps, &net.flows, &net.cfg, &Discipline::StaticPriority);
    assert_eq!(pin(&plain), reports[0]);
}

fn render(p: &Pinned) -> String {
    let hist: Vec<String> = p.hist.iter().map(|h| format!("&{h:?}")).collect();
    format!(
        "    Golden {{\n        classes: &{:?},\n        hist: &[{}],\n        totals: {:?},\n    }},",
        p.classes,
        hist.join(", "),
        p.totals
    )
}

#[test]
#[ignore = "prints the golden tables; run with --ignored --nocapture to re-record"]
fn print_golden_tables() {
    for (name, cases) in [
        ("PLAIN", plain_cases()),
        ("RECONFIGURED", reconfigured_cases()),
    ] {
        println!("const {name}: &[Golden] = &[");
        cases.iter().for_each(|p| println!("{}", render(p)));
        println!("];");
    }
    let (reports, progress): (Vec<_>, Vec<_>) = observed_cases().into_iter().unzip();
    println!("const OBSERVED: &[Golden] = &[");
    reports.iter().for_each(|p| println!("{}", render(p)));
    println!("];");
    println!("const PROGRESS: &[&[ProgressBits]] = &[");
    progress.iter().for_each(|s| println!("    &{s:?},"));
    println!("];");
}

const PLAIN: &[Golden] = &[
    Golden {
        classes: &[
            [0, 0, 0, 0, 0],
            [92, 6, 0, 4578432399738958251, 4568751493209097301],
            [69, 24, 0, 4581433906937140432, 4576313983795174511],
        ],
        hist: &[
            &[],
            &[(10, 34), (11, 10), (12, 29), (13, 14), (14, 5)],
            &[
                (9, 8),
                (10, 4),
                (11, 6),
                (12, 2),
                (13, 11),
                (14, 31),
                (15, 7),
            ],
        ],
        totals: [161, 1054, 11],
    },
    Golden {
        classes: &[
            [55, 28, 0, 4592077705937786954, 4581818503822288866],
            [32, 24, 0, 4592726224284128305, 4585574868368337747],
        ],
        hist: &[
            &[
                (9, 14),
                (10, 3),
                (12, 10),
                (13, 8),
                (14, 3),
                (15, 3),
                (16, 6),
                (17, 8),
            ],
            &[
                (10, 1),
                (11, 2),
                (12, 1),
                (13, 4),
                (14, 4),
                (15, 3),
                (16, 11),
                (17, 6),
            ],
        ],
        totals: [87, 478, 22],
    },
    Golden {
        classes: &[
            [33, 26, 0, 4582540162790926812, 4576700621588881855],
            [84, 55, 0, 4584749448624129683, 4579203262203670522],
            [51, 26, 0, 4589829509003803602, 4581919425975865348],
        ],
        hist: &[
            &[(11, 2), (12, 5), (13, 10), (14, 11), (15, 5)],
            &[(11, 6), (12, 8), (13, 15), (14, 26), (15, 29)],
            &[
                (10, 2),
                (11, 2),
                (12, 4),
                (13, 9),
                (14, 16),
                (15, 2),
                (16, 15),
                (17, 1),
            ],
        ],
        totals: [168, 1154, 33],
    },
    Golden {
        classes: &[
            [62, 51, 0, 4582436399855512196, 4577720634210868834],
            [88, 54, 0, 4587322385067205567, 4580787216773843454],
        ],
        hist: &[
            &[(9, 3), (11, 3), (12, 5), (13, 4), (14, 32), (15, 15)],
            &[
                (8, 6),
                (9, 1),
                (10, 14),
                (11, 4),
                (12, 6),
                (13, 3),
                (14, 7),
                (15, 28),
                (16, 19),
            ],
        ],
        totals: [150, 926, 37],
    },
    Golden {
        classes: &[
            [25, 0, 32, 4564529605815898178, 4562463571033045030],
            [0, 0, 0, 0, 0],
            [21, 0, 3, 4564037695715056603, 4562257435581158271],
        ],
        hist: &[&[(10, 19), (11, 6)], &[], &[(8, 4), (11, 17)]],
        totals: [46, 334, 2],
    },
    Golden {
        classes: &[
            [49, 0, 58, 4566497260054322537, 4562479131343545337],
            [77, 0, 20, 4564714068644949256, 4559003848921189293],
        ],
        hist: &[&[(8, 4), (10, 17), (11, 28)], &[(9, 26), (10, 48), (11, 3)]],
        totals: [126, 732, 3],
    },
    Golden {
        classes: &[
            [9, 0, 37, 4552002622523783824, 4552002622523783824],
            [7, 0, 3, 4554538581747788017, 4554538581747788017],
            [8, 0, 0, 4552002622523783824, 4552002622523783824],
        ],
        hist: &[&[(8, 9)], &[(9, 7)], &[(8, 8)]],
        totals: [24, 96, 4],
    },
    Golden {
        classes: &[
            [47, 1, 63, 4571630643053584523, 4564655763098618281],
            [71, 0, 15, 4569525120155796269, 4563169051787103761],
        ],
        hist: &[
            &[(10, 2), (11, 39), (12, 5), (13, 1)],
            &[(9, 10), (10, 23), (11, 31), (12, 7)],
        ],
        totals: [118, 736, 6],
    },
];
const RECONFIGURED: &[Golden] = &[
    Golden {
        classes: &[
            [135, 71, 0, 4583105094328184167, 4575971760022834094],
            [72, 60, 0, 4594285756487655232, 4591801410807212516],
        ],
        hist: &[
            &[
                (9, 7),
                (10, 26),
                (11, 15),
                (12, 17),
                (13, 8),
                (14, 30),
                (15, 32),
            ],
            &[(9, 3), (11, 2), (12, 1), (13, 6), (17, 46), (18, 14)],
        ],
        totals: [207, 1265, 65],
    },
    Golden {
        classes: &[
            [25, 0, 25, 4569525120155796269, 4562507844141159139],
            [35, 0, 21, 4570908625961324485, 4564197565871958442],
        ],
        hist: &[
            &[(9, 6), (10, 13), (12, 6)],
            &[(9, 3), (10, 11), (11, 17), (12, 4)],
        ],
        totals: [60, 379, 5],
    },
    Golden {
        classes: &[
            [114, 34, 0, 4586248246580118584, 4576257659155744925],
            [29, 2, 0, 4576964346164271949, 4570002190725660654],
        ],
        hist: &[
            &[
                (8, 15),
                (10, 44),
                (11, 8),
                (12, 13),
                (13, 2),
                (14, 5),
                (15, 12),
                (16, 15),
            ],
            &[(9, 3), (10, 6), (11, 5), (12, 6), (13, 7), (14, 2)],
        ],
        totals: [143, 841, 12],
    },
    Golden {
        classes: &[
            [29, 0, 78, 4563853228274319507, 4558834389298729459],
            [51, 0, 26, 4563176841509368799, 4558723882082764929],
        ],
        hist: &[&[(8, 6), (10, 19), (11, 4)], &[(9, 14), (10, 30), (11, 7)]],
        totals: [80, 433, 3],
    },
];
const OBSERVED: &[Golden] = &[
    Golden {
        classes: &[
            [77, 26, 0, 4574443771524825230, 4569439616053223118],
            [24, 3, 0, 4577756019315075819, 4573121113841852817],
            [19, 9, 0, 4582309577625314315, 4578065890998750268],
        ],
        hist: &[
            &[(9, 7), (10, 10), (11, 6), (12, 30), (13, 24)],
            &[(12, 9), (13, 12), (14, 3)],
            &[(9, 2), (10, 1), (12, 3), (14, 4), (15, 9)],
        ],
        totals: [120, 730, 10],
    },
    Golden {
        classes: &[
            [77, 26, 0, 4574443771524825230, 4569439616053223118],
            [24, 3, 0, 4577756019315075819, 4573121113841852817],
            [19, 9, 0, 4582309577625314315, 4578065890998750268],
        ],
        hist: &[
            &[(9, 7), (10, 10), (11, 6), (12, 30), (13, 24)],
            &[(12, 9), (13, 12), (14, 3)],
            &[(9, 2), (10, 1), (12, 3), (14, 4), (15, 9)],
        ],
        totals: [120, 730, 10],
    },
];
const PROGRESS: &[&[ProgressBits]] = &[
    &[
        (4577863624937865289, 10, 0, false),
        (4581471789055478052, 25, 6, false),
        (4584346406001093579, 42, 11, false),
        (4586175228170121754, 52, 11, false),
        (4587405011204445850, 67, 18, false),
        (4588842319533138426, 83, 26, false),
        (4589833352051466427, 97, 27, false),
        (4590448243568628475, 112, 34, false),
        (4591028547224479535, 120, 38, true),
    ],
    &[
        (4585729431903045503, 51, 11, false),
        (4589998604181831805, 102, 31, false),
        (4591028547224479535, 120, 38, true),
    ],
];
