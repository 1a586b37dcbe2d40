//! The scenario-spec layer's contract, end to end:
//!
//! 1. **Round-trip property** — `parse_spec(emit_spec(s)) == s` (struct
//!    equality) and `emit_spec` is a fixpoint (string equality) over
//!    hundreds of generated scenarios spanning every axis of the format.
//!    Like the other property tests, generation runs on the workspace's
//!    own deterministic [`Rng`] so failures reproduce by case index.
//! 2. **One test per `SpecError` variant** — the builder (and parser)
//!    rejects each invalid configuration with a message naming the fix.
//! 3. **Equivalence guard** — the legacy `Scenario::single_hop`
//!    constructor, the same scenario built via `ScenarioBuilder`, and the
//!    scenario re-read from its own emitted `.scn` text produce
//!    bit-identical `RunStats` for a short seeded run.

use bcp::net::addr::NodeId;
use bcp::net::loss::LossModel;
use bcp::net::routing::RouteWeight;
use bcp::net::topo::{Position, Topology};
use bcp::power::{Battery, PowerConfig};
use bcp::sim::rng::Rng;
use bcp::sim::time::SimDuration;
use bcp::simnet::{
    emit_spec, parse_spec, HighRoute, ModelKind, Scenario, ScenarioBuilder, SleepSchedule,
    SpecError, TrafficPattern, WorkloadKind, MAX_NODES,
};

// ── 1. the round-trip property ──────────────────────────────────────────

const CASES: u64 = 200;

fn arb_topology(rng: &mut Rng) -> Topology {
    match rng.index(3) {
        0 => Topology::grid(2 + rng.index(5), 5.0 + rng.f64() * 60.0),
        1 => Topology::line(2 + rng.index(12), 1.0 + rng.f64() * 50.0),
        _ => {
            let n = 2 + rng.index(8);
            Topology::from_positions(
                (0..n)
                    .map(|_| {
                        Position::new(rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0))
                    })
                    .collect(),
            )
        }
    }
}

fn arb_battery(rng: &mut Rng) -> Battery {
    if rng.bernoulli(0.5) {
        Battery::ideal_joules(rng.f64() * 1e4)
    } else {
        let v_empty = rng.f64() * 1.5;
        let v_cutoff = v_empty + rng.f64();
        let v_full = v_cutoff + 0.1 + rng.f64();
        Battery::from_mah(0.1 + rng.f64() * 3000.0, v_full, v_cutoff, v_empty)
    }
}

fn arb_loss(rng: &mut Rng) -> LossModel {
    match rng.index(3) {
        0 => LossModel::Perfect,
        1 => LossModel::bernoulli(rng.f64()),
        _ => LossModel::gilbert_elliott(rng.f64(), rng.f64(), rng.f64(), rng.f64()),
    }
}

/// A random scenario touching every axis the format can express.
fn arb_scenario(rng: &mut Rng) -> Scenario {
    let topo = arb_topology(rng);
    let n = topo.len();
    let sink = NodeId(rng.index(n) as u32);
    let mut b = ScenarioBuilder::new()
        .model(match rng.index(3) {
            0 => ModelKind::Sensor,
            1 => ModelKind::Dot11,
            _ => ModelKind::DualRadio,
        })
        .topology(topo.clone())
        .sink(sink)
        .rate_bps(1.0 + rng.f64() * 1e4)
        .packet_bytes(1 + rng.index(32))
        .duration(SimDuration::from_nanos(
            1 + rng.range_u64(0, 5_000_000_000_000),
        ))
        .loss(arb_loss(rng), arb_loss(rng))
        .off_linger(SimDuration::from_nanos(rng.range_u64(0, 1_000_000_000)))
        .shards(1 + rng.index(n.min(4)))
        .link_latency(
            SimDuration::from_nanos(1 + rng.range_u64(0, 1_000_000)),
            SimDuration::from_nanos(1 + rng.range_u64(0, 1_000_000)),
        )
        .seed(rng.next_u64());
    // Traffic: convergecast with auto/explicit senders, or a pattern that
    // derives its own sender set (broadcast from any node incl. the sink,
    // gossip with a default or explicit pair seed).
    match rng.index(4) {
        0 => b = b.senders_auto(1 + rng.index(n - 1)),
        1 => {
            let mut ids: Vec<NodeId> = topo.nodes().filter(|&x| x != sink).collect();
            rng.shuffle(&mut ids);
            ids.truncate(1 + rng.index(ids.len()));
            b = b.senders(ids);
        }
        2 => {
            b = b.traffic(TrafficPattern::Broadcast {
                source: NodeId(rng.index(n) as u32),
            })
        }
        _ => {
            let seed = if rng.bernoulli(0.5) {
                bcp::traffic::GOSSIP_DEFAULT_SEED
            } else {
                rng.next_u64()
            };
            b = b.traffic(TrafficPattern::Gossip {
                pairs: 1 + rng.index(n - 1),
                seed,
            })
        }
    }
    match rng.index(3) {
        0 => b = b.workload(WorkloadKind::Cbr),
        1 => b = b.workload(WorkloadKind::Poisson),
        _ => {
            b = b.workload(WorkloadKind::BurstyAudio {
                mean_on_s: 0.01 + rng.f64() * 30.0,
                mean_off_s: 0.01 + rng.f64() * 300.0,
            })
        }
    }
    // Profiles: any Table 1 pairing, sometimes with a range override.
    let lows = [
        bcp::radio::profile::micaz,
        bcp::radio::profile::mica,
        bcp::radio::profile::mica2,
        bcp::radio::profile::cc2420,
    ];
    let highs = [
        bcp::radio::profile::cabletron,
        bcp::radio::profile::lucent_2m,
        bcp::radio::profile::lucent_11m,
    ];
    let mut low = lows[rng.index(lows.len())]();
    let mut high = highs[rng.index(highs.len())]();
    if rng.bernoulli(0.3) {
        low = low.with_range(1.0 + rng.f64() * 300.0);
    }
    if rng.bernoulli(0.3) {
        high = high.with_range(1.0 + rng.f64() * 300.0);
    }
    b = b.low_profile(low).high_profile(high);
    // Low-radio sleep schedule: always-on, or LPL timings that respect
    // the builder's invariants (sample < interval <= preamble) at full
    // nanosecond granularity — exercising the ms grammar's exactness.
    if rng.bernoulli(0.5) {
        let interval_ns = 2 + rng.range_u64(0, 10_000_000_000);
        let sample_ns = 1 + rng.range_u64(0, interval_ns - 1);
        let preamble_ns = if rng.bernoulli(0.5) {
            interval_ns
        } else {
            interval_ns + rng.range_u64(0, 1_000_000_000)
        };
        b = b.low_sleep(SleepSchedule::lpl_with_preamble(
            SimDuration::from_nanos(interval_ns),
            SimDuration::from_nanos(sample_ns),
            SimDuration::from_nanos(preamble_ns),
        ));
    }
    // BCP knobs: a random threshold with a buffer that always fits it.
    if rng.bernoulli(0.7) {
        let mut bcp = bcp::core::config::BcpConfig::paper_defaults();
        bcp.threshold_bytes = 1 + rng.index(100_000);
        bcp.buffer_cap_bytes = bcp.threshold_bytes + rng.index(500_000);
        bcp.wakeup_ack_timeout = SimDuration::from_nanos(1 + rng.range_u64(0, 2_000_000_000));
        if rng.bernoulli(0.3) {
            bcp.delay_bound = Some(SimDuration::from_nanos(
                1 + rng.range_u64(0, u64::from(u32::MAX)),
            ));
        }
        bcp.min_grant_bytes = rng.index(4096);
        b = b.bcp(bcp);
    } else {
        b = b.burst_packets(1 + rng.index(2500));
    }
    if rng.bernoulli(0.4) {
        b = b.high_route(HighRoute::LowParents {
            shortcuts: rng.bernoulli(0.5),
            listen: SimDuration::from_nanos(1 + rng.range_u64(0, 1_000_000_000)),
        });
    }
    if rng.bernoulli(0.3) {
        b = b.traffic_cutoff(
            SimDuration::from_nanos(1 + rng.range_u64(0, 1_000_000_000_000)),
            rng.bernoulli(0.5),
        );
    }
    // Power: batteries, per-node overrides, sink policy, reroute period.
    let mut power = PowerConfig::unlimited();
    if rng.bernoulli(0.5) {
        power.battery = Some(arb_battery(rng));
        power.sink_unlimited = rng.bernoulli(0.8);
        if rng.bernoulli(0.3) {
            power.reroute_every = Some(SimDuration::from_nanos(
                1 + rng.range_u64(0, 100_000_000_000),
            ));
        }
    }
    if rng.bernoulli(0.3) {
        for _ in 0..=rng.index(3) {
            let idx = rng.index(n);
            power.overrides.retain(|(i, _)| *i != idx);
            power.overrides.push((idx, arb_battery(rng)));
        }
    }
    let has_battery = power.battery.is_some() || !power.overrides.is_empty();
    b = b.power(power);
    if has_battery && rng.bernoulli(0.5) {
        b = b.route_weight(RouteWeight::MaxMinResidual);
    }
    b.build()
        .expect("generated scenarios are valid by construction")
}

#[test]
fn emit_parse_round_trip_is_the_identity() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5CE9 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let s = arb_scenario(&mut rng);
        let text = emit_spec(&s).unwrap_or_else(|e| panic!("case {case}: emit failed: {e}"));
        let parsed =
            parse_spec(&text).unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{text}"));
        assert_eq!(parsed, s, "case {case}: scenario round-trip\n{text}");
        let text2 = emit_spec(&parsed).expect("re-emit");
        assert_eq!(text2, text, "case {case}: emit is a fixpoint");
    }
}

// ── 2. one test per SpecError variant ───────────────────────────────────

/// A valid baseline the variant tests perturb one knob at a time.
fn valid() -> ScenarioBuilder {
    ScenarioBuilder::single_hop(ModelKind::DualRadio, 5, 100, 1)
}

#[test]
fn rejects_empty_topology() {
    let err = valid()
        .topology(Topology::from_positions(Vec::new()))
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::EmptyTopology);
    assert!(err.to_string().contains("no nodes"));
}

#[test]
fn rejects_sink_outside_topology() {
    let err = valid().sink(NodeId(36)).build().unwrap_err();
    assert_eq!(
        err,
        SpecError::SinkOutOfRange {
            sink: 36,
            nodes: 36
        }
    );
    assert!(err.to_string().contains("sink 36"));
}

#[test]
fn rejects_empty_sender_set() {
    for b in [valid().senders(Vec::new()), valid().senders_auto(0)] {
        let err = b.build().unwrap_err();
        assert_eq!(err, SpecError::NoSenders);
        assert!(err.to_string().contains("senders"));
    }
}

#[test]
fn rejects_more_auto_senders_than_nodes() {
    let err = valid().senders_auto(36).build().unwrap_err();
    assert_eq!(
        err,
        SpecError::TooManySenders {
            requested: 36,
            available: 35
        }
    );
    assert!(err.to_string().contains("only 35 non-sink nodes"));
}

#[test]
fn rejects_sender_outside_topology() {
    let err = valid()
        .senders(vec![NodeId(1), NodeId(99)])
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        SpecError::SenderOutOfRange {
            sender: 99,
            nodes: 36
        }
    );
    assert!(err.to_string().contains("sender 99"));
}

#[test]
fn rejects_sink_as_sender() {
    let err = valid().senders(vec![NodeId(14)]).build().unwrap_err();
    assert_eq!(err, SpecError::SenderIsSink { sender: 14 });
    assert!(err.to_string().contains("sink"));
}

#[test]
fn rejects_duplicate_senders() {
    let err = valid()
        .senders(vec![NodeId(3), NodeId(5), NodeId(3)])
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::DuplicateSender { sender: 3 });
    assert!(err.to_string().contains("twice"));
}

#[test]
fn rejects_zero_link_latency() {
    let err = valid()
        .link_latency(SimDuration::ZERO, SimDuration::from_micros(4))
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::NonPositiveLinkLatency { class: "low" });
    assert!(err.to_string().contains("lookahead"));
    let err = valid()
        .link_latency(SimDuration::from_micros(64), SimDuration::ZERO)
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::NonPositiveLinkLatency { class: "high" });
}

#[test]
fn rejects_more_shards_than_nodes() {
    let err = valid().shards(37).build().unwrap_err();
    assert_eq!(
        err,
        SpecError::TooManyShards {
            shards: 37,
            nodes: 36
        }
    );
    assert!(err.to_string().contains("shards must be <= nodes"));
}

#[test]
fn rejects_burst_threshold_beyond_buffer() {
    let mut bcp = bcp::core::config::BcpConfig::paper_defaults();
    bcp.threshold_bytes = bcp.buffer_cap_bytes + 1;
    let err = valid().bcp(bcp.clone()).build().unwrap_err();
    assert_eq!(
        err,
        SpecError::BurstExceedsBuffer {
            threshold_bytes: bcp.threshold_bytes,
            buffer_cap_bytes: bcp.buffer_cap_bytes
        }
    );
    assert!(err.to_string().contains("never trigger"));
}

#[test]
fn rejects_incoherent_bcp_parameters() {
    let mut bcp = bcp::core::config::BcpConfig::paper_defaults();
    bcp.wakeup_attempts = 0;
    let err = valid().bcp(bcp).build().unwrap_err();
    assert!(matches!(err, SpecError::InvalidBcp { .. }), "{err}");
    assert!(err.to_string().contains("wakeup_attempts"));
}

#[test]
fn rejects_nonpositive_rate() {
    for rate in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        let err = valid().rate_bps(rate).build().unwrap_err();
        assert!(matches!(err, SpecError::InvalidRate { .. }), "{rate}");
        assert!(err.to_string().contains("rate_bps"));
    }
}

#[test]
fn rejects_packets_that_do_not_fit_framing() {
    for bytes in [0, 33] {
        let err = valid().packet_bytes(bytes).build().unwrap_err();
        // MicaZ frames carry 32 B.
        assert_eq!(err, SpecError::InvalidPacketBytes { bytes, max: 32 });
        assert!(err.to_string().contains("1..=32"));
    }
}

#[test]
fn rejects_zero_duration() {
    let err = valid().duration(SimDuration::ZERO).build().unwrap_err();
    assert_eq!(err, SpecError::ZeroDuration);
    assert!(err.to_string().contains("positive"));
}

#[test]
fn rejects_degenerate_bursty_workload() {
    let err = valid()
        .workload(WorkloadKind::BurstyAudio {
            mean_on_s: 0.0,
            mean_off_s: 8.0,
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, SpecError::InvalidWorkload { .. }), "{err}");
    assert!(err.to_string().contains("mean_on_s"));
}

#[test]
fn rejects_energy_aware_routing_without_batteries() {
    let err = valid()
        .route_weight(RouteWeight::MaxMinResidual)
        .build()
        .unwrap_err();
    assert_eq!(err, SpecError::EnergyAwareWithoutBattery);
    assert!(err.to_string().contains("battery"));
    // With a battery it is accepted.
    assert!(valid()
        .route_weight(RouteWeight::MaxMinResidual)
        .battery(Battery::ideal_joules(5.0))
        .build()
        .is_ok());
}

#[test]
fn rejects_degenerate_lpl_timings() {
    // Zero wake interval and zero sample are both incoherent schedules.
    let zero = SimDuration::ZERO;
    let ten = SimDuration::from_millis(10);
    for schedule in [
        SleepSchedule::lpl(zero, zero),
        SleepSchedule::lpl(ten, zero),
    ] {
        let err = valid().low_sleep(schedule).build().unwrap_err();
        assert!(
            matches!(err, SpecError::InvalidSleepSchedule { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("low_sleep"));
    }
}

#[test]
fn rejects_sample_at_least_the_wake_interval() {
    let interval = SimDuration::from_millis(10);
    for sample in [interval, SimDuration::from_millis(25)] {
        let err = valid()
            .low_sleep(SleepSchedule::lpl(interval, sample))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SpecError::SleepSampleExceedsInterval {
                sample,
                wake_interval: interval
            }
        );
        assert!(err.to_string().contains("never dozes"));
    }
    // One tick shorter is accepted.
    assert!(valid()
        .low_sleep(SleepSchedule::lpl(
            interval,
            interval - SimDuration::from_nanos(1)
        ))
        .build()
        .is_ok());
}

#[test]
fn rejects_preamble_below_the_wake_interval() {
    let interval = SimDuration::from_millis(100);
    let sample = SimDuration::from_millis(10);
    let short = SimDuration::from_millis(99);
    let err = valid()
        .low_sleep(SleepSchedule::lpl_with_preamble(interval, sample, short))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        SpecError::SleepPreambleTooShort {
            preamble: short,
            wake_interval: interval
        }
    );
    assert!(err.to_string().contains("miss frames"));
    // Exactly the interval (the canonical choice) and longer both pass.
    for preamble in [interval, SimDuration::from_millis(250)] {
        assert!(valid()
            .low_sleep(SleepSchedule::lpl_with_preamble(interval, sample, preamble))
            .build()
            .is_ok());
    }
}

#[test]
fn low_sleep_grammar_parses_and_validates() {
    let s = parse_spec("senders = auto:5\nlow_sleep = lpl:100/10\n").expect("parses");
    assert_eq!(
        s.low_sleep,
        SleepSchedule::lpl(SimDuration::from_millis(100), SimDuration::from_millis(10))
    );
    // Fractional milliseconds and an explicit preamble both work.
    let s = parse_spec("senders = auto:5\nlow_sleep = lpl:12.5/0.25/30\n").expect("parses");
    assert_eq!(
        s.low_sleep,
        SleepSchedule::lpl_with_preamble(
            SimDuration::from_micros(12_500),
            SimDuration::from_micros(250),
            SimDuration::from_millis(30),
        )
    );
    // The default is always-on.
    let s = parse_spec("senders = auto:5\n").expect("parses");
    assert!(s.low_sleep.is_always_on());
    // Garbage is a parse error with the line; a well-formed but
    // incoherent schedule fails builder validation with the invariant.
    let err = parse_spec("senders = auto:5\nlow_sleep = lpl:100\n").unwrap_err();
    assert!(matches!(err, SpecError::Parse { line: 2, .. }), "{err:?}");
    let err = parse_spec("senders = auto:5\nlow_sleep = lpl:10/10\n").unwrap_err();
    assert!(
        matches!(err, SpecError::SleepSampleExceedsInterval { .. }),
        "{err:?}"
    );
}

#[test]
fn rejects_malformed_files_with_line_numbers() {
    let err = parse_spec("senders = auto:5\nshards = many\n").unwrap_err();
    assert!(matches!(err, SpecError::Parse { line: 2, .. }), "{err:?}");
    assert!(err.to_string().starts_with("line 2:"));
}

#[test]
fn rejects_topologies_over_the_node_budget() {
    // Parser only: a world over the budget is never built. A 64×64 grid
    // is exactly the budget and parses.
    let spec = |topo: &str| format!("topo = {topo}\nsenders = 1\n");
    let at_budget = parse_spec(&spec("grid:64:40.0")).expect("grid:64 is within the budget");
    assert_eq!(at_budget.topo.len(), MAX_NODES);
    let points = vec!["0,0"; MAX_NODES + 1].join(";");
    for (topo, nodes) in [
        ("grid:65:40.0".to_string(), 65 * 65),
        (format!("line:{}:40.0", MAX_NODES + 1), MAX_NODES + 1),
        (format!("points:{points}"), MAX_NODES + 1),
        // side² overflows: refused before anything is allocated.
        ("grid:4294967296:40.0".to_string(), usize::MAX),
    ] {
        let err = parse_spec(&spec(&topo)).unwrap_err();
        assert_eq!(
            err,
            SpecError::TooManyNodes {
                line: 1,
                nodes,
                max: MAX_NODES
            }
        );
        assert!(err.to_string().contains("over the budget of 4096"), "{err}");
    }
}

#[test]
fn refuses_to_emit_unrepresentable_scenarios() {
    let mut s = valid().build().expect("valid");
    s.low_profile = bcp::radio::profile::micaz().with_framing(64, 11);
    let err = emit_spec(&s).unwrap_err();
    assert!(matches!(err, SpecError::Unrepresentable { .. }), "{err}");
    assert!(err.to_string().contains("not expressible"));
}

// ── 3. the equivalence guard ────────────────────────────────────────────

fn assert_bit_identical(a: &bcp::simnet::RunStats, b: &bcp::simnet::RunStats, what: &str) {
    assert_eq!(a.events, b.events, "{what}: event count");
    assert_eq!(a.goodput, b.goodput, "{what}: goodput");
    assert_eq!(a.energy_j, b.energy_j, "{what}: energy");
    assert_eq!(
        a.energy_header_j, b.energy_header_j,
        "{what}: header energy"
    );
    assert_eq!(a.mean_delay_s, b.mean_delay_s, "{what}: delay");
    assert_eq!(
        a.metrics.delivered_packets, b.metrics.delivered_packets,
        "{what}: deliveries"
    );
    assert_eq!(
        a.metrics.generated_packets, b.metrics.generated_packets,
        "{what}: generation"
    );
    assert_eq!(
        a.metrics.collisions, b.metrics.collisions,
        "{what}: collisions"
    );
    assert_eq!(
        a.time_to_first_death_s, b.time_to_first_death_s,
        "{what}: first death"
    );
}

#[test]
fn legacy_builder_and_scn_runs_are_bit_identical() {
    let dur = SimDuration::from_secs(120);
    let legacy = Scenario::single_hop(ModelKind::DualRadio, 8, 100, 42).with_duration(dur);
    let built = ScenarioBuilder::single_hop(ModelKind::DualRadio, 8, 100, 42)
        .duration(dur)
        .build()
        .expect("valid");
    let via_file = parse_spec(&emit_spec(&built).expect("emit")).expect("parse");
    assert_eq!(
        legacy, built,
        "constructor and builder agree field-for-field"
    );
    assert_eq!(
        legacy, via_file,
        "the .scn round-trip preserves every field"
    );
    let (a, b, c) = (legacy.run(), built.run(), via_file.run());
    assert_bit_identical(&a, &b, "legacy vs builder");
    assert_bit_identical(&a, &c, "legacy vs .scn");
}

#[test]
fn equivalence_holds_with_batteries_and_deaths() {
    // The lifetime path: finite batteries, deaths inside the run, energy-
    // aware rerouting — still bit-identical through the spec pipeline.
    let dur = SimDuration::from_secs(200);
    let legacy = Scenario::single_hop(ModelKind::Dot11, 5, 10, 7)
        .with_duration(dur)
        .with_battery(Battery::ideal_joules(40.0))
        .with_route_weight(RouteWeight::MaxMinResidual);
    let built = ScenarioBuilder::single_hop(ModelKind::Dot11, 5, 10, 7)
        .duration(dur)
        .battery(Battery::ideal_joules(40.0))
        .route_weight(RouteWeight::MaxMinResidual)
        .build()
        .expect("valid");
    let via_file = parse_spec(&emit_spec(&built).expect("emit")).expect("parse");
    assert_eq!(legacy, built);
    assert_eq!(legacy, via_file);
    let (a, b, c) = (legacy.run(), built.run(), via_file.run());
    assert!(
        a.time_to_first_death_s.is_some(),
        "the guard must exercise the death path"
    );
    assert_bit_identical(&a, &b, "legacy vs builder (batteries)");
    assert_bit_identical(&a, &c, "legacy vs .scn (batteries)");
}

// ── traffic-pattern grammar and validation ──────────────────────────────

#[test]
fn rejects_broadcast_source_outside_topology() {
    let err = ScenarioBuilder::new()
        .traffic(TrafficPattern::Broadcast { source: NodeId(99) })
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        SpecError::TrafficSourceOutOfRange {
            source: 99,
            nodes: 36
        }
    );
    assert!(err.to_string().contains("broadcast source 99"));
}

#[test]
fn rejects_degenerate_gossip() {
    let err = ScenarioBuilder::new()
        .traffic(TrafficPattern::Gossip { pairs: 0, seed: 1 })
        .build()
        .unwrap_err();
    assert!(matches!(err, SpecError::InvalidTraffic { .. }), "{err}");
    assert!(err.to_string().contains("at least one pair"));
    // More pairs than non-sink nodes reuses the sender-count invariant.
    let err = ScenarioBuilder::new()
        .traffic(TrafficPattern::Gossip { pairs: 36, seed: 1 })
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        SpecError::TooManySenders {
            requested: 36,
            available: 35
        }
    );
}

#[test]
fn rejects_senders_combined_with_non_converge_traffic() {
    for b in [
        valid().traffic(TrafficPattern::Broadcast { source: NodeId(14) }),
        valid().traffic(TrafficPattern::Gossip { pairs: 3, seed: 1 }),
    ] {
        let err = b.build().unwrap_err();
        assert_eq!(err, SpecError::SendersConflictWithTraffic);
        assert!(err.to_string().contains("derives the sender set"));
    }
}

#[test]
fn traffic_grammar_parses_and_validates() {
    // The sink may source a broadcast (sink-to-all is the headline case).
    let s = parse_spec("traffic = broadcast:14\n").expect("parses");
    assert_eq!(s.pattern, TrafficPattern::Broadcast { source: NodeId(14) });
    assert_eq!(s.senders, vec![NodeId(14)]);
    // Gossip with the implicit and an explicit pair seed.
    let s = parse_spec("traffic = gossip:5\n").expect("parses");
    assert_eq!(
        s.pattern,
        TrafficPattern::Gossip {
            pairs: 5,
            seed: bcp::traffic::GOSSIP_DEFAULT_SEED
        }
    );
    assert_eq!(s.senders.len(), 5);
    let s = parse_spec("traffic = gossip:5:77\n").expect("parses");
    assert_eq!(s.pattern, TrafficPattern::Gossip { pairs: 5, seed: 77 });
    // The default stays convergecast.
    let s = parse_spec("senders = auto:5\n").expect("parses");
    assert!(s.pattern.is_converge());
    // Garbage is a parse error with the line; `senders` alongside a
    // deriving pattern is the typed conflict.
    let err = parse_spec("traffic = multicast:3\n").unwrap_err();
    assert!(matches!(err, SpecError::Parse { line: 1, .. }), "{err:?}");
    let err = parse_spec("traffic = broadcast:14\nsenders = auto:5\n").unwrap_err();
    assert_eq!(err, SpecError::SendersConflictWithTraffic);
}

// ── 4. the golden corpus: every checked-in .scn, byte for byte ──────────

/// Every preset under `examples/specs/` must parse, emit canonically, and
/// round-trip **byte for byte** from its canonical form — the whole
/// grammar exercised on real files, so any drift in a key's spelling or
/// formatting fails here even if the per-variant tests miss it.
#[test]
fn golden_checked_in_specs_round_trip_byte_for_byte() {
    let dir = std::path::Path::new("examples/specs");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/specs exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    assert!(files.len() >= 9, "the preset corpus is present: {files:?}");
    let names: Vec<String> = files
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    for preset in ["broadcast_demo.scn", "gossip_pairs.scn"] {
        assert!(names.iter().any(|n| n == preset), "{preset} checked in");
    }
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable preset");
        let scen =
            parse_spec(&text).unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        let canonical =
            emit_spec(&scen).unwrap_or_else(|e| panic!("{}: emit failed: {e}", path.display()));
        let reparsed = parse_spec(&canonical)
            .unwrap_or_else(|e| panic!("{}: canonical re-parse failed: {e}", path.display()));
        assert_eq!(
            reparsed,
            scen,
            "{}: canonical text describes the same scenario",
            path.display()
        );
        let re_emitted = emit_spec(&reparsed).expect("re-emit");
        assert_eq!(
            re_emitted,
            canonical,
            "{}: emit is byte-for-byte stable",
            path.display()
        );
    }
}

#[test]
fn broadcast_and_gossip_presets_run() {
    // The two directional presets do real work even at a short clamp.
    let b = parse_spec(&std::fs::read_to_string("examples/specs/broadcast_demo.scn").unwrap())
        .expect("broadcast preset parses")
        .with_duration(SimDuration::from_secs(60));
    let stats = b.run();
    assert!(
        stats.broadcast_reach.expect("reach reported") > 0.5,
        "the demo disseminates: {:?}",
        stats.broadcast_reach
    );
    let g = parse_spec(&std::fs::read_to_string("examples/specs/gossip_pairs.scn").unwrap())
        .expect("gossip preset parses")
        .with_duration(SimDuration::from_secs(60));
    let stats = g.run();
    assert!(stats.goodput > 0.3, "the mesh delivers: {}", stats.goodput);
    assert!(stats.metrics.flows.len() >= 6, "per-flow ledger populated");
}
