//! Observability guarantees, end to end:
//!
//! * the flight recorder and the series sampler are strictly
//!   observational — `RunStats` are byte-identical with them on or off,
//!   for every checked-in scenario spec;
//! * the merged trace is identical for every shard count;
//! * every traced run's NDJSON bytes are pinned by a digest in
//!   `tests/golden/traces.txt`;
//! * per-window series deltas telescope exactly to the end-of-run
//!   globals;
//! * a trace and series drained at pauses, then finished from a restored
//!   snapshot, add up to the uninterrupted run's;
//! * trace and series records round-trip through the NDJSON emitters and
//!   the hand-rolled JSON parser.

use bcp_power::{Battery, PowerConfig};
use bcp_sim::time::{SimDuration, SimTime};
use bcp_sim::trace::{TraceCat, TraceRecord};
use bcp_simnet::{parse_spec, EngineStats, LiveWorld, ModelKind, RunOptions, Scenario, World};
use bcp_snapshot::cache::sha256_hex;
use std::path::PathBuf;

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs")
}

/// Every checked-in spec, clamped to a test-sized horizon (the 2025-node
/// grid gets a shorter one).
fn checked_in_scenarios() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(specs_dir())
        .expect("examples/specs exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "the spec corpus is non-empty");
    for path in names {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let scen = parse_spec(&text).expect("spec parses");
        let cap = if scen.topo.len() > 500 { 2 } else { 10 };
        out.push((name, clamped(scen, cap)));
    }
    out
}

/// `scen` with its horizon (and traffic cutoff) clamped to `secs`.
fn clamped(mut scen: Scenario, secs: u64) -> Scenario {
    let cap = SimDuration::from_secs(secs);
    scen.duration = scen.duration.min(cap);
    if let Some(c) = scen.traffic_cutoff {
        scen.traffic_cutoff = Some(c.min(cap));
    }
    scen
}

/// A dual-radio grid with two batteries sized so both nodes die inside
/// the horizon — every trace category (packet, radio, power, route)
/// appears in such a run.
fn death_scenario(shards: usize) -> Scenario {
    let mut s = Scenario::single_hop(ModelKind::DualRadio, 8, 10, 17);
    s.duration = SimDuration::from_secs(60);
    s.power = PowerConfig::unlimited()
        .with_node_battery(13, Battery::ideal_joules(1.0))
        .with_node_battery(20, Battery::ideal_joules(1.2));
    s.shards = shards;
    s
}

/// Zeroes the wall-clock-bearing engine block so two summaries can be
/// compared byte for byte (engine throughput is measured, not simulated).
fn without_engine(mut stats: bcp_simnet::RunStats) -> bcp_simnet::RunStats {
    stats.engine = EngineStats::default();
    stats
}

/// One line of `tests/golden/traces.txt`: `<name> <shards> <records>
/// <sha256>`, the digest taken over the trace's NDJSON.
fn trace_digest(name: &str, shards: usize, trace: &[TraceRecord]) -> String {
    let mut ndjson = String::new();
    for r in trace {
        r.write_ndjson(&mut ndjson);
        ndjson.push('\n');
    }
    format!(
        "{name} {shards} {} {}",
        trace.len(),
        sha256_hex(ndjson.as_bytes())
    )
}

/// Compares each digest line with the golden line of the same name and
/// shard count; a changed byte in any traced run's NDJSON fails here.
fn assert_trace_digests(got: &[String]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/traces.txt");
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    fn run_of(line: &str) -> Vec<&str> {
        line.split(' ').take(2).collect()
    }
    let mismatched: Vec<String> = got
        .iter()
        .filter_map(|g| {
            let want = golden
                .lines()
                .find(|w| run_of(w) == run_of(g))
                .unwrap_or("<missing>");
            (g != want).then(|| format!("  got  {g}\n  want {want}"))
        })
        .collect();
    assert!(
        mismatched.is_empty(),
        "trace bytes changed:\n{}\ndigests of these runs:\n{}",
        mismatched.join("\n"),
        got.join("\n")
    );
}

#[test]
fn tracing_never_changes_the_summary() {
    let mut digests = Vec::new();
    for (name, scen) in checked_in_scenarios() {
        let plain = scen.run();
        let observed = scen.run_with(&RunOptions {
            trace: true,
            series_every: Some(SimDuration::from_secs(3)),
            ..RunOptions::default()
        });
        assert_eq!(
            without_engine(plain).to_json(),
            without_engine(observed.stats).to_json(),
            "{name}: tracing must be strictly observational"
        );
        assert!(
            !observed.trace.is_empty(),
            "{name}: a traced run records events"
        );
        digests.push(trace_digest(&name, scen.shards, &observed.trace));
    }
    assert_trace_digests(&digests);
}

#[test]
fn merged_trace_is_shard_count_invariant() {
    let one = death_scenario(1).run_with(&RunOptions {
        trace: true,
        ..RunOptions::default()
    });
    assert!(
        one.stats.metrics.node_deaths > 0,
        "the death scenario kills nodes"
    );
    assert!(
        one.trace.iter().any(|r| r.ev.cat() == TraceCat::Route),
        "deaths leave route-repair records"
    );
    let mut digests = vec![trace_digest("death", 1, &one.trace)];
    for k in [2, 4] {
        let sharded = death_scenario(k).run_with(&RunOptions {
            trace: true,
            ..RunOptions::default()
        });
        assert_eq!(
            one.trace.len(),
            sharded.trace.len(),
            "shards={k}: record count"
        );
        for (a, b) in one.trace.iter().zip(sharded.trace.iter()) {
            assert_eq!(a, b, "shards={k}: records diverge");
        }
        digests.push(trace_digest("death", k, &sharded.trace));
    }
    assert_trace_digests(&digests);
}

/// What `repro run --checkpoint-every` writes before each checkpoint,
/// plus what `repro resume` appends: the trace and series drained on a
/// 10 s grid up to a 30 s snapshot, then the restored snapshot's
/// `finish`. Together they are the uninterrupted run's, record for
/// record — lifetime's 30 s route refresh included, which runs after
/// the snapshot and is merged after the shard records.
#[test]
fn drained_streams_and_a_resume_add_up_to_the_uninterrupted_run() {
    let opts = RunOptions {
        trace: true,
        series_every: Some(SimDuration::from_secs(1)),
        ..RunOptions::default()
    };
    for (name, shards) in [
        ("lifetime", 1),
        ("lifetime", 4),
        ("single_hop", 1),
        ("broadcast_demo", 1),
    ] {
        let text = std::fs::read_to_string(specs_dir().join(format!("{name}.scn")))
            .expect("readable spec");
        let mut scen = clamped(parse_spec(&text).expect("spec parses"), 40);
        scen.shards = shards;
        let whole = scen.run_with(&opts);
        let mut lw = World::build(&scen, &opts);
        let (mut trace, mut series) = (Vec::new(), Vec::new());
        for s in [10, 20, 30] {
            lw.run_to(SimTime::from_secs(s));
            let drained = lw.drain_trace();
            assert!(!drained.is_empty(), "{name}/{shards}: records by {s} s");
            trace.extend(drained);
            series.extend(lw.drain_series());
        }
        let rest = LiveWorld::restore(&lw.snapshot(), &opts).finish();
        if name == "lifetime" {
            assert!(
                rest.trace.iter().any(|r| r.ev.cat() == TraceCat::Route),
                "{name}/{shards}: the route refresh follows the snapshot"
            );
        }
        trace.extend(rest.trace);
        series.extend(rest.series);
        assert!(
            trace == whole.trace,
            "{name}/{shards}: drained trace differs"
        );
        assert!(
            series == whole.series,
            "{name}/{shards}: drained series differs"
        );
    }
}

#[test]
fn trace_keys_are_sorted_and_categorised() {
    let out = death_scenario(2).run_with(&RunOptions {
        trace: true,
        ..RunOptions::default()
    });
    for w in out.trace.windows(2) {
        assert!(w[0].key <= w[1].key, "merged trace is key-ordered");
    }
    // Every category of the taxonomy shows up in a death-bearing run.
    for cat in [
        TraceCat::Pkt,
        TraceCat::Radio,
        TraceCat::Power,
        TraceCat::Route,
    ] {
        assert!(
            out.trace.iter().any(|r| r.ev.cat() == cat),
            "{cat:?} records present"
        );
    }
}

#[test]
fn series_deltas_telescope_to_the_globals() {
    let every = SimDuration::from_secs(7); // deliberately not a divisor
    for shards in [1, 4] {
        let mut scen = death_scenario(shards);
        scen.duration = SimDuration::from_secs(60);
        let out = scen.run_with(&RunOptions {
            series_every: Some(every),
            ..RunOptions::default()
        });
        let s = &out.series;
        assert!(!s.is_empty(), "series emitted");
        let last = s.last().unwrap();
        assert_eq!(last.t_s, 60.0, "the series closes exactly at the horizon");
        for sample in s {
            assert_eq!(sample.queue_depth.len(), shards, "one depth per shard");
        }
        let stats = &out.stats;
        let gen_p: u64 = s.iter().map(|x| x.generated_packets).sum();
        let del_p: u64 = s.iter().map(|x| x.delivered_packets).sum();
        let del_b: u64 = s.iter().map(|x| x.delivered_bits).sum();
        assert_eq!(
            gen_p, stats.metrics.generated_packets,
            "generated telescopes"
        );
        assert_eq!(
            del_p, stats.metrics.delivered_packets,
            "delivered telescopes"
        );
        assert_eq!(del_b, stats.metrics.delivered_bits, "bits telescope");
        let energy: f64 = s.iter().map(|x| x.energy_j).sum();
        assert!(
            (energy - stats.energy_j).abs() <= 1e-9 * stats.energy_j.max(1.0),
            "energy telescopes: {energy} vs {}",
            stats.energy_j
        );
        let idle: f64 = s.iter().map(|x| x.energy_low_idle_j).sum();
        assert!(
            (idle - stats.energy_low_idle_j).abs() <= 1e-9 * stats.energy_low_idle_j.max(1.0),
            "idle floor telescopes: {idle} vs {}",
            stats.energy_low_idle_j
        );
        // Node deaths show up as a falling live count.
        let first = s.first().unwrap();
        assert!(
            s.last().unwrap().live_nodes < first.live_nodes,
            "deaths visible in the live-node series"
        );
    }
}

#[test]
fn trace_and_series_round_trip_through_ndjson() {
    let out = death_scenario(2).run_with(&RunOptions {
        trace: true,
        series_every: Some(SimDuration::from_secs(10)),
        ..RunOptions::default()
    });
    for r in out.trace.iter().take(500) {
        let line = r.to_ndjson();
        let v = bcp_sim::json::parse(&line).expect("trace line parses");
        assert_eq!(
            v.get("ev").and_then(|e| e.as_str()),
            Some(r.ev.name()),
            "event name round-trips"
        );
        assert_eq!(
            v.get("t_ns").and_then(|t| t.as_u64()),
            Some(r.key.time.as_nanos()),
            "timestamp round-trips"
        );
        assert_eq!(
            v.get("cat").and_then(|c| c.as_str()),
            Some(r.ev.cat().label()),
            "category round-trips"
        );
    }
    for s in &out.series {
        let v = bcp_sim::json::parse(&s.to_ndjson()).expect("series line parses");
        assert_eq!(
            v.get("live_nodes").and_then(|x| x.as_u64()),
            Some(s.live_nodes)
        );
        assert_eq!(
            v.get("queue_depth")
                .and_then(|x| x.as_arr())
                .map(|a| a.len()),
            Some(s.queue_depth.len())
        );
    }
}

#[test]
fn engine_counters_surface_in_the_summary_json() {
    let stats = death_scenario(2).run();
    let v = bcp_sim::json::parse(&stats.to_json()).expect("summary parses");
    let engine = v.get("engine").expect("engine block present");
    assert_eq!(engine.get("shards").and_then(|x| x.as_u64()), Some(2));
    assert!(
        engine.get("windows").and_then(|x| x.as_u64()).unwrap_or(0) > 0,
        "windows counted"
    );
    assert_eq!(
        engine
            .get("per_shard_events")
            .and_then(|x| x.as_arr())
            .map(|a| a.len()),
        Some(2)
    );
    assert_eq!(
        engine
            .get("per_shard_max_queue")
            .and_then(|x| x.as_arr())
            .map(|a| a.len()),
        Some(2)
    );
    let eps = stats.engine.events_per_sec;
    assert!(eps.is_finite() && eps >= 0.0, "events/sec is a real figure");
}
