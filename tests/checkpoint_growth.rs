//! Checkpoint bytes, pinned and measured.
//!
//! Every checkpoint byte is pinned by a digest: the small checked-in
//! specs and a few scenario-builder cells are paused at instants that
//! catch each kind of state in flight (handshakes, bursts, receptions,
//! deaths, shadowing, duty cycling), framed with a run-meta trailer, and
//! hashed against `tests/golden/checkpoints.txt`. A change to how any
//! piece of state is written fails here.
//!
//! Checkpoint size follows the packets that can still change an outcome,
//! not every packet ever sent: a delivered copy is one bit of its flow's
//! delivery bitmap, and only lost copies keep an entry of their own.

use bcp::net::addr::NodeId;
use bcp::power::{Battery, PowerConfig};
use bcp::sim::rng::Rng;
use bcp::sim::time::{SimDuration, SimTime};
use bcp::simnet::LiveWorld;
use bcp::simnet::{
    parse_spec, HighRoute, ModelKind, RunOptions, Scenario, WorkloadKind, World, WorldState,
};
use bcp::snapshot::cache::sha256_hex;
use bcp::snapshot::{from_bytes, to_bytes_with_meta, RunMeta};

fn spec(name: &str) -> Scenario {
    let path = format!("{}/examples/specs/{name}.scn", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("checked-in spec");
    parse_spec(&text).expect("spec parses")
}

/// A 3×3 dual-radio grid whose sender learns high-radio shortcuts while
/// the starved relays of its low-parent chain die.
fn shortcut_chain() -> Scenario {
    let mut s = Scenario::single_hop(ModelKind::DualRadio, 1, 50, 9);
    s.topo = bcp::net::topo::Topology::grid(3, 40.0);
    s.sink = NodeId(0);
    s.senders = vec![NodeId(8)];
    s.high_profile = bcp::radio::profile::cabletron().with_range(100.0);
    s.duration = SimDuration::from_secs(600);
    s.rate_bps = 2_000.0;
    s.high_route = HighRoute::LowParents {
        shortcuts: true,
        listen: SimDuration::from_millis(200),
    };
    s.power = PowerConfig::unlimited()
        .with_node_battery(1, Battery::ideal_joules(8.0))
        .with_node_battery(2, Battery::ideal_joules(8.0))
        .with_node_battery(5, Battery::ideal_joules(8.0));
    s
}

/// Poisson senders whose traffic stops at a cutoff that flushes the BCP
/// buffers.
fn poisson_flush() -> Scenario {
    Scenario::single_hop(ModelKind::DualRadio, 2, 60, 11)
        .with_duration(SimDuration::from_secs(90))
        .with_workload(WorkloadKind::Poisson)
        .with_traffic_cutoff(SimDuration::from_secs(60), true)
}

const S: u64 = 1_000_000_000;

/// `(label, scenario, pauses in ns)`. The whole-second pauses sample
/// steady state; between them, the odd instants catch a `WaitAck`
/// handshake with a control payload; a receiver session, a medium lock
/// and a transmission on air; a `Bursting` session with its reassembly
/// and burst payload; a pending `RxEnd` carrying a burst frame;
/// `WakingRadio` with a wake pending; a MAC owing an ACK; audible powers
/// with shadowing offsets; the Gilbert bad state with an on/off
/// workload; LPL audibility; a dead node; an `RxEnd` with a sensor
/// payload; supplies with a pending route refresh; the dissemination
/// tree; learned shortcuts; a pending `NodeDied`; a Poisson workload
/// with a pending `Flush`.
fn cells() -> Vec<(&'static str, Scenario, Vec<u64>)> {
    let steady = [3 * S, 11 * S, 29 * S];
    let mut out: Vec<(&'static str, Scenario, Vec<u64>)> = Vec::new();
    for (name, odd) in [
        (
            "single_hop",
            &[
                12_812_942_000,
                12_820_861_000,
                12_823_499_000,
                12_828_780_000,
                12_915_889_000,
                25_728_831_000,
            ][..],
        ),
        ("shadowed_grid", &[12_812_942_000][..]),
        ("lossy_audio", &[3_230_952_000][..]),
        ("lpl_monitoring", &[5_503_705_000][..]),
        ("race_5node", &[10_666_893_000][..]),
        ("gossip_pairs", &[11_902_257_000][..]),
        ("lifetime", &[7_919_000][..]),
        ("broadcast_demo", &[7_919_000][..]),
        ("broadcast_grid", &[][..]),
        ("multi_hop", &[][..]),
    ] {
        let mut pauses: Vec<u64> = steady.iter().chain(odd).copied().collect();
        pauses.sort_unstable();
        out.push((name, spec(name), pauses));
    }
    out.push((
        "cell:shortcut_chain",
        shortcut_chain(),
        vec![7 * S, 89_711_825_981],
    ));
    out.push(("cell:poisson_flush", poisson_flush(), vec![29 * S]));
    out
}

/// The run options and the run-meta trailer the pinned checkpoints are
/// taken under: a 1 s series, and a trace filter for the trailer.
fn pinned_setup() -> (RunOptions, RunMeta) {
    let every = SimDuration::from_secs(1);
    let opts = RunOptions {
        series_every: Some(every),
        ..RunOptions::default()
    };
    let meta = RunMeta {
        series_every: Some(every),
        trace: true,
        trace_filter: vec!["pkt".into(), "radio".into()],
    };
    (opts, meta)
}

#[test]
fn checkpoint_bytes_match_their_digests() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/checkpoints.txt");
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    let (opts, meta) = pinned_setup();
    let mut got = String::new();
    for (label, scen, pauses) in cells() {
        let mut lw = World::build(&scen, &opts);
        for ns in pauses {
            lw.run_to(SimTime::from_nanos(ns));
            let bytes = to_bytes_with_meta(&lw.snapshot(), &meta).expect("encodes");
            got.push_str(&format!("{label} {ns} {}\n", sha256_hex(&bytes)));
        }
    }
    let mismatched: Vec<String> = got
        .lines()
        .zip(golden.lines().chain(std::iter::repeat("<missing>")))
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got  {g}\n  want {w}"))
        .collect();
    assert!(
        mismatched.is_empty() && got.lines().count() == golden.lines().count(),
        "checkpoint bytes changed:\n{}\nfull digest list:\n{got}",
        mismatched.join("\n")
    );
}

/// Whether a restored state's route basis differs from the initial one.
type BasisMoved = fn(&WorldState) -> bool;

/// Pauses that follow a republish, so their restores rebuild routes from
/// a basis other than the initial one: `lifetime` just after its first
/// route refresh (30 s), `cell:shortcut_chain` just after the death of
/// node 1 is published (its `NodeDied` runs at 89.711829980 s). Not
/// pinned by digest; each carries a check that the basis did move.
fn republished_pauses(label: &str) -> Option<(u64, BasisMoved)> {
    match label {
        "lifetime" => Some((30 * S + 1_000, |w| w.global_events >= 1)),
        "cell:shortcut_chain" => Some((89_711_829_981, |w| w.death_seen)),
        _ => None,
    }
}

/// Every pinned pause, decoded from its bytes and restored, runs to the
/// cell's next pause (the last one 10 s on, or to the horizon) and
/// checkpoints there to the same bytes as the uninterrupted run: the
/// restore rebuilds everything a checkpoint does not carry exactly.
#[test]
fn restored_pauses_continue_exactly() {
    let (opts, meta) = pinned_setup();
    let frame = |lw: &LiveWorld| to_bytes_with_meta(&lw.snapshot(), &meta).expect("encodes");
    for (label, scen, mut pauses) in cells() {
        let extra = republished_pauses(label);
        pauses.extend(extra.map(|e| e.0));
        pauses.sort_unstable();
        let mut lw = World::build(&scen, &opts);
        let end = lw.end().as_nanos();
        let last = pauses.last().expect("every cell pauses");
        let mut targets = pauses.clone();
        targets.push((last + 10 * S).min(end));
        let mut frames = Vec::new();
        for &ns in &targets {
            lw.run_to(SimTime::from_nanos(ns));
            frames.push(frame(&lw));
        }
        for (i, pair) in targets.windows(2).enumerate() {
            let (from, to) = (pair[0], pair[1]);
            let state = from_bytes(&frames[i]).expect("a pinned frame decodes");
            if let Some((at, moved)) = extra.filter(|e| e.0 == from) {
                assert!(moved(&state), "{label} at {at} ns: no republish yet");
            }
            let mut resumed = LiveWorld::restore(&state, &opts);
            resumed.run_to(SimTime::from_nanos(to));
            assert!(
                frame(&resumed) == frames[i + 1],
                "{label}: restored at {from} ns and run to {to} ns, the checkpoint differs"
            );
        }
    }
}

/// The frame checksum (FNV-1a-64), recomputed for edited payloads.
fn checksum(payload: &[u8]) -> u64 {
    payload.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Seeded one-byte mutations of the state section (after the embedded
/// scenario text) of some of the pinned checkpoints, each re-framed with
/// a valid checksum: every mutant must decode to a typed error or to a
/// state the restore accepts without panicking.
#[test]
fn checksum_valid_mutants_decode_to_errors_or_restorable_states() {
    let picks = [
        ("single_hop", 12_828_780_000),
        ("shadowed_grid", 12_812_942_000),
        ("race_5node", 10_666_893_000),
        ("lifetime", 7_919_000),
        ("broadcast_demo", 7_919_000),
        ("cell:shortcut_chain", 89_711_825_981),
    ];
    let mut rng = Rng::new(18);
    let (mut typed, mut restored) = (0, 0);
    for (label, scen, _) in cells() {
        let Some(&(_, ns)) = picks.iter().find(|p| p.0 == label) else {
            continue;
        };
        let mut lw = World::build(&scen, &RunOptions::default());
        lw.run_to(SimTime::from_nanos(ns));
        let frame = to_bytes_with_meta(&lw.snapshot(), &RunMeta::default()).expect("encodes");
        // The payload opens with the scenario text: a varint length, then
        // the bytes.
        let (mut text_len, mut at) = (0usize, 12);
        for shift in (0..).step_by(7) {
            let b = frame[at];
            at += 1;
            text_len |= ((b & 0x7f) as usize) << shift;
            if b & 0x80 == 0 {
                break;
            }
        }
        let state_at = at + text_len;
        let payload_end = frame.len() - 8;
        for _ in 0..500 {
            let pos = state_at + rng.index(payload_end - state_at);
            let mut bad = frame.clone();
            bad[pos] = match rng.index(4) {
                0 => 0,
                1 => 0xff,
                2 => 1,
                _ => bad[pos] ^ (1 << rng.index(8)),
            };
            let sum = checksum(&bad[12..payload_end]);
            bad[payload_end..].copy_from_slice(&sum.to_le_bytes());
            match from_bytes(&bad) {
                Err(_) => typed += 1,
                Ok(state) => {
                    let restore = std::panic::catch_unwind(|| {
                        LiveWorld::restore(&state, &RunOptions::default());
                    });
                    assert!(
                        restore.is_ok(),
                        "{label} at {ns} ns: byte {pos} -> {:#04x} decodes but panics the restore",
                        bad[pos]
                    );
                    restored += 1;
                }
            }
        }
    }
    assert_eq!(typed + restored, 3000, "every pick was mutated");
    assert!(
        typed > 0 && restored > 0,
        "{typed} errors, {restored} restores"
    );
}

/// A checkpoint carries the basis the routes are computed from, not the
/// route tables: the 576-node grid's stays under 300 KB (its two
/// all-pairs tables alone once took about 3.2 MB).
#[test]
fn grid_checkpoint_carries_no_route_tables() {
    let scen = spec("serve_long");
    let mut lw = World::build(&scen, &RunOptions::default());
    lw.run_to(SimTime::from_secs(1));
    let snap = lw.snapshot();
    let bytes = to_bytes_with_meta(&snap, &RunMeta::derived_from(&snap)).expect("encodes");
    assert!(
        bytes.len() < 300_000,
        "serve_long at 1 s encodes to {} B",
        bytes.len()
    );
}

#[test]
fn single_hop_checkpoint_grows_at_most_two_bytes_per_generated_packet() {
    let scen = spec("single_hop");
    let mut lw = World::build(&scen, &RunOptions::default());
    let mut points = Vec::new();
    for secs in [200, 2000] {
        lw.run_to(SimTime::from_secs(secs));
        let snap = lw.snapshot();
        let bytes = to_bytes_with_meta(&snap, &RunMeta::derived_from(&snap)).expect("encodes");
        points.push((snap.metrics.generated_packets, bytes.len() as u64));
    }
    let [(gen_a, bytes_a), (gen_b, bytes_b)] = points[..] else {
        unreachable!("two checkpoints")
    };
    assert!(
        gen_b > gen_a + 100_000,
        "the run keeps generating: {gen_a} -> {gen_b}"
    );
    let per_packet = bytes_b.saturating_sub(bytes_a) as f64 / (gen_b - gen_a) as f64;
    assert!(
        per_packet <= 2.0,
        "checkpoint grew {bytes_a} -> {bytes_b} B over {} packets: {per_packet:.2} B/packet",
        gen_b - gen_a
    );
}
