//! Checkpoint size follows the packets that can still change an outcome,
//! not every packet ever sent: a delivered copy is one bit of its flow's
//! delivery bitmap, and only lost copies keep an entry of their own.

use bcp::sim::time::SimTime;
use bcp::simnet::{parse_spec, RunOptions, World};
use bcp::snapshot::{to_bytes_with_meta, RunMeta};

#[test]
fn single_hop_checkpoint_grows_at_most_two_bytes_per_generated_packet() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs/single_hop.scn");
    let text = std::fs::read_to_string(path).expect("checked-in spec");
    let scen = parse_spec(&text).expect("spec parses");
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
