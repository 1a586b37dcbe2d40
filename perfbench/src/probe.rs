//! A fixed reference workload that reads how fast the host runs right
//! now. It is the benchmark's own code, not the library's, so no change
//! to the program moves it: a run divides its times by the probe's to
//! take out the host's phases and regimes.
//!
//! It does the kinds of work the simulator does, on a small working set:
//! a binary-heap event loop over nodes with neighbour lists, a hash map
//! that grows with history, short-lived allocations and formatted
//! records.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

const NODES: usize = 2048;
const DEGREE: usize = 8;
const EVENTS: usize = 40_000;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[derive(Clone, Default)]
struct Node {
    neighbours: Vec<u32>,
    seen: u64,
    energy: f64,
    queue: Vec<u64>,
}

/// Runs the reference workload once and returns a checksum of it.
pub fn run() -> u64 {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut nodes: Vec<Node> = (0..NODES)
        .map(|_| Node {
            neighbours: (0..DEGREE)
                .map(|_| (rng.next() % NODES as u64) as u32)
                .collect(),
            ..Node::default()
        })
        .collect();
    let mut events = BinaryHeap::new();
    for i in 0..NODES as u64 {
        events.push(Reverse((rng.next() % 1000, i as u32)));
    }
    // Fixed hash keys, so every call does the same work.
    let mut fates: HashMap<u64, (u32, u64), BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut record = String::new();
    let mut sum = 0u64;
    for k in 0..EVENTS as u64 {
        let Some(Reverse((t, at))) = events.pop() else {
            break;
        };
        let v = rng.next();
        let node = &mut nodes[at as usize];
        node.seen += 1;
        node.energy += (v % 97) as f64 * 1e-3;
        node.queue.push(k);
        if node.queue.len() > 16 {
            node.queue.clear();
        }
        let to = node.neighbours[(v % DEGREE as u64) as usize];
        if v.is_multiple_of(4) {
            fates.insert(k, (to, t));
        }
        if let Some(f) = fates.get_mut(&(v % (k + 1))) {
            f.1 += t;
            sum = sum.wrapping_add(f.1);
        }
        if v.is_multiple_of(16) {
            record.clear();
            let _ = write!(
                record,
                "{{\"t\":{t},\"from\":{at},\"to\":{to},\"e\":{:.4}}}",
                node.energy
            );
            sum = sum.wrapping_add(record.len() as u64);
        }
        events.push(Reverse((t + 1 + (v >> 40) % 300, to)));
    }
    black_box(sum ^ fates.len() as u64)
}
