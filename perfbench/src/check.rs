//! Output checks: the stats digest (modulo the wall-clock `engine`
//! block), packet conservation, and the per-layer counts a finished
//! run's stats carry.

use bcp_sim::json::{parse, Value};
use bcp_snapshot::cache::sha256_hex;
use std::collections::BTreeMap;

/// Digests of `RunStats` minus `.engine`, recorded for the default
/// (`1`) and held-out (`2`) workload seeds: `<workload> <seed> <label>
/// <sha256>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// The stats JSON without its `"engine":{...}` block — the only part of
/// a run summary that is wall-clock and so may differ between runs. The
/// block is a flat object (arrays, no nested objects).
pub fn strip_engine(json: &str) -> String {
    let Some(start) = json.find("\"engine\":") else {
        return json.to_string();
    };
    let open = start + json[start..].find('{').unwrap_or(0);
    let close = open + json[open..].find('}').unwrap_or(0);
    let rest = &json[close + 1..];
    format!(
        "{}{}",
        &json[..start],
        rest.strip_prefix(',').unwrap_or(rest)
    )
}

pub fn digest(stats_json: &str) -> String {
    sha256_hex(strip_engine(stats_json).as_bytes())
}

/// The recorded digest for one result, if this seed has one.
pub fn recorded(workload: &str, seed: u64, label: &str) -> Option<&'static str> {
    DIGESTS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            [w, s, l, d] if *w == workload && s.parse() == Ok(seed) && *l == label => Some(*d),
            _ => None,
        }
    })
}

/// The per-layer counts one finished run contributes, keyed by metric
/// name. `engine.wall_s` is only used where the run happened inside the
/// server, out of reach of the benchmark's spans.
pub struct StatsCounts {
    pub counts: BTreeMap<&'static str, f64>,
    pub max_queue: f64,
    pub engine_wall_s: f64,
}

fn u(v: &Value, path: &[&str]) -> Result<u64, String> {
    let mut cur = v;
    for k in path {
        cur = cur
            .get(k)
            .ok_or_else(|| format!("stats lack {}", path.join(".")))?;
    }
    cur.as_u64()
        .ok_or_else(|| format!("stats field {} is not a count", path.join(".")))
}

/// Parses a stats JSON, checks packet conservation (generated =
/// delivered + MAC drops + buffer drops + residual) and returns its
/// counts.
pub fn stats_counts(stats_json: &str) -> Result<StatsCounts, String> {
    let v = parse(stats_json)?;
    let m = |k: &str| u(&v, &["metrics", k]);
    let generated = m("generated_packets")?;
    let delivered = m("delivered_packets")?;
    let drops_mac = m("drops_mac")?;
    let drops_buffer = m("drops_buffer")?;
    let residual = m("residual_packets")?;
    if generated != delivered + drops_mac + drops_buffer + residual {
        return Err(format!(
            "packet conservation broken: generated {generated} != delivered {delivered} \
             + mac {drops_mac} + buffer {drops_buffer} + residual {residual}"
        ));
    }
    let engine = v.get("engine").ok_or("stats lack engine")?;
    let max_queue = engine
        .get("per_shard_max_queue")
        .and_then(Value::as_arr)
        .ok_or("stats lack engine.per_shard_max_queue")?
        .iter()
        .filter_map(Value::as_u64)
        .max()
        .unwrap_or(0);
    let engine_wall_s = engine
        .get("wall_s")
        .and_then(Value::as_f64)
        .ok_or("stats lack engine.wall_s")?;
    let mut counts = BTreeMap::new();
    counts.insert("engine.events", u(&v, &["events"])? as f64);
    counts.insert("engine.windows", u(&v, &["engine", "windows"])? as f64);
    counts.insert("engine.barriers", u(&v, &["engine", "barriers"])? as f64);
    counts.insert(
        "engine.serial_steps",
        u(&v, &["engine", "serial_steps"])? as f64,
    );
    counts.insert("channel.collisions", m("collisions")? as f64);
    counts.insert("mac.drops", drops_mac as f64);
    counts.insert("bcp.handshakes", m("handshakes")? as f64);
    counts.insert("bcp.buffer_drops", drops_buffer as f64);
    counts.insert("radio.wakeups", m("radio_wakeups")? as f64);
    counts.insert("pkt.generated", generated as f64);
    counts.insert("pkt.delivered", delivered as f64);
    counts.insert("pkt.residual", residual as f64);
    Ok(StatsCounts {
        counts,
        max_queue: max_queue as f64,
        engine_wall_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_engine_removes_only_the_engine_block() {
        let json = "{\"events\":3,\"engine\":{\"wall_s\":0.1,\"per_shard_events\":[1,2]},\"x\":1}";
        assert_eq!(strip_engine(json), "{\"events\":3,\"x\":1}");
        assert_eq!(strip_engine("{\"x\":1}"), "{\"x\":1}");
    }
}
