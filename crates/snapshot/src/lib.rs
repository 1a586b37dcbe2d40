//! # bcp-snapshot — durable checkpoint files
//!
//! Frames a [`WorldState`] (the exact pause-state of a simulation, from
//! `bcp-simnet`'s snapshot subsystem) as a versioned, checksummed binary
//! file and back. This crate owns only the frame, the [`RunMeta`]
//! trailer, the typed errors and the content-addressed [`cache`]: the
//! state itself is written by the runtime types, each through its own
//! [`Persist`] impl.
//!
//! # File format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "BCPSNAP1"
//! 8       4     format version, little-endian u32 (currently 5)
//! 12      n     payload: the scenario's .scn text, the world state, the RunMeta
//! 12+n    8     checksum of the payload, little-endian
//! ```
//!
//! The payload encodes integers as LEB128 varints and floats and the
//! words of the delivery bitmaps as fixed eight-byte fields (see
//! `bcp_sim::persist`), and the scenario as its canonical `.scn` text
//! (see `bcp_simnet::spec`) — so a checkpoint is self-describing: loading
//! one needs no side-channel scenario file. The payload ends with a
//! [`RunMeta`] trailer recording the run settings the world state alone
//! cannot carry — the series interval the run was sampled under and the
//! trace switch/filter — so a resume can detect (and refuse) conflicting
//! CLI flags instead of silently diverging.
//!
//! A checkpoint carries no route tables. Routes are a pure function of
//! the topology, the dead set and, under max–min residual routing, the
//! residual energies at the last publish; the world state carries the
//! liveness flags and, under that weight only, the residual vector, and
//! a restore recomputes the routes from them.
//!
//! The checksum is FNV-1a-64: starting from the offset basis
//! `0xcbf29ce484222325`, each payload byte is XORed in and the state
//! multiplied by the prime `0x100_0000_01b3` (wrapping). It detects
//! accidental corruption; it is no defence against a deliberately
//! crafted file.
//!
//! # Version policy
//!
//! The version number covers the *payload encoding*. Readers accept
//! every version they know (currently only 5 — version 3 split the
//! loss model out of the channel slots into per-node loss state and
//! added received-power audibility and shadowing; version 4 replaced
//! the per-copy fate list with per-flow delivered-sequence bitmaps plus
//! the unsettled losses; version 5 replaced the route tables and the
//! dissemination tree with the route basis, and the checksum's
//! multiplier `0x1_0000_01b3` with the FNV-64 prime) and reject the
//! rest with
//! [`SnapshotError::UnsupportedVersion`] — there is no silent best-effort
//! decoding. Any change to the encoded layout (new fields, reordered
//! fields, changed varint widths) bumps the version; old checkpoints are
//! then explicitly unreadable rather than subtly wrong, which is the
//! only safe failure mode for a format whose whole point is bit-exact
//! resumption.
//!
//! # What a bad file yields
//!
//! Corruption anywhere in the payload is caught by the checksum and
//! truncation by the frame length checks. A frame whose checksum holds
//! but whose payload does not decode — or does not fit the scenario it
//! embeds: a wrong node count or id, a part the scenario does not build,
//! an all-zero RNG stream, a pause past the horizon, a pending event
//! before the pause, a route residual vector of the wrong length, holding
//! a NaN or present under shortest-hop routing — is
//! [`SnapshotError::Decode`]. Every state that
//! decodes is one `LiveWorld::restore` accepts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use bcp_sim::time::SimDuration;
use bcp_simnet::snapshot::WorldState;
use bcp_simnet::{emit_spec, parse_spec};
use std::fmt;
use std::path::Path;

pub use bcp_simnet::snapshot::{explore, ExploreLimits, ExploreReport};

/// The file magic.
pub const MAGIC: [u8; 8] = *b"BCPSNAP1";
/// The current payload format version.
pub const VERSION: u32 = 5;
/// The oldest payload format version this reader still accepts.
pub const MIN_VERSION: u32 = 5;

pub mod cache;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a checkpoint could not be written or read.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic (or is shorter
    /// than a frame header).
    BadMagic,
    /// The file declares a payload format this reader does not know.
    UnsupportedVersion(
        /// The version the file declares.
        u32,
    ),
    /// The payload does not match its stored checksum: the file was
    /// corrupted or truncated after writing.
    ChecksumMismatch,
    /// The checksum held but the payload does not decode, or does not
    /// fit the scenario it embeds — a writer bug or a deliberately
    /// crafted file.
    Decode(String),
    /// The snapshot's scenario cannot round-trip through the `.scn` text
    /// form the payload embeds.
    Spec(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            SnapshotError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "checkpoint format version {v} is not supported \
                     (reader knows {MIN_VERSION}..={VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => {
                write!(
                    f,
                    "checkpoint payload does not match its checksum (corrupt or truncated)"
                )
            }
            SnapshotError::Decode(m) => write!(f, "checkpoint payload malformed: {m}"),
            SnapshotError::Spec(m) => write!(f, "scenario not representable in a checkpoint: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e.to_string())
    }
}

type Res<T> = Result<T, SnapshotError>;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// The frame checksum: FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Run settings that ride in the checkpoint next to the world state
/// (the payload trailer): the series grid the run was recorded under
/// and the trace switch/filter. A resume that silently applied
/// *different* values would append a non-telescoping series tail or a
/// differently-filtered trace to the original run's output files — so
/// these are persisted and checked, not re-trusted from the CLI.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMeta {
    /// The series sampling interval the run was started with, if any.
    pub series_every: Option<SimDuration>,
    /// Whether the run recorded a flight-recorder trace.
    pub trace: bool,
    /// The trace category filter, as its stable CLI labels (`pkt`,
    /// `radio`, ...); empty = all categories.
    pub trace_filter: Vec<String>,
}

bcp_sim::persist!(struct RunMeta { series_every, trace, trace_filter });

impl RunMeta {
    /// The meta a world state implies on its own: the series interval is
    /// recoverable from the captured sampler state, the trace settings
    /// are unknown and default to off.
    pub fn derived_from(state: &WorldState) -> RunMeta {
        RunMeta {
            series_every: state.series.as_ref().map(|s| s.every),
            trace: false,
            trace_filter: Vec::new(),
        }
    }
}

/// Serialises a snapshot into a complete checkpoint frame
/// (magic + version + payload + checksum) with a default [`RunMeta`]
/// derived from the world state.
pub fn to_bytes(state: &WorldState) -> Res<Vec<u8>> {
    to_bytes_with_meta(state, &RunMeta::derived_from(state))
}

/// Serialises a snapshot plus its run settings into a complete
/// checkpoint frame (magic + version + payload + checksum).
pub fn to_bytes_with_meta(state: &WorldState, meta: &RunMeta) -> Res<Vec<u8>> {
    let spec = emit_spec(&state.scen).map_err(|e| SnapshotError::Spec(e.to_string()))?;
    // The embedded text must reproduce the scenario *exactly*: a lossy
    // embed would resume a subtly different world.
    let back = parse_spec(&spec).map_err(|e| SnapshotError::Spec(e.to_string()))?;
    if back != state.scen {
        return Err(SnapshotError::Spec(
            "scenario does not round-trip through its .scn text".into(),
        ));
    }
    let mut e = Enc::new();
    e.str(&spec);
    state.save(&mut e);
    meta.save(&mut e);
    let payload = e.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    Ok(out)
}

/// Parses a checkpoint frame back into a snapshot, verifying magic,
/// version and checksum before decoding. The run meta is dropped; see
/// [`from_bytes_with_meta`].
pub fn from_bytes(bytes: &[u8]) -> Res<WorldState> {
    from_bytes_with_meta(bytes).map(|(state, _)| state)
}

/// Parses a checkpoint frame back into a snapshot plus the run settings
/// it was recorded under, verifying magic, version and checksum before
/// decoding.
pub fn from_bytes_with_meta(bytes: &[u8]) -> Res<(WorldState, RunMeta)> {
    if bytes.len() < 12 || bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    if bytes.len() < 20 {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let payload = &bytes[12..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    if fnv1a64(payload) != stored {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut d = Dec::new(payload);
    let scen = parse_spec(&d.str()?).map_err(|e| SnapshotError::Spec(e.to_string()))?;
    let mut state = WorldState::blank(scen);
    state.load(&mut d)?;
    let meta: RunMeta = d.read()?;
    if d.remaining() != 0 {
        return Err(SnapshotError::Decode(format!(
            "{} trailing bytes after the world state",
            d.remaining()
        )));
    }
    Ok((state, meta))
}

/// Writes `state` to `path` as a checkpoint file, with a default
/// [`RunMeta`] derived from the world state.
pub fn save(path: &Path, state: &WorldState) -> Res<()> {
    save_with_meta(path, state, &RunMeta::derived_from(state))
}

/// Writes `state` plus its run settings to `path` as a checkpoint file.
pub fn save_with_meta(path: &Path, state: &WorldState, meta: &RunMeta) -> Res<()> {
    let bytes = to_bytes_with_meta(state, meta)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Reads a checkpoint file written by [`save`], dropping the run meta.
pub fn load(path: &Path) -> Res<WorldState> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes)
}

/// Reads a checkpoint file back into its snapshot and run settings.
pub fn load_with_meta(path: &Path) -> Res<(WorldState, RunMeta)> {
    let bytes = std::fs::read(path)?;
    from_bytes_with_meta(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_power::{Battery, PowerConfig};
    use bcp_sim::time::SimTime;
    use bcp_simnet::world::{LiveWorld, RunOptions, World};
    use bcp_simnet::{ModelKind, Scenario};

    fn dual_scenario() -> Scenario {
        Scenario::single_hop(ModelKind::DualRadio, 2, 60, 11)
            .with_duration(SimDuration::from_secs(90))
    }

    fn lpl_death_scenario() -> Scenario {
        let mut s = Scenario::single_hop(ModelKind::Sensor, 6, 10, 17);
        s.duration = SimDuration::from_secs(60);
        s.power = PowerConfig::unlimited().with_node_battery(5, Battery::ideal_joules(0.05));
        s.low_sleep = bcp_mac::sleep::SleepSchedule::lpl(
            SimDuration::from_millis(100),
            SimDuration::from_millis(10),
        );
        s.rate_bps = 500.0;
        s
    }

    fn snapshot_at(scen: &Scenario, t: u64) -> WorldState {
        let mut lw = World::build(scen, &RunOptions::default());
        lw.run_to(SimTime::from_secs(t));
        lw.snapshot()
    }

    /// Round-trip property over mid-run snapshots of both stacks at many
    /// pause instants: the codec must be the identity on every reachable
    /// WorldState.
    #[test]
    fn roundtrip_is_identity_on_mid_run_snapshots() {
        for t in [1, 7, 23, 44, 59] {
            for scen in [dual_scenario(), lpl_death_scenario()] {
                let snap = snapshot_at(&scen, t);
                let bytes = to_bytes(&snap).expect("encodes");
                let back = from_bytes(&bytes).expect("decodes");
                assert_eq!(snap, back, "roundtrip at t={t}s, model {:?}", scen.model);
            }
        }
    }

    /// End-to-end: a run resumed from the *decoded bytes* finishes with
    /// the same stats as the uninterrupted run — the codec preserves not
    /// just equality but behaviour.
    #[test]
    fn resume_from_bytes_is_bit_exact() {
        let scen = dual_scenario();
        let cold = World::run_with(&scen, &RunOptions::default());
        let bytes = to_bytes(&snapshot_at(&scen, 37)).expect("encodes");
        let warm = LiveWorld::restore(
            &from_bytes(&bytes).expect("decodes"),
            &RunOptions::default(),
        )
        .finish();
        assert_eq!(cold.stats.metrics, warm.stats.metrics);
        assert_eq!(cold.stats.energy_j, warm.stats.energy_j);
        assert_eq!(cold.stats.mean_delay_s, warm.stats.mean_delay_s);
        assert_eq!(cold.stats.per_node, warm.stats.per_node);
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let snap = snapshot_at(&dual_scenario(), 5);
        let bytes = to_bytes(&snap).expect("encodes");
        // Flip one byte at a sample of positions across the frame: each
        // must yield a typed error (or, for the rare benign flip inside
        // the varint padding, an equal state) — never a panic.
        let step = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xff;
            match from_bytes(&bad) {
                Err(
                    SnapshotError::BadMagic
                    | SnapshotError::UnsupportedVersion(_)
                    | SnapshotError::ChecksumMismatch
                    | SnapshotError::Decode(_)
                    | SnapshotError::Spec(_),
                ) => {}
                Err(e) => panic!("unexpected error kind at byte {pos}: {e}"),
                Ok(state) => assert_eq!(state, snap, "silent corruption at byte {pos}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = to_bytes(&snapshot_at(&dual_scenario(), 5)).expect("encodes");
        let step = (bytes.len() / 53).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            let err = from_bytes(&bytes[..cut]).expect_err("truncated file must not load");
            match err {
                SnapshotError::BadMagic
                | SnapshotError::UnsupportedVersion(_)
                | SnapshotError::ChecksumMismatch => {}
                e => panic!("unexpected error for truncation at {cut}: {e}"),
            }
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let snap = snapshot_at(&dual_scenario(), 3);
        let bytes = to_bytes(&snap).expect("encodes");
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            from_bytes(&wrong_magic),
            Err(SnapshotError::BadMagic)
        ));
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            from_bytes(&future),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn run_meta_round_trips_through_the_frame() {
        let snap = snapshot_at(&dual_scenario(), 5);
        let meta = RunMeta {
            series_every: Some(SimDuration::from_secs(2)),
            trace: true,
            trace_filter: vec!["pkt".into(), "power".into()],
        };
        let bytes = to_bytes_with_meta(&snap, &meta).expect("encodes");
        let (back, back_meta) = from_bytes_with_meta(&bytes).expect("decodes");
        assert_eq!(snap, back);
        assert_eq!(meta, back_meta);
        // The meta-less entry points still work and agree.
        assert_eq!(from_bytes(&bytes).expect("decodes"), snap);
    }

    #[test]
    fn the_checksum_is_fnv1a_64() {
        // The published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn pre_v5_frames_are_explicitly_unreadable() {
        // Version 3 changed the channel-slot layout (loss-state split,
        // audibility, shadowing), version 4 the fate section (per-flow
        // delivery bitmaps) and version 5 the routes (their basis instead
        // of their tables) and the checksum; older frames must be
        // rejected with a typed version error, never best-effort decoded.
        let bytes = to_bytes(&snapshot_at(&dual_scenario(), 5)).expect("encodes");
        for old in [1u32, 2, 3, 4] {
            let mut v = bytes.clone();
            v[8..12].copy_from_slice(&old.to_le_bytes());
            assert!(
                matches!(
                    from_bytes(&v),
                    Err(SnapshotError::UnsupportedVersion(got)) if got == old
                ),
                "version {old} must be rejected"
            );
        }
    }

    /// Checksum-valid frames built from edited captures that do not fit
    /// their scenario, or are not canonical, are typed decode errors,
    /// never states that panic the restore. (Edits to private registers — the MAC access byte and
    /// streams, a reassembly bitmap, a BCP buffer, a channel stream — are
    /// covered by the crate-local tests that load crafted payloads.)
    #[test]
    fn frames_that_do_not_fit_their_scenario_are_decode_errors() {
        use bcp_net::addr::NodeId;
        use bcp_sim::keyed::EvKey;
        use bcp_simnet::events::{Ev, GlobalEv};
        let snap = snapshot_at(&dual_scenario(), 30);
        let key = |time: SimTime| EvKey {
            time,
            ..EvKey::default()
        };
        type Edit = Box<dyn Fn(&mut WorldState)>;
        let cases: Vec<(&str, Edit)> = vec![
            ("one node dropped", Box::new(|w| drop(w.nodes.pop()))),
            ("nodes out of order", Box::new(|w| w.nodes.swap(0, 1))),
            (
                "a pending arrival for node 999",
                Box::new(move |w| {
                    w.pending
                        .push((key(w.time), Ev::AppArrival { node: NodeId(999) }))
                }),
            ),
            (
                "a pause at 10,000 s",
                Box::new(|w| w.time = SimTime::from_secs(10_000)),
            ),
            (
                "a supply on a mains node",
                Box::new(|w| {
                    w.nodes[3].0.supply =
                        Some(bcp_power::PowerSupply::new(Battery::ideal_joules(1.0)))
                }),
            ),
            (
                "a dual-radio node without its high MAC",
                Box::new(|w| w.nodes[4].0.high_mac = None),
            ),
            (
                "a pending event keyed before the pause",
                Box::new(move |w| {
                    let before = SimTime::from_nanos(w.time.as_nanos() - 1);
                    w.pending
                        .insert(0, (key(before), Ev::Flush { node: NodeId(1) }))
                }),
            ),
            (
                "a pending global keyed before the pause",
                Box::new(move |w| {
                    w.pending_globals
                        .push((key(SimTime::ZERO), GlobalEv::RouteRefresh))
                }),
            ),
            (
                "a transmission by node 999",
                Box::new(|w| {
                    w.txs.push((999 << 40, Default::default()));
                }),
            ),
            ("a liveness flag too many", Box::new(|w| w.alive.push(true))),
            (
                "shadowing on a disk world",
                Box::new(|w| {
                    w.shadow = Some(bcp_simnet::snapshot::ShadowSnapshot {
                        low: Vec::new(),
                        high: Vec::new(),
                        rng: bcp_sim::rng::Rng::new(1),
                    })
                }),
            ),
            // The checksum only proves the writer's bytes arrived intact:
            // a zero-padded delivery bitmap is not a canonical world.
            (
                "a delivery bitmap ending in a zero word",
                Box::new(|w| w.delivered[0].1.push(0)),
            ),
        ];
        // The route basis of a max–min residual capture.
        let mut max_min = dual_scenario();
        max_min.route_weight = bcp_net::routing::RouteWeight::MaxMinResidual;
        max_min.power = PowerConfig::unlimited().with_node_battery(5, Battery::ideal_joules(50.0));
        let max_min = snapshot_at(&max_min, 30);
        let basis_cases: Vec<(&str, Edit)> = vec![
            (
                "a route residual short of the node count",
                Box::new(|w| {
                    residuals(w).pop();
                }),
            ),
            (
                "a NaN route residual",
                Box::new(|w| residuals(w)[0] = f64::NAN),
            ),
            (
                "route residuals under shortest-hop routing",
                Box::new(|w| w.scen.route_weight = Default::default()),
            ),
        ];
        assert!(!snap.delivered.is_empty(), "the run delivered by 30 s");
        for capture in [&snap, &max_min] {
            let back = from_bytes(&to_bytes(capture).expect("encodes"));
            assert_eq!(&back.expect("the capture itself decodes"), capture);
        }
        let cases = cases.into_iter().map(|c| (&snap, c));
        for (capture, (label, edit)) in cases.chain(basis_cases.into_iter().map(|c| (&max_min, c)))
        {
            let mut bad = capture.clone();
            edit(&mut bad);
            let bytes = to_bytes(&bad).expect("encodes");
            match from_bytes(&bytes) {
                Err(SnapshotError::Decode(_)) => {}
                other => panic!("{label}: expected a decode error, got {other:?}"),
            }
        }
    }

    fn residuals(w: &mut WorldState) -> &mut Vec<f64> {
        w.route_residual
            .as_mut()
            .expect("max-min routing keeps its residuals")
    }

    #[test]
    fn shadowed_world_round_trips_with_its_offsets() {
        // A received-power scenario captures its per-link shadowing; the
        // codec must reproduce the offsets bit for bit.
        let mut scen = dual_scenario();
        scen.phys = bcp_net::propagation::PhysModel::LogNormal {
            path_loss_exp: 3.0,
            sigma_db: 4.0,
            seed: None,
        };
        let snap = snapshot_at(&scen, 13);
        let sh = snap.shadow.as_ref().expect("logn world captures shadowing");
        assert!(!sh.low.is_empty() && !sh.high.is_empty());
        let back = from_bytes(&to_bytes(&snap).expect("encodes")).expect("decodes");
        assert_eq!(snap, back, "shadowed snapshot round-trips exactly");
    }

    #[test]
    fn save_and_load_through_a_file() {
        let dir = std::env::temp_dir().join("bcp-snapshot-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("world.ckpt");
        let snap = snapshot_at(&lpl_death_scenario(), 21);
        save(&path, &snap).expect("saves");
        let back = load(&path).expect("loads");
        assert_eq!(snap, back);
        std::fs::remove_file(&path).ok();
    }
}
