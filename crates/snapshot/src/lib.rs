//! # bcp-snapshot — durable checkpoint files
//!
//! Serialises a [`WorldState`] (the exact pause-state of a simulation,
//! from `bcp-simnet`'s snapshot subsystem) to a versioned, checksummed
//! binary file and back.
//!
//! # File format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "BCPSNAP1"
//! 8       4     format version, little-endian u32 (currently 4)
//! 12      n     payload: the encoded WorldState, then the RunMeta
//! 12+n    8     FNV-1a-64 checksum of the payload, little-endian
//! ```
//!
//! The payload encodes integers as LEB128 varints, floats and the words
//! of the delivery bitmaps as fixed eight-byte fields, and the scenario
//! as its canonical `.scn` text (see
//! `bcp_simnet::spec`) — so a checkpoint is self-describing: loading one
//! needs no side-channel scenario file. Since version 2 the payload ends
//! with a [`RunMeta`] trailer recording the run settings the world state
//! alone cannot carry — the series interval the run was sampled under and
//! the trace switch/filter — so a resume can detect (and refuse)
//! conflicting CLI flags instead of silently diverging.
//!
//! # Version policy
//!
//! The version number covers the *payload encoding*. Readers accept
//! every version they know (currently only 4 — version 3 split the
//! loss model out of the channel slots into per-node [`LossState`] and
//! added received-power audibility and shadowing; version 4 replaced
//! the per-copy fate list with per-flow delivered-sequence bitmaps plus
//! the unsettled losses) and reject the rest with
//! [`SnapshotError::UnsupportedVersion`] — there is no silent best-effort
//! decoding. Any change to the encoded layout (new fields, reordered
//! fields, changed varint widths) bumps the version; old checkpoints are
//! then explicitly unreadable rather than subtly wrong, which is the
//! only safe failure mode for a format whose whole point is bit-exact
//! resumption.
//!
//! Corruption anywhere in the payload is caught by the checksum before
//! decoding begins; truncation is caught by the frame length checks.
//! Every failure is a typed [`SnapshotError`] — no input panics this
//! library.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use bcp_core::msg::{AppPacket, BurstId, HandshakeMsg, PacketId};
use bcp_core::receiver::{ReceiverSnapshot, ReceiverStats, RecvSessionSnapshot};
use bcp_core::sender::{SenderSnapshot, SenderStats, SessStateSnapshot, SessionSnapshot};
use bcp_mac::csma::MacSnapshot;
use bcp_mac::types::{FrameId, FrameKind, MacAddr, MacFrame, MacStats, MacTimer};
use bcp_net::addr::NodeId;
use bcp_net::loss::LossState;
use bcp_net::routing::{Dissemination, Routes, ShortcutTable};
use bcp_radio::device::RadioState;
use bcp_radio::energy::EnergyBucket;
use bcp_radio::units::{Energy, Power};
use bcp_sim::keyed::EvKey;
use bcp_sim::rng::Rng;
use bcp_sim::stats::Welford;
use bcp_sim::time::{SimDuration, SimTime};
use bcp_simnet::events::{Class, Ev, GlobalEv, Payload, TxId};
use bcp_simnet::metrics::{FlowStats, Metrics};
use bcp_simnet::snapshot::{
    ActiveTx, ChannelSlot, Cumulative, Fate, FateMark, NodeSnapshot, RadioSnapshot, SeriesSnapshot,
    ShadowSnapshot, WorldState,
};
use bcp_simnet::{emit_spec, parse_spec};
use bcp_traffic::Workload;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

pub use bcp_simnet::snapshot::{explore, ExploreLimits, ExploreReport};

/// The file magic.
pub const MAGIC: [u8; 8] = *b"BCPSNAP1";
/// The current payload format version.
pub const VERSION: u32 = 4;
/// The oldest payload format version this reader still accepts.
pub const MIN_VERSION: u32 = 4;

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
    /// The checksum held but the payload does not decode — a writer bug
    /// or a deliberately crafted file.
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

type Res<T> = Result<T, SnapshotError>;

fn bad(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Decode(msg.into())
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Run settings that ride in the checkpoint next to the world state
/// (the v2 payload trailer): the series grid the run was recorded under
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

fn enc_meta(e: &mut Enc, meta: &RunMeta) {
    e.opt(&meta.series_every, |e, d| enc_dur(e, *d));
    e.boolean(meta.trace);
    e.len(meta.trace_filter.len());
    for c in &meta.trace_filter {
        e.str(c);
    }
}

fn dec_meta(d: &mut Dec) -> Res<RunMeta> {
    let series_every = d.opt(dec_dur)?;
    let trace = d.boolean()?;
    let trace_filter = d.seq(|d| d.str())?;
    Ok(RunMeta {
        series_every,
        trace,
        trace_filter,
    })
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
    let mut e = Enc { buf: Vec::new() };
    enc_world(&mut e, state, &spec);
    enc_meta(&mut e, meta);
    let payload = e.buf;
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
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let state = dec_world(&mut d)?;
    let meta = dec_meta(&mut d)?;
    if d.pos != d.buf.len() {
        return Err(bad(format!(
            "{} trailing bytes after the world state",
            d.buf.len() - d.pos
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

// ---------------------------------------------------------------------
// Primitive encoder/decoder
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn boolean(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u64(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }
    fn u128(&mut self, mut v: u128) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }
    fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }
    fn u16(&mut self, v: u16) {
        self.u64(v as u64);
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Eight little-endian bytes: for bit patterns, which varints would
    /// stretch to ten.
    fn fixed64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.fixed64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
    fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Enc, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn u8(&mut self) -> Res<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| bad("unexpected end of payload"))?;
        self.pos += 1;
        Ok(b)
    }
    fn boolean(&mut self) -> Res<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("invalid bool byte {b}"))),
        }
    }
    fn u64(&mut self) -> Res<u64> {
        let mut v: u64 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 64 {
                return Err(bad("varint longer than 64 bits"));
            }
            let b = self.u8()?;
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!()
    }
    fn u128(&mut self) -> Res<u128> {
        let mut v: u128 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 128 {
                return Err(bad("varint longer than 128 bits"));
            }
            let b = self.u8()?;
            v |= ((b & 0x7f) as u128) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!()
    }
    fn u32(&mut self) -> Res<u32> {
        u32::try_from(self.u64()?).map_err(|_| bad("u32 out of range"))
    }
    fn u16(&mut self) -> Res<u16> {
        u16::try_from(self.u64()?).map_err(|_| bad("u16 out of range"))
    }
    fn usize(&mut self) -> Res<usize> {
        usize::try_from(self.u64()?).map_err(|_| bad("usize out of range"))
    }
    fn fixed64(&mut self) -> Res<u64> {
        if self.pos + 8 > self.buf.len() {
            return Err(bad("unexpected end of payload in a fixed 64-bit field"));
        }
        let bits = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().expect("8"));
        self.pos += 8;
        Ok(bits)
    }
    fn f64(&mut self) -> Res<f64> {
        Ok(f64::from_bits(self.fixed64()?))
    }
    fn str(&mut self) -> Res<String> {
        let n = self.usize()?;
        if self.pos + n > self.buf.len() {
            return Err(bad("unexpected end of payload in string"));
        }
        let s = std::str::from_utf8(&self.buf[self.pos..self.pos + n])
            .map_err(|_| bad("string is not UTF-8"))?
            .to_owned();
        self.pos += n;
        Ok(s)
    }
    /// Collection length, bounded by the bytes actually remaining so a
    /// crafted length cannot trigger a huge allocation.
    fn len(&mut self) -> Res<usize> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(bad(format!("collection of {n} items exceeds payload")));
        }
        Ok(n)
    }
    fn seq<T>(&mut self, mut f: impl FnMut(&mut Dec<'_>) -> Res<T>) -> Res<Vec<T>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
    fn opt<T>(&mut self, mut f: impl FnMut(&mut Dec<'_>) -> Res<T>) -> Res<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(bad(format!("invalid option byte {b}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Domain codecs (layout version 1)
// ---------------------------------------------------------------------

fn enc_time(e: &mut Enc, t: SimTime) {
    e.u64(t.as_nanos());
}
fn dec_time(d: &mut Dec) -> Res<SimTime> {
    Ok(SimTime::from_nanos(d.u64()?))
}
fn enc_dur(e: &mut Enc, t: SimDuration) {
    e.u64(t.as_nanos());
}
fn dec_dur(d: &mut Dec) -> Res<SimDuration> {
    Ok(SimDuration::from_nanos(d.u64()?))
}
fn enc_energy(e: &mut Enc, x: Energy) {
    e.f64(x.as_joules());
}
fn dec_energy(d: &mut Dec) -> Res<Energy> {
    let j = d.f64()?;
    if !j.is_finite() || j < 0.0 {
        return Err(bad(format!("invalid energy {j} J")));
    }
    Ok(Energy::from_joules(j))
}
fn enc_node(e: &mut Enc, n: NodeId) {
    e.u32(n.0);
}
fn dec_node(d: &mut Dec) -> Res<NodeId> {
    Ok(NodeId(d.u32()?))
}
fn enc_key(e: &mut Enc, k: EvKey) {
    enc_time(e, k.time);
    e.u32(k.depth);
    e.u128(k.ord);
}
fn dec_key(d: &mut Dec) -> Res<EvKey> {
    Ok(EvKey {
        time: dec_time(d)?,
        depth: d.u32()?,
        ord: d.u128()?,
    })
}
fn enc_rng4(e: &mut Enc, s: [u64; 4]) {
    for w in s {
        e.u64(w);
    }
}
fn dec_rng4(d: &mut Dec) -> Res<[u64; 4]> {
    Ok([d.u64()?, d.u64()?, d.u64()?, d.u64()?])
}
fn dec_rng(d: &mut Dec) -> Res<Rng> {
    let s = dec_rng4(d)?;
    if s.iter().all(|&w| w == 0) {
        return Err(bad("all-zero RNG state"));
    }
    Ok(Rng::from_state(s))
}

fn enc_class(e: &mut Enc, c: Class) {
    e.u8(match c {
        Class::Low => 0,
        Class::High => 1,
    });
}
fn dec_class(d: &mut Dec) -> Res<Class> {
    match d.u8()? {
        0 => Ok(Class::Low),
        1 => Ok(Class::High),
        b => Err(bad(format!("invalid radio class {b}"))),
    }
}
fn enc_frame_kind(e: &mut Enc, k: FrameKind) {
    e.u8(match k {
        FrameKind::Data => 0,
        FrameKind::Ack => 1,
    });
}
fn dec_frame_kind(d: &mut Dec) -> Res<FrameKind> {
    match d.u8()? {
        0 => Ok(FrameKind::Data),
        1 => Ok(FrameKind::Ack),
        b => Err(bad(format!("invalid frame kind {b}"))),
    }
}
fn enc_mac_timer(e: &mut Enc, t: MacTimer) {
    e.u8(match t {
        MacTimer::Difs => 0,
        MacTimer::Backoff => 1,
        MacTimer::AckTimeout => 2,
        MacTimer::SifsAck => 3,
    });
}
fn dec_mac_timer(d: &mut Dec) -> Res<MacTimer> {
    match d.u8()? {
        0 => Ok(MacTimer::Difs),
        1 => Ok(MacTimer::Backoff),
        2 => Ok(MacTimer::AckTimeout),
        3 => Ok(MacTimer::SifsAck),
        b => Err(bad(format!("invalid MAC timer kind {b}"))),
    }
}

fn enc_frame(e: &mut Enc, f: &MacFrame) {
    e.u64(f.id.0);
    e.u64(f.src.0);
    e.u64(f.dst.0);
    e.usize(f.payload_bytes);
    enc_frame_kind(e, f.kind);
    e.u16(f.seq);
    e.u64(f.tag);
}
fn dec_frame(d: &mut Dec) -> Res<MacFrame> {
    Ok(MacFrame {
        id: FrameId(d.u64()?),
        src: MacAddr(d.u64()?),
        dst: MacAddr(d.u64()?),
        payload_bytes: d.usize()?,
        kind: dec_frame_kind(d)?,
        seq: d.u16()?,
        tag: d.u64()?,
    })
}

fn enc_mac_stats(e: &mut Enc, s: &MacStats) {
    for v in [
        s.enqueued,
        s.queue_drops,
        s.data_tx,
        s.ack_tx,
        s.delivered,
        s.duplicates,
        s.tx_failures,
        s.tx_successes,
    ] {
        e.u64(v);
    }
}
fn dec_mac_stats(d: &mut Dec) -> Res<MacStats> {
    Ok(MacStats {
        enqueued: d.u64()?,
        queue_drops: d.u64()?,
        data_tx: d.u64()?,
        ack_tx: d.u64()?,
        delivered: d.u64()?,
        duplicates: d.u64()?,
        tx_failures: d.u64()?,
        tx_successes: d.u64()?,
    })
}

fn enc_mac(e: &mut Enc, m: &MacSnapshot) {
    enc_rng4(e, m.rng);
    e.u8(m.access);
    e.boolean(m.carrier_busy);
    e.len(m.queue.len());
    for f in &m.queue {
        enc_frame(e, f);
    }
    e.u32(m.attempts);
    e.u32(m.cw);
    e.u32(m.backoff_remaining);
    enc_time(e, m.backoff_started);
    e.opt(&m.pending_ack, enc_frame);
    e.boolean(m.resume_after_ack);
    e.len(m.last_seq.len());
    for (a, s) in &m.last_seq {
        e.u64(a.0);
        e.u16(*s);
    }
    e.len(m.next_seq.len());
    for (a, s) in &m.next_seq {
        e.u64(a.0);
        e.u16(*s);
    }
    e.u64(m.next_frame_id);
    enc_mac_stats(e, &m.stats);
}
fn dec_mac(d: &mut Dec) -> Res<MacSnapshot> {
    Ok(MacSnapshot {
        rng: dec_rng4(d)?,
        access: d.u8()?,
        carrier_busy: d.boolean()?,
        queue: d.seq(dec_frame)?,
        attempts: d.u32()?,
        cw: d.u32()?,
        backoff_remaining: d.u32()?,
        backoff_started: dec_time(d)?,
        pending_ack: d.opt(dec_frame)?,
        resume_after_ack: d.boolean()?,
        last_seq: d.seq(|d| Ok((MacAddr(d.u64()?), d.u16()?)))?,
        next_seq: d.seq(|d| Ok((MacAddr(d.u64()?), d.u16()?)))?,
        next_frame_id: d.u64()?,
        stats: dec_mac_stats(d)?,
    })
}

fn enc_radio_state(e: &mut Enc, s: RadioState) {
    e.u8(match s {
        RadioState::Off => 0,
        RadioState::Sleeping => 1,
        RadioState::Idle => 2,
        RadioState::Receiving => 3,
        RadioState::Transmitting => 4,
        RadioState::WakingUp => 5,
    });
}
fn dec_radio_state(d: &mut Dec) -> Res<RadioState> {
    match d.u8()? {
        0 => Ok(RadioState::Off),
        1 => Ok(RadioState::Sleeping),
        2 => Ok(RadioState::Idle),
        3 => Ok(RadioState::Receiving),
        4 => Ok(RadioState::Transmitting),
        5 => Ok(RadioState::WakingUp),
        b => Err(bad(format!("invalid radio state {b}"))),
    }
}
fn enc_bucket(e: &mut Enc, b: EnergyBucket) {
    e.u8(match b {
        EnergyBucket::Tx => 0,
        EnergyBucket::Rx => 1,
        EnergyBucket::Overhear => 2,
        EnergyBucket::Idle => 3,
        EnergyBucket::Sleep => 4,
        EnergyBucket::Wakeup => 5,
        EnergyBucket::Off => 6,
    });
}
fn dec_bucket(d: &mut Dec) -> Res<EnergyBucket> {
    match d.u8()? {
        0 => Ok(EnergyBucket::Tx),
        1 => Ok(EnergyBucket::Rx),
        2 => Ok(EnergyBucket::Overhear),
        3 => Ok(EnergyBucket::Idle),
        4 => Ok(EnergyBucket::Sleep),
        5 => Ok(EnergyBucket::Wakeup),
        6 => Ok(EnergyBucket::Off),
        b => Err(bad(format!("invalid energy bucket {b}"))),
    }
}
fn enc_radio(e: &mut Enc, r: &RadioSnapshot) {
    enc_radio_state(e, r.state);
    for b in r.buckets {
        enc_energy(e, b);
    }
    enc_time(e, r.since);
    e.f64(r.power.as_watts());
    enc_bucket(e, r.bucket);
}
fn dec_radio(d: &mut Dec) -> Res<RadioSnapshot> {
    let state = dec_radio_state(d)?;
    let mut buckets = [Energy::ZERO; 7];
    for b in &mut buckets {
        *b = dec_energy(d)?;
    }
    let since = dec_time(d)?;
    let w = d.f64()?;
    if !w.is_finite() || w < 0.0 {
        return Err(bad(format!("invalid power {w} W")));
    }
    Ok(RadioSnapshot {
        state,
        buckets,
        since,
        power: Power::from_watts(w),
        bucket: dec_bucket(d)?,
    })
}

fn enc_slot(e: &mut Enc, s: &ChannelSlot) {
    e.u32(s.carrier);
    e.opt(&s.rx_current, |e, (tx, garbled)| {
        e.u64(tx.0);
        e.boolean(*garbled);
    });
    e.boolean(s.loss.in_bad);
    enc_rng4(e, s.rng);
    e.len(s.audible.len());
    for (tx, mw) in &s.audible {
        e.u64(tx.0);
        e.f64(*mw);
    }
}
fn dec_slot(d: &mut Dec) -> Res<ChannelSlot> {
    Ok(ChannelSlot {
        carrier: d.u32()?,
        rx_current: d.opt(|d| Ok((TxId(d.u64()?), d.boolean()?)))?,
        loss: LossState {
            in_bad: d.boolean()?,
        },
        rng: dec_rng4(d)?,
        audible: d.seq(|d| {
            let tx = TxId(d.u64()?);
            let mw = d.f64()?;
            if !mw.is_finite() || mw < 0.0 {
                return Err(bad(format!("invalid received power {mw} mW")));
            }
            Ok((tx, mw))
        })?,
    })
}

fn enc_pkt(e: &mut Enc, p: &AppPacket) {
    e.u64(p.id.0);
    enc_node(e, p.origin);
    enc_node(e, p.dest);
    enc_time(e, p.created);
    e.usize(p.bytes);
}
fn dec_pkt(d: &mut Dec) -> Res<AppPacket> {
    Ok(AppPacket {
        id: PacketId(d.u64()?),
        origin: dec_node(d)?,
        dest: dec_node(d)?,
        created: dec_time(d)?,
        bytes: d.usize()?,
    })
}

fn enc_msg(e: &mut Enc, m: &HandshakeMsg) {
    match *m {
        HandshakeMsg::WakeUp { burst, burst_bytes } => {
            e.u8(0);
            e.u64(burst.0);
            e.usize(burst_bytes);
        }
        HandshakeMsg::WakeUpAck {
            burst,
            granted_bytes,
        } => {
            e.u8(1);
            e.u64(burst.0);
            e.usize(granted_bytes);
        }
    }
}
fn dec_msg(d: &mut Dec) -> Res<HandshakeMsg> {
    match d.u8()? {
        0 => Ok(HandshakeMsg::WakeUp {
            burst: BurstId(d.u64()?),
            burst_bytes: d.usize()?,
        }),
        1 => Ok(HandshakeMsg::WakeUpAck {
            burst: BurstId(d.u64()?),
            granted_bytes: d.usize()?,
        }),
        b => Err(bad(format!("invalid handshake tag {b}"))),
    }
}

fn enc_payload(e: &mut Enc, p: &Payload) {
    match p {
        Payload::SensorData(pkt) => {
            e.u8(0);
            enc_pkt(e, pkt);
        }
        Payload::Control { msg, dst } => {
            e.u8(1);
            enc_msg(e, msg);
            enc_node(e, *dst);
        }
        Payload::Burst {
            burst,
            index,
            count,
            packets,
        } => {
            e.u8(2);
            e.u64(burst.0);
            e.u32(*index);
            e.u32(*count);
            e.len(packets.len());
            for p in packets.iter() {
                enc_pkt(e, p);
            }
        }
    }
}
fn dec_payload(d: &mut Dec) -> Res<Payload> {
    match d.u8()? {
        0 => Ok(Payload::SensorData(dec_pkt(d)?)),
        1 => Ok(Payload::Control {
            msg: dec_msg(d)?,
            dst: dec_node(d)?,
        }),
        2 => Ok(Payload::Burst {
            burst: BurstId(d.u64()?),
            index: d.u32()?,
            count: d.u32()?,
            packets: Arc::new(d.seq(dec_pkt)?),
        }),
        b => Err(bad(format!("invalid payload tag {b}"))),
    }
}

fn enc_ev(e: &mut Enc, ev: &Ev) {
    match ev {
        Ev::AppArrival { node } => {
            e.u8(0);
            enc_node(e, *node);
        }
        Ev::MacTimer { node, class, kind } => {
            e.u8(1);
            enc_node(e, *node);
            enc_class(e, *class);
            enc_mac_timer(e, *kind);
        }
        Ev::TxEnd { tx } => {
            e.u8(2);
            e.u64(tx.0);
        }
        Ev::RxBegin {
            tx,
            sender,
            class,
            kind,
        } => {
            e.u8(3);
            e.u64(tx.0);
            enc_node(e, *sender);
            enc_class(e, *class);
            enc_frame_kind(e, *kind);
        }
        Ev::RxEnd {
            tx,
            sender,
            class,
            frame,
            sender_died,
            payload,
        } => {
            e.u8(4);
            e.u64(tx.0);
            enc_node(e, *sender);
            enc_class(e, *class);
            enc_frame(e, frame);
            e.boolean(*sender_died);
            e.opt(payload, enc_payload);
        }
        Ev::RadioWakeDone { node } => {
            e.u8(5);
            enc_node(e, *node);
        }
        Ev::BcpAckTimer { node, burst } => {
            e.u8(6);
            enc_node(e, *node);
            e.u64(burst.0);
        }
        Ev::BcpDataTimer { node, burst } => {
            e.u8(7);
            enc_node(e, *node);
            e.u64(burst.0);
        }
        Ev::HighIdleOff { node } => {
            e.u8(8);
            enc_node(e, *node);
        }
        Ev::Flush { node } => {
            e.u8(9);
            enc_node(e, *node);
        }
        Ev::PowerCheck { node } => {
            e.u8(10);
            enc_node(e, *node);
        }
        Ev::WakeSample { node } => {
            e.u8(11);
            enc_node(e, *node);
        }
        Ev::Sleep { node } => {
            e.u8(12);
            enc_node(e, *node);
        }
    }
}
fn dec_ev(d: &mut Dec) -> Res<Ev> {
    Ok(match d.u8()? {
        0 => Ev::AppArrival { node: dec_node(d)? },
        1 => Ev::MacTimer {
            node: dec_node(d)?,
            class: dec_class(d)?,
            kind: dec_mac_timer(d)?,
        },
        2 => Ev::TxEnd { tx: TxId(d.u64()?) },
        3 => Ev::RxBegin {
            tx: TxId(d.u64()?),
            sender: dec_node(d)?,
            class: dec_class(d)?,
            kind: dec_frame_kind(d)?,
        },
        4 => Ev::RxEnd {
            tx: TxId(d.u64()?),
            sender: dec_node(d)?,
            class: dec_class(d)?,
            frame: dec_frame(d)?,
            sender_died: d.boolean()?,
            payload: d.opt(dec_payload)?,
        },
        5 => Ev::RadioWakeDone { node: dec_node(d)? },
        6 => Ev::BcpAckTimer {
            node: dec_node(d)?,
            burst: BurstId(d.u64()?),
        },
        7 => Ev::BcpDataTimer {
            node: dec_node(d)?,
            burst: BurstId(d.u64()?),
        },
        8 => Ev::HighIdleOff { node: dec_node(d)? },
        9 => Ev::Flush { node: dec_node(d)? },
        10 => Ev::PowerCheck { node: dec_node(d)? },
        11 => Ev::WakeSample { node: dec_node(d)? },
        12 => Ev::Sleep { node: dec_node(d)? },
        b => return Err(bad(format!("invalid event tag {b}"))),
    })
}

fn enc_gev(e: &mut Enc, g: &GlobalEv) {
    match *g {
        GlobalEv::NodeDied { node, at } => {
            e.u8(0);
            enc_node(e, node);
            enc_time(e, at);
        }
        GlobalEv::RouteRefresh => e.u8(1),
    }
}
fn dec_gev(d: &mut Dec) -> Res<GlobalEv> {
    match d.u8()? {
        0 => Ok(GlobalEv::NodeDied {
            node: dec_node(d)?,
            at: dec_time(d)?,
        }),
        1 => Ok(GlobalEv::RouteRefresh),
        b => Err(bad(format!("invalid global event tag {b}"))),
    }
}

fn enc_workload(e: &mut Enc, w: &Workload) {
    match w {
        Workload::Cbr {
            packet_bytes,
            interval,
            next_at,
        } => {
            e.u8(0);
            e.usize(*packet_bytes);
            enc_dur(e, *interval);
            enc_time(e, *next_at);
        }
        Workload::Poisson {
            packet_bytes,
            mean_interval,
            next_at,
            rng,
        } => {
            e.u8(1);
            e.usize(*packet_bytes);
            enc_dur(e, *mean_interval);
            enc_time(e, *next_at);
            enc_rng4(e, rng.state());
        }
        Workload::OnOffBursty {
            packet_bytes,
            interval,
            mean_on,
            mean_off,
            next_at,
            on_until,
            rng,
        } => {
            e.u8(2);
            e.usize(*packet_bytes);
            enc_dur(e, *interval);
            enc_dur(e, *mean_on);
            enc_dur(e, *mean_off);
            enc_time(e, *next_at);
            enc_time(e, *on_until);
            enc_rng4(e, rng.state());
        }
    }
}
fn dec_workload(d: &mut Dec) -> Res<Workload> {
    Ok(match d.u8()? {
        0 => Workload::Cbr {
            packet_bytes: d.usize()?,
            interval: dec_dur(d)?,
            next_at: dec_time(d)?,
        },
        1 => Workload::Poisson {
            packet_bytes: d.usize()?,
            mean_interval: dec_dur(d)?,
            next_at: dec_time(d)?,
            rng: dec_rng(d)?,
        },
        2 => Workload::OnOffBursty {
            packet_bytes: d.usize()?,
            interval: dec_dur(d)?,
            mean_on: dec_dur(d)?,
            mean_off: dec_dur(d)?,
            next_at: dec_time(d)?,
            on_until: dec_time(d)?,
            rng: dec_rng(d)?,
        },
        b => return Err(bad(format!("invalid workload tag {b}"))),
    })
}

fn enc_frame_packets(e: &mut Enc, (idx, pkts): &(u32, Vec<AppPacket>)) {
    e.u32(*idx);
    e.len(pkts.len());
    for p in pkts {
        enc_pkt(e, p);
    }
}
fn dec_frame_packets(d: &mut Dec) -> Res<(u32, Vec<AppPacket>)> {
    Ok((d.u32()?, d.seq(dec_pkt)?))
}

fn enc_sender(e: &mut Enc, s: &SenderSnapshot) {
    e.len(s.buffer_queues.len());
    for (hop, pkts) in &s.buffer_queues {
        enc_node(e, *hop);
        e.len(pkts.len());
        for p in pkts {
            enc_pkt(e, p);
        }
    }
    for v in [
        s.buffer_stats.enqueued,
        s.buffer_stats.overflow_drops,
        s.buffer_stats.drained,
    ] {
        e.u64(v);
    }
    e.opt(&s.session, |e, sess| {
        enc_node(e, sess.next_hop);
        e.u64(sess.burst.0);
        match &sess.state {
            SessStateSnapshot::WaitAck {
                attempts,
                requested,
            } => {
                e.u8(0);
                e.u32(*attempts);
                e.usize(*requested);
            }
            SessStateSnapshot::WakingRadio { granted } => {
                e.u8(1);
                e.usize(*granted);
            }
            SessStateSnapshot::Bursting {
                pending,
                count,
                in_flight,
                delivered_packets,
                delivered_bytes,
            } => {
                e.u8(2);
                e.len(pending.len());
                for fp in pending {
                    enc_frame_packets(e, fp);
                }
                e.u32(*count);
                e.opt(in_flight, enc_frame_packets);
                e.u64(*delivered_packets);
                e.usize(*delivered_bytes);
            }
        }
    });
    e.u64(s.burst_counter);
    e.boolean(s.draining);
    for v in [
        s.stats.handshakes,
        s.stats.wakeup_resends,
        s.stats.handshake_failures,
        s.stats.bursts_completed,
        s.stats.frames_ok,
        s.stats.frames_failed,
        s.stats.packets_sent,
        s.stats.bytes_sent,
        s.stats.low_fallback_packets,
        s.stats.grant_rejections,
    ] {
        e.u64(v);
    }
}
fn dec_sender(d: &mut Dec) -> Res<SenderSnapshot> {
    let buffer_queues = d.seq(|d| Ok((dec_node(d)?, d.seq(dec_pkt)?)))?;
    let buffer_stats = bcp_core::buffer::BufferStats {
        enqueued: d.u64()?,
        overflow_drops: d.u64()?,
        drained: d.u64()?,
    };
    let session = d.opt(|d| {
        let next_hop = dec_node(d)?;
        let burst = BurstId(d.u64()?);
        let state = match d.u8()? {
            0 => SessStateSnapshot::WaitAck {
                attempts: d.u32()?,
                requested: d.usize()?,
            },
            1 => SessStateSnapshot::WakingRadio {
                granted: d.usize()?,
            },
            2 => SessStateSnapshot::Bursting {
                pending: d.seq(dec_frame_packets)?,
                count: d.u32()?,
                in_flight: d.opt(dec_frame_packets)?,
                delivered_packets: d.u64()?,
                delivered_bytes: d.usize()?,
            },
            b => return Err(bad(format!("invalid session state tag {b}"))),
        };
        Ok(SessionSnapshot {
            next_hop,
            burst,
            state,
        })
    })?;
    Ok(SenderSnapshot {
        buffer_queues,
        buffer_stats,
        session,
        burst_counter: d.u64()?,
        draining: d.boolean()?,
        stats: SenderStats {
            handshakes: d.u64()?,
            wakeup_resends: d.u64()?,
            handshake_failures: d.u64()?,
            bursts_completed: d.u64()?,
            frames_ok: d.u64()?,
            frames_failed: d.u64()?,
            packets_sent: d.u64()?,
            bytes_sent: d.u64()?,
            low_fallback_packets: d.u64()?,
            grant_rejections: d.u64()?,
        },
    })
}

fn enc_receiver(e: &mut Enc, r: &ReceiverSnapshot) {
    e.len(r.sessions.len());
    for s in &r.sessions {
        enc_node(e, s.from);
        e.u64(s.burst.0);
        e.usize(s.granted);
        e.opt(&s.reassembly, |e, (seen, pkts, bytes)| {
            e.len(seen.len());
            for &b in seen {
                e.boolean(b);
            }
            e.u64(*pkts);
            e.usize(*bytes);
        });
    }
    for v in [
        r.stats.sessions_opened,
        r.stats.wakeups_refused,
        r.stats.wakeups_reacked,
        r.stats.sessions_completed,
        r.stats.sessions_timed_out,
        r.stats.packets_delivered,
        r.stats.bytes_delivered,
    ] {
        e.u64(v);
    }
}
fn dec_receiver(d: &mut Dec) -> Res<ReceiverSnapshot> {
    let sessions = d.seq(|d| {
        Ok(RecvSessionSnapshot {
            from: dec_node(d)?,
            burst: BurstId(d.u64()?),
            granted: d.usize()?,
            reassembly: d.opt(|d| Ok((d.seq(|d| d.boolean())?, d.u64()?, d.usize()?)))?,
        })
    })?;
    Ok(ReceiverSnapshot {
        sessions,
        stats: ReceiverStats {
            sessions_opened: d.u64()?,
            wakeups_refused: d.u64()?,
            wakeups_reacked: d.u64()?,
            sessions_completed: d.u64()?,
            sessions_timed_out: d.u64()?,
            packets_delivered: d.u64()?,
            bytes_delivered: d.u64()?,
        },
    })
}

fn enc_welford(e: &mut Enc, w: &Welford) {
    let (n, mean, m2) = w.raw_parts();
    e.u64(n);
    e.f64(mean);
    e.f64(m2);
}
fn dec_welford(d: &mut Dec) -> Res<Welford> {
    Ok(Welford::from_raw_parts(d.u64()?, d.f64()?, d.f64()?))
}

fn enc_metrics(e: &mut Enc, m: &Metrics) {
    e.u64(m.generated_packets);
    e.u64(m.generated_bits);
    e.u64(m.delivered_packets);
    e.u64(m.delivered_bits);
    e.len(m.flows.len());
    for (&(src, dst), f) in &m.flows {
        enc_node(e, src);
        enc_node(e, dst);
        e.u64(f.generated_packets);
        e.u64(f.generated_bits);
        e.u64(f.delivered_packets);
        e.u64(f.delivered_bits);
        enc_welford(e, &f.delay);
    }
    e.u64(m.drops_buffer);
    e.u64(m.drops_mac);
    e.u64(m.residual_packets);
    e.u64(m.handshakes);
    e.u64(m.radio_wakeups);
    e.u64(m.collisions);
    e.u64(m.node_deaths);
    e.opt(&m.first_death, |e, t| enc_time(e, *t));
    e.opt(&m.partition, |e, t| enc_time(e, *t));
    e.u64(m.delivered_before_first_death);
    e.u64(m.generated_before_first_death);
}
fn dec_metrics(d: &mut Dec) -> Res<Metrics> {
    let mut m = Metrics {
        generated_packets: d.u64()?,
        generated_bits: d.u64()?,
        delivered_packets: d.u64()?,
        delivered_bits: d.u64()?,
        ..Metrics::default()
    };
    let n = d.len()?;
    for _ in 0..n {
        let key = (dec_node(d)?, dec_node(d)?);
        let f = FlowStats {
            generated_packets: d.u64()?,
            generated_bits: d.u64()?,
            delivered_packets: d.u64()?,
            delivered_bits: d.u64()?,
            delay: dec_welford(d)?,
        };
        m.flows.insert(key, f);
    }
    m.drops_buffer = d.u64()?;
    m.drops_mac = d.u64()?;
    m.residual_packets = d.u64()?;
    m.handshakes = d.u64()?;
    m.radio_wakeups = d.u64()?;
    m.collisions = d.u64()?;
    m.node_deaths = d.u64()?;
    m.first_death = d.opt(dec_time)?;
    m.partition = d.opt(dec_time)?;
    m.delivered_before_first_death = d.u64()?;
    m.generated_before_first_death = d.u64()?;
    Ok(m)
}

fn enc_routes(e: &mut Enc, r: &Routes) {
    let (next, dist) = r.raw_parts();
    e.len(next.len());
    for row in next {
        e.len(row.len());
        for hop in row {
            e.opt(hop, |e, n| enc_node(e, *n));
        }
    }
    for row in dist {
        e.len(row.len());
        for v in row {
            e.opt(v, |e, x| e.u32(*x));
        }
    }
}
fn dec_routes(d: &mut Dec) -> Res<Routes> {
    let n = d.len()?;
    let mut next = Vec::with_capacity(n);
    for _ in 0..n {
        next.push(d.seq(|d| d.opt(dec_node))?);
    }
    let mut dist = Vec::with_capacity(n);
    for _ in 0..n {
        dist.push(d.seq(|d| d.opt(|d| d.u32()))?);
    }
    Ok(Routes::from_raw_parts(next, dist))
}

fn enc_dissem(e: &mut Enc, t: &Dissemination) {
    let (root, children, reached) = t.raw_parts();
    enc_node(e, root);
    e.len(children.len());
    for row in children {
        e.len(row.len());
        for c in row {
            enc_node(e, *c);
        }
    }
    for &r in reached {
        e.boolean(r);
    }
}
fn dec_dissem(d: &mut Dec) -> Res<Dissemination> {
    let root = dec_node(d)?;
    let n = d.len()?;
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        children.push(d.seq(dec_node)?);
    }
    let mut reached = Vec::with_capacity(n);
    for _ in 0..n {
        reached.push(d.boolean()?);
    }
    Ok(Dissemination::from_raw_parts(root, children, reached))
}

fn enc_node_snap(e: &mut Enc, n: &NodeSnapshot) {
    enc_node(e, n.id);
    enc_mac(e, &n.low_mac);
    enc_radio(e, &n.low_radio);
    e.opt(&n.high_mac, enc_mac);
    e.opt(&n.high_radio, enc_radio);
    e.opt(&n.bcp_tx, enc_sender);
    e.opt(&n.bcp_rx, enc_receiver);
    e.opt(&n.workload, enc_workload);
    e.usize(n.pending_bytes);
    e.u64(n.app_seq);
    e.u64(n.tx_seq);
    e.u64(n.tag_seq);
    e.u32(n.high_refs);
    e.len(n.wake_pending.len());
    for b in &n.wake_pending {
        e.u64(b.0);
    }
    enc_energy(e, n.header_overhear);
    e.len(n.shortcuts.entries().len());
    for &(dst, hop) in n.shortcuts.entries() {
        enc_node(e, dst);
        enc_node(e, hop);
    }
    enc_time(e, n.listen_until);
    e.opt(&n.supply, |e, (drawn, synced)| {
        enc_energy(e, *drawn);
        enc_energy(e, *synced);
    });
    e.opt(&n.died_at, |e, t| enc_time(e, *t));
    for slot in &n.channels {
        enc_slot(e, slot);
    }
}
fn dec_node_snap(d: &mut Dec) -> Res<NodeSnapshot> {
    Ok(NodeSnapshot {
        id: dec_node(d)?,
        low_mac: dec_mac(d)?,
        low_radio: dec_radio(d)?,
        high_mac: d.opt(dec_mac)?,
        high_radio: d.opt(dec_radio)?,
        bcp_tx: d.opt(dec_sender)?,
        bcp_rx: d.opt(dec_receiver)?,
        workload: d.opt(dec_workload)?,
        pending_bytes: d.usize()?,
        app_seq: d.u64()?,
        tx_seq: d.u64()?,
        tag_seq: d.u64()?,
        high_refs: d.u32()?,
        wake_pending: d.seq(|d| Ok(BurstId(d.u64()?)))?,
        header_overhear: dec_energy(d)?,
        shortcuts: ShortcutTable::from_entries(d.seq(|d| Ok((dec_node(d)?, dec_node(d)?)))?),
        listen_until: dec_time(d)?,
        supply: d.opt(|d| Ok((dec_energy(d)?, dec_energy(d)?)))?,
        died_at: d.opt(dec_time)?,
        channels: [dec_slot(d)?, dec_slot(d)?],
    })
}

fn enc_loss(e: &mut Enc, f: Fate) {
    e.u8(match f {
        Fate::LostMac => 0,
        Fate::LostBuffer => 1,
    });
}
fn dec_loss(d: &mut Dec) -> Res<Fate> {
    match d.u8()? {
        0 => Ok(Fate::LostMac),
        1 => Ok(Fate::LostBuffer),
        b => Err(bad(format!("invalid loss tag {b}"))),
    }
}

fn enc_world(e: &mut Enc, w: &WorldState, spec_text: &str) {
    e.str(spec_text);
    enc_time(e, w.time);
    e.u64(w.events_logical);
    e.u64(w.global_events);
    e.len(w.nodes.len());
    for n in &w.nodes {
        enc_node_snap(e, n);
    }
    e.len(w.pending.len());
    for (k, ev) in &w.pending {
        enc_key(e, *k);
        enc_ev(e, ev);
    }
    e.len(w.pending_globals.len());
    for (k, g) in &w.pending_globals {
        enc_key(e, *k);
        enc_gev(e, g);
    }
    e.len(w.payloads.len());
    for (tag, p) in &w.payloads {
        e.u64(*tag);
        enc_payload(e, p);
    }
    e.len(w.txs.len());
    for (id, tx) in &w.txs {
        e.u64(*id);
        enc_node(e, tx.sender);
        enc_class(e, tx.class);
        enc_frame(e, &tx.frame);
    }
    e.len(w.lpl_audible.len());
    for (node, v) in &w.lpl_audible {
        e.u32(*node);
        e.len(v.len());
        for (tx, until) in v {
            e.u64(tx.0);
            enc_time(e, *until);
        }
    }
    e.len(w.delivered.len());
    for ((origin, dst), words) in &w.delivered {
        e.u32(*origin);
        e.u32(*dst);
        e.len(words.len());
        for &word in words {
            e.fixed64(word);
        }
    }
    e.len(w.lost.len());
    for ((pkt, dst), mark) in &w.lost {
        e.u64(*pkt);
        e.u32(*dst);
        enc_loss(e, mark.fate);
        enc_key(e, mark.key);
    }
    e.u64(w.collisions);
    enc_metrics(e, &w.metrics);
    enc_routes(e, &w.low_routes);
    enc_routes(e, &w.high_routes);
    e.len(w.alive.len());
    for &a in &w.alive {
        e.boolean(a);
    }
    e.boolean(w.death_seen);
    e.opt(&w.dissem, enc_dissem);
    e.opt(&w.series, |e, s| {
        enc_dur(e, s.every);
        enc_time(e, s.next);
        e.opt(&s.last, |e, t| enc_time(e, *t));
        e.u64(s.prev.gen_p);
        e.u64(s.prev.gen_b);
        e.u64(s.prev.del_p);
        e.u64(s.prev.del_b);
        e.f64(s.prev.energy_j);
        e.f64(s.prev.low_idle_j);
        e.f64(s.prev.low_sleep_j);
    });
    e.opt(&w.shadow, |e, sh| {
        e.len(sh.low.len());
        for &v in &sh.low {
            e.f64(v);
        }
        e.len(sh.high.len());
        for &v in &sh.high {
            e.f64(v);
        }
        enc_rng4(e, sh.rng);
    });
}

fn dec_world(d: &mut Dec) -> Res<WorldState> {
    let spec_text = d.str()?;
    let scen = parse_spec(&spec_text).map_err(|e| SnapshotError::Spec(e.to_string()))?;
    let time = dec_time(d)?;
    let events_logical = d.u64()?;
    let global_events = d.u64()?;
    let nodes = d.seq(dec_node_snap)?;
    let pending = d.seq(|d| Ok((dec_key(d)?, dec_ev(d)?)))?;
    let pending_globals = d.seq(|d| Ok((dec_key(d)?, dec_gev(d)?)))?;
    let payloads = d.seq(|d| Ok((d.u64()?, dec_payload(d)?)))?;
    let txs = d.seq(|d| {
        Ok((
            d.u64()?,
            ActiveTx {
                sender: dec_node(d)?,
                class: dec_class(d)?,
                frame: dec_frame(d)?,
            },
        ))
    })?;
    let lpl_audible = d.seq(|d| Ok((d.u32()?, d.seq(|d| Ok((TxId(d.u64()?), dec_time(d)?)))?)))?;
    let delivered = d.seq(|d| {
        let flow = (d.u32()?, d.u32()?);
        let words = d.seq(|d| d.fixed64())?;
        if words.last().is_some_and(|&w| w == 0) {
            return Err(bad(format!("flow {flow:?} bitmap ends in a zero word")));
        }
        Ok((flow, words))
    })?;
    let lost = d.seq(|d| {
        Ok((
            (d.u64()?, d.u32()?),
            FateMark {
                fate: dec_loss(d)?,
                key: dec_key(d)?,
            },
        ))
    })?;
    let collisions = d.u64()?;
    let metrics = dec_metrics(d)?;
    let low_routes = dec_routes(d)?;
    let high_routes = dec_routes(d)?;
    let alive = d.seq(|d| d.boolean())?;
    let death_seen = d.boolean()?;
    let dissem = d.opt(dec_dissem)?;
    let series = d.opt(|d| {
        Ok(SeriesSnapshot {
            every: dec_dur(d)?,
            next: dec_time(d)?,
            last: d.opt(dec_time)?,
            prev: Cumulative {
                gen_p: d.u64()?,
                gen_b: d.u64()?,
                del_p: d.u64()?,
                del_b: d.u64()?,
                energy_j: d.f64()?,
                low_idle_j: d.f64()?,
                low_sleep_j: d.f64()?,
            },
        })
    })?;
    let shadow = d.opt(|d| {
        let dec_offsets = |d: &mut Dec<'_>| {
            d.seq(|d| {
                let v = d.f64()?;
                if !v.is_finite() {
                    return Err(bad(format!("non-finite shadowing offset {v} dB")));
                }
                Ok(v)
            })
        };
        Ok(ShadowSnapshot {
            low: dec_offsets(d)?,
            high: dec_offsets(d)?,
            rng: dec_rng4(d)?,
        })
    })?;
    Ok(WorldState {
        scen,
        time,
        events_logical,
        global_events,
        nodes,
        pending,
        pending_globals,
        payloads,
        txs,
        lpl_audible,
        delivered,
        lost,
        collisions,
        metrics,
        low_routes,
        high_routes,
        alive,
        death_seen,
        dissem,
        series,
        shadow,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_power::{Battery, PowerConfig};
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
    fn pre_v4_frames_are_explicitly_unreadable() {
        // Version 3 changed the channel-slot layout (loss-state split,
        // audibility, shadowing) and version 4 the fate section (per-flow
        // delivery bitmaps); older frames must be rejected with a typed
        // version error, never best-effort decoded.
        let bytes = to_bytes(&snapshot_at(&dual_scenario(), 5)).expect("encodes");
        for old in [1u32, 2, 3] {
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

    #[test]
    fn fate_section_rejects_non_canonical_bitmaps() {
        // The checksum only proves the writer's bytes arrived intact; a
        // crafted frame with a zero-padded delivery bitmap must still be
        // a typed error, not a silently non-canonical world.
        let mut snap = snapshot_at(&dual_scenario(), 30);
        assert!(!snap.delivered.is_empty(), "the run delivered by 30 s");
        snap.delivered[0].1.push(0);
        assert!(matches!(
            from_bytes(&to_bytes(&snap).expect("encodes")),
            Err(SnapshotError::Decode(_))
        ));
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
