//! Per-node simulation state: the full protocol stack of one mote.

use crate::events::Class;
use crate::scenario::{ModelKind, Scenario};
use bcp_core::msg::BurstId;
use bcp_core::receiver::BcpReceiver;
use bcp_core::sender::BcpSender;
use bcp_mac::csma::{CsmaMac, MacConfig};
use bcp_mac::types::MacAddr;
use bcp_net::addr::{AddrMap, NodeId};
use bcp_net::routing::ShortcutTable;
use bcp_power::PowerSupply;
use bcp_radio::device::{Radio, RadioState};
use bcp_radio::units::{Energy, Power};
use bcp_sim::persist::{Dec, DecodeError, Enc, Persist};
use bcp_sim::rng::Rng;
use bcp_sim::time::{SimDuration, SimTime};
use bcp_traffic::Workload;

/// One node's complete stack: two radios, two MACs, the BCP machines, a
/// traffic source and bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// Platform identity.
    pub id: NodeId,
    /// Sensor-radio MAC.
    pub low_mac: CsmaMac,
    /// Sensor radio (always on in every model).
    pub low_radio: Radio,
    /// 802.11 MAC (absent in the pure sensor model).
    pub high_mac: Option<CsmaMac>,
    /// 802.11 radio (absent in the pure sensor model).
    pub high_radio: Option<Radio>,
    /// BCP sender machine (dual-radio model only).
    pub bcp_tx: Option<BcpSender>,
    /// BCP receiver machine (dual-radio model only).
    pub bcp_rx: Option<BcpReceiver>,
    /// Application traffic source (senders only).
    pub workload: Option<Workload>,
    /// Payload size of the next application packet.
    pub pending_bytes: usize,
    /// Application packet counter (feeds packet ids).
    pub app_seq: u64,
    /// Transmission counter (feeds [`TxId`](crate::events::TxId)s): node
    /// local, so transmission identities are shard-count independent.
    pub tx_seq: u64,
    /// Payload tag counter (node-local for the same reason).
    pub tag_seq: u64,
    /// Sessions currently holding the high radio awake.
    pub high_refs: u32,
    /// Sender-side bursts waiting for the high radio to finish waking.
    pub wake_pending: Vec<BurstId>,
    /// Accumulated header-overhearing energy on the low radio (the
    /// "Sensor-header" accounting variant).
    pub header_overhear: Energy,
    /// Learned high-radio shortcuts (route-optimization ablation).
    pub shortcuts: ShortcutTable,
    /// End of the post-burst listen window for shortcut learning.
    pub listen_until: SimTime,
    /// The node's finite energy supply (`None` = mains/unlimited).
    pub supply: Option<PowerSupply>,
    /// When the battery emptied; `None` while the node lives.
    pub died_at: Option<SimTime>,
}

impl NodeState {
    /// Builds node `id` of `scen` at t = 0, drawing its MAC seeds, its
    /// workload seed and its workload's phase from `rng` in that order
    /// (the build's draw order, which fixes every run's randomness).
    pub(crate) fn new(scen: &Scenario, addr: &AddrMap, id: NodeId, rng: &mut Rng) -> NodeState {
        let t0 = SimTime::ZERO;
        // Under LPL every low-radio data frame is stretched by the
        // schedule's wake-up preamble (zero when always on, keeping
        // pre-LPL scenarios bit-identical).
        let low_mac = CsmaMac::new(
            MacConfig::sensor_csma(&scen.low_profile)
                .with_wakeup_preamble(scen.low_sleep.tx_preamble()),
            MacAddr(addr.low_of(id).0 as u64),
            rng.next_u64(),
        );
        let low_radio = Radio::new(scen.low_profile.clone(), RadioState::Idle, t0);
        let mut high = |initial: RadioState| {
            (
                Some(CsmaMac::new(
                    MacConfig::dot11b(&scen.high_profile),
                    MacAddr(addr.high_of(id).0),
                    rng.next_u64(),
                )),
                Some(Radio::new(scen.high_profile.clone(), initial, t0)),
            )
        };
        let ((high_mac, high_radio), high_refs) = match scen.model {
            ModelKind::Sensor => ((None, None), 0),
            ModelKind::Dot11 => (high(RadioState::Idle), 1),
            ModelKind::DualRadio => (high(RadioState::Off), 0),
        };
        let dual = scen.model == ModelKind::DualRadio;
        let workload = scen.senders.contains(&id).then(|| {
            let w = scen.make_workload(rng.next_u64());
            // Random phase so CBR senders do not tick in lock-step.
            let interval = scen.packet_bytes as f64 * 8.0 / scen.rate_bps;
            w.with_phase(SimDuration::from_secs_f64(rng.f64() * interval))
        });
        NodeState {
            id,
            low_mac,
            low_radio,
            high_mac,
            high_radio,
            bcp_tx: dual.then(|| BcpSender::new(id, scen.bcp.clone())),
            bcp_rx: dual.then(|| BcpReceiver::new(id, scen.bcp.clone())),
            workload,
            pending_bytes: 0,
            app_seq: 0,
            tx_seq: 0,
            tag_seq: 0,
            high_refs,
            wake_pending: Vec::new(),
            header_overhear: Energy::ZERO,
            shortcuts: ShortcutTable::new(),
            listen_until: t0,
            supply: scen
                .power
                .battery_for(id.index(), id == scen.sink)
                .map(PowerSupply::new),
            died_at: None,
        }
    }

    /// The MAC for `class`.
    ///
    /// # Panics
    ///
    /// Panics if the node has no radio of that class (model bug).
    pub fn mac_mut(&mut self, class: Class) -> &mut CsmaMac {
        match class {
            Class::Low => &mut self.low_mac,
            Class::High => self.high_mac.as_mut().expect("node has no high MAC"),
        }
    }

    /// The MAC for `class`, immutable (same panic contract).
    pub fn mac(&self, class: Class) -> &CsmaMac {
        match class {
            Class::Low => &self.low_mac,
            Class::High => self.high_mac.as_ref().expect("node has no high MAC"),
        }
    }

    /// The radio for `class`.
    ///
    /// # Panics
    ///
    /// Panics if the node has no radio of that class (model bug).
    pub fn radio_mut(&mut self, class: Class) -> &mut Radio {
        match class {
            Class::Low => &mut self.low_radio,
            Class::High => self.high_radio.as_mut().expect("node has no high radio"),
        }
    }

    /// The radio for `class`, immutable.
    pub fn radio(&self, class: Class) -> Option<&Radio> {
        match class {
            Class::Low => Some(&self.low_radio),
            Class::High => self.high_radio.as_ref(),
        }
    }

    /// `true` when the node has a radio of this class at all.
    pub fn has_class(&self, class: Class) -> bool {
        match class {
            Class::Low => true,
            Class::High => self.high_radio.is_some(),
        }
    }

    /// `true` while the node's supply (if any) still holds charge.
    pub fn is_alive(&self) -> bool {
        self.died_at.is_none()
    }

    /// Cumulative metered energy over both radios through `t` — the
    /// reading the battery drains against.
    pub fn metered_total(&self, t: SimTime) -> Energy {
        let mut e = self.low_radio.report(t).total();
        if let Some(hr) = &self.high_radio {
            e += hr.report(t).total();
        }
        e
    }

    /// The node's instantaneous power draw over both radios.
    pub fn current_draw(&self) -> Power {
        let mut p = self.low_radio.current_draw();
        if let Some(hr) = &self.high_radio {
            p = p + hr.current_draw();
        }
        p
    }
}

/// The node's registers in declaration order. The parts the scenario
/// builds or leaves out — the high radio and its MAC, the BCP machines,
/// the workload, the battery — carry a presence byte that must agree
/// with the node loaded into, as must the id.
impl Persist for NodeState {
    fn save(&self, e: &mut Enc) {
        self.id.save(e);
        self.low_mac.save(e);
        self.low_radio.save(e);
        e.present(&self.high_mac);
        e.present(&self.high_radio);
        e.present(&self.bcp_tx);
        e.present(&self.bcp_rx);
        e.present(&self.workload);
        (self.pending_bytes, self.app_seq, self.tx_seq).save(e);
        (self.tag_seq, self.high_refs).save(e);
        self.wake_pending.save(e);
        self.header_overhear.save(e);
        self.shortcuts.save(e);
        self.listen_until.save(e);
        e.present(&self.supply);
        self.died_at.save(e);
    }

    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), DecodeError> {
        let id: NodeId = d.read()?;
        if id != self.id {
            return Err(DecodeError::new(format!(
                "node {id} stands where node {} belongs",
                self.id
            )));
        }
        self.low_mac.load(d)?;
        self.low_radio.load(d)?;
        d.present(&mut self.high_mac, "high-radio MAC")?;
        d.present(&mut self.high_radio, "high radio")?;
        d.present(&mut self.bcp_tx, "BCP sender")?;
        d.present(&mut self.bcp_rx, "BCP receiver")?;
        d.present(&mut self.workload, "workload")?;
        (self.pending_bytes, self.app_seq, self.tx_seq) = d.read()?;
        (self.tag_seq, self.high_refs) = d.read()?;
        self.wake_pending.load(d)?;
        self.header_overhear.load(d)?;
        self.shortcuts.load(d)?;
        self.listen_until.load(d)?;
        d.present(&mut self.supply, "battery")?;
        self.died_at.load(d)
    }
}
