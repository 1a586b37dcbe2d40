//! The experiment registry: one entry per table/figure of the paper.

use crate::ablations;
use crate::output::Output;
use crate::suite::{energy_delay_series, energy_series, goodput_series, Hop, Quality};
use bcp_analysis::feasibility;
use std::path::PathBuf;

/// Everything an experiment run needs to know beyond its own axes: the
/// fidelity to run at and where (if anywhere) to persist artifacts.
///
/// The `repro` binary persists each experiment's rendered/JSON/CSV output
/// into `out_dir` centrally; the context is threaded through experiments
/// so they can drop additional raw artifacts of their own next to them.
#[derive(Debug, Clone, Default)]
pub struct RunCtx {
    /// Sweep fidelity.
    pub quality: Quality,
    /// Artifact directory (`None` = stdout only).
    pub out_dir: Option<PathBuf>,
}

impl RunCtx {
    /// A context at the given quality, without artifact persistence.
    pub fn new(quality: Quality) -> Self {
        RunCtx {
            quality,
            out_dir: None,
        }
    }

    /// Adds an artifact directory.
    pub fn with_out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = Some(dir.into());
        self
    }
}

/// One reproducible experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable identifier (`table1`, `fig1` … `fig12`).
    pub id: &'static str,
    /// What the paper's artifact shows.
    pub title: &'static str,
    /// Producer function.
    pub run: fn(&RunCtx) -> Output,
}

/// All experiments in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1 — Energy characteristics (mW, mJ)",
            run: table1,
        },
        Experiment {
            id: "fig1",
            title: "Figure 1 — Energy consumption vs data size (single-hop)",
            run: fig1,
        },
        Experiment {
            id: "fig2",
            title: "Figure 2 — Break-even size s* as idling time increases",
            run: fig2,
        },
        Experiment {
            id: "fig3",
            title: "Figure 3 — Break-even size s* as forward progress increases",
            run: fig3,
        },
        Experiment {
            id: "fig4",
            title: "Figure 4 — Energy savings with burst size",
            run: fig4,
        },
        Experiment {
            id: "fig5",
            title: "Figure 5 — SH: Goodput vs number of senders",
            run: fig5,
        },
        Experiment {
            id: "fig6",
            title: "Figure 6 — SH: Normalized energy (J/Kbit) vs number of senders",
            run: fig6,
        },
        Experiment {
            id: "fig7",
            title: "Figure 7 — SH: Normalized energy vs delay (0.2 Kbps)",
            run: fig7,
        },
        Experiment {
            id: "fig8",
            title: "Figure 8 — MH: Goodput vs number of senders",
            run: fig8,
        },
        Experiment {
            id: "fig9",
            title: "Figure 9 — MH: Normalized energy (J/Kbit) vs number of senders",
            run: fig9,
        },
        Experiment {
            id: "fig10",
            title: "Figure 10 — MH: Normalized energy vs delay (0.2 Kbps)",
            run: fig10,
        },
        Experiment {
            id: "fig11",
            title: "Figure 11 — Prototype: Energy per packet vs threshold α·s*",
            run: fig11,
        },
        Experiment {
            id: "fig12",
            title: "Figure 12 — Prototype: Energy per packet vs delay per packet",
            run: fig12,
        },
        Experiment {
            id: "ablation-shortcuts",
            title: "Ablation — Section 3 route optimization (learned shortcuts)",
            run: ablations::shortcuts,
        },
        Experiment {
            id: "ablation-overhearing",
            title: "Ablation — sensor-model overhearing accounting ladder",
            run: ablations::overhearing,
        },
        Experiment {
            id: "ablation-loss",
            title: "Ablation — goodput robustness under channel loss",
            run: ablations::loss,
        },
        Experiment {
            id: "ablation-adaptive",
            title: "Ablation — static vs retransmission-adaptive thresholds",
            run: ablations::adaptive,
        },
        Experiment {
            id: "ablation-link-asymmetry",
            title: "Ablation — received-power links: reach/lifetime vs shadowing sigma per class",
            run: ablations::link_asymmetry,
        },
        Experiment {
            id: "lifetime",
            title: "Lifetime — time to first death vs battery capacity (finite energy)",
            run: crate::lifetime::lifetime,
        },
        Experiment {
            id: "broadcast_lifetime",
            title: "Broadcast lifetime — flooding on the low radio vs bulk on the high radio",
            run: crate::broadcast::broadcast_lifetime,
        },
        Experiment {
            id: "idle_floor",
            title: "Idle floor — LPL duty cycle × send rate (the listen/sleep crossover)",
            run: crate::idle_floor::idle_floor,
        },
    ]
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id == id)
}

fn table1(_ctx: &RunCtx) -> Output {
    let rows = feasibility::table1_rows()
        .into_iter()
        .map(|(name, rate, ptx, prx, pidle, ew)| {
            vec![
                name,
                rate,
                format!("{ptx}"),
                format!("{prx}"),
                format!("{pidle}"),
                ew.map(|e| format!("{e}")).unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    Output::Table {
        headers: ["Radio", "Rate", "Ptx", "Prx", "Pi", "Ewakeup"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec!["values reproduced from the paper's Table 1".into()],
    }
}

fn fig1(_ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "KB".into(),
        ylabel: "Energy consumption (mJ)".into(),
        series: feasibility::fig1_energy_vs_size(),
        notes: vec!["sensor-only lines use Eq. (1); card-Micaz lines use Eq. (2)".into()],
    }
}

fn fig2(_ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "idle_s".into(),
        ylabel: "Break-even data size (KB)".into(),
        series: feasibility::fig2_breakeven_vs_idle(),
        notes: vec!["E_idle charged across both high-power radios".into()],
    }
}

fn fig3(_ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "fp_hops".into(),
        ylabel: "Break-even data size (KB)".into(),
        series: feasibility::fig3_breakeven_vs_fp(),
        notes: vec!["absent points = infeasible pairing at that forward progress".into()],
    }
}

fn fig4(_ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "packets".into(),
        ylabel: "Fraction of energy savings".into(),
        series: feasibility::fig4_savings_vs_burst(),
        notes: vec!["-Idle variants charge 100 ms of idle per awake period".into()],
    }
}

fn fig5(ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "senders".into(),
        ylabel: "Goodput".into(),
        series: goodput_series(Hop::Single, ctx.quality),
        notes: sim_notes(ctx.quality),
    }
}

fn fig6(ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "senders".into(),
        ylabel: "Normalized energy (J/Kbit)".into(),
        series: energy_series(Hop::Single, ctx.quality),
        notes: sim_notes(ctx.quality),
    }
}

fn fig7(ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "delay_s".into(),
        ylabel: "Normalized energy (J/Kb)".into(),
        series: energy_delay_series(Hop::Single, ctx.quality),
        notes: sim_notes(ctx.quality),
    }
}

fn fig8(ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "senders".into(),
        ylabel: "Goodput".into(),
        series: goodput_series(Hop::Multi, ctx.quality),
        notes: sim_notes(ctx.quality),
    }
}

fn fig9(ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "senders".into(),
        ylabel: "Normalized energy (J/Kbit)".into(),
        series: energy_series(Hop::Multi, ctx.quality),
        notes: sim_notes(ctx.quality),
    }
}

fn fig10(ctx: &RunCtx) -> Output {
    Output::Figure {
        xlabel: "delay_s".into(),
        ylabel: "Normalized energy (J/Kb)".into(),
        series: energy_delay_series(Hop::Multi, ctx.quality),
        notes: sim_notes(ctx.quality),
    }
}

fn fig11(ctx: &RunCtx) -> Output {
    let runs = testbed_runs(ctx.quality);
    Output::Figure {
        xlabel: "threshold_B".into(),
        ylabel: "Energy per packet (uJ)".into(),
        series: bcp_testbed::fig11_series(runs),
        notes: vec![format!("{runs} runs per point (paper: 5)")],
    }
}

fn fig12(ctx: &RunCtx) -> Output {
    let runs = testbed_runs(ctx.quality);
    Output::Figure {
        xlabel: "delay_ms".into(),
        ylabel: "Energy per packet (uJ)".into(),
        series: vec![bcp_testbed::fig12_series(runs)],
        notes: vec![format!("{runs} runs per point (paper: 5)")],
    }
}

fn testbed_runs(q: Quality) -> usize {
    match q {
        Quality::Test => 1,
        Quality::Quick => 3,
        Quality::PaperLite | Quality::Paper => 5,
    }
}

fn sim_notes(q: Quality) -> Vec<String> {
    vec![format!(
        "{} runs of {} simulated seconds per point (paper: 20 runs of 5000 s)",
        q.runs(),
        q.duration()
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_artifact() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        let paper: Vec<&str> = ids.iter().copied().take(13).collect();
        assert_eq!(
            paper,
            vec![
                "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                "fig10", "fig11", "fig12"
            ],
            "one entry per table/figure of the paper"
        );
        assert!(
            ids.iter().filter(|i| i.starts_with("ablation-")).count() >= 4,
            "ablations registered"
        );
        assert!(ids.contains(&"lifetime"), "lifetime experiment registered");
        assert!(
            ids.contains(&"idle_floor"),
            "idle_floor experiment registered"
        );
        assert!(
            ids.contains(&"broadcast_lifetime"),
            "broadcast_lifetime experiment registered"
        );
    }

    #[test]
    fn find_by_id() {
        assert!(find("fig6").is_some());
        assert!(find("fig13").is_none());
    }

    #[test]
    fn analytic_figures_render() {
        for id in ["table1", "fig1", "fig2", "fig3", "fig4"] {
            let e = find(id).unwrap();
            let out = (e.run)(&RunCtx::new(Quality::Test));
            let text = out.render(e.title);
            assert!(text.len() > 100, "{id} rendered too little");
        }
    }
}
