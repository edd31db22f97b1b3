//! A fleet member booted from the image's ready checkpoint is the same
//! machine as one booted over the image with its workload installed
//! from scratch: same memory image, same metrics (the `fastpath` block
//! included), same dirty pages, and the same run to halt. Covers both
//! workload kinds, with round counts equal to the prototype's (no
//! delta) and different from it (one rounds word per process).

use ring_cpu::machine::RunExit;
use ring_fleet::{boot_member, build_image, FleetConfig, MachineSpec, WorkloadKind};
use ring_os::boot::System;
use ring_os::workload::{install_gate_storm, install_page_storm, GateStormSpec, StormSpec};

fn cfg() -> FleetConfig {
    FleetConfig {
        machines: 1,
        ..FleetConfig::default()
    }
}

/// Boots over `image` and installs `spec`'s workload the long way.
fn installed(cfg: &FleetConfig, image: &ring_os::boot::BootImage, spec: MachineSpec) -> System {
    let mut sys = System::boot_from_image(image);
    match spec.kind {
        WorkloadKind::PageStorm => {
            install_page_storm(
                &mut sys,
                &StormSpec {
                    procs: cfg.procs,
                    pages: cfg.pages,
                    rounds: spec.rounds,
                },
            );
        }
        WorkloadKind::GateStorm => {
            install_gate_storm(
                &mut sys,
                &GateStormSpec {
                    procs: cfg.procs,
                    rounds: spec.rounds,
                },
            );
        }
    }
    sys
}

/// Everything compared between the two systems.
#[derive(Debug, PartialEq)]
struct Observed {
    image: Vec<u64>,
    metrics: String,
    dirty_pages: u32,
    /// `(pid, code segment, rounds word)` per installed process.
    procs: Vec<(usize, u32, Option<u32>)>,
}

fn observe(sys: &System) -> Observed {
    Observed {
        image: sys.machine.capture_image().words().to_vec(),
        metrics: sys.metrics_json(),
        dirty_pages: sys.machine.phys().dirty_pages(),
        procs: sys
            .workload()
            .iter()
            .map(|p| (p.pid, p.code_segno, p.rounds_word.map(|a| a.value())))
            .collect(),
    }
}

fn run_to_halt(sys: &mut System, cfg: &FleetConfig) -> RunExit {
    sys.enable_metrics();
    sys.machine.set_timer(Some(cfg.quantum));
    sys.machine.run(cfg.budget)
}

#[test]
fn ready_boot_matches_boot_plus_install() {
    let cfg = cfg();
    for kind in [WorkloadKind::PageStorm, WorkloadKind::GateStorm] {
        let image = build_image(&cfg, kind);
        for rounds in [cfg.base_rounds, cfg.base_rounds + 3] {
            let spec = MachineSpec {
                id: 0,
                seed: 1,
                kind,
                rounds,
            };
            let what = format!("{} rounds {rounds}", kind.name());
            let mut ready = boot_member(&image, spec);
            let mut slow = installed(&cfg, &image, spec);
            assert_eq!(ready.workload().len(), cfg.procs, "{what}");
            assert!(ready.workload().iter().all(|p| p.rounds_word.is_some()));
            assert_eq!(observe(&ready), observe(&slow), "{what}: before the run");
            let delta = ready.machine.phys().dirty_pages();
            if rounds == cfg.base_rounds {
                assert_eq!(delta, 0, "{what}: the prototype itself dirties nothing");
            } else {
                assert!(delta > 0, "{what}: the rounds words diverge from the image");
            }

            let exit = run_to_halt(&mut ready, &cfg);
            assert_eq!(exit, RunExit::Halted, "{what}");
            assert_eq!(run_to_halt(&mut slow, &cfg), exit, "{what}");
            assert_eq!(
                ready.machine.stats().instructions,
                slow.machine.stats().instructions
            );
            assert_eq!(ready.machine.cycles(), slow.machine.cycles(), "{what}");
            assert_eq!(observe(&ready), observe(&slow), "{what}: after the run");
        }
    }
}

#[test]
fn rounds_change_the_run_exactly_as_an_install_would() {
    // A member with more rounds must run longer than the prototype: the
    // poked rounds word is really what the program reads.
    let cfg = cfg();
    for kind in [WorkloadKind::PageStorm, WorkloadKind::GateStorm] {
        let image = build_image(&cfg, kind);
        let instructions = |rounds| {
            let mut sys = boot_member(
                &image,
                MachineSpec {
                    id: 0,
                    seed: 1,
                    kind,
                    rounds,
                },
            );
            assert_eq!(run_to_halt(&mut sys, &cfg), RunExit::Halted);
            sys.machine.stats().instructions
        };
        assert!(
            instructions(cfg.base_rounds + 2) > instructions(cfg.base_rounds),
            "{}",
            kind.name()
        );
    }
}
