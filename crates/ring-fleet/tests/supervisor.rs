//! The self-healing supervisor, pinned: restart from checkpoints,
//! quarantine after an exhausted restart budget, host-panic capture,
//! and the isolation guarantee — a quarantined machine never perturbs
//! a healthy machine's result.

use ring_fleet::report::HealthReport;
use ring_fleet::{
    build_image, run_fleet, run_member, run_standalone, ChaosParams, FailureClass, FleetConfig,
    SupervisorConfig, WorkloadMix,
};

/// A fleet whose instruction budget is far too small to finish: every
/// attempt wedges, so every machine burns its restart budget (restoring
/// from mid-run checkpoints along the way) and ends quarantined.
fn doomed_fleet() -> FleetConfig {
    FleetConfig {
        machines: 4,
        threads: 2,
        budget: 60,
        supervisor: SupervisorConfig {
            chaos: Some(ChaosParams {
                seed: 5,
                mean_interval: 10_000,
            }),
            // Well under one attempt's cycle span, so checkpoints are
            // actually captured and restarts actually restore them.
            checkpoint_every: 100,
            restart_budget: 2,
            ..SupervisorConfig::default()
        },
        ..FleetConfig::default()
    }
}

#[test]
fn exhausted_restart_budget_quarantines_deterministically() {
    let a = run_fleet(&doomed_fleet());
    let b = run_fleet(&FleetConfig {
        threads: 1,
        ..doomed_fleet()
    });
    assert!(a.member_errors.is_empty());
    let image_pages = a.image_words.div_ceil(ring_segmem::COW_PAGE_WORDS) as u64;
    for m in &a.machines {
        // A restart restores copy-on-write memory, so a restarted
        // member still reports its own dirty pages and still shares
        // almost all of the boot image.
        assert!(
            m.dirty_pages > 0 && u64::from(m.dirty_pages) <= image_pages / 4,
            "machine {} reports {}/{} dirty pages after restarts",
            m.spec.id,
            m.dirty_pages,
            image_pages
        );
        // Every attempt gets a fresh instruction budget from the last
        // checkpoint, so a doomed machine either ratchets its way to a
        // clean halt across restarts or burns the whole restart budget
        // and is quarantined — nothing in between.
        assert_eq!(m.health.restarts, 2, "the full restart budget is spent");
        assert!(
            m.health.recovery_cycles > 0,
            "restarts must charge backoff and rolled-back work"
        );
        match &m.health.quarantined {
            Some(q) => {
                // The budget guarantees failure but not its flavor:
                // most attempts wedge, and some die to a genuine
                // post-recovery invariant violation when the fault
                // lands in paging state.
                assert!(
                    matches!(
                        q.class,
                        FailureClass::Wedged | FailureClass::InvariantViolation
                    ),
                    "unexpected quarantine class {}",
                    q.class
                );
                assert_eq!(
                    m.health.failures.len(),
                    3,
                    "original attempt plus both restarts each failed"
                );
                assert!(!m.halted && !m.completed);
            }
            None => {
                assert!(m.halted, "an unquarantined doomed machine healed");
                assert_eq!(m.health.failures.len(), 2);
            }
        }
    }
    let (ha, hb) = (HealthReport::of(&a.machines), HealthReport::of(&b.machines));
    // Pin the seed's outcome: checkpoint restarts genuinely heal at
    // least one machine (restart progress is real), and at least one
    // machine exhausts its budget into quarantine.
    assert!(!ha.quarantined.is_empty(), "no machine was quarantined");
    assert!(
        ha.quarantined.len() < a.machines.len(),
        "no machine healed through restarts"
    );
    // Quarantine is itself part of the determinism contract.
    assert_eq!(ha, hb, "quarantine outcome depends on threads");
    assert_eq!(ha.quarantine_hash(), hb.quarantine_hash());
    // The healthy merge folds exactly the non-quarantined machines.
    let mut healthy = ring_metrics::MetricsSnapshot::default();
    for m in a.machines.iter().filter(|m| !m.health.is_quarantined()) {
        healthy.merge(&m.snapshot);
    }
    assert_eq!(
        a.merged.to_json(),
        healthy.to_json(),
        "quarantined machines must never reach the healthy merge"
    );
}

#[test]
fn restarted_member_is_bit_identical_to_standalone_flat_run() {
    // Every doomed machine restarts from mid-run checkpoints; restoring
    // them over the shared copy-on-write image must be architecturally
    // invisible next to the same restarts on a private flat memory.
    let cfg = doomed_fleet();
    for id in 0..cfg.machines {
        let spec = cfg.spec(id);
        let member = run_member(&build_image(&cfg, spec.kind), &cfg, spec);
        let standalone = run_standalone(&cfg, spec);
        assert_eq!(member.health.restarts, 2, "machine {id} never restarted");
        assert_eq!(member.instructions, standalone.instructions);
        assert_eq!(member.cycles, standalone.cycles);
        assert_eq!(member.health.restarts, standalone.health.restarts);
        assert_eq!(member.health.failures, standalone.health.failures);
        assert_eq!(member.health.quarantined, standalone.health.quarantined);
        assert_eq!(
            member.snapshot.to_json(),
            standalone.snapshot.to_json(),
            "machine {id}: restarts over the shared image must be invisible"
        );
        assert_eq!(standalone.dirty_pages, 0, "flat memory has no overlay");
    }
}

#[test]
fn host_kill_injector_quarantines_without_perturbing_healthy_machines() {
    let plain = FleetConfig {
        machines: 4,
        threads: 2,
        ..FleetConfig::default()
    };
    let killed = FleetConfig {
        supervisor: SupervisorConfig {
            kill_machine: Some(2),
            restart_budget: 1,
            ..SupervisorConfig::default()
        },
        ..plain
    };
    let baseline = run_fleet(&plain);
    let result = run_fleet(&killed);
    assert!(
        result.member_errors.is_empty(),
        "kills are health, not errors"
    );

    let victim = &result.machines[2];
    let q = victim
        .health
        .quarantined
        .as_ref()
        .expect("the killed machine ends quarantined");
    assert_eq!(q.class, FailureClass::HostPanic);
    assert!(q.detail.contains("kill injector"), "{}", q.detail);
    assert_eq!(
        victim.health.failures.len(),
        2,
        "one original try + one restart"
    );

    // Every other machine's result is bit-identical to the kill-free
    // fleet: quarantine is perfectly isolated.
    for id in [0, 1, 3] {
        let (b, r) = (&baseline.machines[id], &result.machines[id]);
        assert_eq!(b.instructions, r.instructions);
        assert_eq!(b.cycles, r.cycles);
        assert_eq!(
            b.snapshot.to_json(),
            r.snapshot.to_json(),
            "machine {id} perturbed by machine 2's quarantine"
        );
    }

    let health = HealthReport::of(&result.machines);
    assert_eq!(health.quarantined.len(), 1);
    assert_eq!(health.quarantined[0].id, 2);
    assert_eq!(
        health.failures_by_class[FailureClass::HostPanic as usize],
        2
    );
}

#[test]
fn hot_chaos_fleet_heals_and_reports() {
    // A campaign hot enough to inject plenty of faults; ring-0 recovery
    // plus the supervisor must leave every machine halted or
    // quarantined, and the health report must account for the faults.
    let cfg = FleetConfig {
        machines: 8,
        threads: 4,
        mix: WorkloadMix::Mixed,
        supervisor: SupervisorConfig {
            chaos: Some(ChaosParams {
                seed: 0xDEAD_BEEF,
                mean_interval: 100,
            }),
            checkpoint_every: 250,
            ..SupervisorConfig::default()
        },
        ..FleetConfig::default()
    };
    let result = run_fleet(&cfg);
    assert!(result.member_errors.is_empty());
    for m in &result.machines {
        assert!(
            m.halted || m.health.is_quarantined(),
            "machine {} neither halted nor quarantined",
            m.spec.id
        );
    }
    let health = HealthReport::of(&result.machines);
    assert!(
        health.recoveries > 0,
        "a campaign this hot must exercise ring-0 recovery"
    );
}
