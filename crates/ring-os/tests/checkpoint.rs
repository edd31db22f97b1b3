//! System checkpoints round-trip exactly: a checkpoint taken mid-run
//! (under chaos, with poisoned words live) and restored onto a freshly
//! booted copy of the same world finishes the run bit-identically to
//! the machine that never stopped. Restore keeps copy-on-write memory
//! shared with the boot image, and rejects a mismatched configuration
//! with an error instead of a panic.
//!
//! The one exception to bit-identity is the metrics snapshot's
//! `fastpath` block. It counts the host-side acceleration caches, which
//! are not part of a checkpoint: a restore starts the TLB and
//! instruction cache cold, which changes their counters and nothing
//! else.

use ring_cpu::machine::RunExit;
use ring_cpu::FaultPlan;
use ring_os::boot::{BootImage, System, SystemConfig};
use ring_os::workload::{install_page_storm, StormSpec};
use ring_os::SystemCheckpoint;

const QUANTUM: u64 = 300;
const BUDGET: u64 = 10_000_000;

fn cfg(fastpath: bool) -> SystemConfig {
    SystemConfig {
        quantum: QUANTUM,
        frame_budget: Some(8),
        fastpath,
        ..SystemConfig::default()
    }
}

fn spec() -> StormSpec {
    StormSpec {
        procs: 3,
        pages: 5,
        rounds: 10,
    }
}

fn image(fastpath: bool) -> BootImage {
    let mut proto = System::boot_with(cfg(fastpath));
    install_page_storm(&mut proto, &spec());
    proto.freeze()
}

/// Boots a member over `image` and installs the workload, ready to run
/// or to have a checkpoint restored onto it.
fn member(image: &BootImage) -> System {
    let mut sys = System::boot_from_image(image);
    install_page_storm(&mut sys, &spec());
    sys.enable_metrics();
    sys.machine.set_timer(Some(QUANTUM));
    sys
}

/// Runs a chaos campaign in short slices and checkpoints at the first
/// slice boundary where a poisoned word is live, then runs on to halt.
/// Returns the checkpoint and the system as it finished.
fn run_with_checkpoint(image: &BootImage) -> (SystemCheckpoint, System) {
    let mut sys = member(image);
    sys.enable_chaos(FaultPlan::Campaign {
        seed: 11,
        mean_interval: 150,
    });
    let mut ck = None;
    while ck.is_none() {
        let watermark = sys.machine.cycles() + 50;
        match sys.machine.run_to_cycle(watermark, BUDGET) {
            RunExit::CycleLimit => {
                if sys.machine.phys().poison_count() > 0 {
                    ck = Some(sys.checkpoint());
                }
            }
            other => panic!("the run ended ({other:?}) before poison was ever live"),
        }
    }
    assert_eq!(sys.machine.run(BUDGET), RunExit::Halted);
    (ck.expect("loop exits with a checkpoint"), sys)
}

/// The metrics snapshot as JSON, with the fast-path acceleration
/// counters (which a restore resets to a cold cache) cleared.
fn architectural_metrics(sys: &System) -> String {
    let mut snap = sys.metrics_snapshot();
    snap.fastpath = Default::default();
    snap.to_json()
}

fn round_trip(fastpath: bool) {
    let image = image(fastpath);
    let (ck, straight) = run_with_checkpoint(&image);
    assert!(ck.cycles > 0, "the checkpoint is taken mid-run");

    let mut resumed = member(&image);
    resumed.restore_checkpoint(&ck).unwrap();
    assert!(
        resumed.machine.phys().is_cow(),
        "restore keeps sharing the boot image"
    );
    assert!(resumed.machine.phys().poison_count() > 0);
    assert_eq!(resumed.machine.cycles(), ck.cycles);
    assert_eq!(resumed.machine.run(BUDGET), RunExit::Halted);

    assert_eq!(
        resumed.machine.capture_image().words(),
        straight.machine.capture_image().words()
    );
    assert_eq!(
        architectural_metrics(&resumed),
        architectural_metrics(&straight)
    );
    assert_eq!(
        resumed.machine.phys().dirty_pages(),
        straight.machine.phys().dirty_pages()
    );
}

#[test]
fn restored_checkpoint_finishes_bit_identically() {
    round_trip(true);
}

#[test]
fn restored_checkpoint_finishes_bit_identically_without_fast_path() {
    round_trip(false);
}

#[test]
fn checkpoint_restores_any_number_of_times() {
    let image = image(true);
    let (ck, straight) = run_with_checkpoint(&image);
    let mut sys = member(&image);
    for _ in 0..2 {
        sys.restore_checkpoint(&ck).unwrap();
        assert_eq!(sys.machine.run(BUDGET), RunExit::Halted);
        assert_eq!(
            sys.machine.capture_image().words(),
            straight.machine.capture_image().words()
        );
    }
}

#[test]
fn restore_onto_different_memory_size_is_an_error() {
    let image = image(true);
    let (ck, _) = run_with_checkpoint(&image);
    let mut other = System::boot_with(SystemConfig {
        phys_words: cfg(true).phys_words * 2,
        ..cfg(true)
    });
    install_page_storm(&mut other, &spec());
    let before = other.machine.capture_image();
    let err = other.restore_checkpoint(&ck).unwrap_err();
    assert!(err.contains("physical words"), "{err}");
    assert_eq!(
        other.machine.capture_image(),
        before,
        "a rejected restore leaves the machine untouched"
    );
}
