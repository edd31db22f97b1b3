//! In-memory host-time spans for the traced run.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; nothing inside the simulator is instrumented.
//! Each span is keyed by a dotted layer path (`ring_os.install`,
//! `ring_os.trap.page_fault`, ...) and aggregated in memory as total
//! nanoseconds plus a count. At the end of the run the totals become
//! the per-layer metrics and a folded-stack file
//! (`workload;layer;sub-layer weight_ns`) that `flamegraph.pl` and the
//! `ring-prof` tooling render.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ring_core::access::Fault;

/// Trap vector names, indexed by vector number (see
/// `ring_core::access::vector`).
pub const VECTORS: [&str; Fault::NUM_VECTORS as usize] = [
    "access_violation",
    "upward_call",
    "downward_return",
    "segment_fault",
    "page_fault",
    "privileged",
    "illegal_opcode",
    "illegal_modifier",
    "indirect_limit",
    "derail",
    "timer",
    "io_completion",
    "physical_bounds",
    "halt",
    "parity",
    "io_error",
];

/// Aggregated spans: layer path → (total ns, count).
#[derive(Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, (u64, u64)>,
    traps: [(u64, u64); VECTORS.len()],
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Trace {
    /// Records one span of `layer` lasting `d`.
    pub fn add(&mut self, layer: &'static str, d: Duration) {
        let e = self.spans.entry(layer).or_default();
        e.0 += ns(d);
        e.1 += 1;
    }

    /// Times `f` as one span of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    /// Records one ring-0 trap dispatch through `vector`.
    pub fn trap(&mut self, vector: u32, d: Duration) {
        let e = &mut self.traps[vector as usize % VECTORS.len()];
        e.0 += ns(d);
        e.1 += 1;
    }

    /// Total ns of `layer` (0 when never recorded).
    pub fn ns(&self, layer: &str) -> u64 {
        self.spans.get(layer).map_or(0, |e| e.0)
    }

    /// Span count of `layer`.
    pub fn n(&self, layer: &str) -> u64 {
        self.spans.get(layer).map_or(0, |e| e.1)
    }

    /// Total ns and count of trap dispatches through `vector`.
    pub fn trap_totals(&self, vector: usize) -> (u64, u64) {
        self.traps[vector]
    }

    /// Total ns over every trap vector.
    pub fn trap_ns(&self) -> u64 {
        self.traps.iter().map(|t| t.0).sum()
    }

    /// The spans as folded stacks rooted at `workload`, one line per
    /// layer with a nonzero weight.
    pub fn folded(&self, workload: &str) -> String {
        let mut lines: Vec<(String, u64)> = self
            .spans
            .iter()
            .map(|(layer, e)| (layer.replace('.', ";"), e.0))
            .collect();
        for (v, e) in self.traps.iter().enumerate() {
            lines.push((format!("ring_os;trap;{}", VECTORS[v]), e.0));
        }
        lines.sort();
        let mut out = String::new();
        for (stack, weight) in lines.into_iter().filter(|l| l.1 > 0) {
            out.push_str(&format!("{workload};{stack} {weight}\n"));
        }
        out
    }
}
