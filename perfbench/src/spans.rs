//! Host-time spans recorded by the benchmark around its calls into each
//! layer of the program, and the self-time accounting over them.
//!
//! Spans live in memory and are folded into per-layer totals when the
//! traced run ends. A span's *self time* is its duration minus the time
//! its direct children cover; spans of one thread nest strictly, so
//! children never overlap and their durations simply add up.

use std::collections::BTreeMap;
use std::time::Instant;

/// The program layer a span's time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code between calls (root spans).
    Bench,
    /// `btcfast` (crates/core): sessions, roles, engine, chaos.
    Core,
    /// `btcfast-btcsim`: BTC transactions, mempool, mining.
    Btcsim,
    /// `btcfast-pscsim`: PSC submission, blocks, state commitment.
    Pscsim,
    /// `btcfast-payjudger`: judger calls and evidence verification.
    Payjudger,
    /// `btcfast-netsim`: latency sampling and transport.
    Netsim,
    /// `btcfast-store` (through `core::recovery`): WAL journaling.
    Store,
    /// `btcfast-obs`: the program's sim-time tracer.
    Obs,
    /// A measurement probe (extra work the program does not do); its time
    /// is reported beside the accounting, never inside it.
    Probe,
}

impl Layer {
    /// Every layer that owns program time, in report order.
    pub const TIMED: [Layer; 7] = [
        Layer::Core,
        Layer::Btcsim,
        Layer::Pscsim,
        Layer::Payjudger,
        Layer::Netsim,
        Layer::Store,
        Layer::Obs,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Btcsim => "btcsim",
            Layer::Pscsim => "pscsim",
            Layer::Payjudger => "payjudger",
            Layer::Netsim => "netsim",
            Layer::Store => "store",
            Layer::Obs => "obs",
            Layer::Probe => "probe",
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `pscsim.block`.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: Layer,
    /// The payment, round or operation the span works for: every span of
    /// one unit of work shares it.
    pub id: u64,
    /// Index of the enclosing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    id: u64,
}

impl Recorder {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            id: 0,
        }
    }

    /// Sets the id the next spans are recorded under.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::exit`].
    pub fn enter(&mut self, layer: Layer, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            id: self.id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit(&mut self) {
        let index = self.open.pop().expect("exit without an open span");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(layer, name);
        let out = f();
        self.exit();
        out
    }

    /// Consumes the recorder into its spans.
    ///
    /// # Panics
    ///
    /// Panics when a span is still open.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Per-layer self time over a set of span forests, and the total time it
/// partitions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Self time per layer, ns. `Bench` is the benchmark's own time
    /// between calls (the unattributed remainder); `Probe` is reported
    /// beside the accounting.
    pub self_ns: BTreeMap<Layer, u64>,
    /// Sum of the root spans' durations minus probe time, ns: the traced
    /// time the non-probe self times add up to exactly.
    pub traced_ns: u64,
}

impl Accounting {
    /// Folds one thread's spans in.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        for (span, children) in spans.iter().zip(&child_ns) {
            *self.self_ns.entry(span.layer).or_default() += span.duration_ns() - children;
            if span.parent.is_none() {
                self.traced_ns += span.duration_ns();
            }
            if span.layer == Layer::Probe {
                self.traced_ns -= span.duration_ns();
            }
        }
    }

    /// A layer's self time, ns.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.self_ns.get(&layer).copied().unwrap_or(0)
    }

    /// Sum of every non-probe self time, ns — equal to
    /// [`Accounting::traced_ns`] by construction.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns
            .iter()
            .filter(|(layer, _)| **layer != Layer::Probe)
            .map(|(_, ns)| ns)
            .sum()
    }
}

/// Writes span forests as JSON lines, one span a line: `thread`, `span`
/// (index within the thread), `parent`, `id`, `layer`, `name`, `start_ns`
/// and `end_ns`.
pub fn write_jsonl(threads: &[Vec<Span>], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for (thread, spans) in threads.iter().enumerate() {
        for (index, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"span\":{index},\"parent\":{parent},\"id\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id,
                span.layer.name(),
                span.name,
                span.start_ns,
                span.end_ns
            )?;
        }
    }
    Ok(())
}

/// Durations of every span called `name`, ns, in recording order.
pub fn durations_ns<'a>(spans: impl IntoIterator<Item = &'a Span>, name: &str) -> Vec<u64> {
    spans
        .into_iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {}
    }

    #[test]
    fn self_times_partition_the_traced_time_exactly() {
        let mut rec = Recorder::new(Instant::now());
        rec.set_id(7);
        rec.enter(Layer::Bench, "bench.round");
        spin(50);
        rec.span(Layer::Core, "core.evaluate_offer", || spin(100));
        rec.enter(Layer::Pscsim, "pscsim.block");
        spin(40);
        rec.span(Layer::Probe, "pscsim.commitment", || spin(30));
        rec.exit();
        rec.exit();
        let spans = rec.finish();
        assert!(spans.iter().all(|s| s.id == 7));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));

        let mut acc = Accounting::default();
        acc.absorb(&spans);
        assert_eq!(acc.attributed_ns(), acc.traced_ns);
        assert_eq!(
            acc.traced_ns + acc.layer_ns(Layer::Probe),
            spans[0].duration_ns()
        );
        assert!(acc.layer_ns(Layer::Core) >= 100_000);
        assert!(acc.layer_ns(Layer::Probe) >= 30_000);
    }
}
