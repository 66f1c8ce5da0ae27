//! Spans recorded from outside the library.
//!
//! A span is one call into a layer (or, for the fleet, the stretch
//! between two of the library's callbacks into the benchmark's workload):
//! name, start, end, the span that contains it, the rep it belongs to,
//! and a count of the work it did. Spans stay in memory until the run
//! ends. A switched-off tracer takes no timestamps, so the untraced run
//! measures the program alone.

use crate::layers::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the containing span.
    pub parent: Option<usize>,
    /// The rep (or probe) this span belongs to; selects its calibration
    /// factor.
    pub op: usize,
    /// Work done inside, in the span's own unit (instructions, records,
    /// accesses); 0 when there is nothing to count.
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    op: usize,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    /// Counts taken at the same boundaries as the spans, summed by name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switches recording on or off for the reps that follow and files
    /// their spans under `op`.
    pub fn start_op(&mut self, op: usize, on: bool) {
        assert!(self.open.is_empty(), "span left open across reps");
        self.op = op;
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since this tracer was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            op: self.op,
            count: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, count: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let id = self.open.pop().expect("close without open");
        self.spans[id].end_ns = end_ns;
        self.spans[id].count = count;
    }

    /// A span around `f`, whose second result is the span's count.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        self.open(name);
        let (out, count) = f();
        self.close(count);
        out
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    /// Innermost open span, the parent of spans rebuilt after the fact.
    fn innermost(&self) -> Option<usize> {
        self.open.last().copied()
    }

    fn push(&mut self, name: &'static str, start_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            count: 0,
        });
        self.spans.len() - 1
    }
}

/// Duration of each span minus the part its direct children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.ns();
        }
    }
    own
}

/// Which of the fleet workload's callbacks the library called.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callback {
    /// `arrivals`: once per fleet epoch, before routing.
    Arrivals,
    /// `scavenger_program`: once per shard-epoch step, before its jobs.
    ScavengerProgram,
    /// `primary_context`: a job's first context.
    PrimaryContext,
    /// `scavenger_context`: a job's further contexts.
    ScavengerContext,
    /// `profiling_contexts`: a rebuild attempt begins.
    ProfilingContexts,
}

/// One callback from the library into the fleet workload.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    pub kind: Callback,
    pub shard: usize,
    pub enter_ns: u64,
    pub exit_ns: u64,
}

/// The leaf span currently open while walking the marks.
enum Leaf {
    None,
    /// Contexts are being built; the job starts at `end_ns`.
    CtxBuild {
        id: usize,
        end_ns: u64,
    },
    Rebuild {
        id: usize,
    },
}

/// Rebuilds `epoch → shard_step → {ctx_build, job, rebuild}` under the
/// innermost open span (the `run_fleet` call) from the callbacks it made.
/// The library is opaque between callbacks, so a `job` is everything
/// from a job's last context to the next callback: `run_dual_mode` plus
/// the tail of the shard's `step_epoch` (sampler drain, estimator,
/// diagnosis, journal) and, for an epoch's last shard, the fleet's
/// end-of-epoch work. Time before a child starts and after the last ends
/// is the parent's self time, so children and self tile the root.
pub fn fleet_spans(tr: &mut Tracer, marks: &[Mark], end_ns: u64) {
    if !tr.on {
        return;
    }
    let root = tr.innermost();
    let mut epoch: Option<usize> = None;
    let mut step: Option<(usize, usize)> = None; // (span, shard)
    let mut leaf = Leaf::None;

    fn close_leaf(tr: &mut Tracer, leaf: &mut Leaf, step: Option<(usize, usize)>, at: u64) {
        match std::mem::replace(leaf, Leaf::None) {
            Leaf::None => {}
            Leaf::CtxBuild { id, end_ns } => {
                tr.spans[id].end_ns = end_ns;
                let job = tr.push("job", end_ns, step.map(|(s, _)| s));
                tr.spans[job].end_ns = at;
            }
            Leaf::Rebuild { id } => tr.spans[id].end_ns = at,
        }
    }

    for m in marks {
        match m.kind {
            Callback::Arrivals => {
                close_leaf(tr, &mut leaf, step, m.enter_ns);
                if let Some((s, _)) = step.take() {
                    tr.spans[s].end_ns = m.enter_ns;
                }
                if let Some(e) = epoch {
                    tr.spans[e].end_ns = m.enter_ns;
                }
                epoch = Some(tr.push("epoch", m.enter_ns, root));
            }
            Callback::ScavengerProgram => {
                close_leaf(tr, &mut leaf, step, m.enter_ns);
                if let Some((s, _)) = step.take() {
                    tr.spans[s].end_ns = m.enter_ns;
                }
                step = Some((tr.push("shard_step", m.enter_ns, epoch), m.shard));
            }
            Callback::PrimaryContext | Callback::ScavengerContext => match &mut leaf {
                Leaf::CtxBuild { end_ns, .. } if m.kind == Callback::ScavengerContext => {
                    *end_ns = m.exit_ns;
                }
                _ => {
                    close_leaf(tr, &mut leaf, step, m.enter_ns);
                    let id = tr.push("ctx_build", m.enter_ns, step.map(|(s, _)| s));
                    leaf = Leaf::CtxBuild {
                        id,
                        end_ns: m.exit_ns,
                    };
                }
            },
            Callback::ProfilingContexts => {
                close_leaf(tr, &mut leaf, step, m.enter_ns);
                // A rebuild for another shard than the one being stepped
                // is the fleet's rollout build, made after the serve
                // loop: it belongs to the epoch, not to the last step.
                if step.is_some_and(|(_, shard)| shard != m.shard) {
                    let (s, _) = step.take().expect("checked");
                    tr.spans[s].end_ns = m.enter_ns;
                }
                let parent = step.map(|(s, _)| s).or(epoch);
                leaf = Leaf::Rebuild {
                    id: tr.push("rebuild", m.enter_ns, parent),
                };
            }
        }
    }
    close_leaf(tr, &mut leaf, step, end_ns);
    if let Some((s, _)) = step {
        tr.spans[s].end_ns = end_ns;
    }
    if let Some(e) = epoch {
        tr.spans[e].end_ns = end_ns;
    }
}

/// The trace file: every span, with the calibration factor of its rep.
pub fn to_json(workload: &str, spans: &[Span], factors: &[f64]) -> Json {
    let spans = spans
        .iter()
        .map(|s| {
            Json::Object(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("op".into(), Json::UInt(s.op as u64)),
                ("count".into(), Json::UInt(s.count)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("workload".into(), Json::Str(workload.into())),
        (
            "calibration_factor_by_op".into(),
            Json::Array(factors.iter().map(|&f| Json::Float(f)).collect()),
        ),
        ("spans".into(), Json::Array(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(0, 100, None),    // root
            span(10, 40, Some(0)), // child a
            span(40, 90, Some(0)), // child b, adjacent to a
            span(50, 70, Some(2)), // grandchild, nested in b
        ];
        // root: 100 - 30 - 50 (the grandchild is b's, not root's).
        assert_eq!(self_ns(&spans), vec![20, 30, 30, 20]);
        // Self times tile the root.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.start_op(0, false);
        let v = tr.span("x", || (7, 3));
        tr.count("c", 5);
        assert_eq!(v, 7);
        assert!(tr.spans.is_empty() && tr.counts.is_empty());
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut tr = Tracer::new();
        tr.start_op(4, true);
        tr.open("outer");
        tr.span("inner", || ((), 9));
        tr.span("inner", || ((), 1));
        tr.close(0);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert_eq!((tr.spans[1].count, tr.spans[1].op), (9, 4));
    }

    fn mark(kind: Callback, shard: usize, enter: u64, exit: u64) -> Mark {
        Mark {
            kind,
            shard,
            enter_ns: enter,
            exit_ns: exit,
        }
    }

    /// Two epochs on two shards, a rollout build at the end of the first:
    /// the rebuilt tree must tile the root exactly.
    #[test]
    fn fleet_callbacks_tile_the_run() {
        use Callback::*;
        let marks = [
            mark(Arrivals, 0, 100, 110),
            mark(ScavengerProgram, 0, 120, 121),
            mark(PrimaryContext, 0, 130, 135),
            mark(ScavengerContext, 0, 135, 140),
            mark(ScavengerContext, 0, 141, 145),
            mark(ScavengerProgram, 1, 400, 401),
            mark(PrimaryContext, 1, 410, 415),
            mark(ProfilingContexts, 0, 700, 720),
            mark(Arrivals, 0, 900, 905),
            mark(ScavengerProgram, 0, 910, 911),
            mark(ScavengerProgram, 1, 950, 951),
            mark(PrimaryContext, 1, 960, 970),
            mark(ProfilingContexts, 1, 1200, 1210),
        ];
        let mut tr = Tracer::new();
        tr.start_op(0, true);
        tr.open("run_fleet");
        fleet_spans(&mut tr, &marks, 1500);
        tr.close(0);
        // The test's marks are synthetic; pin the root to their frame.
        tr.spans[0].start_ns = 50;
        tr.spans[0].end_ns = 1500;

        let names: Vec<&str> = tr.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "run_fleet",
                "epoch",
                "shard_step",
                "ctx_build",
                "job",
                "shard_step",
                "ctx_build",
                "job",
                "rebuild",
                "epoch",
                "shard_step",
                "shard_step",
                "ctx_build",
                "job",
                "rebuild",
            ]
        );
        let by = |i: usize| (tr.spans[i].start_ns, tr.spans[i].end_ns, tr.spans[i].parent);
        assert_eq!(by(3), (130, 145, Some(2))); // contexts merge into one build
        assert_eq!(by(4), (145, 400, Some(2))); // job runs to the next callback
        assert_eq!(by(5), (400, 700, Some(1))); // step closed by the rollout build
        assert_eq!(by(8), (700, 900, Some(1))); // other shard's build: the epoch's
        assert_eq!(by(14), (1200, 1500, Some(11))); // own shard's build: the step's
        assert_eq!(self_ns(&tr.spans).iter().sum::<u64>(), 1450);
        for s in &tr.spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                assert!(tr.spans[p].start_ns <= s.start_ns && s.end_ns <= tr.spans[p].end_ns);
            }
        }
    }
}
