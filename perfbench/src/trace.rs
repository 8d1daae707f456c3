//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span: name, start, end, parent, and the iteration every span of one
//! iteration shares. At each span boundary it also samples the
//! simulator's own wall-phase counters (`opml_profiler::phase`); the
//! part of a phase that ran inside a span but outside the span's
//! children becomes an aggregate node under that span, with a total and
//! a count but no interval. Nodes stay in memory until the run ends and
//! are then written once, as Chrome trace-event JSON and as a per-layer
//! table.
//!
//! A node's self time is its total minus its children's totals, so the
//! self times of one iteration add up to its root span; the root's own
//! self time is the part no layer accounts for.

use opml_profiler::phases;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's host clock. Nothing the benchmark times reads it.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        // detlint::allow(DL001): the benchmark measures host wall time by design; no simulation input reads it
        Clock(Instant::now())
    }

    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Simulator wall phases and the layer names they are reported under.
pub const PHASES: [(&str, &str); 7] = [
    (phases::RUNTIME_POOL, "phase.runtime_pool"),
    (phases::SHARD_SIM, "phase.shard_sim"),
    (phases::MERGE_REPLAY, "phase.merge_replay"),
    (phases::MERGE_METRICS, "phase.merge_metrics"),
    (phases::MERGE_LEDGER, "phase.merge_ledger"),
    (phases::MERGE_SPILL, "phase.merge_spill"),
    (phases::MERGE_STREAM, "phase.merge_stream"),
];

/// Phases that run inside another phase: pool dispatch wraps every
/// shard body it executes, so a shard's time is part of the pool's.
/// On a one-thread pool the closures run inline inside that bracket, so
/// the pool's self time includes work no inner phase claims (the paper
/// workload's 5-seed sweep, for one).
const PHASE_PARENTS: [(&str, &str); 1] = [("phase.shard_sim", "phase.runtime_pool")];

/// Wall nanoseconds and enter counts per entry of [`PHASES`].
type PhaseCounts = [(u64, u64); PHASES.len()];

fn phase_counts() -> PhaseCounts {
    let report = opml_profiler::phase_report();
    let mut out = [(0, 0); PHASES.len()];
    for (slot, (phase, _)) in out.iter_mut().zip(PHASES) {
        if let Some(stat) = report.iter().find(|s| s.name == phase) {
            *slot = (stat.wall_ns, stat.enters);
        }
    }
    out
}

fn minus(a: PhaseCounts, b: PhaseCounts) -> PhaseCounts {
    let mut out = a;
    for (o, (w, e)) in out.iter_mut().zip(b) {
        *o = (o.0.saturating_sub(w), o.1.saturating_sub(e));
    }
    out
}

fn plus(a: PhaseCounts, b: PhaseCounts) -> PhaseCounts {
    let mut out = a;
    for (o, (w, e)) in out.iter_mut().zip(b) {
        *o = (o.0 + w, o.1 + e);
    }
    out
}

/// One span, or one aggregate (`start_ns` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub iteration: u64,
    /// Start in nanoseconds since the tracer's clock started.
    pub start_ns: Option<u64>,
    pub total_ns: u64,
    pub count: u64,
}

struct OpenSpan {
    node: usize,
    at_open: PhaseCounts,
    in_children: PhaseCounts,
}

/// Records spans while enabled; every call is a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    clock: Clock,
    iteration: u64,
    nodes: Vec<Node>,
    open: Vec<OpenSpan>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            clock: Clock::start(),
            iteration: 0,
            nodes: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start iteration `iteration`, recording it only when `traced`.
    /// The simulator's phase counters run exactly while recording.
    pub fn begin_iteration(&mut self, iteration: u64, traced: bool) {
        self.iteration = iteration;
        self.enabled = traced;
        if traced {
            opml_profiler::enable();
        } else {
            opml_profiler::disable();
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn clock(&self) -> Clock {
        self.clock
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let node = self.nodes.len();
        let start = self.clock.elapsed_ns();
        self.nodes.push(Node {
            name,
            parent: self.open.last().map(|o| o.node),
            iteration: self.iteration,
            start_ns: Some(start),
            total_ns: 0,
            count: 1,
        });
        self.open.push(OpenSpan {
            node,
            at_open: phase_counts(),
            in_children: [(0, 0); PHASES.len()],
        });
        let result = f(self);
        let open = self.open.pop().expect("spans close in the order they open");
        let inclusive = minus(phase_counts(), open.at_open);
        if let Some(parent) = self.open.last_mut() {
            parent.in_children = plus(parent.in_children, inclusive);
        }
        self.push_phases(node, minus(inclusive, open.in_children));
        self.nodes[node].total_ns = self.clock.elapsed_ns() - start;
        result
    }

    fn push_phases(&mut self, span: usize, own: PhaseCounts) {
        let first = self.nodes.len();
        for ((_, name), (wall_ns, enters)) in PHASES.iter().zip(own) {
            if wall_ns == 0 && enters == 0 {
                continue;
            }
            let nested_in = PHASE_PARENTS
                .iter()
                .find(|(child, _)| child == name)
                .and_then(|(_, parent)| {
                    (first..self.nodes.len()).find(|&i| self.nodes[i].name == *parent)
                });
            self.nodes.push(Node {
                name,
                parent: Some(nested_in.unwrap_or(span)),
                iteration: self.iteration,
                start_ns: None,
                total_ns: wall_ns,
                count: enters,
            });
        }
    }

    /// Record time the caller accumulated itself (`count` calls, too
    /// short to span one by one) as an aggregate under the latest node
    /// of this iteration named `under`, or under the innermost open span
    /// when there is none.
    pub fn attach(&mut self, under: &str, name: &'static str, total_ns: u64, count: u64) {
        if !self.enabled {
            return;
        }
        let parent = self
            .nodes
            .iter()
            .rposition(|n| n.iteration == self.iteration && n.name == under)
            .or_else(|| self.open.last().map(|o| o.node));
        self.nodes.push(Node {
            name,
            parent,
            iteration: self.iteration,
            start_ns: None,
            total_ns,
            count,
        });
    }
}

/// Totals of one layer (name under one parent name) over all iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub count: u64,
    pub total_ns: u64,
    /// Negative only if children outlasted their parent.
    pub self_ns: i64,
}

/// Self time of every node: its total minus its children's totals.
pub fn self_times(nodes: &[Node]) -> Vec<i64> {
    let mut selves: Vec<i64> = nodes.iter().map(|n| n.total_ns as i64).collect();
    for n in nodes {
        if let Some(p) = n.parent {
            selves[p] -= n.total_ns as i64;
        }
    }
    selves
}

/// Fold nodes into layers, in first-seen order.
pub fn layers(nodes: &[Node]) -> Vec<Layer> {
    let selves = self_times(nodes);
    let mut out: Vec<Layer> = Vec::new();
    for (n, self_ns) in nodes.iter().zip(selves) {
        let parent = n.parent.map(|p| nodes[p].name);
        match out
            .iter_mut()
            .find(|l| l.name == n.name && l.parent == parent)
        {
            Some(l) => {
                l.count += n.count;
                l.total_ns += n.total_ns;
                l.self_ns += self_ns;
            }
            None => out.push(Layer {
                name: n.name,
                parent,
                count: n.count,
                total_ns: n.total_ns,
                self_ns,
            }),
        }
    }
    out
}

/// Total nanoseconds per layer name, per iteration.
pub fn totals_by_iteration(nodes: &[Node]) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for n in nodes {
        *out.entry(n.iteration)
            .or_default()
            .entry(n.name)
            .or_default() += n.total_ns;
    }
    out
}

/// Chrome trace-event JSON (loadable in Perfetto): one complete event
/// per span. Aggregates have no interval and appear only in the layers.
pub fn chrome_json(nodes: &[Node], provenance: Value) -> String {
    let events: Vec<Value> = nodes
        .iter()
        .enumerate()
        .filter_map(|(id, n)| {
            let start = n.start_ns?;
            let parent = n.parent.map(|p| nodes[p].name);
            Some(Value::Map(vec![
                ("name".into(), Value::Str(n.name.into())),
                ("cat".into(), Value::Str("layer".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(start as f64 / 1e3)),
                ("dur".into(), Value::F64(n.total_ns as f64 / 1e3)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(1)),
                (
                    "args".into(),
                    serde_json::json!({
                        "span_id": id,
                        "parent_id": n.parent,
                        "parent": parent,
                        "iteration": n.iteration,
                    }),
                ),
            ]))
        })
        .collect();
    let doc = Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("otherData".into(), provenance),
    ]);
    serde_json::to_string(&doc).expect("the serde_json shim cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &'static str, parent: Option<usize>, iteration: u64, total_ns: u64) -> Node {
        Node {
            name,
            parent,
            iteration,
            start_ns: Some(0),
            total_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only_once() {
        // iteration(100) > sim(70) > pool(60) > shard(50); digest(20).
        let nodes = vec![
            node("iteration", None, 0, 100),
            node("sim", Some(0), 0, 70),
            node("pool", Some(1), 0, 60),
            node("shard", Some(2), 0, 50),
            node("digest", Some(0), 0, 20),
        ];
        assert_eq!(self_times(&nodes), vec![10, 10, 10, 50, 20]);
        let sum: i64 = self_times(&nodes).iter().sum();
        assert_eq!(sum, 100, "self times add up to the root");
    }

    #[test]
    fn layers_fold_repeated_spans_and_keep_parents_apart() {
        let nodes = vec![
            node("iteration", None, 0, 100),
            node("seeds", Some(0), 0, 40),
            node("pool", Some(1), 0, 30),
            node("ablation", Some(0), 0, 50),
            node("pool", Some(3), 0, 20),
            node("iteration", None, 1, 90),
            node("seeds", Some(5), 1, 45),
        ];
        let layers = layers(&nodes);
        let find = |name: &str, parent: Option<&str>| {
            layers
                .iter()
                .find(|l| l.name == name && l.parent == parent)
                .cloned()
        };
        let iteration = find("iteration", None).expect("root layer");
        assert_eq!((iteration.count, iteration.total_ns), (2, 190));
        assert_eq!(iteration.self_ns, 10 + 45);
        let seeds = find("seeds", Some("iteration")).expect("seeds layer");
        assert_eq!((seeds.count, seeds.total_ns, seeds.self_ns), (2, 85, 55));
        assert_eq!(find("pool", Some("seeds")).map(|l| l.total_ns), Some(30));
        assert_eq!(find("pool", Some("ablation")).map(|l| l.total_ns), Some(20));
        let by_iteration = totals_by_iteration(&nodes);
        assert_eq!(by_iteration[&0]["pool"], 50);
        assert_eq!(by_iteration[&1].get("pool"), None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.begin_iteration(0, false);
        let out = tr.span("outer", |tr| tr.span("inner", |_| 7));
        tr.attach("outer", "agg", 5, 1);
        assert_eq!(out, 7);
        assert!(tr.nodes().is_empty());
    }

    #[test]
    fn attach_finds_its_parent_by_name() {
        let mut tr = Tracer::new();
        tr.begin_iteration(3, true);
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            tr.attach("inner", "agg", 5, 2);
            tr.attach("missing", "orphan", 1, 1);
        });
        tr.begin_iteration(4, false);
        let nodes = tr.nodes();
        let parent_of = |name: &str| {
            let n = nodes.iter().find(|n| n.name == name).expect("node");
            n.parent.map(|p| nodes[p].name)
        };
        assert_eq!(parent_of("inner"), Some("outer"));
        assert_eq!(parent_of("agg"), Some("inner"));
        assert_eq!(parent_of("orphan"), Some("outer"));
        assert!(nodes.iter().all(|n| n.iteration == 3));
        let outer = &nodes[0];
        assert!(nodes[1..]
            .iter()
            .all(|n| n.total_ns <= outer.total_ns || n.start_ns.is_none()));
    }
}
