//! The traced run: the same scripts replayed in-process, one span per call
//! into a layer's public functions, kept in memory and written out at the
//! end.
//!
//! The replay interleaves the clients round-robin (registrations first)
//! and makes two passes:
//!
//! * the **service pass** drives one shared [`ServerCore`] exactly as the
//!   server's connection handlers do — `Request::parse_line`,
//!   `ServerCore::resolve`, `ServerCore::compute`, `Response::to_line` —
//!   and checks every reply against the sequential reference.  These are
//!   the only public seams of the service stack, so the `server.*` figures
//!   come from here.  It runs twice, traced and untraced, for the tracing
//!   overhead.
//! * the **layer pass** replays the same requests through the functions
//!   the service stack calls underneath: `Session` for interning and
//!   registration, `ImplicationEngine` for builds, extensions and lookups,
//!   `normalize_pds` and `close_constraints_with` for the Section 6.2
//!   closure, `consistent_with_closed_frozen` for the chase,
//!   `repair_sum_violations_frozen` and `interpretation_from_weak_instance`
//!   for the weak-instance witness, and `Session::connected_components`.
//!   It keeps the same per-set caches as the server: it reuses a freeze
//!   while the set's epoch and the interners are unchanged and the goals
//!   are covered, and charges a re-freeze to the request unless only the
//!   interners grew.  Every payload it produces must equal the reference
//!   payload, and the counters it books for each request (rule firings,
//!   engine hits and misses, chase row visits, epoch) must equal the
//!   counters the service's response carries.  So the pass is shown, on
//!   every run, to do the work the service does.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

use ps_base::{SymbolTable, Universe};
use ps_core::consistency::{
    close_constraints_with, consistent_with_closed_frozen, normalize_pds,
    repair_sum_violations_frozen, ClosedConstraints,
};
use ps_core::weak_bridge::interpretation_from_weak_instance;
use ps_graph::UndirectedGraph;
use ps_lattice::{Equation, ImplicationEngine, TermArena, TermId};
use ps_relation::{ChaseScratch, Database};
use ps_server::proto::{DatabaseSpec, Op, Payload, Request, Response, WireError};
use ps_server::state::{ServerCore, Step};
use ps_session::{ConstraintSetId, Counters, Epoch, Session};

use crate::check::{all_lines, Reference};
use crate::script::{request_id, ClientScript};
use crate::stats::Span;

/// Collects spans; a disabled tracer records nothing and reads no clock.
pub struct Tracer {
    on: bool,
    t0: Instant,
    request: u64,
    stack: Vec<usize>,
    /// The recorded spans, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("end matches a begin");
        self.spans[idx].end_ns = self.now();
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let value = f();
        self.end();
        value
    }
}

/// One request of the interleaved replay: (client, index into the
/// client's frames, registrations first).
type Slot = (usize, usize);

/// The replay order: every registration, then the timed frames
/// round-robin across clients.
pub fn order(scripts: &[ClientScript]) -> Vec<Slot> {
    let mut out = Vec::new();
    for (k, s) in scripts.iter().enumerate() {
        out.extend((0..s.setup.len()).map(|i| (k, i)));
    }
    let longest = scripts.iter().map(|s| s.timed.len()).max().unwrap_or(0);
    for i in 0..longest {
        for (k, s) in scripts.iter().enumerate() {
            if i < s.timed.len() {
                out.push((k, s.setup.len() + i));
            }
        }
    }
    out
}

/// What the service pass measured.
pub struct ServicePass {
    /// Wall time of the pass, in seconds.
    pub wall_s: f64,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
    /// Per query request: parse + resolve + compute + encode, in ms.
    pub query_service_ms: Vec<f64>,
    /// Request bytes parsed (newlines included).
    pub bytes_in: u64,
    /// Response bytes encoded (newlines included).
    pub bytes_out: u64,
    /// Summed response counters: engine hits.
    pub engine_hits: u64,
    /// Summed response counters: engine misses.
    pub engine_misses: u64,
}

/// Replays every request through one shared [`ServerCore`].
pub fn service_pass(
    scripts: &[ClientScript],
    reference: &Reference,
    traced: bool,
) -> Result<ServicePass, String> {
    let lines: Vec<Vec<&String>> = scripts.iter().map(|s| all_lines(s).collect()).collect();
    let mut tr = Tracer::new(traced);
    let mut core = ServerCore::new(2);
    let executor = core.executor();
    let mut pass = ServicePass {
        wall_s: 0.0,
        spans: Vec::new(),
        query_service_ms: Vec::new(),
        bytes_in: 0,
        bytes_out: 0,
        engine_hits: 0,
        engine_misses: 0,
    };
    let start = Instant::now();
    for (k, i) in order(scripts) {
        let line = lines[k][i];
        tr.request = request_id(k, i);
        let root = tr.spans.len();
        tr.begin("request");
        let request = tr.time("server.parse", || Request::parse_line(line));
        let request = request.map_err(|e| format!("frame does not parse: {e}"))?;
        let step = tr.time("server.resolve", || core.resolve(&request));
        let response = match step {
            Step::Done(response) => response,
            Step::Compute(task) => {
                tr.time("server.compute", || ServerCore::compute(task, executor))
            }
        };
        let out = tr.time("server.encode", || response.to_line());
        tr.end();
        if out != reference.lines[k][i] {
            return Err(format!(
                "service pass: client {k} frame {i} differs from the sequential replay\n  \
                 got:      {out}\n  expected: {}",
                reference.lines[k][i]
            ));
        }
        pass.bytes_in += line.len() as u64 + 1;
        pass.bytes_out += out.len() as u64 + 1;
        if let Ok((_, c)) = &response.result {
            pass.engine_hits += c.engine_hits;
            pass.engine_misses += c.engine_misses;
        }
        if traced && i >= scripts[k].setup.len() {
            let children: u64 = tr.spans[root + 1..].iter().map(Span::dur).sum();
            pass.query_service_ms.push(children as f64 / 1e6);
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.spans = tr.spans;
    Ok(pass)
}

/// Work and shape figures of the layer pass.
#[derive(Default)]
pub struct LayerStats {
    /// Snapshot freezes performed.
    pub freezes: u64,
    /// ALG rule firings over every engine call.
    pub rule_firings: u64,
    /// Row operations over every engine call.
    pub row_ops: u64,
    /// Arcs added over every engine call.
    pub arcs_added: u64,
    /// Implication goals answered.
    pub goals: u64,
    /// Goals answered true.
    pub goals_true: u64,
    /// Databases checked.
    pub checks: u64,
    /// Databases found consistent.
    pub consistent: u64,
    /// Chase row visits.
    pub row_visits: u64,
    /// Chase equate steps.
    pub steps: u64,
    /// Tuples of the databases chased.
    pub tuples: u64,
    /// Graph edges fed to connectivity.
    pub edges: u64,
    /// At the end: |V| over every set's engine.
    pub vocab_terms: u64,
    /// At the end: arcs over every set's engine.
    pub arcs: u64,
    /// At the end: FDs over every set's closed system.
    pub closed_fds: u64,
}

impl LayerStats {
    /// Books the whole work of a freshly built engine.
    fn book_new(&mut self, engine: &ImplicationEngine) {
        self.rule_firings += engine.rule_firings() as u64;
        self.row_ops += engine.row_ops() as u64;
        self.arcs_added += engine.num_arcs() as u64;
    }
}

/// What the layer pass measured.
pub struct LayerPass {
    /// Wall time of the pass, in seconds.
    pub wall_s: f64,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Work and shape figures.
    pub stats: LayerStats,
}

/// A frozen copy of one set, as the server caches it.
struct Snap {
    epoch: Epoch,
    engine: ImplicationEngine,
    closed: ClosedConstraints,
    symbols: SymbolTable,
    _universe: Universe,
    _arena: TermArena,
    _pds: Vec<Equation>,
    lens: (usize, usize, usize),
}

/// One named set: the session handle plus the artifact caches.  The
/// scripts never edit a set, so a built artifact stays current.
struct TwinSet {
    id: ConstraintSetId,
    engine: Option<ImplicationEngine>,
    closed: Option<ClosedConstraints>,
    snap: Option<Snap>,
}

/// The layer-by-layer replay state.
struct Layers {
    tr: Tracer,
    session: Session,
    sets: HashMap<String, TwinSet>,
    stats: LayerStats,
    /// The counters the current request's response must carry, booked by
    /// the server's charging rules as the replay does the work.
    booked: Counters,
}

type Answer = Result<Payload, String>;

/// The cached snapshot of a set (ensured by the caller).
fn snapshot<'a>(sets: &'a HashMap<String, TwinSet>, name: &str) -> Result<&'a Snap, String> {
    sets.get(name)
        .and_then(|s| s.snap.as_ref())
        .ok_or_else(|| format!("set `{name}` has no snapshot"))
}

fn session_err(e: ps_session::Error) -> String {
    e.to_string()
}

/// The interner lengths a cached snapshot is checked against.
fn interner_lens(session: &Session) -> (usize, usize, usize) {
    (
        session.universe().len(),
        session.symbols().num_constants(),
        session.arena().len(),
    )
}

impl Layers {
    /// Times one engine call and books its work; returns the call's value
    /// and its rule firings.
    fn engine_call<T>(
        tr: &mut Tracer,
        stats: &mut LayerStats,
        name: &'static str,
        engine: &mut ImplicationEngine,
        f: impl FnOnce(&mut ImplicationEngine) -> T,
    ) -> (T, u64) {
        let (f0, r0, a0) = (engine.rule_firings(), engine.row_ops(), engine.num_arcs());
        let value = tr.time(name, || f(engine));
        let firings = (engine.rule_firings() - f0) as u64;
        stats.rule_firings += firings;
        stats.row_ops += (engine.row_ops() - r0) as u64;
        stats.arcs_added += engine.num_arcs().saturating_sub(a0) as u64;
        (value, firings)
    }

    fn set(&self, name: &str) -> Result<&TwinSet, String> {
        self.sets
            .get(name)
            .ok_or_else(|| format!("set `{name}` is not registered"))
    }

    /// The server's snapshot rule: reuse the cached freeze while the set's
    /// epoch is unchanged, the goals are covered and the interners did not
    /// grow.  Otherwise freeze again: charged to the request, unless only
    /// the interners grew.
    fn ensure_snapshot(&mut self, name: &str, goals: &[Equation]) -> Result<(), String> {
        let id = self.set(name)?.id;
        let epoch = self.session.epoch(id).map_err(session_err)?;
        self.booked.epoch = epoch;
        let lens = interner_lens(&self.session);
        let set = self.set(name)?;
        let mut charged = true;
        if let Some(snap) = &set.snap {
            let covered = goals
                .iter()
                .all(|g| snap.engine.contains_term(g.lhs) && snap.engine.contains_term(g.rhs));
            if snap.epoch == epoch && covered {
                if snap.lens == lens {
                    return Ok(());
                }
                charged = false;
            }
        }
        self.freeze(name, goals, epoch, charged)
    }

    /// `Session::snapshot_with_goals`, layer by layer.
    fn freeze(
        &mut self,
        name: &str,
        goals: &[Equation],
        epoch: Epoch,
        charged: bool,
    ) -> Result<(), String> {
        self.tr.begin("session.freeze");
        self.stats.freezes += 1;
        let mut work = Counters::default();
        let set = self.sets.get_mut(name).expect("set checked by the caller");
        let pds = self.session.pds(set.id).map_err(session_err)?.to_vec();
        let arena = self.session.arena();
        match &set.engine {
            Some(_) => work.engine_hits += 1,
            None => {
                let engine = self
                    .tr
                    .time("lattice.build", || ImplicationEngine::new(arena, &pds));
                self.stats.book_new(&engine);
                work.rule_firings += engine.rule_firings() as u64;
                work.engine_misses += 1;
                set.engine = Some(engine);
            }
        }
        let roots: Vec<TermId> = goals.iter().flat_map(|g| [g.lhs, g.rhs]).collect();
        let engine = set.engine.as_mut().expect("engine just ensured");
        let (_, firings) = Layers::engine_call(
            &mut self.tr,
            &mut self.stats,
            "lattice.extend",
            engine,
            |e| e.add_goal_terms(arena, &roots),
        );
        work.rule_firings += firings;
        // The Section 6.2 closure.
        if set.closed.is_some() {
            work.engine_hits += 1;
        } else {
            let (tr, stats) = (&mut self.tr, &mut self.stats);
            let closed = self.session.with_interners(|universe, _, arena| {
                let normalized = tr.time("core.normalize", || normalize_pds(&pds, arena, universe));
                let mut engine = tr.time("lattice.build", || {
                    ImplicationEngine::new(arena, &normalized.equations)
                });
                let closed = tr.time("core.close", || {
                    close_constraints_with(&mut engine, &normalized, arena)
                });
                stats.book_new(&engine);
                work.rule_firings += engine.rule_firings() as u64;
                work.engine_misses += 1;
                closed
            });
            set.closed = Some(closed);
        }
        if charged {
            self.booked += work;
        }
        // The copy-out: the snapshot owns its artifacts and interners.
        let session = &self.session;
        set.snap = Some(Snap {
            epoch,
            engine: set.engine.clone().expect("engine just ensured"),
            closed: set.closed.clone().expect("closure just ensured"),
            symbols: session.symbols().clone(),
            _universe: session.universe().clone(),
            _arena: session.arena().clone(),
            _pds: pds,
            lens: interner_lens(session),
        });
        self.tr.end();
        Ok(())
    }

    fn equations(&mut self, texts: &[String]) -> Result<Vec<Equation>, String> {
        let session = &mut self.session;
        self.tr.time("session.intern", || {
            texts
                .iter()
                .map(|t| session.equation(t).map_err(session_err))
                .collect()
        })
    }

    fn database(&mut self, spec: &DatabaseSpec) -> Result<Database, String> {
        let session = &mut self.session;
        self.tr.time("session.intern", || {
            let mut builder = session.database();
            for rel in &spec.relations {
                let attrs: Vec<&str> = rel.attrs.iter().map(String::as_str).collect();
                let rows: Vec<Vec<&str>> = rel
                    .rows
                    .iter()
                    .map(|r| r.iter().map(String::as_str).collect())
                    .collect();
                let refs: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
                builder = builder
                    .relation(&rel.name, &attrs, &refs)
                    .map_err(session_err)?;
            }
            Ok(builder.build())
        })
    }

    fn answer(&mut self, op: &Op) -> Answer {
        match op {
            Op::Register { set, pds } => {
                let pds = self.equations(pds)?;
                let session = &mut self.session;
                let id = self
                    .tr
                    .time("session.mutate", || session.register(&pds))
                    .map_err(session_err)?;
                self.sets.insert(
                    set.clone(),
                    TwinSet {
                        id,
                        engine: None,
                        closed: None,
                        snap: None,
                    },
                );
                self.booked.epoch = self.session.epoch(id).map_err(session_err)?;
                let n = self.session.pds(id).map_err(session_err)?.len();
                Ok(Payload::Registered { pds: n as u64 })
            }
            Op::Implies { set, goal } => {
                let v = self.implies(set, std::slice::from_ref(goal))?;
                Ok(Payload::Implies { implied: v[0] })
            }
            Op::ImpliesMany { set, goals } => Ok(Payload::ImpliesMany {
                implied: self.implies(set, goals)?,
            }),
            Op::Consistent { set, database } => self.check(set, database, false),
            Op::WeakInstance { set, database } => self.check(set, database, true),
            Op::ConnectedComponents { vertices, edges } => {
                self.stats.edges += edges.len() as u64;
                let outcome = self.tr.time("graph.components", || {
                    let mut graph = UndirectedGraph::new(*vertices as usize);
                    for &(u, v) in edges {
                        graph.add_edge(u as usize, v as usize);
                    }
                    let mut session = Session::new();
                    let (relation, encoding) = session.component_relation(&graph, "E");
                    session.connected_components(&relation, &encoding)
                });
                let outcome = outcome.map_err(session_err)?;
                self.booked += outcome.counters;
                Ok(Payload::Components {
                    components: outcome.value.into_iter().map(|c| c as u64).collect(),
                })
            }
            Op::AddPd { .. } | Op::RemovePd { .. } | Op::Stats | Op::Shutdown => {
                Err(format!("`{}` is not replayed", op.name()))
            }
        }
    }

    fn implies(&mut self, set: &str, texts: &[String]) -> Result<Vec<bool>, String> {
        let goals = self.equations(texts)?;
        self.ensure_snapshot(set, &goals)?;
        let snap = snapshot(&self.sets, set)?;
        let answers: Option<Vec<bool>> = self.tr.time("lattice.lookup", || {
            goals
                .iter()
                .map(|&g| snap.engine.entails_frozen(g))
                .collect()
        });
        let answers = answers.ok_or("a goal fell outside the frozen vocabulary")?;
        self.booked.engine_hits += 1;
        self.stats.goals += answers.len() as u64;
        self.stats.goals_true += answers.iter().filter(|&&b| b).count() as u64;
        Ok(answers)
    }

    fn check(&mut self, set: &str, spec: &DatabaseSpec, weak: bool) -> Answer {
        // Database first, as the server does, so the freeze covers its
        // symbols.
        let db = self.database(spec)?;
        self.ensure_snapshot(set, &[])?;
        let snap = snapshot(&self.sets, set)?;
        let mut fresh = snap.symbols.fresh_source();
        let mut scratch = ChaseScratch::default();
        let outcome = self.tr.time("relation.chase", || {
            consistent_with_closed_frozen(
                &db,
                &snap.closed,
                &snap.symbols,
                &mut fresh,
                &mut scratch,
            )
        });
        self.stats.checks += 1;
        self.stats.consistent += u64::from(outcome.consistent);
        self.stats.row_visits += outcome.chase.row_visits as u64;
        self.booked.row_visits += outcome.chase.row_visits as u64;
        self.booked.engine_hits += 1;
        self.stats.steps += outcome.chase.steps as u64;
        self.stats.tuples += db.total_tuples() as u64;
        if !weak {
            return Ok(Payload::Consistent {
                consistent: outcome.consistent,
                fds: outcome.fds.len() as u64,
                sums: outcome.sums.len() as u64,
                witness_rows: outcome.weak_instance.as_ref().map(|w| w.len() as u64),
            });
        }
        let Some(chased) = outcome
            .weak_instance
            .as_ref()
            .filter(|_| outcome.consistent)
        else {
            return Ok(Payload::WeakInstance {
                satisfiable: false,
                weak_instance_rows: None,
            });
        };
        let (repaired, converged) = self.tr.time("core.repair", || {
            repair_sum_violations_frozen(chased, &outcome.fds, &outcome.sums, &mut fresh, 64)
        });
        let rows = if converged {
            self.tr
                .time("core.materialize", || {
                    interpretation_from_weak_instance(&repaired)
                })
                .map_err(|e| e.to_string())?;
            Some(repaired.len() as u64)
        } else {
            None
        };
        Ok(Payload::WeakInstance {
            satisfiable: true,
            weak_instance_rows: rows,
        })
    }
}

/// Replays every request layer by layer; every payload must equal the
/// reference payload.
pub fn layer_pass(scripts: &[ClientScript], reference: &Reference) -> Result<LayerPass, String> {
    let lines: Vec<Vec<&String>> = scripts.iter().map(|s| all_lines(s).collect()).collect();
    let mut layers = Layers {
        tr: Tracer::new(true),
        session: Session::new(),
        sets: HashMap::new(),
        stats: LayerStats::default(),
        booked: Counters::default(),
    };
    let start = Instant::now();
    for (k, i) in order(scripts) {
        layers.tr.request = request_id(k, i);
        layers.booked = Counters::default();
        layers.tr.begin("request");
        let request = layers
            .tr
            .time("server.parse", || Request::parse_line(lines[k][i]))
            .map_err(|e: WireError| e.to_string())?;
        let payload = layers.answer(&request.op)?;
        let expected: &Response = &reference.responses[k][i];
        let _line = layers.tr.time("server.encode", || expected.to_line());
        layers.tr.end();
        match &expected.result {
            Ok((want, counters)) if *want == payload && *counters == layers.booked => {}
            other => {
                return Err(format!(
                    "layer pass: client {k} frame {i} (`{}`) answered {payload:?} and booked \
                     {:?}; the service answered {other:?}.  The layer pass no longer follows \
                     the service's freeze and cache path.",
                    request.op.name(),
                    layers.booked
                ))
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut stats = layers.stats;
    for s in layers.sets.values() {
        if let Some(e) = &s.engine {
            stats.vocab_terms += e.terms().len() as u64;
            stats.arcs += e.num_arcs() as u64;
        }
        if let Some(c) = &s.closed {
            stats.closed_fds += c.fds.len() as u64;
        }
    }
    Ok(LayerPass {
        wall_s,
        spans: layers.tr.spans,
        stats,
    })
}

/// Writes spans as tab-separated lines: pass, request, name, start, end,
/// parent.
pub fn write_spans(path: &std::path::Path, passes: &[(&str, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "pass\trequest\tname\tstart_ns\tend_ns\tparent")?;
    for (pass, spans) in passes {
        for s in *spans {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{pass}\t{}\t{}\t{}\t{}\t{parent}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
