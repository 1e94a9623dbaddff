//! Workload scripts: every frame a client sends, generated from the seed.
//!
//! Each of the two clients owns its constraint sets and a private
//! vocabulary (attributes `K{client}…`, symbols `k{client}…`), so its
//! verdicts and response counters are a pure function of its own script,
//! however the two connections interleave on the server.  Scripts have a
//! fixed length per workload, so the tail percentile a workload reports is
//! the same on every run.
//!
//! Besides its main traffic, every client sends rotating *canary* queries
//! (`implies`, `weak_instance`, `connected_components`) on a small set of
//! its own (`side{client}`), which keep every layer of the stack
//! measurable on every workload.

use ps_server::proto::{DatabaseSpec, Op, RelationSpec, Request};

/// A deterministic 64-bit generator (SplitMix64): the same seed gives the
/// same scripts on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct implication goals: `V` grows with every request.
    ImpliesStream,
    /// Chase-heavy consistency checks and large connectivity frames.
    BulkCheck,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "implies_stream" => Some(Workload::ImpliesStream),
            "bulk_check" => Some(Workload::BulkCheck),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ImpliesStream => "implies_stream",
            Workload::BulkCheck => "bulk_check",
        }
    }
}

/// One client's script: registrations (the set-up phase) and the timed
/// frames, in order, as wire lines without the trailing newline.  Every
/// timed frame is a query.
#[derive(Debug, Clone)]
pub struct ClientScript {
    /// `register` frames, answered before the timed phase starts.
    pub setup: Vec<String>,
    /// The timed frames.
    pub timed: Vec<String>,
}

/// Number of client connections.
pub const CLIENTS: usize = 2;

/// The wire id of a client's `index`-th frame (registrations first):
/// unique across clients.
pub fn request_id(client: usize, index: usize) -> u64 {
    (client as u64 + 1) * 1_000_000 + index as u64
}

/// Generates both clients' scripts for `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Vec<ClientScript> {
    (0..CLIENTS)
        .map(|client| {
            let mut rng = Rng::new(seed, client as u64 + 1);
            let mut b = Builder::new(client);
            match workload {
                Workload::ImpliesStream => implies_stream(&mut b, &mut rng),
                Workload::BulkCheck => bulk_check(&mut b, &mut rng),
            }
            b.finish()
        })
        .collect()
}

/// Accumulates one client's frames; ids are unique across clients.
struct Builder {
    client: usize,
    setup: Vec<String>,
    timed: Vec<String>,
    canaries: usize,
}

/// PDs of each client's `side{client}` set: a chain plus a join.
fn side_pool(client: usize) -> Vec<String> {
    let a = |j: usize| format!("K{client}S{j}");
    vec![
        format!("{} = {}*{}", a(0), a(0), a(1)),
        format!("{} = {}*{}", a(1), a(1), a(2)),
        format!("{} = {}*{}", a(2), a(2), a(3)),
        format!("{} = {}+{}", a(3), a(0), a(2)),
    ]
}

impl Builder {
    fn new(client: usize) -> Self {
        let mut b = Builder {
            client,
            setup: Vec::new(),
            timed: Vec::new(),
            canaries: 0,
        };
        b.register(&format!("side{client}"), side_pool(client));
        b
    }

    fn next_id(&self) -> Option<u64> {
        Some(request_id(self.client, self.setup.len() + self.timed.len()))
    }

    fn register(&mut self, set: &str, pds: Vec<String>) {
        let id = self.next_id();
        let op = Op::Register {
            set: set.to_owned(),
            pds,
        };
        self.setup.push(Request { id, op }.to_line());
    }

    fn push(&mut self, op: Op) {
        let id = self.next_id();
        self.timed.push(Request { id, op }.to_line());
    }

    /// Appends the next canary query on the side set, rotating through
    /// `implies`, `weak_instance` and a small `connected_components`.
    fn canary(&mut self) {
        let turn = self.canaries;
        self.canaries += 1;
        let client = self.client;
        let set = format!("side{client}");
        let a = |j: usize| format!("K{client}S{j}");
        let canary = match turn % 3 {
            0 => Op::Implies {
                set,
                goal: format!("{} = {}*{}", a(0), a(0), a(3)),
            },
            1 => {
                // Alternates a consistent and an FD-violating database over
                // a fixed symbol pool (no interner growth).
                let clash = (turn / 3) % 2 == 1;
                let s = |x: &str| format!("k{client}s{x}");
                let rows = vec![
                    vec![s("a"), s("b")],
                    vec![s("c"), s("b")],
                    vec![s("a"), if clash { s("d") } else { s("b") }],
                ];
                Op::WeakInstance {
                    set,
                    database: DatabaseSpec {
                        relations: vec![RelationSpec {
                            name: "R".to_owned(),
                            attrs: vec![a(0), a(1)],
                            rows,
                        }],
                    },
                }
            }
            _ => Op::ConnectedComponents {
                vertices: 12,
                edges: vec![(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5), (9, 10)],
            },
        };
        self.push(canary);
    }

    fn finish(self) -> ClientScript {
        ClientScript {
            setup: self.setup,
            timed: self.timed,
        }
    }
}

/// A random lattice term with `leaves` attribute occurrences over `attrs`.
fn random_term(rng: &mut Rng, attrs: &[String], leaves: usize) -> String {
    if leaves <= 1 {
        return attrs[rng.below(attrs.len())].clone();
    }
    let left = 1 + rng.below(leaves - 1);
    let op = if rng.below(2) == 0 { '*' } else { '+' };
    format!(
        "({}{}{})",
        random_term(rng, attrs, left),
        op,
        random_term(rng, attrs, leaves - left)
    )
}

fn attrs(client: usize, n: usize) -> Vec<String> {
    (0..n).map(|j| format!("K{client}A{j}")).collect()
}

/// Seed of the PD sets' structure.  `--seed` renames attributes (a random
/// permutation) and draws goals, request order and data; the shape of each
/// set is fixed, so runs on different seeds do comparable work.
const STRUCTURE: u64 = 0x5EED_5E75;

/// The client's attributes in a seed-dependent order, and a generator for
/// the seed-independent structure over them.
fn renamed(client: usize, n: usize, rng: &mut Rng) -> (Vec<String>, Rng) {
    let at = attrs(client, n);
    let named = rng
        .permutation(n)
        .into_iter()
        .map(|i| at[i].clone())
        .collect();
    (named, Rng::new(STRUCTURE, client as u64))
}

/// `implies_stream`: one PD set per client, then distinct goals only.
///
/// Client 0's set is a cycle of FPDs through all its attributes (every
/// atom collapses into one class, so its goals come out true) plus a few
/// join PDs; client 1's set is an acyclic family of FPDs plus joins over
/// more attributes (its goals mostly come out false).  Every goal has
/// three attribute occurrences a side.
fn implies_stream(b: &mut Builder, rng: &mut Rng) {
    const OPS: usize = 120;
    const BATCH: usize = 4;
    const LEAVES: usize = 3;
    let client = b.client;
    let n = if client == 0 { 16 } else { 24 };
    let (at, mut st) = renamed(client, n, rng);
    let mut pds = Vec::new();
    if client == 0 {
        for i in 0..n {
            let (x, y) = (&at[i], &at[(i + 1) % n]);
            pds.push(format!("{x} = {x}*{y}"));
        }
        for _ in 0..4 {
            pds.push(format!(
                "{} = {}",
                random_term(&mut st, &at, 2),
                random_term(&mut st, &at, 3)
            ));
        }
    } else {
        for i in 0..n - 1 {
            // From a lower to a higher position: acyclic, so classes stay
            // small.
            let j = i + 1 + st.below((n - 1 - i).min(4));
            let (x, y) = (&at[i], &at[j]);
            pds.push(format!("{x} = {x}*{y}"));
        }
        for _ in 0..4 {
            let (x, y, z) = (&at[st.below(n)], &at[st.below(n)], &at[st.below(n)]);
            pds.push(format!("{x} = {y}+{z}"));
        }
    }
    let set = format!("stream{client}");
    b.register(&set, pds);
    let mut seen = std::collections::HashSet::new();
    let mut goal = |rng: &mut Rng| loop {
        let text = format!(
            "{} = {}",
            random_term(rng, &at, LEAVES),
            random_term(rng, &at, LEAVES)
        );
        if seen.insert(text.clone()) {
            return text;
        }
    };
    for i in 0..OPS {
        if i % 8 == 7 {
            b.canary();
        }
        let op = if i % 10 < 7 {
            Op::Implies {
                set: set.clone(),
                goal: goal(rng),
            }
        } else {
            Op::ImpliesMany {
                set: set.clone(),
                goals: (0..BATCH).map(|_| goal(rng)).collect(),
            }
        };
        b.push(op);
    }
}

/// A fresh multi-relation database along the join path `A0 → … → A{r}`:
/// relation `R{i}(A{i}, A{i+1})` holds `rows` rows whose `A{i}` values map
/// functionally to `A{i+1}` values.  With `clash`, one key of one relation
/// gets a second, different image — an FD violation the chase must find.
fn join_path_db(
    client: usize,
    req: usize,
    relations: usize,
    rows: usize,
    clash: bool,
    rng: &mut Rng,
) -> DatabaseSpec {
    let at = attrs(client, relations + 1);
    let sym = |level: usize, v: usize| format!("k{client}r{req}l{level}v{v}");
    // Values per level; each level's image set is smaller, so keys repeat
    // and the chase has equalities to propagate.
    let domain = |level: usize| (rows >> level.min(3)).max(2);
    let mut out = Vec::with_capacity(relations);
    let bad = rng.below(relations);
    for i in 0..relations {
        let f: Vec<usize> = (0..domain(i)).map(|_| rng.below(domain(i + 1))).collect();
        let mut body: Vec<Vec<String>> = (0..rows)
            .map(|_| {
                let x = rng.below(domain(i));
                vec![sym(i, x), sym(i + 1, f[x])]
            })
            .collect();
        if clash && i == bad {
            let x = rng.below(domain(i));
            let y = (f[x] + 1) % domain(i + 1);
            body.push(vec![sym(i, x), sym(i + 1, f[x])]);
            body.push(vec![sym(i, x), sym(i + 1, y)]);
        }
        out.push(RelationSpec {
            name: format!("R{i}"),
            attrs: vec![at[i].clone(), at[i + 1].clone()],
            rows: body,
        });
    }
    DatabaseSpec { relations: out }
}

/// `bulk_check`: one join-path FPD set per client, then chase-heavy
/// `consistent`/`weak_instance` checks of fresh databases (half with an
/// injected violation) and large `connected_components` frames.
fn bulk_check(b: &mut Builder, rng: &mut Rng) {
    const OPS: usize = 60;
    const RELATIONS: usize = 5;
    const ROWS: usize = 120;
    const VERTICES: usize = 2000;
    const EDGES: usize = 2400;
    let client = b.client;
    let at = attrs(client, RELATIONS + 1);
    let set = format!("bulk{client}");
    b.register(
        &set,
        (0..RELATIONS)
            .map(|i| format!("{} = {}*{}", at[i], at[i], at[i + 1]))
            .collect(),
    );
    for i in 0..OPS {
        if i % 6 == 5 {
            b.canary();
        }
        let op = match i % 5 {
            4 => {
                let edges = (0..EDGES)
                    .map(|_| (rng.below(VERTICES) as u64, rng.below(VERTICES) as u64))
                    .collect();
                Op::ConnectedComponents {
                    vertices: VERTICES as u64,
                    edges,
                }
            }
            k => {
                let clash = (i / 5 + k) % 2 == 1;
                let database = join_path_db(client, i, RELATIONS, ROWS, clash, rng);
                if k % 2 == 0 {
                    Op::Consistent {
                        set: set.clone(),
                        database,
                    }
                } else {
                    Op::WeakInstance {
                        set: set.clone(),
                        database,
                    }
                }
            }
        };
        b.push(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_in_the_seed() {
        for w in [Workload::ImpliesStream, Workload::BulkCheck] {
            let a = generate(w, 7);
            let b = generate(w, 7);
            let c = generate(w, 8);
            for k in 0..CLIENTS {
                assert_eq!(a[k].setup, b[k].setup);
                assert_eq!(a[k].timed, b[k].timed);
                assert_ne!(a[k].timed, c[k].timed, "{w:?}");
            }
        }
    }

    #[test]
    fn script_lengths_do_not_depend_on_the_seed() {
        for w in [Workload::ImpliesStream, Workload::BulkCheck] {
            let shape = |seed| {
                generate(w, seed)
                    .iter()
                    .map(|s| (s.setup.len(), s.timed.len()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(shape(1), shape(99));
        }
    }

    #[test]
    fn every_frame_parses() {
        for w in [Workload::ImpliesStream, Workload::BulkCheck] {
            for s in generate(w, 3) {
                for line in s.setup.iter().chain(&s.timed) {
                    Request::parse_line(line).expect("generated frames are valid");
                }
            }
        }
    }
}
