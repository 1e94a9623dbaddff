//! The correctness gate, computed outside the timed phase and outside
//! set-up.
//!
//! * **Transcript identity.**  Each client's script is replayed
//!   sequentially through [`ServerCore::handle`] on a fresh core; every
//!   live reply must equal the replayed one byte for byte (verdicts and
//!   counters — a client's responses are a pure function of its own
//!   script).  Only transient service errors (`overloaded`,
//!   `shutting_down`) may differ; they count as failed frames.
//! * **Naive references.**  A fixed, evenly spaced sample of queries is
//!   re-decided by the pinned naive procedures: `Algorithm::NaiveFixpoint`
//!   implication, `consistent_with_pds` (under `NaiveFixpoint`) for
//!   `consistent` and `weak_instance` (Theorems 7 and 12 coincide for PD
//!   sets), and a plain union-find for `connected_components`.

use std::collections::HashMap;

use ps_core::consistency::consistent_with_pds;
use ps_lattice::{parse_equation, word_problem, Algorithm, Equation, TermArena};
use ps_server::proto::{DatabaseSpec, ErrorKind, Op, Payload, Request, Response};
use ps_server::state::ServerCore;
use ps_session::Session;

use crate::script::ClientScript;

/// Naive re-decisions per client, spread evenly over its query frames.
const NAIVE_PER_CLIENT: usize = 8;

/// The sequential reference transcripts.
pub struct Reference {
    /// Per client: reply lines, registrations first.
    pub lines: Vec<Vec<String>>,
    /// Per client: the same replies, decoded.
    pub responses: Vec<Vec<Response>>,
}

/// Every frame of a client's script, registrations first.
pub fn all_lines(script: &ClientScript) -> impl Iterator<Item = &String> {
    script.setup.iter().chain(&script.timed)
}

/// Replays each client alone through a fresh [`ServerCore`].  Errors if
/// any reference response is an error: the workloads are built so that no
/// operation fails.
pub fn replay(scripts: &[ClientScript]) -> Result<Reference, String> {
    let mut lines = Vec::new();
    let mut responses = Vec::new();
    for (k, script) in scripts.iter().enumerate() {
        let mut core = ServerCore::new(2);
        let mut out = Vec::new();
        let mut decoded = Vec::new();
        for line in all_lines(script) {
            let request = Request::parse_line(line).map_err(|e| format!("bad frame: {e}"))?;
            let response = core.handle(&request);
            if let Err(e) = &response.result {
                return Err(format!(
                    "client {k}: reference `{}` failed: {e}",
                    response.op
                ));
            }
            out.push(response.to_line());
            decoded.push(response);
        }
        lines.push(out);
        responses.push(decoded);
    }
    Ok(Reference { lines, responses })
}

/// Compares a round's live replies with the reference.  Returns the number
/// of transient error responses; any other difference is a mismatch.
pub fn compare(live: &[Vec<String>], reference: &Reference) -> Result<u64, String> {
    let mut errors = 0;
    for (k, (got, want)) in live.iter().zip(&reference.lines).enumerate() {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if g == w {
                continue;
            }
            let transient = matches!(
                Response::parse_line(g).map(|r| r.result),
                Ok(Err(e)) if matches!(e.kind, ErrorKind::Overloaded | ErrorKind::ShuttingDown)
            );
            if !transient {
                return Err(format!(
                    "client {k} frame {i}: live reply differs from the sequential replay\n  \
                     live:     {g}\n  expected: {w}"
                ));
            }
            errors += 1;
        }
    }
    Ok(errors)
}

/// Re-decides a sample of each client's queries with the naive references.
/// Returns the number of decisions checked.  The scripts never edit a set,
/// so a set's PDs are the ones it was registered with.
pub fn naive(scripts: &[ClientScript], reference: &Reference) -> Result<usize, String> {
    let mut checked = 0;
    for (k, script) in scripts.iter().enumerate() {
        let parse = |l: &String| Request::parse_line(l).expect("replayed frames parse");
        let mut sets: HashMap<String, Vec<String>> = HashMap::new();
        for request in script.setup.iter().map(parse) {
            if let Op::Register { set, pds } = request.op {
                sets.insert(set, pds);
            }
        }
        let stride = script.timed.len().div_ceil(NAIVE_PER_CLIENT).max(1);
        for (j, line) in script.timed.iter().enumerate().step_by(stride) {
            let i = script.setup.len() + j;
            let payload = match &reference.responses[k][i].result {
                Ok((p, _)) => p,
                Err(e) => return Err(format!("reference error: {e}")),
            };
            check_one(&parse(line).op, &sets, payload)
                .map_err(|e| format!("client {k} frame {i}: {e}"))?;
            checked += 1;
        }
    }
    Ok(checked)
}

fn check_one(
    op: &Op,
    sets: &HashMap<String, Vec<String>>,
    payload: &Payload,
) -> Result<(), String> {
    let pds_of = |set: &String| sets.get(set).cloned().unwrap_or_default();
    match (op, payload) {
        (Op::Implies { set, goal }, Payload::Implies { implied }) => expect_eq(
            naive_implies(&pds_of(set), std::slice::from_ref(goal))?,
            vec![*implied],
        ),
        (Op::ImpliesMany { set, goals }, Payload::ImpliesMany { implied }) => {
            expect_eq(naive_implies(&pds_of(set), goals)?, implied.clone())
        }
        (Op::Consistent { set, database }, Payload::Consistent { consistent, .. }) => {
            expect_eq(naive_consistent(&pds_of(set), database)?, *consistent)
        }
        (Op::WeakInstance { set, database }, Payload::WeakInstance { satisfiable, .. }) => {
            expect_eq(naive_consistent(&pds_of(set), database)?, *satisfiable)
        }
        (Op::ConnectedComponents { vertices, edges }, Payload::Components { components }) => {
            expect_eq(
                canonical_labels(&union_find_components(*vertices, edges)),
                canonical_labels(components),
            )
        }
        (op, payload) => Err(format!("`{}` answered with {payload:?}", op.name())),
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(naive: T, served: T) -> Result<(), String> {
    if naive == served {
        Ok(())
    } else {
        Err(format!(
            "naive reference says {naive:?}, the service said {served:?}"
        ))
    }
}

fn naive_implies(pds: &[String], goals: &[String]) -> Result<Vec<bool>, String> {
    let mut universe = ps_base::Universe::new();
    let mut arena = TermArena::new();
    let mut parse = |t: &String| parse_equation(t, &mut universe, &mut arena);
    let e: Vec<Equation> = pds
        .iter()
        .map(&mut parse)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let goals: Vec<Equation> = goals
        .iter()
        .map(&mut parse)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    Ok(goals
        .into_iter()
        .map(|g| word_problem::entails(&arena, &e, g, Algorithm::NaiveFixpoint))
        .collect())
}

fn naive_consistent(pds: &[String], spec: &DatabaseSpec) -> Result<bool, String> {
    let mut session = Session::new();
    let e: Vec<Equation> = pds
        .iter()
        .map(|t| session.equation(t))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
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
            .map_err(|e| e.to_string())?;
    }
    let db = builder.build();
    session
        .with_interners(|universe, symbols, arena| {
            consistent_with_pds(&db, &e, arena, universe, symbols, Algorithm::NaiveFixpoint)
        })
        .map(|outcome| outcome.consistent)
        .map_err(|e| e.to_string())
}

fn union_find_components(vertices: u64, edges: &[(u64, u64)]) -> Vec<u64> {
    let mut parent: Vec<usize> = (0..vertices as usize).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(u, v) in edges {
        let (a, b) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        parent[a.max(b)] = a.min(b);
    }
    (0..vertices as usize)
        .map(|x| find(&mut parent, x) as u64)
        .collect()
}

/// Relabels components by first occurrence, so two labelings of the same
/// partition compare equal.
fn canonical_labels(labels: &[u64]) -> Vec<usize> {
    let mut seen: HashMap<u64, usize> = HashMap::new();
    labels
        .iter()
        .map(|l| {
            let next = seen.len();
            *seen.entry(*l).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_labels_match_by_partition() {
        let a = union_find_components(5, &[(0, 1), (3, 4), (1, 2)]);
        assert_eq!(canonical_labels(&a), vec![0, 0, 0, 1, 1]);
        assert_eq!(canonical_labels(&[7, 7, 7, 2, 2]), canonical_labels(&a));
    }

    #[test]
    fn naive_references_decide_small_cases() {
        let pds = vec!["A = A*B".to_owned(), "B = B*C".to_owned()];
        assert_eq!(
            naive_implies(&pds, &["A = A*C".to_owned(), "C = C*A".to_owned()]).unwrap(),
            vec![true, false]
        );
        let db = |rows: Vec<[&str; 2]>| DatabaseSpec {
            relations: vec![ps_server::proto::RelationSpec {
                name: "R".into(),
                attrs: vec!["A".into(), "B".into()],
                rows: rows
                    .into_iter()
                    .map(|r| r.iter().map(|s| s.to_string()).collect())
                    .collect(),
            }],
        };
        assert!(naive_consistent(&pds, &db(vec![["a", "b"], ["c", "b"]])).unwrap());
        assert!(!naive_consistent(&pds, &db(vec![["a", "b"], ["a", "c"]])).unwrap());
    }
}
