//! Experiment E4: Example e and Theorem 4 — partition dependencies express
//! undirected connectivity, cross-validated against graph algorithms.

mod common;

use partition_semantics::core::connectivity::{
    chain_connected_within, components_via_partition_semantics, connectivity_pd,
    num_components_via_partition_semantics, relation_encodes_components, satisfies_sum_pd_directly,
    theorem4_path_relation, tuple_chain_distance,
};
use partition_semantics::graph::{
    components_union_find, cycle, edge_relation, gnp, grid, num_components, path, random_tree,
};
use partition_semantics::prelude::*;
use proptest::prelude::*;

fn same_partition(xs: &[usize], ys: &[usize]) -> bool {
    xs.len() == ys.len()
        && (0..xs.len()).all(|i| (0..xs.len()).all(|j| (xs[i] == xs[j]) == (ys[i] == ys[j])))
}

#[test]
fn structured_graphs_satisfy_the_connectivity_pd() {
    let mut world = common::World::new();
    let graphs = vec![
        ("path", path(20)),
        ("cycle", cycle(15)),
        ("grid", grid(4, 6)),
        ("tree", random_tree(30, 3)),
        ("gnp-sparse", gnp(40, 0.03, 5)),
        ("gnp-dense", gnp(25, 0.3, 6)),
        ("gnp-32-mean-degree-4", gnp(32, 4.0 / 32.0, 17)),
        ("gnp-64-mean-degree-4", gnp(64, 4.0 / 64.0, 17)),
        ("gnp-128-mean-degree-4", gnp(128, 4.0 / 128.0, 17)),
        ("gnp-256-mean-degree-4", gnp(256, 4.0 / 256.0, 17)),
    ];
    for (name, graph) in graphs {
        let (relation, encoding) =
            component_relation(&graph, &mut world.universe, &mut world.symbols, name);
        assert!(
            relation_encodes_components(&relation, &mut world.arena, &encoding).unwrap(),
            "{name}"
        );
        assert!(
            satisfies_sum_pd_directly(
                &relation,
                encoding.attr_component,
                encoding.attr_head,
                encoding.attr_tail
            ),
            "{name}"
        );
        // Components recomputed from the partition sum agree with union–find.
        let via_pd =
            components_via_partition_semantics(&relation, &mut world.arena, &encoding).unwrap();
        let via_uf = components_union_find(&graph);
        assert!(same_partition(&via_pd, &via_uf), "{name}");
        assert_eq!(
            num_components_via_partition_semantics(&relation, &mut world.arena, &encoding).unwrap(),
            num_components(&graph),
            "{name}"
        );
    }
}

#[test]
fn merging_two_components_in_the_labelling_breaks_the_pd() {
    let mut world = common::World::new();
    let mut graph = UndirectedGraph::new(8);
    graph.add_edge(0, 1);
    graph.add_edge(1, 2);
    graph.add_edge(4, 5);
    graph.add_edge(6, 7);
    let true_components = components_union_find(&graph);
    // Merge the components of 0 and 4 in the labelling only.
    let mut merged = true_components.clone();
    let target = merged[0];
    for label in merged.iter_mut() {
        if *label == true_components[4] {
            *label = target;
        }
    }
    let (relation, encoding) = edge_relation(
        &graph,
        &merged,
        &mut world.universe,
        &mut world.symbols,
        "merged",
    );
    assert!(!relation_encodes_components(&relation, &mut world.arena, &encoding).unwrap());

    // Splitting a component also breaks it.  (Vertex 1 is the smaller
    // endpoint of the edge {1,2}, so its label is the one attached to that
    // edge's tuples in the Example e encoding.)
    let mut split = true_components;
    split[1] = 99;
    let (relation, encoding) = edge_relation(
        &graph,
        &split,
        &mut world.universe,
        &mut world.symbols,
        "split",
    );
    assert!(!relation_encodes_components(&relation, &mut world.arena, &encoding).unwrap());
}

#[test]
fn theorem4_chains_grow_linearly() {
    let mut world = common::World::new();
    let mut previous = 0usize;
    for i in [2usize, 4, 8, 16, 32, 64] {
        let relation = theorem4_path_relation(i, &mut world.universe, &mut world.symbols);
        let a = world.universe.lookup("A").unwrap();
        let b = world.universe.lookup("B").unwrap();
        let c = world.universe.lookup("C").unwrap();
        // The relation satisfies C = A + B …
        let pd =
            partition_semantics::core::connectivity::connectivity_pd_for(&mut world.arena, c, a, b);
        assert!(relation_satisfies_pd(&relation, &world.arena, pd).unwrap());
        // … but the connecting chain for the extreme tuples has length
        // exactly i, monotonically defeating any fixed bound k.
        let last = relation.len() - 1;
        let distance = tuple_chain_distance(&relation, a, b, 0, last).unwrap();
        assert_eq!(distance, i);
        assert!(distance > previous);
        previous = distance;
        for k in [0usize, 1, i / 2, i - 1] {
            assert!(
                !chain_connected_within(&relation, a, b, 0, last, k),
                "i={i} k={k}"
            );
        }
    }
}

#[test]
fn pd_route_and_direct_route_agree_on_arbitrary_labellings() {
    // For arbitrary (not necessarily correct) labellings, checking the PD via
    // the canonical interpretation and checking characterization (II)
    // directly must agree.
    let mut world = common::World::new();
    for seed in 0..10u64 {
        let graph = gnp(14, 0.12, seed);
        let true_components = components_union_find(&graph);
        let labellings: Vec<Vec<usize>> = vec![
            true_components.clone(),
            vec![0; graph.num_vertices()],
            (0..graph.num_vertices()).collect(),
            true_components.iter().map(|&c| c % 2).collect(),
        ];
        for (idx, labelling) in labellings.iter().enumerate() {
            let (relation, encoding) = edge_relation(
                &graph,
                labelling,
                &mut world.universe,
                &mut world.symbols,
                &format!("g{seed}_{idx}"),
            );
            let via_interpretation =
                relation_encodes_components(&relation, &mut world.arena, &encoding).unwrap();
            let direct = satisfies_sum_pd_directly(
                &relation,
                encoding.attr_component,
                encoding.attr_head,
                encoding.attr_tail,
            );
            assert_eq!(via_interpretation, direct, "seed {seed} labelling {idx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random graphs, the Example e relation built from the true
    /// components always satisfies `C = A + B`, and the components recovered
    /// from the partition sum induce the same vertex partition as union–find.
    #[test]
    fn prop_component_relation_round_trips(n in 2usize..24, p in 0.0f64..0.4, seed in 0u64..1000) {
        let mut world = common::World::new();
        let graph = gnp(n, p, seed);
        let (relation, encoding) =
            component_relation(&graph, &mut world.universe, &mut world.symbols, "G");
        prop_assert!(relation_encodes_components(&relation, &mut world.arena, &encoding).unwrap());
        let via_pd =
            components_via_partition_semantics(&relation, &mut world.arena, &encoding).unwrap();
        let via_uf = components_union_find(&graph);
        prop_assert!(same_partition(&via_pd, &via_uf));
    }

    /// Relabelling vertices with a map that is not injective on components
    /// violates the PD (unless it happens to induce the same partition).
    #[test]
    fn prop_coarser_labellings_violate_the_pd(n in 4usize..16, seed in 0u64..500) {
        let mut world = common::World::new();
        let graph = gnp(n, 0.10, seed);
        let components = components_union_find(&graph);
        prop_assume!(graph.num_edges() > 0);
        // Collapse every component label to 0: coarser than the truth iff
        // there are at least two components containing an edge.
        let coarse: Vec<usize> = vec![0; n];
        let mut edge_components: Vec<usize> =
            graph.edges().iter().map(|&(u, _)| components[u]).collect();
        edge_components.sort_unstable();
        edge_components.dedup();
        let (relation, encoding) =
            edge_relation(&graph, &coarse, &mut world.universe, &mut world.symbols, "G");
        let satisfied =
            relation_encodes_components(&relation, &mut world.arena, &encoding).unwrap();
        prop_assert_eq!(satisfied, edge_components.len() <= 1);
    }

    /// The Example e PD is preserved under renaming of the component symbols
    /// (only the partition structure matters).
    #[test]
    fn prop_component_ids_do_not_matter(n in 2usize..16, seed in 0u64..300, offset in 1usize..50) {
        let mut world = common::World::new();
        let graph = gnp(n, 0.15, seed);
        let renamed: Vec<usize> =
            components_union_find(&graph).iter().map(|c| c + offset).collect();
        let (relation, encoding) =
            edge_relation(&graph, &renamed, &mut world.universe, &mut world.symbols, "G");
        let pd = connectivity_pd(&mut world.arena, &encoding);
        prop_assert!(relation_satisfies_pd(&relation, &world.arena, pd).unwrap());
    }
}
