import json
import random
from functools import cache
from itertools import combinations, permutations

import pytest

from swapsat.coupling import (
    BUILTIN_PLATFORMS,
    CouplingError,
    CouplingGraph,
    connected_sets,
    distance2_pairs,
    grid_graph,
    induced_edges,
    induced_subgraph,
    linear_graph,
    load_coupling,
    shape_invariant,
    spans,
)


def test_linear_graph():
    g = linear_graph(4)
    assert g.num_physical == 4
    assert g.connected(0, 1) and g.connected(2, 1)
    assert not g.connected(0, 2)
    unconnected = [(p, q) for p in range(4) for q in range(p + 1, 4) if not g.connected(p, q)]
    assert unconnected == [(0, 2), (0, 3), (1, 3)]


def test_grid_graph():
    g = grid_graph(2, 3)
    assert g.num_physical == 6
    assert g.connected(0, 1) and g.connected(0, 3) and g.connected(2, 5)
    assert not g.connected(0, 4)
    assert len(g.edges) == 7


def test_edge_normalization_and_validation():
    g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}))
    assert g.connected(1, 0)
    with pytest.raises(CouplingError):
        CouplingGraph(3, frozenset({(1, 1)}))
    with pytest.raises(CouplingError):
        CouplingGraph(3, frozenset({(2, 1)}))  # unnormalized order
    with pytest.raises(CouplingError):
        CouplingGraph(2, frozenset({(0, 5)}))


def test_adjacency_is_kept_immutable_and_outside_the_value():
    g = grid_graph(2, 3)
    adj = g.adjacency()
    assert g.adjacency() is adj
    assert isinstance(adj, tuple) and all(type(nbrs) is frozenset for nbrs in adj)
    assert adj[0] == {1, 3} and adj[4] == {1, 3, 5}
    again = CouplingGraph(6, g.edges, g.name)
    assert again == g and hash(again) == hash(g) and repr(again) == repr(g)


def test_disconnected_warns():
    with pytest.warns(UserWarning, match="disconnected"):
        CouplingGraph(4, frozenset({(0, 1)}), "frag")


@pytest.mark.parametrize("name,qubits,edges", [
    ("melbourne", 14, 18),
    ("sycamore54", 54, 85),
    ("rigetti80", 80, 106),
    ("eagle127", 127, 144),
])
def test_builtin_platforms(name, qubits, edges):
    g = load_coupling(name)
    assert g.num_physical == qubits
    assert len(g.edges) == edges
    assert g.is_connected()


def test_builtin_list_is_complete():
    assert set(BUILTIN_PLATFORMS) == {"melbourne", "sycamore54", "rigetti80", "eagle127"}


def test_load_generators_and_errors(tmp_path):
    assert load_coupling("linear-7").num_physical == 7
    assert load_coupling("grid-3x3").num_physical == 9
    with pytest.raises(CouplingError):
        load_coupling("linear-x")
    with pytest.raises(CouplingError):
        load_coupling("grid-0x2")
    with pytest.raises(CouplingError):
        load_coupling("atlantis")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"name": "tiny", "num_qubits": 3, "edges": [[0, 1], [2, 1]]}))
    g = load_coupling(f"file:{path}")
    assert g.name == "tiny" and g.connected(1, 2)
    with pytest.raises(CouplingError):
        load_coupling(f"file:{tmp_path / 'missing.json'}")
    bad = tmp_path / "bad.json"
    bad.write_text("{\"edges\": []}")
    with pytest.raises(CouplingError):
        load_coupling(f"file:{bad}")


@pytest.mark.parametrize("data", [
    {"num_qubits": 3, "edges": 5},
    {"num_qubits": 3, "edges": [5]},
    {"num_qubits": 3, "edges": [[0, 1, 2]]},
    {"num_qubits": 3.7, "edges": [[0, 1]]},
    {"num_qubits": True, "edges": []},
    {"num_qubits": -1, "edges": []},
    {"num_qubits": 3, "edges": [[0, 1.9]]},
    {"num_qubits": 3, "edges": [[0, True]]},
    {"num_qubits": 3, "edges": [[0, "1"]]},
])
def test_malformed_coupling_file(tmp_path, data):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CouplingError):
        load_coupling(f"file:{path}")


def test_distance2_pairs():
    g = linear_graph(4)
    paths = distance2_pairs(g)
    assert paths == {(0, 2): (1,), (1, 3): (2,)}
    grid = grid_graph(2, 2)
    # opposite corners have two middle choices
    assert distance2_pairs(grid)[(0, 3)] == (1, 2)
    assert not distance2_pairs(CouplingGraph(2, frozenset({(0, 1)})))


@pytest.mark.parametrize("spec", BUILTIN_PLATFORMS + ("grid-3x3",))
def test_distance2_pairs_matches_all_pairs_scan(spec):
    g = load_coupling(spec)
    adj = g.adjacency()
    expected = {}
    for p in range(g.num_physical):
        for q in range(p + 1, g.num_physical):
            common = sorted(adj[p] & adj[q])
            if common and not g.connected(p, q):
                expected[(p, q)] = tuple(common)
    assert distance2_pairs(g) == expected


def heavy_hex_patch(size=12):
    """The first `size` nodes of a breadth-first walk of eagle127 from its
    least degree-3 node, as an induced subgraph."""
    g = load_coupling("eagle127")
    adj = g.adjacency()
    root = min(v for v in range(g.num_physical) if len(adj[v]) == 3)
    order, todo = [root], [root]
    while len(order) < size:
        for u in sorted(adj[todo.pop(0)]):
            if u not in order and len(order) < size:
                order.append(u)
                todo.append(u)
    return induced_subgraph(g, tuple(sorted(order)))


def is_connected_set(adj, nodes):
    seen, todo = {nodes[0]}, [nodes[0]]
    while todo:
        for u in adj[todo.pop()] & set(nodes):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(nodes)


@pytest.mark.parametrize("graph", [grid_graph(3, 3), linear_graph(6), heavy_hex_patch()],
                         ids=["grid-3x3", "linear-6", "heavy-hex-12"])
def test_connected_sets_match_subset_scan(graph):
    adj = graph.adjacency()
    assert graph.is_connected() and max(len(a) for a in adj) >= 2
    for size in range(1, 7):
        got = list(connected_sets(graph, size))
        assert len(got) == len(set(got)), "a connected set was yielded twice"
        assert all(list(nodes) == sorted(nodes) for nodes in got)
        expected = {nodes for nodes in combinations(range(graph.num_physical), size)
                    if is_connected_set(adj, nodes)}
        assert set(got) == expected
    assert list(connected_sets(graph, 0)) == []
    assert list(connected_sets(graph, graph.num_physical + 1)) == []


def test_induced_subgraph_relabels_in_node_order():
    g = grid_graph(3, 3)
    sub = induced_subgraph(g, (1, 2, 4, 5, 8))
    assert sub.num_physical == 5
    assert sorted(sub.edges) == [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
    assert induced_edges(g.adjacency(), (1, 2, 4, 5, 8)) == tuple(sorted(sub.edges))


@cache
def brute_form(n, edges):
    """Least sorted edge list over all n! relabellings (`edges` a tuple)."""
    return min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
               for p in permutations(range(n)))


def same_shape(n, a, b):
    """The classification rule: equal invariants, and one graph spans the other."""
    return shape_invariant(n, a) == shape_invariant(n, b) and spans(a, b, n)


def relabel(rng, n, edges):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield tuple(e for i, e in enumerate(pairs) if mask >> i & 1)


def test_shape_rule_is_exact_on_all_small_graphs():
    rng = random.Random(5)
    for n, classes in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34)):
        graphs = list(all_graphs(n))
        reps = {}  # brute-force form -> a relabelled member
        for edges in graphs:
            reps.setdefault(brute_form(n, edges), relabel(rng, n, edges))
        assert len(reps) == classes
        for edges in graphs:
            form = brute_form(n, edges)
            for rep_form, rep in reps.items():
                assert same_shape(n, rep, edges) is (rep_form == form), (n, rep, edges)
            assert shape_invariant(n, relabel(rng, n, edges)) == shape_invariant(n, edges)


def test_shape_rule_is_exact_on_random_six_node_graphs():
    rng = random.Random(11)
    pairs = list(combinations(range(6), 2))
    graphs = []
    for _ in range(150):
        density = rng.random()
        graphs.append(tuple(e for e in pairs if rng.random() < density))
    for a in graphs:
        for b in graphs:
            assert same_shape(6, a, b) is (brute_form(6, a) == brute_form(6, b)), (a, b)
    assert len({brute_form(6, edges) for edges in graphs}) > 50


def brute_spans(n, big, small):
    """Some relabelling puts every edge of `small` on an edge of `big`."""
    big = set(big)
    return any(all((min(p[u], p[v]), max(p[u], p[v])) in big for u, v in small)
               for p in permutations(range(n)))


def test_spans_matches_brute_force_on_all_small_graphs():
    rng = random.Random(8)
    for n in range(1, 6):
        classes = {}
        for edges in all_graphs(n):
            classes.setdefault(brute_form(n, edges), edges)
        found = 0
        for big in classes.values():
            big = relabel(rng, n, big)
            for small in classes.values():
                small = relabel(rng, n, small)
                expected = brute_spans(n, big, small)
                assert spans(big, small, n) is expected, (n, big, small)
                found += expected
        # every graph spans itself; the empty graph spans no other
        assert len(classes) <= found <= len(classes) ** 2 - (len(classes) - 1)


def test_spans_matches_brute_force_on_random_graphs():
    rng = random.Random(9)
    for n, rounds in ((6, 150), (7, 40)):
        pairs = list(combinations(range(n), 2))
        for _ in range(rounds):
            big = [e for e in pairs if rng.random() < rng.random()]
            # half the time a relabelled subgraph of big, so the answer is often True
            if rng.random() < 0.5:
                small = relabel(rng, n, [e for e in big if rng.random() < 0.8])
            else:
                small = [e for e in pairs if rng.random() < 0.3]
            assert spans(big, small, n) is brute_spans(n, big, small), (n, big, small)


def cycle(nodes):
    return [(min(u, v), max(u, v)) for u, v in zip(nodes, nodes[1:] + nodes[:1])]


# regular graphs, whose invariants tell apart only their node and edge
# counts: the classes rest on `spans` alone
REGULAR = {
    "hexagon": (6, cycle([0, 1, 2, 3, 4, 5])),
    "two triangles": (6, cycle([0, 1, 2]) + cycle([3, 4, 5])),
    "prism": (6, cycle([0, 1, 2]) + cycle([3, 4, 5]) + [(0, 3), (1, 4), (2, 5)]),
    "K3,3": (6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "triangle + square": (7, cycle([0, 1, 2]) + cycle([3, 4, 5, 6])),
    "octagon": (8, cycle(list(range(8)))),
    "two squares": (8, cycle([0, 1, 2, 3]) + cycle([4, 5, 6, 7])),
    "triangle + pentagon": (8, cycle([0, 1, 2]) + cycle([3, 4, 5, 6, 7])),
    "cube": (8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]),
    "Wagner": (8, cycle(list(range(8))) + [(u, u + 4) for u in range(4)]),
}


def test_shape_rule_on_regular_graphs():
    rng = random.Random(3)
    for name, (n, edges) in REGULAR.items():
        for _ in range(10):
            relabelled = relabel(rng, n, edges)
            assert shape_invariant(n, relabelled) == shape_invariant(n, edges), name
            assert same_shape(n, edges, relabelled), name
    for (a, (n, ea)), (b, (m, eb)) in combinations(REGULAR.items(), 2):
        assert n != m or not same_shape(n, ea, eb), (a, b)
