"""The ladder decided on subgraph shapes: cross-checks on the whole device,
the cases that must fall back to the device, time limits, and the per-device
shape catalogue."""
import json
import random
from functools import cache
from itertools import combinations, permutations

import pytest

from conftest import CIRCUITS_DIR
from swapsat import synthesis
from swapsat.circuit import Circuit, Gate, extract_cnot_slice
from swapsat.coupling import (CouplingGraph, connected_sets, grid_graph, induced_edges,
                              induced_subgraph, linear_graph, load_coupling, spans)
from swapsat.encoder import EncodeOptions, TwoWayEncoder
from swapsat.qasm import parse_qasm
from swapsat.solver import Status, make_solver
from swapsat.synthesis import Limits, _level_shapes, build_dag, plan_to_dict, synthesize
from swapsat.verify import check_structural, check_unitary_equivalence, oracle_min_swaps


def cx_circuit(n, pairs, unary=()):
    gates = [("cx", p) for p in pairs] + [(name, (q,)) for name, q in unary]
    return Circuit(n, tuple(Gate(name, qubits, index=i)
                            for i, (name, qubits) in enumerate(gates)))


def bundled(name):
    return parse_qasm((CIRCUITS_DIR / f"{name}.qasm").read_text(), name=name)


@pytest.fixture
def encoder_sizes(monkeypatch):
    """Node counts of the coupling graphs handed to every new encoder."""
    sizes = []
    init = TwoWayEncoder.__init__

    def recording_init(self, num_logical, slice_, dag, coupling, *args, **kwargs):
        sizes.append(coupling.num_physical)
        init(self, num_logical, slice_, dag, coupling, *args, **kwargs)

    monkeypatch.setattr(TwoWayEncoder, "__init__", recording_init)
    return sizes


def verified(circuit, coupling, options, result):
    report = check_structural(circuit, result.mapped_circuit, coupling, result.plan,
                              relaxed=options.relaxed)
    return report.passes() and check_unitary_equivalence(
        circuit, result.mapped_circuit, result.plan.initial_map,
        result.plan.final_map) is True


def device_confirms(circuit, coupling, options, k):
    """A fresh encoder of the whole device refutes k-1 actions and allows k."""
    slice_ = extract_cnot_slice(circuit)
    enc = TwoWayEncoder(circuit.num_qubits, slice_, build_dag(slice_, circuit, options.relaxed),
                        coupling, options)
    solver = make_solver(enc.cnf)
    for t in range(k + 1):
        enc.build_step(t)
    if k >= 1:
        assert solver.solve([enc.assumption_literal(k - 1)]).status is Status.UNSAT
    assert solver.solve([enc.assumption_literal(k)]).status is Status.SAT


@pytest.mark.parametrize("name,platform,combo", [
    ("bv4", "sycamore54", "S"), ("ghz4", "sycamore54", "S"), ("or", "sycamore54", "S"),
    ("bv4", "rigetti80", "S"), ("ghz4", "rigetti80", "S"), ("or", "rigetti80", "S"),
    ("bv4", "eagle127", "S"), ("ghz4", "eagle127", "S"), ("or", "eagle127", "S"),
    ("or", "sycamore54", "SR"),
])
def test_shape_optimum_matches_whole_device(name, platform, combo):
    circuit, coupling = bundled(name), load_coupling(platform)
    options = EncodeOptions(relaxed="R" in combo)
    result = synthesize(circuit, coupling, options)
    k = result.metrics["swaps"] + result.metrics["bridges"]
    assert verified(circuit, coupling, options, result)
    device_confirms(circuit, coupling, options, k)


@cache
def brute_form(size, edges):
    """Least sorted edge list over all relabellings, memoised on the local
    edge list (a tuple), which many node sets share."""
    return min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
               for p in permutations(range(size)))


def shape_classes(coupling, size):
    """One node set per isomorphism class of connected `size`-node subgraphs."""
    adj = coupling.adjacency()
    classes = {}
    for nodes in connected_sets(coupling, size):
        classes.setdefault(brute_form(size, induced_edges(adj, nodes)), nodes)
    return classes


def random_cx(seed, n, m):
    rng = random.Random(seed)
    return cx_circuit(n, [tuple(rng.sample(range(n), 2)) for _ in range(m)])


# (circuit, device, whether a refuted level has a dominated class under S):
# grid-4x4 has 2 maximal of 3 classes at 4 nodes, sycamore54 2 of 3 at 4 and
# 2 of 4 at 5, rigetti80 2 of 3 at 4 and 1 of 3 at 5; bv4 and ghz4 need no
# action, so they have no refuted level
DOMINANCE_CASES = {
    "grid-3q-3": (random_cx(3, 3, 12), grid_graph(4, 4), True),
    "grid-3q-5": (random_cx(5, 3, 12), grid_graph(4, 4), True),
    "grid-4q-1": (random_cx(1, 4, 7), grid_graph(4, 4), True),
    "grid-4q-3": (random_cx(3, 4, 7), grid_graph(4, 4), True),
    **{f"{name}-{platform}": (bundled(name), load_coupling(platform), name in ("or", "ring5"))
       for platform in ("sycamore54", "rigetti80") for name in ("bv4", "ghz4", "or", "ring5")},
}


@pytest.mark.parametrize("case", list(DOMINANCE_CASES))
def test_dominated_shapes_are_refuted(case):
    """Solving only the maximal shapes gives the whole device's optimum, and
    every dominated class of a refuted shape level is UNSAT on its own."""
    circuit, coupling, reaches = DOMINANCE_CASES[case]
    n = circuit.num_qubits
    slice_ = extract_cnot_slice(circuit)
    solved = {}
    for combo in ("S", "SB", "SR", "SBR"):
        for ancillary in (True, False):
            options = EncodeOptions(ancillary=ancillary, bridges="B" in combo,
                                    relaxed="R" in combo)
            result = synthesize(circuit, coupling, options)
            assert result.metrics["status"] == "optimal"
            assert verified(circuit, coupling, options, result)
            k = result.metrics["swaps"] + result.metrics["bridges"]
            device_confirms(circuit, coupling, options, k)
            dag = build_dag(slice_, circuit, options.relaxed)
            dominated = 0
            for level in range(k):
                if level in result.metrics["device_levels"]:
                    continue
                size = n + level
                maximal = {brute_form(size, tuple(sorted(graph.edges)))
                           for _, graph in _level_shapes(coupling, size, None)}
                assert len(maximal) == result.metrics["shapes"][level]
                for key, nodes in shape_classes(coupling, size).items():
                    if key in maximal:
                        continue
                    enc = TwoWayEncoder(n, slice_, dag, induced_subgraph(coupling, nodes),
                                        options)
                    for t in range(level + 1):
                        enc.build_step(t)
                    status = make_solver(enc.cnf).solve([enc.assumption_literal(level)]).status
                    assert status is Status.UNSAT, (combo, ancillary, level, nodes)
                    dominated += 1
            solved[combo, ancillary] = dominated
    assert (solved["S", True] > 0) == reaches, solved


@pytest.mark.parametrize("circuit,swaps", [
    (bundled("ring5"), 2),
    (cx_circuit(6, [(0, i) for i in range(1, 6)]), 2),
    (cx_circuit(6, [(i, (i + 1) % 6) for i in range(6)]), 3),
], ids=["ring5", "star6", "ring6"])
def test_eagle127_paper_regime_optimum(circuit, swaps, encoder_sizes):
    coupling, options = load_coupling("eagle127"), EncodeOptions()
    result = synthesize(circuit, coupling, options, Limits(time_limit=60))
    assert result.metrics["status"] == "optimal"
    assert (result.metrics["swaps"], result.metrics["bridges"]) == (swaps, 0)
    assert verified(circuit, coupling, options, result)
    # every level was decided on shapes: no encoder of the 127-qubit device is built
    levels = swaps + 1
    assert sorted(set(encoder_sizes)) == [circuit.num_qubits + k for k in range(levels)]
    assert 127 not in encoder_sizes
    assert len(result.metrics["shapes"]) == len(result.metrics["step_times"]) == levels
    assert result.metrics["device_levels"] == []


# sycamore54 at 6 nodes has 10 shapes, which total more than its 54 nodes,
# so that level goes to the device
MAXIMAL = {("sycamore54", 4): 2, ("sycamore54", 5): 2,
           ("rigetti80", 4): 2, ("rigetti80", 5): 1, ("rigetti80", 6): 3}


@pytest.mark.parametrize("platform,size", list(MAXIMAL))
def test_level_shapes_densest_first(platform, size):
    coupling = load_coupling(platform)
    adj = coupling.adjacency()
    level = _level_shapes(coupling, size, None)
    assert level is not None and len(level) == MAXIMAL[platform, size]
    density = []
    for nodes, graph in level:
        edges = induced_edges(adj, nodes)
        assert tuple(sorted(graph.edges)) == edges
        degree = [sum(v in e for e in edges) for v in range(size)]
        density.append((len(edges), sorted(degree, reverse=True)))
    assert density == sorted(density, reverse=True)
    # only maximal shapes are listed: none spans another
    for (_, big), (_, small) in combinations([(n, g.edges) for n, g in level], 2):
        assert not spans(big, small, size) and not spans(small, big, size)


def test_ring5_rigetti80_tries_the_cycle_first():
    # the three 5-node classes have one maximal shape, refuted at level 0;
    # of the 6-node shapes only one has a cycle: the ring needs it, so the
    # cycle shape is SAT at level 1 and is tried first
    circuit, coupling = bundled("ring5"), load_coupling("rigetti80")
    result = synthesize(circuit, coupling)
    assert result.metrics["shapes"] == [1, 1]
    assert (result.metrics["swaps"], result.metrics["bridges"]) == (1, 0)
    assert verified(circuit, coupling, EncodeOptions(), result)


def oracle_agrees(circuit, coupling, combos=("S", "SB", "SR", "SBR"), ancillary=True):
    for combo in combos:
        options = EncodeOptions(ancillary=ancillary, bridges="B" in combo,
                                relaxed="R" in combo)
        result = synthesize(circuit, coupling, options)
        k = result.metrics["swaps"] + result.metrics["bridges"]
        assert k == oracle_min_swaps(circuit, coupling, options, cap=12), combo
        assert verified(circuit, coupling, options, result)


def test_disconnected_interaction_solves_on_device(encoder_sizes):
    # a triangle of CNOTs on qubits 0-2 and a separate pair 3-4
    circuit = cx_circuit(5, [(0, 1), (3, 4), (1, 2), (0, 2), (4, 3)])
    oracle_agrees(circuit, linear_graph(6))
    assert set(encoder_sizes) == {6}
    encoder_sizes.clear()
    metrics = synthesize(circuit, linear_graph(6)).metrics
    assert metrics["device_levels"] == list(range(len(metrics["shapes"])))
    # one device encoder, kept across the levels
    assert len(metrics["shapes"]) > 1 and encoder_sizes.count(6) == 1
    # a timeout keeps the device levels solved before it
    metrics = synthesize(circuit, linear_graph(6), limits=Limits(max_steps=0)).metrics
    assert metrics["status"] == "timeout" and metrics["device_levels"] == [0]


def test_disconnected_interaction_needs_device():
    # two stars whose centres are joined through a leaf-path-leaf: 0 actions
    # place both stars at once, but any connected 8 of the 9 nodes miss a leaf
    edges = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 8), (6, 8), (7, 8)]
    coupling = CouplingGraph(9, frozenset(edges), "two-stars")
    circuit = cx_circuit(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)])
    result = synthesize(circuit, coupling)
    assert result.metrics["swaps"] == 0
    assert verified(circuit, coupling, EncodeOptions(), result)


def test_idle_qubit_keeps_shapes(encoder_sizes):
    # qubit 3 takes part in no CNOT; the others need SWAPs on a line
    circuit = cx_circuit(4, [(0, 1), (1, 2), (0, 2), (2, 1), (0, 2)], [("h", 3), ("x", 0)])
    oracle_agrees(circuit, linear_graph(6))
    assert min(encoder_sizes) < 6


def test_no_ancillas_matches_oracle(encoder_sizes):
    circuit = cx_circuit(4, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3)])
    for coupling in (linear_graph(6), grid_graph(2, 3)):
        oracle_agrees(circuit, coupling, ancillary=False)
    assert min(encoder_sizes) < 6


def test_disconnected_coupling_file_matches_oracle(tmp_path, encoder_sizes):
    # a 4-node star and a 5-node path
    edges = [[0, 1], [0, 2], [0, 3], [4, 5], [5, 6], [6, 7], [7, 8]]
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"name": "split", "num_qubits": 9, "edges": edges}))
    with pytest.warns(UserWarning, match="disconnected"):
        coupling = load_coupling(f"file:{path}")
    circuit = cx_circuit(3, [(0, 1), (1, 2), (0, 2), (1, 0)])
    oracle_agrees(circuit, coupling, combos=("S", "SR"))
    assert set(encoder_sizes) == {9}


def test_time_limit_spans_shapes():
    ring6 = cx_circuit(6, [(i, (i + 1) % 6) for i in range(6)])
    eagle = load_coupling("eagle127")
    result = synthesize(ring6, eagle, limits=Limits(time_limit=2))
    metrics = result.metrics
    assert metrics["status"] == "timeout" and result.plan is None
    assert metrics["total_time"] < 2.5
    lower = metrics["lower_bound"]
    # the level in progress when time ran out, or the next one to start
    assert len(metrics["step_times"]) in (lower, lower + 1)
    assert len(metrics["shapes"]) == len(metrics["step_times"])
    assert metrics["device_levels"] == []
    # every level below the bound is refuted
    if lower >= 1:
        below = synthesize(ring6, eagle, limits=Limits(max_steps=lower - 1))
        assert below.metrics["status"] == "timeout"
        assert below.metrics["lower_bound"] == lower


def test_time_limit_checked_during_enumeration():
    # an all-to-all device has one 8-node shape but 125,970 connected 8-node
    # sets, which take over a second to enumerate
    complete = CouplingGraph(20, frozenset(combinations(range(20), 2)), "complete-20")
    line = cx_circuit(8, [(i, i + 1) for i in range(7)])
    result = synthesize(line, complete, limits=Limits(time_limit=0.05))
    assert result.metrics["status"] == "timeout"
    assert result.metrics["lower_bound"] == 0
    assert result.metrics["step_times"] == [] and result.metrics["shapes"] == []
    assert result.metrics["total_time"] < 0.3


def test_catalogue_serves_an_equal_device(monkeypatch):
    circuit, first = bundled("ring5"), load_coupling("rigetti80")
    sycamore = load_coupling("sycamore54")
    before = synthesize(circuit, first)
    assert _level_shapes(sycamore, 6, None) is None  # the stop rule's answer is kept too
    sets = []
    enumerate_sets = synthesis.connected_sets
    monkeypatch.setattr(synthesis, "connected_sets",
                        lambda graph, size: sets.append(size) or enumerate_sets(graph, size))
    again = synthesize(circuit, load_coupling("rigetti80"))
    assert _level_shapes(load_coupling("sycamore54"), 6, None) is None
    assert sets == []
    assert plan_to_dict(again.plan) == plan_to_dict(before.plan)
    for key in ("shapes", "device_levels"):
        assert again.metrics[key] == before.metrics[key]


def test_stopped_enumeration_stores_nothing():
    # renamed copies of eagle127 are devices of their own in the catalogue
    eagle = load_coupling("eagle127")
    stopped, fresh = (CouplingGraph(eagle.num_physical, eagle.edges, name)
                      for name in ("eagle-stopped", "eagle-fresh"))
    circuit = bundled("or")
    result = synthesize(circuit, stopped, limits=Limits(time_limit=1e-9))
    assert result.metrics["status"] == "timeout" and result.metrics["shapes"] == []
    assert circuit.num_qubits not in synthesis._catalogue[stopped]
    later, first = synthesize(circuit, stopped), synthesize(circuit, fresh)
    assert plan_to_dict(later.plan) == plan_to_dict(first.plan)
    for key in ("shapes", "device_levels"):
        assert later.metrics[key] == first.metrics[key]
    for size in range(circuit.num_qubits, circuit.num_qubits + len(first.metrics["shapes"])):
        assert ([(nodes, graph.edges) for nodes, graph in _level_shapes(stopped, size, None)]
                == [(nodes, graph.edges) for nodes, graph in _level_shapes(fresh, size, None)])


def test_catalogue_entries_do_not_outlive_their_device():
    triangle = cx_circuit(3, [(0, 1), (1, 2), (0, 2)])
    before = len(synthesis._catalogue)
    for n in range(4, 54):
        assert synthesize(triangle, linear_graph(n)).metrics["swaps"] == 1
    assert len(synthesis._catalogue) <= before
