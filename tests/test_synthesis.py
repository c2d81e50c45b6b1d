import random
import time

import pytest

from conftest import random_circuit
from swapsat.circuit import Circuit, Gate, circuit_depth, extract_cnot_slice
from swapsat.coupling import grid_graph, linear_graph
from swapsat.dag import build_dependency_dag
from swapsat.encoder import EncodeOptions, EncodingError, TwoWayEncoder
from swapsat.qasm import parse_qasm
from swapsat.solver import Status, solve
from swapsat.synthesis import (
    Bridge,
    Limits,
    Swap,
    plan_from_dict,
    plan_to_dict,
    reconstruct,
    synthesize,
)
from swapsat.verify import check_structural, check_unitary_equivalence


def mk(n, spec):
    return Circuit(n, tuple(Gate(name, qubits, index=i)
                            for i, (name, qubits) in enumerate(spec)))


def test_or_circuit_linear3(or_circuit):
    result = synthesize(or_circuit, linear_graph(3))
    assert result.metrics["status"] == "optimal"
    assert result.metrics["swaps"] == 2
    assert result.metrics["bridges"] == 0
    assert result.metrics["added_cnots"] == 6
    assert result.metrics["cnot_total"] == 12
    assert result.metrics["depth_before"] == circuit_depth(or_circuit)


def test_or_circuit_linear3_relaxed(or_circuit):
    result = synthesize(or_circuit, linear_graph(3), EncodeOptions(relaxed=True))
    assert result.metrics["swaps"] + result.metrics["bridges"] == 1


def test_zero_swap_is_pure_relabeling():
    circ = mk(3, [("h", (0,)), ("cx", (0, 1)), ("cx", (1, 2)), ("x", (2,))])
    result = synthesize(circ, linear_graph(4))
    assert result.metrics["swaps"] == 0
    plan = result.plan
    assert plan.initial_map == plan.final_map
    relabel = {l: p for l, p in enumerate(plan.initial_map)}
    expected = [(g.name, tuple(relabel[q] for q in g.qubits)) for g in circ.gates]
    got = [(g.name, g.qubits) for g in result.mapped_circuit.gates]
    assert got == expected


def test_adjacent_interactions_need_no_swaps():
    # interaction graph already a subgraph of the platform
    circ = mk(4, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (2, 3)), ("cx", (0, 1))])
    result = synthesize(circ, grid_graph(2, 2))
    assert result.metrics["swaps"] + result.metrics["bridges"] == 0
    assert len(result.plan.steps) == 1
    assert result.plan.steps[0].action is None


def test_infeasible_input():
    circ = mk(3, [("cx", (0, 1))])
    with pytest.raises(EncodingError):
        synthesize(circ, linear_graph(2))


def test_plan_invariants(or_circuit):
    result = synthesize(or_circuit, linear_graph(3))
    plan = result.plan
    assert plan.steps[0].action is None
    scheduled = sorted(i for s in plan.steps for i in s.cnots)
    assert scheduled == list(range(6))
    # final map equals initial map pushed through the swap sequence
    mapping = list(plan.initial_map)
    for step in plan.steps:
        if isinstance(step.action, Swap):
            for l, phys in enumerate(mapping):
                if phys == step.action.p:
                    mapping[l] = step.action.q
                elif phys == step.action.q:
                    mapping[l] = step.action.p
    assert tuple(mapping) == plan.final_map


def test_optimality_certificate(or_circuit):
    from swapsat.encoder import TwoWayEncoder

    coupling = linear_graph(3)
    result = synthesize(or_circuit, coupling)
    k = len(result.plan.steps) - 1
    assert k == 2
    slice_ = extract_cnot_slice(or_circuit)
    dag = build_dependency_dag(slice_, or_circuit)
    enc = TwoWayEncoder(3, slice_, dag, coupling)
    for t in range(k):
        enc.build_step(t)
    assert solve(enc.cnf, [enc.assumption_literal(k - 1)]).status is Status.UNSAT


def test_timeout_reports_lower_bound(or_circuit):
    result = synthesize(or_circuit, linear_graph(3), limits=Limits(max_steps=0))
    assert result.plan is None
    assert result.metrics["status"] == "timeout"
    assert result.metrics["lower_bound"] == 1
    tight = synthesize(or_circuit, linear_graph(3), limits=Limits(time_limit=1e-9))
    assert tight.metrics["status"] == "timeout"


def test_time_limit_covers_encoding(or_circuit, monkeypatch):
    build_step = TwoWayEncoder.build_step

    def slow_build_step(self, t):
        time.sleep(0.3)
        build_step(self, t)

    monkeypatch.setattr(TwoWayEncoder, "build_step", slow_build_step)
    result = synthesize(or_circuit, linear_graph(3), limits=Limits(time_limit=0.1))
    # encoding step 0 alone spends the budget: no solver call, nothing proven
    assert result.metrics["status"] == "timeout"
    assert result.metrics["lower_bound"] == 0
    assert result.metrics["step_times"] == []
    assert 0.3 <= result.metrics["total_time"] < 0.6


def test_bridge_plan_contains_ladder():
    # one distance-2 CNOT: the bridge beats any swap-only plan on actions
    circ = mk(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
    result = synthesize(circ, linear_graph(3), EncodeOptions(bridges=True))
    assert result.metrics["swaps"] + result.metrics["bridges"] == 1
    if result.metrics["bridges"] == 1:
        names = [g.name for g in result.mapped_circuit.gates]
        assert names.count("cx") == 2 + 4
        action = next(s.action for s in result.plan.steps
                      if isinstance(s.action, Bridge))
        eq = check_unitary_equivalence(circ, result.mapped_circuit,
                                       result.plan.initial_map,
                                       result.plan.final_map)
        assert eq is True
        assert action.middle_phys == 1


def test_input_swap_gates_are_routed():
    circ = mk(3, [("swap", (0, 2)), ("cx", (0, 1))])
    result = synthesize(circ, linear_graph(3))
    rep = check_structural(circ, result.mapped_circuit, linear_graph(3), result.plan)
    assert rep.passes(), rep.first_violation
    assert check_unitary_equivalence(circ, result.mapped_circuit,
                                     result.plan.initial_map,
                                     result.plan.final_map) is True


def test_measures_relabeled_by_final_map():
    text = (
        "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n"
        "cx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[2] -> c[2];\n"
    )
    circ = parse_qasm(text)
    result = synthesize(circ, linear_graph(3))
    measures = [g for g in result.mapped_circuit.gates if g.name == "measure"]
    assert len(measures) == 3
    for g in measures:
        logical = g.cbits[0][1]
        assert g.qubits[0] == result.plan.final_map[logical]


def test_unary_only_circuit():
    circ = mk(2, [("h", (0,)), ("x", (1,)), ("h", (0,))])
    result = synthesize(circ, linear_graph(2))
    assert result.metrics["swaps"] == 0
    assert result.mapped_circuit.count("h") == 2
    assert check_unitary_equivalence(circ, result.mapped_circuit,
                                     result.plan.initial_map,
                                     result.plan.final_map) is True


def test_plan_serialization_roundtrip(or_circuit):
    for options in (EncodeOptions(), EncodeOptions(bridges=True, relaxed=True)):
        plan = synthesize(or_circuit, linear_graph(3), options).plan
        assert plan_from_dict(plan_to_dict(plan)) == plan


def test_reconstruct_independent_of_synthesize(or_circuit):
    result = synthesize(or_circuit, linear_graph(3))
    again = reconstruct(result.plan, or_circuit, False, 3)
    assert [(g.name, g.qubits) for g in again.gates] == \
        [(g.name, g.qubits) for g in result.mapped_circuit.gates]


def test_depth_after_matches_longest_path(or_circuit):
    result = synthesize(or_circuit, linear_graph(3))
    mapped = result.mapped_circuit
    # independent longest-path computation over qubit-sharing gates
    best = {}
    longest = 0
    for g in mapped.gates:
        if g.name == "barrier":
            continue
        depth = max((best.get(q, 0) for q in g.qubits), default=0) + 1
        for q in g.qubits:
            best[q] = depth
        longest = max(longest, depth)
    assert result.metrics["depth_after"] == longest


def test_barriers_fence_and_are_dropped():
    text = (
        "OPENQASM 2.0;\nqreg q[4];\n"
        "cx q[0],q[1];\nbarrier q;\ncx q[2],q[3];\ncx q[0],q[3];\n"
    )
    circ = parse_qasm(text)
    for options in (EncodeOptions(), EncodeOptions(relaxed=True)):
        result = synthesize(circ, linear_graph(4), options)
        assert all(g.name != "barrier" for g in result.mapped_circuit.gates)
        emission = [i for s in result.plan.steps for i in s.cnots]
        # the barrier orders cnot 1 after cnot 0 even though they share no qubit
        assert emission.index(0) < emission.index(1)
        assert check_unitary_equivalence(circ, result.mapped_circuit,
                                         result.plan.initial_map,
                                         result.plan.final_map) is True


def test_random_soundness_sample():
    rng = random.Random(99)
    for _ in range(10):
        circ = random_circuit(rng, rng.randint(3, 4), rng.randint(2, 6))
        coupling = linear_graph(4)
        options = EncodeOptions(bridges=rng.random() < 0.5,
                                relaxed=rng.random() < 0.5)
        result = synthesize(circ, coupling, options)
        report = check_structural(circ, result.mapped_circuit, coupling,
                                  result.plan, relaxed=options.relaxed)
        assert report.passes(), report.first_violation
