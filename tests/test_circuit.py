import pytest

from swapsat.circuit import (
    Circuit,
    CircuitError,
    Gate,
    circuit_depth,
    extract_cnot_slice,
)
from swapsat.dag import build_dependency_dag, build_relaxed_dag


def mk(n, spec):
    return Circuit(n, tuple(Gate(name, qubits, index=i)
                            for i, (name, qubits) in enumerate(spec)))


def test_gate_validation():
    with pytest.raises(CircuitError):
        mk(2, [("cx", (0, 0))])
    with pytest.raises(CircuitError):
        mk(2, [("h", (0, 1))])
    with pytest.raises(CircuitError):
        mk(1, [("nope", (0,))])
    with pytest.raises(CircuitError):
        Circuit(1, (Gate("h", (0,), index=5),))


def test_param_count_validation():
    with pytest.raises(CircuitError):
        mk(1, [("rz", (0,))])  # missing angle
    Circuit(1, (Gate("rz", (0,), ("pi/4",), index=0),))


def test_slice_extraction(or_circuit):
    slice_ = extract_cnot_slice(or_circuit)
    assert len(slice_) == 6
    assert [slice_.pair(i) for i in range(6)] == [
        (2, 1), (0, 1), (2, 0), (2, 1), (2, 0), (0, 1)
    ]
    assert all(slice_.is_cx(i) for i in range(6))
    assert slice_.logical_pairs() == [(0, 1), (0, 2), (1, 2)]


def test_slice_includes_input_swaps():
    circ = mk(3, [("swap", (0, 1)), ("cx", (1, 2))])
    slice_ = extract_cnot_slice(circ)
    assert len(slice_) == 2
    assert slice_.names == ("swap", "cx")


def test_depth_basic():
    assert circuit_depth(mk(2, [("h", (0,)), ("cx", (0, 1)), ("x", (1,))])) == 3
    # parallel gates on disjoint qubits share a layer
    assert circuit_depth(mk(2, [("h", (0,)), ("h", (1,))])) == 1
    assert circuit_depth(mk(1, [])) == 0


def test_depth_barrier_is_free_fence():
    circ = mk(2, [("h", (0,)), ("barrier", (0, 1)), ("h", (1,))])
    assert circuit_depth(circ) == 2  # barrier aligns but adds no layer


def test_strict_dag_chains():
    circ = mk(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
    dag = build_dependency_dag(extract_cnot_slice(circ), circ)
    assert dag.pre[0] == frozenset()
    assert dag.pre[1] == frozenset({0})
    assert dag.pre[2] == frozenset({0, 1})


def test_strict_dag_immediate_only():
    # 0 -> 1 -> 2 all on qubit 1: edge 0->2 must not be immediate
    circ = mk(2, [("cx", (0, 1)), ("cx", (1, 0)), ("cx", (0, 1))])
    dag = build_dependency_dag(extract_cnot_slice(circ), circ)
    assert dag.pre[2] == frozenset({1})
    assert dag.closure()[0] == {1, 2}


def test_barrier_fences_independent_cnots():
    free = mk(4, [("cx", (0, 1)), ("cx", (2, 3))])
    fenced = mk(4, [("cx", (0, 1)), ("barrier", (0, 1, 2, 3)), ("cx", (2, 3))])
    assert build_dependency_dag(extract_cnot_slice(free), free).pre[1] == frozenset()
    assert build_dependency_dag(
        extract_cnot_slice(fenced), fenced).pre[1] == frozenset({0})


def test_relaxed_dag_shared_control_commutes():
    circ = mk(3, [("cx", (0, 1)), ("cx", (0, 2))])
    relaxed = build_relaxed_dag(extract_cnot_slice(circ), circ)
    assert relaxed.pre[1] == frozenset()
    # shared data qubits commute too
    circ2 = mk(3, [("cx", (1, 0)), ("cx", (2, 0))])
    assert build_relaxed_dag(extract_cnot_slice(circ2), circ2).pre[1] == frozenset()


def test_relaxed_dag_control_vs_data_conflict():
    circ = mk(3, [("cx", (0, 1)), ("cx", (1, 2))])
    relaxed = build_relaxed_dag(extract_cnot_slice(circ), circ)
    assert relaxed.pre[1] == frozenset({0})


def test_relaxed_dag_unary_roles():
    # rz on the shared control commutes; h blocks
    thru = Circuit(3, (Gate("cx", (0, 1), index=0),
                       Gate("rz", (0,), ("pi/4",), index=1),
                       Gate("cx", (0, 2), index=2)))
    assert build_relaxed_dag(extract_cnot_slice(thru), thru).pre[1] == frozenset()
    blocked = mk(3, [("cx", (0, 1)), ("h", (0,)), ("cx", (0, 2))])
    assert build_relaxed_dag(extract_cnot_slice(blocked), blocked).pre[1] == frozenset({0})


def test_relaxed_dag_obstruction_is_transitive():
    # cx0 (x on q1), x q1 commutes with cx0's data role but blocks cx2's control
    circ = mk(2, [("cx", (0, 1)), ("x", (1,)), ("cx", (1, 0))])
    assert build_relaxed_dag(extract_cnot_slice(circ), circ).pre[1] == frozenset({0})


def test_or_circuit_relaxed_drops_an_edge(or_circuit):
    strict = build_dependency_dag(extract_cnot_slice(or_circuit), or_circuit)
    relaxed = build_relaxed_dag(extract_cnot_slice(or_circuit), or_circuit)
    strict_edges = {(j, i) for i in range(6) for j in strict.closure()[i]}
    relaxed_edges = {(j, i) for i in range(6) for j in relaxed.closure()[i]}
    assert relaxed_edges < strict_edges
