import pytest

from encoding_checks import check_model_properties, exhaustive_models
from swapsat.circuit import Circuit, Gate, extract_cnot_slice
from swapsat.coupling import CouplingGraph, grid_graph, linear_graph, load_coupling
from swapsat.dag import build_dependency_dag
from swapsat.encoder import EncodeOptions, EncodingError, TwoWayEncoder
from swapsat.solver import Status, solve


def mk_encoder(n_l, n_p_graph, gate_pairs, options=EncodeOptions(), steps=1):
    circ = Circuit(n_l, tuple(Gate("cx", p, index=i) for i, p in enumerate(gate_pairs)))
    slice_ = extract_cnot_slice(circ)
    dag = build_dependency_dag(slice_, circ)
    enc = TwoWayEncoder(n_l, slice_, dag, n_p_graph, options)
    for t in range(steps + 1):
        enc.build_step(t)
    return enc


def test_too_many_logical_qubits():
    with pytest.raises(EncodingError, match="cannot map"):
        mk_encoder(4, linear_graph(3), [(0, 1)], steps=0)


def test_steps_must_be_built_in_order():
    enc = mk_encoder(2, linear_graph(2), [(0, 1)], steps=0)
    with pytest.raises(EncodingError):
        enc.build_step(2)
    with pytest.raises(EncodingError):
        enc.assumption_literal(1)


def test_step0_variable_count():
    enc = mk_encoder(2, linear_graph(3), [(0, 1)], steps=0)
    # 6 map + 3 mapped + 3 status + 1 pair + 1 assumption = 14, no aux needed
    assert enc.cnf.num_vars == 14


def test_assumption_semantics_trivial_instance():
    # adjacent pair: SAT already at t=0
    enc = mk_encoder(2, linear_graph(2), [(0, 1)], steps=0)
    assert solve(enc.cnf, [enc.assumption_literal(0)]).status is Status.SAT


def test_distance_forces_unsat_then_sat():
    # a triangle of interactions cannot embed in a 3-qubit path
    enc = mk_encoder(3, linear_graph(3), [(0, 1), (1, 2), (0, 2)], steps=0)
    assert solve(enc.cnf, [enc.assumption_literal(0)]).status is Status.UNSAT
    enc.build_step(1)
    assert solve(enc.cnf, [enc.assumption_literal(1)]).status is Status.SAT


def test_model_properties_exhaustive_t0():
    enc = mk_encoder(2, linear_graph(3), [(0, 1)], steps=0)
    models = exhaustive_models(enc.cnf)
    assert models, "t=0 instance must be satisfiable"
    for bits in models:
        assert check_model_properties(enc, bits, 0) == []


def test_model_properties_exhaustive_one_step():
    enc = mk_encoder(2, linear_graph(2), [(0, 1)], steps=1)
    models = exhaustive_models(enc.cnf)
    assert models
    for bits in models:
        assert check_model_properties(enc, bits, 1) == []


STAR4 = CouplingGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}), "star-4")


# ids options0-3 are the names the linear-3 cases have always had
@pytest.mark.parametrize("graph,options,expected", [
    pytest.param(linear_graph(3), EncodeOptions(), 12, id="options0"),
    pytest.param(linear_graph(3), EncodeOptions(ancillary=False), 4, id="options1"),
    pytest.param(linear_graph(3), EncodeOptions(bridges=True), 14, id="options2"),
    pytest.param(linear_graph(3), EncodeOptions(ancillary=False, bridges=True), 6,
                 id="options3"),
    # the hub's neighbourhood clauses branch three ways; leaves are bridgeable
    pytest.param(STAR4, EncodeOptions(), 30, id="star4-S"),
    pytest.param(STAR4, EncodeOptions(bridges=True), 36, id="star4-SB"),
])
def test_model_properties_solver_enumerated(graph, options, expected):
    """Blocking-clause enumeration of a 2-logical-qubit instance's full
    models.  The registry variables define every auxiliary variable, so each
    model is a distinct assignment of the registry variables."""
    enc = mk_encoder(2, graph, [(0, 1), (1, 0), (0, 1)], options=options, steps=1)
    cnf = enc.cnf
    from swapsat.solver import InternalSolver

    solver = InternalSolver(cnf)
    count = 0
    while True:
        result = solver.solve()
        if result.status is not Status.SAT:
            break
        count += 1
        assert count <= expected, "more models than expected"
        bits = tuple(result.model[1:])
        assert check_model_properties(enc, bits, 1) == []
        cnf.add_clause([-v if result.model[v] else v for v in range(1, cnf.num_vars + 1)])
    assert count == expected


def test_bridge_requires_distance_two():
    # single CNOT at distance 2: one bridge suffices when enabled
    opts = EncodeOptions(bridges=True)
    enc = mk_encoder(3, linear_graph(3), [(0, 1), (0, 2)], options=opts, steps=1)
    result = solve(enc.cnf, [enc.assumption_literal(1)])
    assert result.status is Status.SAT
    model = result.model
    bridge_used = any(model[enc.reg.bridge[(i, 1)]] for i in enc.bridgeable)
    swap_used = any(model[enc.reg.swap[(e, 1)]] for e in enc.edges)
    assert bridge_used != swap_used  # exactly one action, either kind works here


def test_grid_two_step():
    # opposite corners of a 2x2 grid with a blocking chain need swaps
    enc = mk_encoder(4, grid_graph(2, 2), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
                     steps=0)
    assert solve(enc.cnf, [enc.assumption_literal(0)]).status is Status.UNSAT
    enc.build_step(1)
    assert solve(enc.cnf, [enc.assumption_literal(1)]).status is Status.SAT


def test_connection_clauses_linear_in_device_size():
    # eagle127 has 144 edges: one step must not list the ~8k non-adjacent pairs
    enc = mk_encoder(3, load_coupling("eagle127"), [(0, 1), (1, 2), (0, 2)], steps=0)
    before = len(enc.cnf.clauses)
    enc.cnot_connection_constraints(0)
    added = len(enc.cnf.clauses) - before
    pairs = len(enc.logical_pairs)
    assert added <= pairs * (2 * len(enc.edges) + 2 * enc.n_p) + enc.m
