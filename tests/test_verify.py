import os
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import CIRCUITS_DIR

from swapsat.circuit import GATE_PARAM_COUNTS, UNARY_GATES, Circuit, Gate
from swapsat.coupling import CouplingGraph, linear_graph
from swapsat.encoder import EncodeOptions
from swapsat.simulator import gate_matrix, simulate
from swapsat.synthesis import synthesize
from swapsat.verify import (
    VerifyReport,
    check_structural,
    check_unitary_equivalence,
    oracle_min_swaps,
)


def mk(n, spec):
    return Circuit(n, tuple(Gate(name, qubits, index=i)
                            for i, (name, qubits) in enumerate(spec)))


def test_swap_is_three_cnots():
    swap = mk(2, [("swap", (0, 1))])
    three = mk(2, [("cx", (0, 1)), ("cx", (1, 0)), ("cx", (0, 1))])
    assert np.array_equal(simulate(swap, np.eye(4)), simulate(three, np.eye(4)))


def test_bridge_ladder_is_distance2_cnot():
    # CX(m,d) CX(c,m) CX(m,d) CX(c,m) == CX(c,d) with c,m,d = 0,1,2
    direct = mk(3, [("cx", (0, 2))])
    ladder = mk(3, [("cx", (1, 2)), ("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 1))])
    assert np.array_equal(simulate(direct, np.eye(8)), simulate(ladder, np.eye(8)))


def test_parametric_gate_matrices():
    assert np.allclose(gate_matrix("u3", ("pi", "0", "pi")),
                       gate_matrix("x", ()), atol=1e-12)
    assert np.allclose(gate_matrix("u1", ("pi/2",)), gate_matrix("s", ()))
    rz = gate_matrix("rz", ("pi/2",))
    s = gate_matrix("s", ())
    # rz differs from u1 only by global phase
    assert np.allclose(rz * np.exp(1j * np.pi / 4), s)
    assert np.allclose(gate_matrix("u2", ("0", "pi")), gate_matrix("h", ()))


def test_basis_state_ordering():
    flip1 = mk(2, [("x", (1,))])
    zero = np.zeros((4, 1))
    zero[0] = 1.0
    psi = simulate(flip1, zero)  # |01>: qubit 0 is the high bit
    assert psi.shape == (4, 1) and psi[1, 0] == 1.0
    # column b of a batch is basis state b, row i amplitude i
    assert np.array_equal(simulate(flip1, np.eye(4)), np.eye(4)[[1, 0, 3, 2]])


_PAULIS = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.array([[1, 0], [0, -1]])]


def dense_unitary(circuit):
    """The circuit's 2**n x 2**n matrix from Kronecker products, qubit 0 first."""
    n = circuit.num_qubits

    def kron_at(ops):
        out = np.eye(1)
        for q in range(n):
            out = np.kron(out, ops.get(q, np.eye(2)))
        return out

    u = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        if g.name == "cx":
            c, t = g.qubits
            m = (kron_at({c: np.diag([1, 0])})
                 + kron_at({c: np.diag([0, 1]), t: _PAULIS[1]}))
        elif g.name == "swap":
            a, b = g.qubits
            m = sum(kron_at({a: p, b: p}) for p in _PAULIS) / 2
        else:
            m = kron_at({g.qubits[0]: gate_matrix(g.name, g.params)})
        u = m @ u
    return u


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_matches_kron_unitary(n):
    rng = random.Random(n)
    spec = [(name, (rng.randrange(n),)) for name in sorted(UNARY_GATES)]
    if n > 1:
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(4)]
        spec += [(name, order) for name in ("cx", "swap") for pair in pairs
                 for order in (pair, pair[::-1])]
    rng.shuffle(spec)
    circuit = Circuit(n, tuple(
        Gate(name, qubits, tuple(str(round(rng.uniform(-4, 4), 3))
                                 for _ in range(GATE_PARAM_COUNTS.get(name, 0))), index=i)
        for i, (name, qubits) in enumerate(spec)))
    u = dense_unitary(circuit)
    gen = np.random.default_rng(n)
    batch = gen.normal(size=(2**n, 3)) + 1j * gen.normal(size=(2**n, 3))
    before = batch.copy()
    assert np.allclose(simulate(circuit, batch), u @ batch, atol=1e-12)
    assert np.array_equal(batch, before)
    column = batch[:, :1]
    out = simulate(circuit, column)
    assert out.shape == (2**n, 1)
    assert np.allclose(out, u @ column, atol=1e-12)


def fixture_result(or_circuit):
    coupling = linear_graph(3)
    result = synthesize(or_circuit, coupling)
    return coupling, result


def test_structural_pass(or_circuit):
    coupling, result = fixture_result(or_circuit)
    report = check_structural(or_circuit, result.mapped_circuit, coupling, result.plan)
    assert report.passes() and report.first_violation is None


def drop_gate(circuit, index):
    gates = [g for g in circuit.gates if g.index != index]
    return Circuit(circuit.num_qubits,
                   tuple(replace(g, index=i) for i, g in enumerate(gates)),
                   circuit.name, circuit.qreg_name, circuit.cregs)


def test_structural_mutations_detected(or_circuit):
    coupling, result = fixture_result(or_circuit)
    mapped = result.mapped_circuit
    swap_idx = next(g.index for g in mapped.gates if g.name == "swap")
    report = check_structural(or_circuit, drop_gate(mapped, swap_idx),
                              coupling, result.plan)
    assert not report.passes()
    cx_idx = next(g.index for g in mapped.gates if g.name == "cx")
    report2 = check_structural(or_circuit, drop_gate(mapped, cx_idx),
                               coupling, result.plan)
    assert not report2.passes()
    assert not report2.gate_counts_ok


def test_structural_flipped_cnot_detected(or_circuit):
    coupling, result = fixture_result(or_circuit)
    mapped = result.mapped_circuit
    gates = list(mapped.gates)
    i = next(g.index for g in gates if g.name == "cx")
    gates[i] = replace(gates[i], qubits=(gates[i].qubits[1], gates[i].qubits[0]))
    mutated = Circuit(mapped.num_qubits, tuple(gates), mapped.name,
                      mapped.qreg_name, mapped.cregs)
    report = check_structural(or_circuit, mutated, coupling, result.plan)
    assert not report.mapping_consistent


@pytest.mark.parametrize("initial_map", [(0, 1), (0, 1, 2, 0), (0, 0, 1), (0, 1, 3)],
                         ids=["short", "long", "repeated", "off-device"])
def test_structural_reports_a_bad_initial_map(or_circuit, initial_map):
    coupling, result = fixture_result(or_circuit)
    plan = replace(result.plan, initial_map=initial_map)
    report = check_structural(or_circuit, result.mapped_circuit, coupling, plan)
    assert not report.mapping_consistent
    assert report.first_violation.startswith("initial map")


def test_unitary_pass_and_flip_detected(or_circuit):
    coupling, result = fixture_result(or_circuit)
    plan = result.plan
    assert check_unitary_equivalence(or_circuit, result.mapped_circuit,
                                     plan.initial_map, plan.final_map) is True
    gates = list(result.mapped_circuit.gates)
    i = next(g.index for g in gates if g.name == "cx")
    gates[i] = replace(gates[i], qubits=(gates[i].qubits[1], gates[i].qubits[0]))
    mutated = Circuit(3, tuple(gates))
    assert check_unitary_equivalence(or_circuit, mutated,
                                     plan.initial_map, plan.final_map) is False


def test_unitary_limit_skips_with_warning(or_circuit):
    coupling, result = fixture_result(or_circuit)
    with pytest.warns(UserWarning, match="skipped"):
        verdict = check_unitary_equivalence(or_circuit, result.mapped_circuit,
                                            result.plan.initial_map,
                                            result.plan.final_map, limit=2)
    assert verdict is None


def test_unitary_uses_ancilla_embedding():
    # routed on 4 qubits with only 2 logical ones
    circ = mk(2, [("h", (0,)), ("cx", (0, 1))])
    coupling = linear_graph(4)
    result = synthesize(circ, coupling)
    assert check_unitary_equivalence(circ, result.mapped_circuit,
                                     result.plan.initial_map,
                                     result.plan.final_map) is True


def with_gate(circuit, name, qubit):
    """`circuit` with one more one-qubit gate at the end, before any measure."""
    gates = [g for g in circuit.gates if g.name != "measure"]
    gates += [Gate(name, (qubit,))] + [g for g in circuit.gates if g.name == "measure"]
    return Circuit(circuit.num_qubits,
                   tuple(replace(g, index=i) for i, g in enumerate(gates)))


def test_unitary_rejects_mutants(or_circuit):
    coupling, result = fixture_result(or_circuit)
    mapped, plan = result.mapped_circuit, result.plan
    placed = plan.final_map[0]
    x_idx = next(g.index for g in mapped.gates if g.name == "x")
    swapped_final = (plan.final_map[1], plan.final_map[0]) + tuple(plan.final_map[2:])
    mutants = {
        # every overlap is 0, so their sum is too and fixes no phase
        "missing x": (drop_gate(mapped, x_idx), plan.final_map),
        # relative phases only: every overlap has modulus 1
        "extra z": (with_gate(mapped, "z", placed), plan.final_map),
        "extra s": (with_gate(mapped, "s", placed), plan.final_map),
        "swapped final map": (mapped, swapped_final),
    }
    for what, (circuit, final_map) in mutants.items():
        assert check_unitary_equivalence(or_circuit, circuit, plan.initial_map,
                                         final_map) is False, what


def test_unitary_rejects_ancilla_not_restored():
    circ = mk(2, [("h", (0,)), ("cx", (0, 1))])
    result = synthesize(circ, linear_graph(4))
    ancilla = next(p for p in range(4) if p not in result.plan.final_map)
    mutated = with_gate(result.mapped_circuit, "x", ancilla)
    assert check_unitary_equivalence(circ, mutated, result.plan.initial_map,
                                     result.plan.final_map) is False


def test_unitary_accepts_global_phase():
    theta = ("0.7",)
    spec = [("h", (0,), ()), ("rz", (0,), theta), ("cx", (0, 1), ()), ("ry", (1,), theta)]
    original = Circuit(2, tuple(Gate(name, q, p, index=i)
                                for i, (name, q, p) in enumerate(spec)))
    # u1(theta) = exp(i theta/2) rz(theta)
    mapped = Circuit(2, tuple(replace(g, name="u1") if g.name == "rz" else g
                              for g in original.gates))
    assert check_unitary_equivalence(original, mapped, (0, 1), (0, 1)) is True


def test_unitary_check_imports_no_numpy_random():
    # the check is deterministic; numpy.random costs megabytes of RSS to load
    code = ("import sys; from swapsat import *; "
            "c = parse_qasm(open(sys.argv[1]).read()); "
            "r = synthesize(c, load_coupling('linear-3')); "
            "assert check_unitary_equivalence(c, r.mapped_circuit, "
            "r.plan.initial_map, r.plan.final_map) is True; "
            "assert 'numpy.random' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code, str(CIRCUITS_DIR / "or.qasm")],
                   check=True, env=env, timeout=120)


def test_oracle_known_answers(or_circuit):
    lin3 = linear_graph(3)
    assert oracle_min_swaps(or_circuit, lin3, EncodeOptions()) == 2
    assert oracle_min_swaps(or_circuit, lin3, EncodeOptions(relaxed=True)) == 1
    assert oracle_min_swaps(or_circuit, lin3, EncodeOptions(bridges=True)) == 2
    assert oracle_min_swaps(
        or_circuit, lin3, EncodeOptions(bridges=True, relaxed=True)) == 1


def test_oracle_complete_graph_is_zero(or_circuit):
    complete = CouplingGraph(3, frozenset({(0, 1), (0, 2), (1, 2)}), "k3")
    assert oracle_min_swaps(or_circuit, complete, EncodeOptions()) == 0


def test_oracle_cap():
    # triangle interaction on a path, cap too small to reach a solution
    circ = mk(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
    assert oracle_min_swaps(circ, linear_graph(3), EncodeOptions(), cap=0) is None
    assert oracle_min_swaps(circ, linear_graph(3), EncodeOptions(), cap=5) == 1


def test_oracle_ancillary_modes_differ():
    # one CNOT, far apart on a path; ancilla swaps only help when allowed
    circ = mk(2, [("cx", (0, 1))])
    lin4 = linear_graph(4)
    with_anc = oracle_min_swaps(circ, lin4, EncodeOptions(ancillary=True))
    without = oracle_min_swaps(circ, lin4, EncodeOptions(ancillary=False))
    assert with_anc == 0 and without == 0  # free placement already adjacent
    # force a non-trivial case: chain of interactions on a star
    star = CouplingGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}), "star")
    tri = mk(3, [("cx", (0, 1)), ("cx", (1, 2)), ("cx", (0, 2))])
    assert oracle_min_swaps(tri, star, EncodeOptions(ancillary=True)) <= \
        oracle_min_swaps(tri, star, EncodeOptions(ancillary=False))


def test_report_passes_api():
    good = VerifyReport(True, True, True, True)
    assert good.passes()
    assert not VerifyReport(True, False, True, True, "x").passes()
