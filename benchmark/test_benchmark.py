"""Tests of the benchmark's own checks.

    python3 -m pytest benchmark -q

Each reference check must reject a corrupted result, and the independent
searches must agree with swapsat's brute-force oracle.
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import swapsat  # noqa: E402
import swapsat.synthesis  # noqa: E402
from tracing import Tracer  # noqa: E402


def _options(inst):
    return swapsat.EncodeOptions(ancillary=inst["ancillas"], bridges=inst["bridges"],
                                 relaxed=inst["relaxed"])


def _map(inst) -> dict:
    """The worker's result record for one instance."""
    result = swapsat.synthesize(swapsat.parse_qasm(inst["qasm"]),
                                swapsat.load_coupling(inst["platform"]), _options(inst))
    return {"qasm": swapsat.emit_qasm(result.mapped_circuit),
            "plan": swapsat.plan_to_dict(result.plan),
            "swaps": result.metrics["swaps"], "bridges": result.metrics["bridges"],
            "depth_after": result.metrics["depth_after"]}


def _first(pred):
    for inst in inputs.small_corpus(0):
        if pred(inst):
            res = _map(inst)
            if pred(inst, res):
                return inst, res
    raise LookupError("no instance of the wanted kind")


@pytest.fixture(scope="module")
def swapped():
    """An instance whose optimal result has SWAPs and no bridges."""
    return _first(lambda i, r=None: i["combo"] == "S" and i["optimum"] >= 2
                  and (r is None or r["swaps"] >= 2))


@pytest.fixture(scope="module")
def bridged():
    """An instance whose optimal result has a bridge."""
    return _first(lambda i, r=None: i["bridges"] and i["optimum"] >= 1
                  and (r is None or r["bridges"] >= 1))


def test_sound_results_pass(swapped, bridged):
    for inst, res in (swapped, bridged):
        assert run.check([inst], [res]) == []


def test_dropped_swap_is_rejected(swapped):
    inst, res = swapped
    lines = res["qasm"].splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("swap "))
    bad = dict(res, qasm="\n".join(lines[:k] + lines[k + 1:]) + "\n")
    assert any("replay" in p for p in run.check([inst], [bad]))


def test_dropped_bridge_gate_is_rejected(bridged):
    inst, res = bridged
    _n, mapped = reference.parse_qasm(res["qasm"])
    _np, edges = reference.platform_edges(inst["platform"])
    nbrs = reference._adjacency(_np, edges)
    k = next(k for k in range(len(mapped))
             if reference._is_ladder(mapped, k, set(edges), nbrs))
    lines = res["qasm"].splitlines()
    header = len(lines) - len(mapped)
    del lines[header + k + 1]
    bad = dict(res, qasm="\n".join(lines) + "\n")
    assert any("replay" in p for p in run.check([inst], [bad]))


def test_cnot_on_non_edge_is_rejected(swapped):
    inst, res = swapped
    n_p, edges = reference.platform_edges(inst["platform"])
    p, q = next((p, q) for p in range(n_p) for q in range(p + 1, n_p) if (p, q) not in edges)
    lines = res["qasm"].splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("cx "))
    reg = lines[k].split()[1].split("[")[0]
    lines[k] = f"cx {reg}[{p}],{reg}[{q}];"
    problems = run.check([inst], [dict(res, qasm="\n".join(lines) + "\n")])
    assert any("not on a device edge" in p for p in problems)


def test_miscounted_total_is_rejected(swapped):
    inst, res = swapped
    problems = run.check([inst], [dict(res, swaps=res["swaps"] + 1)])
    assert any("reference optimum" in p for p in problems)
    assert any("plan actions disagree" in p for p in problems)


def test_wrong_optimum_is_rejected(swapped):
    inst, res = swapped
    problems = run.check([dict(inst, optimum=inst["optimum"] - 1)], [res])
    assert any("reference optimum" in p for p in problems)


def test_wrong_unitary_is_rejected(swapped):
    inst, res = swapped
    lines = res["qasm"].splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("swap "))
    reg = lines[k].split()[1].split("[")[0]
    q = lines[k].split("[")[1].split("]")[0]
    lines.insert(k, f"h {reg}[{q}];")
    assert reference.statevector_equal(inputs.original_gates(inst), inst["num_qubits"],
                                       "\n".join(lines), res["plan"]["initial_map"],
                                       res["plan"]["final_map"]) is False


def test_wrong_final_map_is_rejected(swapped):
    inst, res = swapped
    bad = copy.deepcopy(res)
    fm = bad["plan"]["final_map"]
    fm[0], fm[1] = fm[1], fm[0]
    assert any("plan says" in p for p in run.check([inst], [bad]))


def test_wrong_depth_is_rejected(swapped):
    inst, res = swapped
    assert any("depth" in p for p in run.check([inst], [dict(res, depth_after=0)]))


def test_broken_monotonicity_is_rejected():
    good = {("c", "p", "S", True): 3, ("c", "p", "SR", True): 2, ("c", "p", "SB", True): 2,
            ("c", "p", "SBR", True): 1, ("c", "p", "S", False): 4}
    assert reference.monotonicity_violations(good) == []
    for key, value in [(("c", "p", "SR", True), 4), (("c", "p", "SBR", True), 3),
                       (("c", "p", "S", False), 2)]:
        assert reference.monotonicity_violations({**good, key: value})


def test_bfs_agrees_with_swapsat_oracle():
    for inst in inputs.small_corpus(3)[:40]:
        oracle = swapsat.oracle_min_swaps(swapsat.parse_qasm(inst["qasm"]),
                                          swapsat.load_coupling(inst["platform"]),
                                          _options(inst))
        assert oracle == inst["optimum"], inst["circuit"]


def test_subgraph_search_agrees_with_full_search():
    n_p, edges = reference.platform_edges("grid-2x3")
    checked = 0
    for inst in inputs.small_corpus(5):
        gates = inputs.original_gates(inst)
        if not inst["ancillas"] or not reference.interaction_connected(inst["num_qubits"], gates):
            continue
        full = reference.bfs_optimum(inst["num_qubits"], gates, n_p, edges,
                                     bridges=inst["bridges"], relaxed=inst["relaxed"],
                                     ancillas=True)
        sub = reference.subgraph_optimum(inst["num_qubits"], gates, n_p, edges,
                                         bridges=inst["bridges"], relaxed=inst["relaxed"])
        assert sub == full, inst["circuit"]
        checked += 1
    assert checked >= 20


def test_same_seed_same_inputs():
    for workload in inputs.WORKLOADS.values():
        assert workload(4) == workload(4)


def test_stored_deep_ladder_optima_hold():
    for inst in inputs.deep_ladder(0):
        if inst["platform"] == "melbourne":
            continue  # tens of seconds of search; inputs.py --write-deep-ladder redoes it
        n_p, edges = reference.platform_edges(inst["platform"])
        opt = reference.bfs_optimum(inst["num_qubits"], inputs.original_gates(inst), n_p,
                                    edges, bridges=inst["bridges"], relaxed=inst["relaxed"],
                                    ancillas=True)
        assert opt == inst["optimum"], inst["circuit"]


def test_tracer_counts_repeat_and_restore():
    inst = next(i for i in inputs.small_corpus(0) if i["combo"] == "SB" and i["optimum"] >= 1)
    originals = {name: getattr(swapsat.synthesis, name)
                 for name in ("make_solver", "decode_model", "build_dependency_dag")}
    counts = []
    for _ in range(2):
        tracer = Tracer(swapsat.synthesis)
        tracer.install()
        try:
            _map(inst)
        finally:
            tracer.restore()
        counts.append(dict(tracer.counts))
        assert all(span is not None for span in tracer.spans)
    assert counts[0] == counts[1]
    assert counts[0]["solver.calls"] == inst["optimum"] + 1
    assert counts[0]["encoder.clauses"] == sum(
        v for k, v in counts[0].items() if k.startswith("encoder.clauses."))
    for name, fn in originals.items():
        assert getattr(swapsat.synthesis, name) is fn
