"""Acceptance suite.  Each criterion records one PASS/FAIL summary line."""
import random
import time
from dataclasses import dataclass

import pytest

from conftest import DIMACS_COMMAND, random_circuit, record_criterion
from encoding_checks import check_model_properties, exhaustive_models
from swapsat.circuit import Circuit, Gate, extract_cnot_slice
from swapsat.cli import COMBOS
from swapsat.coupling import grid_graph, linear_graph, load_coupling
from swapsat.dag import build_dependency_dag
from swapsat.encoder import EncodeOptions, TwoWayEncoder
from swapsat.solver import InternalSolver, Status, make_solver, solve
from swapsat.synthesis import Limits, build_dag, synthesize
from swapsat.verify import check_structural, check_unitary_equivalence, oracle_min_swaps

CORPUS_SIZE = 200


def certificate_holds(circuit, options, coupling, k, solver_spec="internal"):
    """Fresh instance: the k-1 step bound must be refuted."""
    slice_ = extract_cnot_slice(circuit)
    dag = build_dag(slice_, circuit, options.relaxed)
    enc = TwoWayEncoder(circuit.num_qubits, slice_, dag, coupling, options)
    solver = make_solver(enc.cnf, solver_spec)
    for t in range(k):
        enc.build_step(t)
        if solver.solve([enc.assumption_literal(t)]).status is not Status.UNSAT:
            return False
    return True


@dataclass
class CorpusRun:
    total: int = 0
    oracle_mismatches: int = 0
    structural_failures: int = 0
    unitary_failures: int = 0
    certificate_failures: int = 0
    monotonicity_failures: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="session")
def corpus_run():
    """One pass over the random corpus, shared by criteria 3, 4, 5 and 7."""
    rng = random.Random(2024)
    platforms = [linear_graph(4), linear_graph(5), grid_graph(2, 3)]
    run = CorpusRun()
    start = time.monotonic()
    certificates_checked = 0
    for _ in range(CORPUS_SIZE):
        n_l = rng.randint(3, 5)
        circuit = random_circuit(rng, n_l, rng.randint(2, 12))
        coupling = rng.choice([p for p in platforms if p.num_physical >= n_l])
        for ancillary in (True, False):
            counts = {}
            for combo, base in COMBOS.items():
                options = EncodeOptions(ancillary=ancillary, bridges=base.bridges,
                                        relaxed=base.relaxed)
                result = synthesize(circuit, coupling, options, Limits(time_limit=120))
                run.total += 1
                if result.plan is None:
                    run.oracle_mismatches += 1
                    continue
                k = result.metrics["swaps"] + result.metrics["bridges"]
                counts[combo] = k
                expected = oracle_min_swaps(circuit, coupling, options, cap=15)
                if k != expected:
                    run.oracle_mismatches += 1
                report = check_structural(circuit, result.mapped_circuit, coupling,
                                          result.plan, relaxed=options.relaxed)
                if not report.passes():
                    run.structural_failures += 1
                if check_unitary_equivalence(
                        circuit, result.mapped_circuit, result.plan.initial_map,
                        result.plan.final_map) is not True:
                    run.unitary_failures += 1
                if k >= 1 and certificates_checked < 300:
                    certificates_checked += 1
                    if not certificate_holds(circuit, options, coupling, k):
                        run.certificate_failures += 1
            if len(counts) == 4:
                if counts["SR"] > counts["S"] or counts["SB"] > counts["S"] \
                        or counts["SBR"] > min(counts["SB"], counts["SR"]):
                    run.monotonicity_failures += 1
    run.elapsed = time.monotonic() - start
    return run


def test_criterion_1_worked_example(or_circuit):
    lin3 = linear_graph(3)
    t0 = time.monotonic()
    strict = synthesize(or_circuit, lin3)
    strict_time = time.monotonic() - t0
    t0 = time.monotonic()
    relaxed = synthesize(or_circuit, lin3, EncodeOptions(relaxed=True))
    relaxed_time = time.monotonic() - t0
    ok = (strict.metrics["swaps"] == 2 and strict.metrics["bridges"] == 0
          and relaxed.metrics["swaps"] + relaxed.metrics["bridges"] == 1
          and strict_time < 1.0 and relaxed_time < 1.0)
    for result, rel in ((strict, False), (relaxed, True)):
        report = check_structural(or_circuit, result.mapped_circuit, lin3,
                                  result.plan, relaxed=rel)
        equiv = check_unitary_equivalence(or_circuit, result.mapped_circuit,
                                          result.plan.initial_map,
                                          result.plan.final_map)
        ok = ok and report.passes() and equiv is True
    record_criterion(1, "worked example: linear-3 strict=2, relaxed=1, "
                        "verified, < 1 s each", ok)
    assert ok


def test_criterion_2_melbourne_row(or_circuit):
    melbourne = load_coupling("melbourne")
    expected = {"S": 2, "SB": 2, "SR": 1, "SBR": 1}
    start = time.monotonic()
    got = {}
    for combo, options in COMBOS.items():
        result = synthesize(or_circuit, melbourne, options, Limits(time_limit=600))
        got[combo] = result.metrics["swaps"] + result.metrics["bridges"]
    elapsed = time.monotonic() - start
    ok = got == expected and elapsed < 30.0
    record_criterion(2, f"melbourne S/SB/SR/SBR = "
                        f"{got.get('S')}/{got.get('SB')}/{got.get('SR')}/"
                        f"{got.get('SBR')} in {elapsed:.1f} s", ok)
    assert ok


def test_criterion_3_oracle_equivalence(corpus_run):
    ok = (corpus_run.oracle_mismatches == 0
          and corpus_run.total == CORPUS_SIZE * 8
          and corpus_run.elapsed < 600.0)
    record_criterion(3, f"{corpus_run.total} corpus runs match the oracle "
                        f"({corpus_run.oracle_mismatches} mismatches, "
                        f"{corpus_run.elapsed:.0f} s)", ok)
    assert ok


def test_criterion_4_soundness(corpus_run):
    ok = (corpus_run.structural_failures == 0
          and corpus_run.unitary_failures == 0)
    record_criterion(4, f"structural failures {corpus_run.structural_failures}, "
                        f"unitary failures {corpus_run.unitary_failures}", ok)
    assert ok


def test_criterion_5_optimality_certificates(corpus_run, or_circuit):
    external_ok = certificate_holds(or_circuit, EncodeOptions(), linear_graph(3), 2,
                                    "external:" + DIMACS_COMMAND)
    ok = corpus_run.certificate_failures == 0 and external_ok
    record_criterion(5, f"certificate failures {corpus_run.certificate_failures}, "
                        f"external backend re-check "
                        f"{'ok' if external_ok else 'FAILED'}", ok)
    assert ok


def test_criterion_6_model_enumeration():
    violations = 0
    models_seen = 0

    def sweep(enc, t_max):
        nonlocal violations, models_seen
        for bits in exhaustive_models(enc.cnf):
            models_seen += 1
            violations += len(check_model_properties(enc, bits, t_max))

    def build(n_l, coupling, pairs, options, steps):
        circ = Circuit(n_l, tuple(Gate("cx", p, index=i)
                                  for i, p in enumerate(pairs)))
        slice_ = extract_cnot_slice(circ)
        dag = build_dependency_dag(slice_, circ)
        enc = TwoWayEncoder(n_l, slice_, dag, coupling, options)
        for t in range(steps + 1):
            enc.build_step(t)
        return enc

    # t=0 instances stay under 22 variables; full truth-table sweeps
    sweep(build(2, linear_graph(3), [(0, 1)], EncodeOptions(), 0), 0)
    sweep(build(2, linear_graph(3), [(0, 1)], EncodeOptions(ancillary=False), 0), 0)
    sweep(build(3, linear_graph(3), [(0, 1), (1, 2)], EncodeOptions(), 0), 0)
    # one-step instance (25 vars): swap choice, frame and replay properties
    sweep(build(2, linear_graph(2), [(0, 1)], EncodeOptions(), 1), 1)

    # cross-check the exhaustive count against blocking-clause enumeration
    enc = build(2, linear_graph(2), [(0, 1)], EncodeOptions(), 1)
    exhaustive_count = len(exhaustive_models(enc.cnf))
    solver = InternalSolver(enc.cnf)
    blocked = 0
    while True:
        result = solver.solve()
        if result.status is not Status.SAT:
            break
        blocked += 1
        enc.cnf.add_clause([-v if result.model[v] else v
                            for v in range(1, enc.cnf.num_vars + 1)])
    ok = violations == 0 and models_seen > 0 and blocked == exhaustive_count
    record_criterion(6, f"{models_seen} enumerated models, "
                        f"{violations} property violations", ok)
    assert ok


def test_criterion_7_monotone_options(corpus_run):
    ok = corpus_run.monotonicity_failures == 0
    record_criterion(7, f"monotonicity violations "
                        f"{corpus_run.monotonicity_failures} "
                        f"(opt SR<=S, SB<=S, SBR<=min)", ok)
    assert ok
