import random
import shlex
import sys
from pathlib import Path

import pytest

from swapsat.circuit import Circuit, Gate
from swapsat.qasm import parse_qasm

CIRCUITS_DIR = Path(__file__).resolve().parent.parent / "circuits"

# The bundled DIMACS front-end as an external solver command; it needs no
# installed console script, only the interpreter running the tests.
DIMACS_COMMAND = f"{shlex.quote(sys.executable)} -m swapsat.dimacs_cli"

# Filled by test_acceptance.py; reported once at the end of the run.
CRITERION_RESULTS: dict[int, tuple[str, bool]] = {}


def record_criterion(num: int, description: str, ok: bool) -> None:
    CRITERION_RESULTS[num] = (description, ok)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERION_RESULTS):
        description, ok = CRITERION_RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict} - {description}")

UNARY_POOL = ["x", "h", "t", "tdg", "s", "sdg", "z"]


@pytest.fixture(scope="session")
def or_circuit() -> Circuit:
    return parse_qasm((CIRCUITS_DIR / "or.qasm").read_text(), name="or")


@pytest.fixture(scope="session")
def circuits_dir() -> Path:
    return CIRCUITS_DIR


def random_circuit(rng: random.Random, n_qubits: int, n_cx: int,
                   unary_prob: float = 0.35) -> Circuit:
    """Random cx circuit with interleaved unary gates, no measures."""
    gates = []
    for _ in range(n_cx):
        if rng.random() < unary_prob:
            gates.append((rng.choice(UNARY_POOL), (rng.randrange(n_qubits),)))
        c, d = rng.sample(range(n_qubits), 2)
        gates.append(("cx", (c, d)))
    return Circuit(n_qubits,
                   tuple(Gate(n, q, index=i) for i, (n, q) in enumerate(gates)))
