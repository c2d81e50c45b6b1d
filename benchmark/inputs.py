"""Workload inputs and their reference optima, made without any swapsat code.

Each workload has a fixed set of circuit skeletons: the two-qubit gates and
the kinds of single-qubit gates, drawn from a generator with a fixed seed
and screened by the breadth-first reference search.  The run's --seed
chooses the rotation angles, the register name and the order in which the
instances are mapped.  None of these change the SAT instances swapsat
solves, so two runs do the same search work and their spread measures the
machine, not the inputs.

An instance is a dict with the OpenQASM text handed to swapsat, the
platform spec, the options and the reference optimum.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from reference import (bfs_optimum, emit_qasm, interaction_connected, parse_qasm,
                       platform_edges, subgraph_optimum)

HERE = Path(__file__).resolve().parent
CIRCUITS_DIR = HERE.parent / "circuits"
DEEP_FILE = HERE / "deep_ladder.json"

COMBOS = {"S": (False, False), "SB": (True, False), "SR": (False, True), "SBR": (True, True)}
UNARY = ["h", "t", "tdg", "s", "sdg", "z", "x", "rz"]
REGISTERS = ["q", "qr", "qubits", "data"]

SMALL_PLATFORMS = ["linear-4", "linear-5", "grid-2x3"]
SMALL_CIRCUITS = 27          # x 8 option sets = 216 synthesize calls per round
SMALL_MAX_OPTIMUM = 3        # S optimum with ancillas; see small_corpus
# platform -> (circuits, least S optimum, greatest S optimum)
DEEP = {"linear-5": (1, 3, 4), "linear-6": (2, 3, 4), "grid-2x3": (2, 3, 4),
        "melbourne": (1, 2, 3)}
DEEP_SCREEN_S = 3.0          # candidates swapsat cannot map this fast are dropped

# (circuit, platform, combo): the paper's regime, bundled circuits on large devices.
# ring5 on eagle127 is left out: it does not finish (see README.md).
LARGE = [
    ("bv4", "sycamore54", "S"), ("ghz4", "sycamore54", "S"), ("or", "sycamore54", "S"),
    ("bv4", "rigetti80", "S"), ("ghz4", "rigetti80", "S"), ("ring5", "rigetti80", "S"),
    ("bv4", "eagle127", "S"), ("ghz4", "eagle127", "S"), ("or", "eagle127", "S"),
    ("or", "sycamore54", "SR"), ("or", "rigetti80", "SR"), ("ghz4", "eagle127", "SB"),
]


def _optimum(n, gates, platform, combo, ancillas, cap=12):
    """Reference optimum, or None above ``cap``: plain breadth-first search on
    small devices, the subgraph search on large ones."""
    n_p, edges = platform_edges(platform)
    bridges, relaxed = COMBOS[combo]
    if n_p <= 6:
        return bfs_optimum(n, gates, n_p, edges, bridges=bridges, relaxed=relaxed,
                           ancillas=ancillas, cap=cap)
    if not ancillas or not interaction_connected(n, gates):
        raise ValueError("the subgraph search needs ancillas and connected two-qubit gates")
    return subgraph_optimum(n, gates, n_p, edges, bridges=bridges, relaxed=relaxed, cap=cap)


def _instantiate(workload, seed, skeletons):
    """Instances for one run: skeletons with the seed's angles, register and order.

    ``skeletons`` holds (key, platform, combo, ancillas, n, gates, optimum).
    """
    rng = random.Random(f"{workload}/{seed}")
    reg = rng.choice(REGISTERS)
    angles = {}
    out = []
    for key, platform, combo, ancillas, n, gates, optimum in skeletons:
        if key not in angles:
            angles[key] = [f"{rng.uniform(-3.1, 3.1):.6f}" for _ in gates]
        gates = [(g[0], g[1], (angles[key][i],) if g[0] == "rz" else g[2], g[3])
                 for i, g in enumerate(gates)]
        bridges, relaxed = COMBOS[combo]
        out.append({"circuit": key, "platform": platform, "combo": combo,
                    "ancillas": ancillas, "bridges": bridges, "relaxed": relaxed,
                    "num_qubits": n, "qasm": emit_qasm(n, gates, reg), "optimum": optimum})
    rng.shuffle(out)
    return out


def small_corpus(seed: int) -> list[dict]:
    """Tiny random circuits under every option set, with and without ancillas.

    A circuit is kept when its S optimum is at most SMALL_MAX_OPTIMUM: the
    solver time grows steeply with the optimum (README.md), and one circuit
    with optimum 5 would take longer than all the others together.
    """
    rng = random.Random("small-corpus/skeleton")
    skeletons = []
    c = 0
    while c < SMALL_CIRCUITS:
        platform = SMALL_PLATFORMS[c % len(SMALL_PLATFORMS)]
        n = rng.randint(3, min(5, platform_edges(platform)[0]))
        gates = []
        for _ in range(rng.randint(2, 12)):
            if rng.random() < 0.5:
                gates.append((rng.choice(UNARY), (rng.randrange(n),), (), ()))
            a, b = rng.sample(range(n), 2)
            gates.append(("cx", (a, b), (), ()))
        if _optimum(n, gates, platform, "S", True, cap=SMALL_MAX_OPTIMUM) is None:
            continue
        for combo in COMBOS:
            for anc in (True, False):
                skeletons.append((f"s{c}", platform, combo, anc, n, gates,
                                  _optimum(n, gates, platform, combo, anc)))
        c += 1
    return _instantiate("small-corpus", seed, skeletons)


def deep_ladder_skeletons() -> list[list]:
    """Circuits whose CNOTs follow a slowly drifting line order: a few SWAPs
    suffice, but the UNSAT ladder before them is long.  Kept when the S
    optimum is in the platform's range and swapsat maps the circuit under S
    and SBR within DEEP_SCREEN_S each; the time on some candidates grows far
    beyond that (see README.md), and one such instance would swamp the rest.

    The search on melbourne takes tens of seconds, so the result is stored in
    deep_ladder.json; ``python3 benchmark/inputs.py --write-deep-ladder``
    computes it anew.  Only this screen imports swapsat."""
    rng = random.Random("deep-ladder/skeleton")
    skeletons = []
    for platform, (count, lo, hi) in DEEP.items():
        kept = 0
        while kept < count:
            n = rng.randint(5, 6) if platform != "linear-5" else 5
            order = list(range(n))
            rng.shuffle(order)
            m = rng.randint(12, 18)
            drift = rng.randint(2, 5)
            gates = []
            for _ in range(m):
                if rng.random() < drift / m:
                    i = rng.randrange(n - 1)
                    order[i], order[i + 1] = order[i + 1], order[i]
                i = rng.randrange(n - 1)
                a, b = order[i], order[i + 1]
                if rng.random() < 0.5:
                    a, b = b, a
                if rng.random() < 0.4:
                    gates.append((rng.choice(UNARY), (a,), (), ()))
                gates.append(("cx", (a, b), (), ()))
            if not interaction_connected(n, gates):
                continue
            opt_s = _optimum(n, gates, platform, "S", True, cap=hi)
            if opt_s is None or not lo <= opt_s <= hi or not _maps_fast(n, gates, platform):
                continue
            key = f"d-{platform}-{kept}"
            skeletons.append((key, platform, "S", True, n, gates, opt_s))
            skeletons.append((key, platform, "SBR", True, n, gates,
                              _optimum(n, gates, platform, "SBR", True, cap=opt_s)))
            kept += 1
    return skeletons


def _maps_fast(n, gates, platform) -> bool:
    sys.path.insert(0, str(HERE.parent / "src"))
    import swapsat

    angled = [(g[0], g[1], ("0.5",) if g[0] == "rz" else g[2], g[3]) for g in gates]
    circuit = swapsat.parse_qasm(emit_qasm(n, angled))
    coupling = swapsat.load_coupling(platform)
    for combo in ("S", "SBR"):
        bridges, relaxed = COMBOS[combo]
        result = swapsat.synthesize(circuit, coupling,
                                    swapsat.EncodeOptions(bridges=bridges, relaxed=relaxed),
                                    swapsat.Limits(time_limit=DEEP_SCREEN_S))
        if result.plan is None:
            print(f"screened out on {platform} under {combo}:\n{emit_qasm(n, angled)}",
                  file=sys.stderr)
            return False
    return True


def deep_ladder(seed: int) -> list[dict]:
    skeletons = json.loads(DEEP_FILE.read_text())
    return _instantiate("deep-ladder", seed, [
        (k, p, c, a, n, [(g[0], tuple(g[1]), tuple(g[2]), ()) for g in gates], opt)
        for k, p, c, a, n, gates, opt in skeletons])


def large_device(seed: int) -> list[dict]:
    """The bundled circuits on 54-, 80- and 127-qubit devices."""
    skeletons = []
    for name, platform, combo in LARGE:
        n, gates = parse_qasm((CIRCUITS_DIR / f"{name}.qasm").read_text())
        skeletons.append((name, platform, combo, True, n, gates,
                          _optimum(n, gates, platform, combo, True)))
    return _instantiate("large-device", seed, skeletons)


WORKLOADS = {"large-device": large_device, "deep-ladder": deep_ladder,
             "small-corpus": small_corpus}


def original_gates(instance: dict) -> list[tuple]:
    return parse_qasm(instance["qasm"])[1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-deep-ladder"]:
        sys.exit("usage: python3 benchmark/inputs.py --write-deep-ladder")
    DEEP_FILE.write_text(json.dumps(deep_ladder_skeletons()) + "\n")
