"""Shared helpers: exhaustive CNF model enumeration and step-encoding
model-level property checks, used by the encoder and acceptance tests."""
from __future__ import annotations

import numpy as np

from swapsat.cnf import CnfInstance
from swapsat.encoder import TwoWayEncoder


def exhaustive_models(cnf: CnfInstance, chunk_bits: int = 16) -> list[tuple[bool, ...]]:
    """All satisfying assignments by full truth-table sweep (vectorized)."""
    n = cnf.num_vars
    total = 1 << n
    step = 1 << min(chunk_bits, n)
    models = []
    for base in range(0, total, step):
        idx = np.arange(base, base + step, dtype=np.uint64)
        # each variable's bit column, computed once per chunk
        cols = [None] + [(idx >> np.uint64(v - 1)) & np.uint64(1) == 1 for v in range(1, n + 1)]
        alive = np.ones(step, dtype=bool)
        for clause in cnf.clauses:
            sat = np.zeros(step, dtype=bool)
            for lit in clause:
                sat |= cols[lit] if lit > 0 else ~cols[-lit]
            alive &= sat
            if not alive.any():
                break
        for i in np.flatnonzero(alive):
            val = int(idx[i])
            models.append(tuple(bool(val >> v & 1) for v in range(n)))
    return models


def check_model_properties(encoder: TwoWayEncoder, bits: tuple[bool, ...],
                           t_max: int) -> list[str]:
    """Violated encoding invariants for one model; empty list means clean."""
    reg = encoder.reg
    n_l, n_p, m = encoder.n_l, encoder.n_p, encoder.m
    val = lambda v: bits[v - 1]
    errors = []

    def mapping_at(t):
        mapping = {}
        for l in range(n_l):
            places = [p for p in range(n_p) if val(reg.map_var[(l, p, t)])]
            if len(places) != 1:
                errors.append(f"t={t}: logical {l} at {len(places)} places")
                return None
            mapping[l] = places[0]
        if len(set(mapping.values())) != n_l:
            errors.append(f"t={t}: mapping not injective")
            return None
        return mapping

    maps = []
    for t in range(t_max + 1):
        mapping = mapping_at(t)
        maps.append(mapping)
        if mapping is None:
            continue
        occupied = set(mapping.values())
        for p in range(n_p):
            if val(reg.mapped[(p, t)]) != (p in occupied):
                errors.append(f"t={t}: mapped_{p} inconsistent")
        # pair variable = adjacency of the images
        for (l, lp) in encoder.logical_pairs:
            adjacent = encoder.coupling.connected(mapping[l], mapping[lp])
            if val(reg.pair[((l, lp), t)]) != adjacent:
                errors.append(f"t={t}: pair({l},{lp}) != adjacency")
        # pair2 variable = images at distance two (bridge steps only)
        for ((l, lp), tt), v in reg.pair2.items():
            images = tuple(sorted((mapping[l], mapping[lp])))
            if tt == t and val(v) != (images in encoder.bridge_paths):
                errors.append(f"t={t}: pair2({l},{lp}) != distance two")
        # two-way status: exactly one of current/advanced/delayed
        for i in range(m):
            statuses = [val(reg.cnot[(i, t)]), val(reg.advance[(i, t)]),
                        val(reg.delay[(i, t)])]
            if sum(statuses) != 1:
                errors.append(f"t={t}: cnot {i} has {sum(statuses)} statuses")
        # assumption literal mirrors "nothing delayed"
        any_delay = any(val(reg.delay[(i, t)]) for i in range(m))
        if val(reg.assum[t]) == any_delay:
            errors.append(f"t={t}: assumption var inconsistent")

    # per-CNOT history must read d* c a* (or all delayed)
    for i in range(m):
        history = "".join(
            "c" if val(reg.cnot[(i, t)]) else "a" if val(reg.advance[(i, t)]) else "d"
            for t in range(t_max + 1)
        )
        stripped = history.lstrip("d")
        if stripped and (stripped[0] != "c" or stripped[1:].strip("a")):
            errors.append(f"cnot {i}: malformed history {history}")

    for t in range(1, t_max + 1):
        if maps[t - 1] is None or maps[t] is None:
            continue
        swaps_true = [e for e in encoder.edges if val(reg.swap[(e, t)])]
        bridges_true = [i for i in encoder.bridgeable if val(reg.bridge[(i, t)])]
        if len(swaps_true) + len(bridges_true) != 1:
            errors.append(f"t={t}: {len(swaps_true)} swaps + {len(bridges_true)} bridges")
            continue
        expected = dict(maps[t - 1])
        if swaps_true:
            (p, q) = swaps_true[0]
            for l, phys in expected.items():
                expected[l] = q if phys == p else p if phys == q else phys
        if expected != maps[t]:
            errors.append(f"t={t}: mapping does not replay the chosen action")
        if bridges_true:
            i = bridges_true[0]
            if not val(reg.cnot[(i, t)]):
                errors.append(f"t={t}: bridge on non-current cnot {i}")
            c, d = encoder.slice.pair(i)
            key = tuple(sorted((maps[t][c], maps[t][d])))
            if key not in encoder.bridge_paths:
                errors.append(f"t={t}: bridge images {key} not at distance 2")
    return errors
