"""Per-layer spans and counters, recorded from outside swapsat.

``Tracer`` wraps the public functions where ``swapsat.synthesis.synthesize``
looks them up (the module imports them by name), the public constraint
methods of ``TwoWayEncoder``, and the ``solve`` method of each solver that
``make_solver`` returns.  Spans stay in memory until ``write``; ``restore``
puts every original back.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

FAMILIES = {
    "swap_constraints": "swap",
    "ancillary_constraints": "ancillary",
    "cnot_connection_constraints": "connection",
    "bridge_constraints": "bridge",
    "cnot_dependency_constraints": "dependency",
}

# per-layer timers fed by wrapped functions: metric name -> function name
TIMED = {
    "circuit.slice_s": "extract_cnot_slice",
    "dag.build_s": ("build_dependency_dag", "build_relaxed_dag"),
    "synthesis.decode_s": "decode_model",
    "synthesis.reconstruct_s": "reconstruct",
    "synthesis.metrics_s": "compute_metrics",
}


class Tracer:
    def __init__(self, swapsat_synthesis):
        self.mod = swapsat_synthesis
        self.encoder_cls = swapsat_synthesis.TwoWayEncoder
        self.spans: list[tuple] = []      # (name, start, end, parent, instance)
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.instance = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.instance)
                tracer.times[name] += end - start

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mod, enc = self.mod, self.encoder_cls
        for fname in ("extract_cnot_slice", "decode_model", "reconstruct", "compute_metrics"):
            self._patch(mod, fname, self.span(fname, getattr(mod, fname)))
        for fname in ("build_dependency_dag", "build_relaxed_dag"):
            self._patch(mod, fname, self._dag(fname, getattr(mod, fname)))
        self._patch(mod, "make_solver", self._solver_factory(mod.make_solver))
        self._patch(enc, "__init__", self.span("encoder.init", enc.__init__))
        self._patch(enc, "build_step", self._build_step(enc.build_step))
        for method, family in FAMILIES.items():
            self._patch(enc, method, self._family(family, getattr(enc, method)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers that also count ------------------------------------------

    def _dag(self, name, fn):
        timed = self.span(name, fn)

        def wrapper(*args, **kwargs):
            dag = timed(*args, **kwargs)
            self.counts["dag.edges"] += sum(len(p) for p in dag.pre)
            return dag

        return wrapper

    def _family(self, family, method):
        timed = self.span(f"encoder.{family}", method)

        def wrapper(encoder, t):
            before = len(encoder.cnf.clauses)
            timed(encoder, t)
            self.counts[f"encoder.clauses.{family}"] += len(encoder.cnf.clauses) - before

        return wrapper

    def _build_step(self, method):
        timed = self.span("encoder.build_step", method)

        def wrapper(encoder, t):
            cnf = encoder.cnf
            clauses0, vars0 = len(cnf.clauses), cnf.num_vars
            families0 = sum(self.counts[f"encoder.clauses.{f}"] for f in FAMILIES.values())
            timed(encoder, t)
            added = len(cnf.clauses) - clauses0
            by_family = sum(self.counts[f"encoder.clauses.{f}"]
                            for f in FAMILIES.values()) - families0
            self.counts["encoder.clauses"] += added
            self.counts["encoder.clauses.other"] += added - by_family
            self.counts["encoder.vars"] += cnf.num_vars - vars0
            self.counts["synthesis.steps"] += 1

        return wrapper

    def _solver_factory(self, make_solver):
        tracer = self

        def wrapper(*args, **kwargs):
            solver = make_solver(*args, **kwargs)
            solve = tracer.span("solver.solve", solver.solve)
            last = {"conflicts": 0, "decisions": 0, "propagations": 0}

            def traced_solve(*a, **kw):
                start = time.perf_counter()
                result = solve(*a, **kw)
                elapsed = time.perf_counter() - start
                status = result.status.value.lower()
                tracer.times[f"solver.{status}_s"] += elapsed
                tracer.counts["solver.calls"] += 1
                # stats hold running totals since the solver was built
                for key in last:
                    now = result.stats.get(key, last[key])
                    tracer.counts[f"solver.{key}"] += now - last[key]
                    last[key] = now
                if status == "sat":
                    tracer.counts["solver.learned"] += len(getattr(solver, "learned", ()))
                return result

            solver.solve = traced_solve
            return solver

        return wrapper

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        t, c = self.times, self.counts
        solve_s = t["solver.sat_s"] + t["solver.unsat_s"]
        out = {
            "solver.calls": (c["solver.calls"], "count"),
            "solver.unsat_s": (t["solver.unsat_s"], "s"),
            "solver.sat_s": (t["solver.sat_s"], "s"),
            "solver.conflicts": (c["solver.conflicts"], "count"),
            "solver.decisions": (c["solver.decisions"], "count"),
            "solver.propagations": (c["solver.propagations"], "count"),
            "solver.props_per_s": (c["solver.propagations"] / solve_s if solve_s else 0.0, "1/s"),
            "solver.learned": (c["solver.learned"], "count"),
            "encoder.init_s": (t["encoder.init"], "s"),
            "encoder.build_s": (t["encoder.build_step"], "s"),
            "encoder.vars": (c["encoder.vars"], "count"),
            "encoder.clauses": (c["encoder.clauses"], "count"),
            "synthesis.steps": (c["synthesis.steps"], "count"),
            "dag.edges": (c["dag.edges"], "count"),
        }
        for family in list(FAMILIES.values()) + ["other"]:
            out[f"encoder.clauses.{family}"] = (c[f"encoder.clauses.{family}"], "count")
        for metric, fnames in TIMED.items():
            fnames = (fnames,) if isinstance(fnames, str) else fnames
            out[metric] = (sum(t[f] for f in fnames), "s")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, instance in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance}) + "\n")
