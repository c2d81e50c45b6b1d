"""SAT solving: a bundled incremental CDCL solver and an external DIMACS backend.

The internal solver is bound to one CnfInstance and ingests newly appended
clauses on each solve() call, keeping learned clauses (sound because clauses
are only ever added).  Assumptions are handled as forced first decisions.
The external backend re-solves from scratch through a DIMACS subprocess with
assumptions emulated as unit clauses.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from enum import Enum
from heapq import heapify, heappop, heappush

from .cnf import CnfInstance


class Status(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    UNKNOWN = "UNKNOWN"


class SolverError(RuntimeError):
    """Internal inconsistency or backend failure."""


@dataclass
class SolveResult:
    status: Status
    model: list[bool] | None = None  # indexed 1..n, entry 0 unused
    stats: dict = field(default_factory=dict)


_TRUE, _FALSE, _UNDEF = 1, -1, 0


def _check_model(instance: CnfInstance, model: list[bool]) -> None:
    for clause in instance.clauses:
        if not any(model[lit] if lit > 0 else not model[-lit] for lit in clause):
            raise SolverError(f"model does not satisfy clause {clause}")


class InternalSolver:
    """CDCL with two watched literals, first-UIP learning, VSIDS and restarts."""

    def __init__(self, instance: CnfInstance, seed: int = 0):
        self.instance = instance
        self.nvars = 0
        self.clauses: list[list[int] | None] = []
        self.learned: set[int] = set()
        self.clause_act: dict[int, float] = {}
        self.watches: list[list[int]] = []  # indexed by literal code
        self.assign: list[int] = [0]
        self.level: list[int] = [0]
        self.reason: list[int | None] = [None]
        self.phase: list[bool] = [False]
        self.activity: list[float] = [0.0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.heap: list[tuple[float, int]] = []
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.root_conflict = False
        self.n_ingested = 0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.max_learned = 4000

    # -- literal helpers ---------------------------------------------------

    @staticmethod
    def _code(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    # -- state growth ------------------------------------------------------

    def _grow(self, nvars: int) -> None:
        while self.nvars < nvars:
            self.nvars += 1
            self.assign.append(_UNDEF)
            self.level.append(0)
            self.reason.append(None)
            self.phase.append(False)
            self.activity.append(0.0)
            heappush(self.heap, (0.0, self.nvars))
        while len(self.watches) < 2 * self.nvars + 2:
            self.watches.append([])

    def _ingest(self) -> None:
        self._grow(self.instance.num_vars)
        self._cancel_until(0)
        while self.n_ingested < len(self.instance.clauses):
            clause = list(self.instance.clauses[self.n_ingested])
            self.n_ingested += 1
            self._add_clause(clause, learned=False)
        if not self.root_conflict and self._propagate() is not None:
            self.root_conflict = True

    def _add_clause(self, lits: list[int], learned: bool) -> int | None:
        if self.root_conflict:
            return None
        if not learned:
            # Ingestion happens at level 0: watched literals must not be
            # false already, or the clause would never wake its watchers.
            keep = [l for l in lits if self._value(l) != _FALSE]
            if not keep:
                self.root_conflict = True
                return None
            if len(keep) == 1:
                lits = keep
            else:
                others = [l for l in lits if self._value(l) == _FALSE]
                lits = keep + others
        if len(lits) == 1:
            lit = lits[0]
            val = self._value(lit)
            if val == _FALSE and self.level[abs(lit)] == 0:
                self.root_conflict = True
            elif val == _UNDEF:
                self._enqueue(lit, None)
            return None
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[self._code(lits[0])].append(ci)
        self.watches[self._code(lits[1])].append(ci)
        if learned:
            self.learned.add(ci)
            self.clause_act[ci] = self.cla_inc
        return ci

    # -- assignment / propagation -----------------------------------------

    def _enqueue(self, lit: int, reason: int | None) -> None:
        v = abs(lit)
        self.assign[v] = _TRUE if lit > 0 else _FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = lit > 0
        self.trail.append(lit)

    def _propagate(self) -> int | None:
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            code = self._code(-p)
            ws = self.watches[code]
            i = 0
            j = 0
            conflict = None
            while i < len(ws):
                ci = ws[i]
                i += 1
                c = self.clauses[ci]
                if c is None:
                    continue  # deleted clause, drop watch
                if c[0] == -p:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                if self._value(first) == _TRUE:
                    ws[j] = ci
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    if self._value(c[k]) != _FALSE:
                        c[1], c[k] = c[k], c[1]
                        self.watches[self._code(c[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = ci
                j += 1
                if self._value(first) == _FALSE:
                    conflict = ci
                    while i < len(ws):
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    break
                self._enqueue(first, ci)
            del ws[j:]
            if conflict is not None:
                return conflict
        return None

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for lit in reversed(self.trail[bound:]):
            v = abs(lit)
            self.assign[v] = _UNDEF
            self.reason[v] = None
            heappush(self.heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)
        if len(self.heap) > 4 * self.nvars:
            # drop the entries of assigned variables and the outdated ones;
            # an unassigned variable's best entry already holds its current
            # activity (barring a rescale since it was pushed), so no
            # decision changes
            self.heap = [(-self.activity[v], v) for v in range(1, self.nvars + 1)
                         if self.assign[v] == _UNDEF]
            heapify(self.heap)

    # -- analysis ----------------------------------------------------------

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.nvars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
        if self.assign[v] == _UNDEF:
            heappush(self.heap, (-self.activity[v], v))

    def _bump_clause(self, ci: int) -> None:
        if ci in self.learned:
            self.clause_act[ci] = self.clause_act.get(ci, 0.0) + self.cla_inc
            if self.clause_act[ci] > 1e20:
                for k in self.clause_act:
                    self.clause_act[k] *= 1e-20
                self.cla_inc *= 1e-20

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learnt = [0]
        seen = bytearray(self.nvars + 1)
        counter = 0
        p = None
        index = len(self.trail)
        cur_level = len(self.trail_lim)
        c = self.clauses[confl]
        self._bump_clause(confl)
        while True:
            for q in c:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    self._bump_var(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                if seen[abs(self.trail[index])]:
                    break
            p = self.trail[index]
            v = abs(p)
            seen[v] = 0
            counter -= 1
            if counter == 0:
                break
            ci = self.reason[v]
            c = self.clauses[ci]
            self._bump_clause(ci)
        learnt[0] = -p
        if len(learnt) == 1:
            back = 0
        else:
            # second-highest decision level, with that literal watched
            levels = [(self.level[abs(q)], k) for k, q in enumerate(learnt) if k > 0]
            back, kmax = max(levels)
            learnt[1], learnt[kmax] = learnt[kmax], learnt[1]
        self.var_inc /= 0.95
        self.cla_inc /= 0.999
        return learnt, back

    # -- learned clause management -----------------------------------------

    def _reduce_db(self) -> None:
        locked = {self.reason[abs(lit)] for lit in self.trail if self.reason[abs(lit)] is not None}
        cand = [ci for ci in self.learned
                if ci not in locked and self.clauses[ci] is not None and len(self.clauses[ci]) > 2]
        cand.sort(key=lambda ci: self.clause_act.get(ci, 0.0))
        for ci in cand[: len(cand) // 2]:
            self.clauses[ci] = None
            self.learned.discard(ci)
            self.clause_act.pop(ci, None)

    # -- decisions ---------------------------------------------------------

    def _pick_branch_var(self) -> int | None:
        while self.heap:
            _, v = heappop(self.heap)
            if self.assign[v] == _UNDEF:
                return v
        for v in range(1, self.nvars + 1):
            if self.assign[v] == _UNDEF:
                return v
        return None

    @staticmethod
    def _luby(x: int) -> int:
        size, seq = 1, 0
        while size < x + 1:
            seq += 1
            size = 2 * size + 1
        while size - 1 != x:
            size = (size - 1) >> 1
            seq -= 1
            x %= size
        return 1 << seq

    # -- main entry --------------------------------------------------------

    def solve(self, assumptions=(), time_limit: float | None = None) -> SolveResult:
        start = time.monotonic()
        assumptions = list(assumptions)
        self._ingest()
        stats = lambda: {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "time": time.monotonic() - start,
        }
        if self.root_conflict:
            return SolveResult(Status.UNSAT, stats=stats())
        for lit in assumptions:
            if abs(lit) > self.nvars:
                raise SolverError(f"assumption literal {lit} out of range")

        self._cancel_until(0)
        restart_round = 0
        conflicts_this_round = 0
        budget = 100 * self._luby(restart_round)

        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_this_round += 1
                if len(self.trail_lim) == 0:
                    self.root_conflict = True
                    return SolveResult(Status.UNSAT, stats=stats())
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                ci = self._add_clause(list(learnt), learned=True) if len(learnt) > 1 else None
                if len(learnt) == 1:
                    if self._value(learnt[0]) == _FALSE:
                        self.root_conflict = True
                        return SolveResult(Status.UNSAT, stats=stats())
                    if self._value(learnt[0]) == _UNDEF:
                        self._enqueue(learnt[0], None)
                else:
                    self._enqueue(learnt[0], ci)
                if len(self.learned) > self.max_learned:
                    self._reduce_db()
                    self.max_learned = int(self.max_learned * 1.3)
                if self.conflicts % 256 == 0 and time_limit is not None:
                    if time.monotonic() - start > time_limit:
                        return SolveResult(Status.UNKNOWN, stats=stats())
                continue

            if conflicts_this_round >= budget:
                conflicts_this_round = 0
                restart_round += 1
                budget = 100 * self._luby(restart_round)
                self._cancel_until(0)
                continue

            # establish assumptions in order
            next_lit = None
            for k, lit in enumerate(assumptions):
                val = self._value(lit)
                if val == _FALSE:
                    return SolveResult(Status.UNSAT, stats=stats())
                if val == _UNDEF:
                    next_lit = lit
                    break
            if next_lit is None:
                v = self._pick_branch_var()
                if v is None:
                    model = [False] * (self.nvars + 1)
                    for u in range(1, self.nvars + 1):
                        model[u] = self.assign[u] == _TRUE
                    _check_model(self.instance, model)
                    result = SolveResult(Status.SAT, model=model, stats=stats())
                    self._cancel_until(0)
                    return result
                next_lit = v if self.phase[v] else -v
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_lit, None)


def solve(instance: CnfInstance, assumptions=(), time_limit: float | None = None) -> SolveResult:
    """One-shot convenience wrapper around a fresh internal solver."""
    return InternalSolver(instance).solve(assumptions, time_limit)


class ExternalSolver:
    """DIMACS subprocess backend producing SAT-competition output.

    The command is a shell-style template; '{file}' is replaced by the CNF
    path, or the path is appended if no placeholder is present.  Assumptions
    are appended as unit clauses, so every call re-solves from scratch.
    """

    def __init__(self, instance: CnfInstance, command: str):
        self.instance = instance
        self.command = command

    def solve(self, assumptions=(), time_limit: float | None = None) -> SolveResult:
        start = time.monotonic()
        inst = self.instance
        assumptions = list(assumptions)
        header = f"p cnf {inst.num_vars} {len(inst.clauses) + len(assumptions)}\n"
        body = [header]
        for clause in inst.clauses:
            body.append(" ".join(map(str, clause)) + " 0\n")
        for lit in assumptions:
            body.append(f"{lit} 0\n")
        fd, path = tempfile.mkstemp(suffix=".cnf", prefix="swapsat_")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(body)
            argv = shlex.split(self.command)
            if any("{file}" in a for a in argv):
                argv = [a.replace("{file}", path) for a in argv]
            else:
                argv.append(path)
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=time_limit
                )
            except subprocess.TimeoutExpired:
                return SolveResult(Status.UNKNOWN, stats={"time": time.monotonic() - start})
            except OSError as exc:
                raise SolverError(f"cannot run external solver {argv!r}: {exc}") from exc
        finally:
            os.unlink(path)
        return self._parse_output(proc, start)

    def _parse_output(self, proc, start: float) -> SolveResult:
        status = None
        lits: list[int] = []
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line.startswith("s "):
                verdict = line[2:].strip()
                if verdict == "SATISFIABLE":
                    status = Status.SAT
                elif verdict == "UNSATISFIABLE":
                    status = Status.UNSAT
                elif verdict in ("UNKNOWN", "INDETERMINATE"):
                    status = Status.UNKNOWN
            elif line.startswith("v "):
                for tok in line[2:].split():
                    lit = int(tok)
                    if lit != 0:
                        lits.append(lit)
        if status is None:
            raise SolverError(
                f"external solver produced no status line (exit {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
        stats = {"time": time.monotonic() - start}
        if status is not Status.SAT:
            return SolveResult(status, stats=stats)
        model = [False] * (self.instance.num_vars + 1)
        for lit in lits:
            if abs(lit) <= self.instance.num_vars:
                model[abs(lit)] = lit > 0
        _check_model(self.instance, model)
        return SolveResult(Status.SAT, model=model, stats=stats)


def make_solver(instance: CnfInstance, spec: str = "internal"):
    """Build a solver bound to the instance from a CLI-style spec string."""
    if spec == "internal":
        return InternalSolver(instance)
    if spec.startswith("external:"):
        return ExternalSolver(instance, spec[len("external:"):])
    raise SolverError(f"unknown solver spec {spec!r}")
