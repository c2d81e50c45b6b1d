"""CNF clause database, variable allocation and cardinality encodings.

Cardinality constraints use the sequential counter (Sinz, CP 2005):
auxiliary variables r[i][j] mean "at least j of the first i literals are
true".  They are defined by unconditional biconditional clauses, so the
original literals fix every auxiliary variable and each assignment of the
original literals extends to at most one model.

At-most-one has two forms.  Pairwise takes n(n-1)/2 binary clauses and no
auxiliary variable; the counter of width 2 takes 7n-3 clauses and 2n
variables.  `exactly_one` (each logical qubit's row of places, each step's
choice of SWAP or bridge) uses whichever form has fewer clauses, so
pairwise up to 14 literals.  `at_most_one` on its own (each place holding at
most one logical qubit) keeps pairwise for at most 4 literals only: on
whole-device instances the pairwise form up to 14 made the solver's proofs
longer.
"""
from __future__ import annotations


class CnfError(ValueError):
    """Empty clause, out-of-range literal or malformed DIMACS."""


class CnfInstance:
    def __init__(self):
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, n: int) -> list[int]:
        return [self.new_var() for _ in range(n)]

    def add_clause(self, lits) -> None:
        lits = list(lits)
        if not lits:
            raise CnfError("empty clause (instance would be trivially UNSAT)")
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise CnfError(f"literal {lit} out of range (num_vars={self.num_vars})")
        self.clauses.append(lits)

    # cardinality encodings

    def exactly_k(self, lits, k: int) -> None:
        """Exactly k of lits true."""
        lits = list(lits)
        n = len(lits)
        if not 0 <= k <= n:
            raise CnfError(f"exactly_k: k={k} out of range for {n} literals")
        if k == 0:
            for lit in lits:
                self.add_clause([-lit])
            return
        if k == n:
            for lit in lits:
                self.add_clause([lit])
            return
        r = self._sequential_counter(lits, k + 1)
        self.add_clause([r[n - 1][k - 1]])     # at least k
        self.add_clause([-r[n - 1][k]])        # at most k

    def _sequential_counter(self, lits: list[int], width: int) -> list[list[int]]:
        """r[i][j-1] <-> at least j of lits[0..i] are true, for j in 1..width."""
        n = len(lits)
        r = [[self.new_var() for _ in range(width)] for _ in range(n)]
        # base row: r[0][0] <-> lits[0], higher counts false
        self.add_clause([-lits[0], r[0][0]])
        self.add_clause([lits[0], -r[0][0]])
        for j in range(1, width):
            self.add_clause([-r[0][j]])
        for i in range(1, n):
            for j in range(width):
                below = r[i - 1][j - 1] if j > 0 else None
                # r[i][j] <- r[i-1][j]
                self.add_clause([-r[i - 1][j], r[i][j]])
                # r[i][j] <- lits[i] & r[i-1][j-1]   (j=0: <- lits[i])
                if below is None:
                    self.add_clause([-lits[i], r[i][j]])
                else:
                    self.add_clause([-lits[i], -below, r[i][j]])
                # r[i][j] -> r[i-1][j] | (lits[i] & r[i-1][j-1])
                self.add_clause([-r[i][j], r[i - 1][j], lits[i]])
                if below is not None:
                    self.add_clause([-r[i][j], r[i - 1][j], below])
        return r

    def _pairwise_at_most_one(self, lits: list[int]) -> None:
        for a in range(len(lits)):
            for b in range(a + 1, len(lits)):
                self.add_clause([-lits[a], -lits[b]])

    def at_most_one(self, lits) -> None:
        lits = list(lits)
        if len(lits) <= 1:
            return
        if len(lits) <= 4:
            # pairwise is smaller for tiny groups; not up to 14 literals as
            # in exactly_one, which slowed whole-device proofs (module docstring)
            self._pairwise_at_most_one(lits)
            return
        r = self._sequential_counter(lits, 2)
        self.add_clause([-r[len(lits) - 1][1]])

    def exactly_one(self, lits) -> None:
        lits = list(lits)
        if not lits:
            raise CnfError("exactly_one over no literals is unsatisfiable")
        self.add_clause(lits)
        n = len(lits)
        # the at-most-one form with fewer clauses: pairwise n(n-1)/2 against
        # the counter's 7n-3, so pairwise for n <= 14
        if n * (n - 1) // 2 <= 7 * n - 3:
            self._pairwise_at_most_one(lits)
        else:
            self.at_most_one(lits)

    def to_dimacs(self, units=()) -> str:
        """The instance as DIMACS, followed by one unit clause per literal in
        `units` (an external solver's assumptions); the header counts both."""
        units = list(units)
        lines = [f"p cnf {self.num_vars} {len(self.clauses) + len(units)}"]
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        lines += [f"{lit} 0" for lit in units]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> "CnfInstance":
        inst = cls()
        declared_clauses = None
        pending: list[int] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if (len(parts) != 4 or parts[1] != "cnf"
                        or not all(p.isdecimal() for p in parts[2:])):
                    raise CnfError(f"bad DIMACS header {line!r}")
                inst.num_vars = int(parts[2])
                declared_clauses = int(parts[3])
                continue
            for tok in line.split():
                try:
                    lit = int(tok)
                except ValueError:
                    raise CnfError(f"bad DIMACS literal {tok!r}") from None
                if lit == 0:
                    inst.add_clause(pending)
                    pending = []
                else:
                    pending.append(lit)
        if pending:
            raise CnfError("trailing literals without terminating 0")
        if declared_clauses is not None and declared_clauses != len(inst.clauses):
            raise CnfError(
                f"header declares {declared_clauses} clauses, found {len(inst.clauses)}"
            )
        return inst

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CnfInstance)
            and self.num_vars == other.num_vars
            and self.clauses == other.clauses
        )

    def __repr__(self) -> str:
        return f"CnfInstance(vars={self.num_vars}, clauses={len(self.clauses)})"
