"""Standalone DIMACS front-end for the bundled solver.

Reads a CNF file, prints SAT-competition style output ("s ..." and "v ..."
lines).  Installed as `swapsat-dimacs`, which also makes it usable as an
external backend: `--solver external:swapsat-dimacs`, or without an install
`--solver "external:python -m swapsat.dimacs_cli"`.
"""
from __future__ import annotations

import argparse
import sys

from .cnf import CnfError, CnfInstance
from .solver import InternalSolver, Status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="swapsat-dimacs",
                                     description="solve a DIMACS CNF file")
    parser.add_argument("file")
    parser.add_argument("--time-limit", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.file) as fh:
            instance = CnfInstance.from_dimacs(fh.read())
    except (OSError, CnfError) as exc:
        print(f"c error: {exc}")
        print("s UNKNOWN")
        return 1
    result = InternalSolver(instance).solve(time_limit=args.time_limit)
    if result.status is Status.SAT:
        print("s SATISFIABLE")
        lits = [v if result.model[v] else -v for v in range(1, instance.num_vars + 1)]
        for start in range(0, len(lits), 20):
            print("v " + " ".join(map(str, lits[start:start + 20])))
        print("v 0")
        return 10
    if result.status is Status.UNSAT:
        print("s UNSATISFIABLE")
        return 20
    print("s UNKNOWN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
