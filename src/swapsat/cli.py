"""Command-line interface: map, verify, oracle and bench subcommands."""
from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .circuit import extract_cnot_slice
from .coupling import load_coupling
from .encoder import EncodeOptions, TwoWayEncoder
from .qasm import emit_qasm, parse_qasm
from .solver import SolverError
from .synthesis import Limits, build_dag, plan_from_dict, plan_to_dict, synthesize
from .verify import check_structural, check_unitary_equivalence, oracle_min_swaps

METRICS_SCHEMA = "swapsat-metrics-1"


def combo_name(options: EncodeOptions) -> str:
    """S, then B for bridges and R for relaxed dependencies; ancillas are not named."""
    return "S" + "B" * options.bridges + "R" * options.relaxed


COMBOS = {combo_name(o): o for o in (EncodeOptions(bridges=b, relaxed=r)
                                     for r in (False, True) for b in (False, True))}

# what bad input raises: it ends a command, or fails one bench row (the
# parser's, the loader's and the encoder's errors are ValueErrors)
ERRORS = (SolverError, ValueError, OSError)


def _add_option_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bridges", action="store_true", help="allow bridge gates")
    parser.add_argument("--relaxed", action="store_true",
                        help="relax gate dependencies via commutation rules")
    parser.add_argument("--no-ancillas", action="store_true",
                        help="forbid swaps involving unmapped physical qubits")


def _options_from_args(args) -> EncodeOptions:
    return EncodeOptions(ancillary=not args.no_ancillas,
                         bridges=args.bridges, relaxed=args.relaxed)


def _load_circuit(path: str):
    text = Path(path).read_text()
    return parse_qasm(text, name=Path(path).stem)


def run_map(args) -> int:
    circuit = _load_circuit(args.circuit)
    coupling = load_coupling(args.platform)
    options = _options_from_args(args)
    limits = Limits(time_limit=args.time_limit, max_steps=args.max_steps)
    result = synthesize(circuit, coupling, options, limits, args.solver)
    metrics = dict(result.metrics)
    metrics["schema"] = METRICS_SCHEMA
    metrics["circuit"] = circuit.name
    metrics["platform"] = coupling.name
    metrics["options"] = {"ancillary": options.ancillary, "bridges": options.bridges,
                          "relaxed": options.relaxed, "combo": combo_name(options)}
    metrics["solver"] = args.solver

    if result.plan is None:
        print(f"timeout: >= {metrics['lower_bound']} actions required "
              f"({metrics['total_time']} s)")
        if args.metrics:
            Path(args.metrics).write_text(json.dumps(metrics, indent=2) + "\n")
        return 2

    metrics["plan"] = plan_to_dict(result.plan)
    if args.verify:
        report = check_structural(circuit, result.mapped_circuit, coupling,
                                  result.plan, relaxed=options.relaxed)
        if not report.passes():
            print(f"error: structural verification failed: {report.first_violation}",
                  file=sys.stderr)
            return 1
        equiv = check_unitary_equivalence(circuit, result.mapped_circuit,
                                          result.plan.initial_map, result.plan.final_map)
        if equiv is False:
            print("error: unitary equivalence check failed", file=sys.stderr)
            return 1
        metrics["verified"] = {"structural": True,
                               "unitary": equiv if equiv is not None else "skipped"}

    if args.output:
        Path(args.output).write_text(emit_qasm(result.mapped_circuit))
    if args.metrics:
        Path(args.metrics).write_text(json.dumps(metrics, indent=2) + "\n")
    if args.dump_dimacs:
        # rebuild the whole device's instance at the optimal step count, with
        # its goal (the last step's assumption) as a unit clause
        slice_ = extract_cnot_slice(circuit)
        dag = build_dag(slice_, circuit, options.relaxed)
        enc = TwoWayEncoder(circuit.num_qubits, slice_, dag, coupling, options)
        for t in range(len(result.plan.steps)):
            enc.build_step(t)
        goal = enc.assumption_literal(len(result.plan.steps) - 1)
        Path(args.dump_dimacs).write_text(enc.cnf.to_dimacs(units=[goal]))
    print(f"{metrics['swaps']} SWAPs + {metrics['bridges']} bridges (optimal), "
          f"depth {metrics['depth_after']}, {metrics['total_time']} s")
    return 0


def run_verify(args) -> int:
    original = _load_circuit(args.original)
    mapped = _load_circuit(args.mapped)
    data = json.loads(Path(args.plan).read_text())
    if not isinstance(data, dict):
        raise ValueError("plan file must hold a JSON object")
    plan_data = data.get("plan", data)
    plan = plan_from_dict(plan_data)
    platform = args.platform or data.get("platform")
    if platform is None:
        print("error: no platform given and none recorded in the plan file",
              file=sys.stderr)
        return 1
    if not isinstance(platform, str):
        raise ValueError(f"plan file platform {platform!r} is not a string")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValueError(f"plan file options {options!r} are not a JSON object")
    relaxed = args.relaxed or bool(options.get("relaxed"))
    coupling = load_coupling(platform)
    report = check_structural(original, mapped, coupling, plan, relaxed=relaxed)
    print(f"connectivity: {'ok' if report.connectivity_ok else 'FAIL'}")
    print(f"dependencies: {'ok' if report.dependency_ok else 'FAIL'}")
    print(f"mapping:      {'ok' if report.mapping_consistent else 'FAIL'}")
    print(f"gate counts:  {'ok' if report.gate_counts_ok else 'FAIL'}")
    if not report.passes():
        print(f"first violation: {report.first_violation}")
        return 1
    equiv = check_unitary_equivalence(original, mapped, plan.initial_map, plan.final_map)
    if equiv is None:
        print("unitary:      skipped (too many used qubits)")
    else:
        print(f"unitary:      {'ok' if equiv else 'FAIL'}")
        if not equiv:
            return 1
    return 0


def run_oracle(args) -> int:
    circuit = _load_circuit(args.circuit)
    coupling = load_coupling(args.platform)
    options = _options_from_args(args)
    count = oracle_min_swaps(circuit, coupling, options, cap=args.cap)
    if count is None:
        print(f"> {args.cap}")
        return 2
    print(count)
    return 0


def _loaded(load, arg):
    """load(arg), or the error it raised: a bad input fails only its own rows."""
    try:
        return load(arg)
    except ERRORS as exc:
        return exc


def run_bench(args) -> int:
    files = sorted(Path(args.circuits).glob("*.qasm"))
    combos = args.combos.split(",") if args.combos else list(COMBOS)
    for combo in combos:
        if combo not in COMBOS:
            raise ValueError(f"unknown combo {combo!r} (choose from {','.join(COMBOS)})")
    # each circuit and platform is loaded once, so that every row on a device
    # shares one device object and with it the device's shape catalogue
    circuits = {path: _loaded(_load_circuit, path) for path in files}
    couplings = {spec: _loaded(load_coupling, spec) for spec in args.platform}
    rows = []
    for path in files:
        for platform in args.platform:
            for combo in combos:
                row = {"circuit": path.stem, "qubits": "", "cx": "",
                       "platform": platform, "combo": combo, "swaps": "",
                       "bridges": "", "depth": "", "time": "", "status": ""}
                try:
                    circuit, coupling = circuits[path], couplings[platform]
                    for loaded in (circuit, coupling):
                        if isinstance(loaded, Exception):
                            raise loaded.with_traceback(None)
                    row["qubits"] = circuit.num_qubits
                    row["cx"] = circuit.cx_count
                    options = COMBOS[combo]
                    result = synthesize(circuit, coupling, options,
                                        Limits(time_limit=args.time_limit), args.solver)
                    row["time"] = result.metrics["total_time"]
                    if result.plan is None:
                        row["status"] = f"timeout(>= {result.metrics['lower_bound']})"
                    else:
                        report = check_structural(circuit, result.mapped_circuit,
                                                  coupling, result.plan,
                                                  relaxed=options.relaxed)
                        if not report.passes():
                            row["status"] = f"verify-failed: {report.first_violation}"
                        else:
                            row.update(swaps=result.metrics["swaps"],
                                       bridges=result.metrics["bridges"],
                                       depth=result.metrics["depth_after"],
                                       status="optimal")
                except ERRORS as exc:
                    row["status"] = f"error: {exc}"
                rows.append(row)
    fields = ["circuit", "qubits", "cx", "platform", "combo", "swaps",
              "bridges", "depth", "time", "status"]
    if args.output or not args.json:  # CSV to the file, or by default to stdout
        out = open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout)
        with out as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapsat",
        description="SWAP-optimal quantum circuit layout synthesis via incremental SAT",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="route a circuit onto a platform")
    p.add_argument("--circuit", required=True)
    p.add_argument("--platform", required=True,
                   help="builtin name, linear-N, grid-RxC, or file:PATH")
    _add_option_flags(p)
    p.add_argument("--solver", default="internal",
                   help="internal or external:<command>")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--output", help="mapped circuit QASM path")
    p.add_argument("--metrics", help="metrics JSON path")
    p.add_argument("--dump-dimacs", help="write the whole device's CNF instance at the "
                   "optimal step count, with its goal as a unit clause, as DIMACS")
    p.add_argument("--verify", action="store_true",
                   help="run structural and unitary checks on the result")
    p.set_defaults(func=run_map)

    p = sub.add_parser("verify", help="check a mapped circuit against a plan")
    p.add_argument("--original", required=True)
    p.add_argument("--mapped", required=True)
    p.add_argument("--plan", required=True, help="plan or metrics JSON file")
    p.add_argument("--platform", help="override the platform recorded in the plan")
    p.add_argument("--relaxed", action="store_true")
    p.set_defaults(func=run_verify)

    p = sub.add_parser("oracle", help="brute-force minimal SWAP count (small inputs)")
    p.add_argument("--circuit", required=True)
    p.add_argument("--platform", required=True)
    _add_option_flags(p)
    p.add_argument("--cap", type=int, default=20)
    p.set_defaults(func=run_oracle)

    p = sub.add_parser("bench", help="sweep a directory of circuits")
    p.add_argument("--circuits", required=True, help="directory of .qasm files")
    p.add_argument("--platform", action="append", required=True,
                   help="repeatable platform spec")
    p.add_argument("--combos", default=None, help="comma list from S,SB,SR,SBR")
    p.add_argument("--solver", default="internal")
    p.add_argument("--time-limit", type=float, default=600.0)
    p.add_argument("--output", help="CSV output path (default stdout)")
    p.add_argument("--json", help="JSON output path")
    p.set_defaults(func=run_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
