"""Benchmark of time to a proven-optimal mapping.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs of the workload are made from the
seed and their reference optima computed here, without importing swapsat.
Set-up is then timed on several fresh interpreters, and one worker process
(worker.py) maps every instance through ``swapsat.synthesize`` in rounds for
most of the run and verifies the results for the rest.  Every result is
checked against the references (optimum, replay on device edges,
statevector, depth, option monotonicity).  The last line of standard output
is one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402

SETUP_STARTS = 5       # fresh interpreters whose set-up time is the median
VERIFY_SHARE = 0.2     # of --seconds spent verifying, spread over the first round
RUN_LIMIT_S = 170      # a run must end well within 180 s


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units of one BENCHMARK.json section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class RunError(RuntimeError):
    pass


def start_worker(job_path: Path, deadline: float, setup_only: bool):
    """Start a worker; return (process, seconds from start to its ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(job_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RunError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline; kill it after that."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker ran past the run's time limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def check(instances: list[dict], results: list[dict | None]) -> list[str]:
    """Problems found by the reference checks; empty when all results hold."""
    problems = []
    counts = {}
    for inst, res in zip(instances, results):
        if res is None:
            continue  # counted as a failed operation
        name = f"{inst['circuit']}/{inst['platform']}/{inst['combo']}" \
               f"{'' if inst['ancillas'] else '/no-anc'}"
        gates = inputs.original_gates(inst)
        total = res["swaps"] + res["bridges"]
        counts[(inst["circuit"], inst["platform"], inst["combo"], inst["ancillas"])] = total
        plan = res["plan"]
        if total != inst["optimum"]:
            problems.append(f"{name}: {total} actions, reference optimum {inst['optimum']}")
        kinds = [s["action"]["type"] for s in plan["steps"] if s["action"]]
        if (kinds.count("swap"), kinds.count("bridge")) != (res["swaps"], res["bridges"]):
            problems.append(f"{name}: plan actions disagree with the reported counts")
        _n, edges = reference.platform_edges(inst["platform"])
        try:
            replayed = reference.replay(gates, inst["num_qubits"], res["qasm"],
                                        plan["initial_map"], plan["final_map"], edges,
                                        relaxed=inst["relaxed"], ancillas=inst["ancillas"])
        except reference.CheckError as exc:
            problems.append(f"{name}: replay: {exc}")
        else:
            if replayed != (res["swaps"], res["bridges"]):
                problems.append(f"{name}: replay finds {replayed} (swaps, bridges), "
                                f"reported {(res['swaps'], res['bridges'])}")
        if reference.statevector_equal(gates, inst["num_qubits"], res["qasm"],
                                       plan["initial_map"], plan["final_map"]) is False:
            problems.append(f"{name}: statevector differs")
        depth = reference.depth(*reference.parse_qasm(res["qasm"]))
        if depth != res["depth_after"]:
            problems.append(f"{name}: depth {depth} of the emitted circuit, "
                            f"reported {res['depth_after']}")
    problems += reference.monotonicity_violations(counts)
    return problems


def run(args) -> dict:
    if not (ROOT / "src" / "swapsat" / "__init__.py").is_file():
        raise RunError(f"no swapsat sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    instances = inputs.WORKLOADS[args.workload](args.seed)
    if any(inst["optimum"] is None for inst in instances):
        raise RunError("a reference optimum is missing")

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'plain'}"
    job_path = OUT_DIR / f"job-{tag}-{os.getpid()}.json"
    job = {"instances": instances, "trace": bool(args.trace),
           "seconds": args.seconds, "verify_seconds": VERIFY_SHARE * args.seconds,
           "trace_file": str(OUT_DIR / f"trace-{tag}.jsonl")}
    job_path.write_text(json.dumps(job))
    try:
        setups = []
        for _ in range(SETUP_STARTS - 1):
            proc, setup_s = start_worker(job_path, deadline, setup_only=True)
            finish(proc, deadline)
            setups.append(setup_s)
        proc, setup_s = start_worker(job_path, deadline, setup_only=False)
        setups.append(setup_s)
        report = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    finally:
        job_path.unlink(missing_ok=True)

    problems = check(instances, report["results"])
    if not report["verify_ok"]:
        problems.append("swapsat's own verification rejected a result")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        layer = dict(report["layer"])
        layer["synthesis.depth_after"] = report["depth_after"]
        layer["trace.map_s"] = report["traced_map_s"]
        layer["trace.overhead"] = report["traced_map_s"] / report["map_s"] - 1
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in declared_units("per_layer").items()}
    else:
        values = {"map_s": report["map_s"], "verify_s": report["verify_s"],
                  "setup_s": statistics.median(setups), "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in declared_units("end_to_end").items()}
    print(f"{args.workload} seed {args.seed}: {len(instances)} instances, "
          f"{report['rounds']} mapping round(s), {len(problems)} problem(s)", file=sys.stderr)
    slowest = sorted(zip(report["instance_s"], instances), key=lambda x: -x[0])[:6]
    print("slowest: " + ", ".join(f"{i['circuit']}/{i['platform']}/{i['combo']} {t:.2f} s"
                                  for t, i in slowest), file=sys.stderr)
    return {"correct": not problems, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (RunError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
