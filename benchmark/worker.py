"""Mapping process: the only process of the benchmark that imports swapsat.

    python3 worker.py JOB.json [--setup-only]

Set-up is importing swapsat, loading the platforms and parsing the
instances' QASM; the worker then prints ``ready`` so that its parent can
time a cold set-up from the process's start.  With ``--setup-only`` it
exits there.  Otherwise it maps every instance in rounds until the run's
seconds have passed, checks each first-round result right after mapping it
as ``swapsat map --verify`` does, and prints one JSON object with the
results and timings.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    layer: dict[str, float] = {}

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import swapsat
    import swapsat.synthesis
    layer["setup.import_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    platforms = {spec: swapsat.load_coupling(spec)
                 for spec in sorted({i["platform"] for i in job["instances"]})}
    layer["coupling.load_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    circuits = [swapsat.parse_qasm(i["qasm"]) for i in job["instances"]]
    layer["qasm.parse_s"] = time.perf_counter() - t0
    print("ready", flush=True)
    if "--setup-only" in sys.argv:
        return 0

    options = [swapsat.EncodeOptions(ancillary=i["ancillas"], bridges=i["bridges"],
                                     relaxed=i["relaxed"]) for i in job["instances"]]

    def verify(k, result):
        """One check of a result as `swapsat map --verify` runs it:
        (structural seconds, unitary seconds, passed, unitary skipped)."""
        circuit, inst = circuits[k], job["instances"][k]
        t0 = time.perf_counter()
        report = swapsat.check_structural(circuit, result.mapped_circuit,
                                          platforms[inst["platform"]], result.plan,
                                          relaxed=inst["relaxed"])
        t1 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            equiv = swapsat.check_unitary_equivalence(
                circuit, result.mapped_circuit, result.plan.initial_map, result.plan.final_map)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1, report.passes() and equiv is not False, equiv is None

    # Verification of each first-round result follows its mapping, as with
    # `map --verify`, and repeats for an equal share of the verify window, so
    # that verify samples are spread over the run like mapping samples.
    verify_slice = job["verify_seconds"] / len(circuits)
    checks: list[list[tuple]] = [[] for _ in circuits]

    def map_round(tracer=None, first_round=False):
        times, results, failed = [], [], 0
        for k, (circuit, inst, opts) in enumerate(zip(circuits, job["instances"], options)):
            if tracer is not None:
                tracer.instance = k
            start = time.perf_counter()
            try:
                result = swapsat.synthesize(circuit, platforms[inst["platform"]], opts)
            except Exception as exc:  # a crash is one failed operation, not the end of the run
                print(f"synthesize failed on {inst['circuit']}: {exc!r}", file=sys.stderr)
                result = None
            times.append(time.perf_counter() - start)
            results.append(result)
            if result is None or result.plan is None:
                failed += 1
            elif first_round:
                start = time.perf_counter()
                while not checks[k] or time.perf_counter() - start < verify_slice:
                    checks[k].append(verify(k, result))
        return times, results, failed

    rounds: list[list[float]] = []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < job["seconds"]:
        times, results, nfail = map_round(first_round=not rounds)
        rounds.append(times)
        attempted += len(times)
        failed += nfail
        first = first or results
    instance_s = [statistics.median(col) for col in zip(*rounds)]

    tracer = traced_map_s = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(swapsat.synthesis)
        tracer.install()
        try:
            times, _results, nfail = map_round(tracer)
        finally:
            tracer.restore()
            tracer.instance = None
        traced_map_s = sum(times)
        attempted += len(times)
        failed += nfail
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = [c for c in checks if c]
    verify_s = sum(statistics.median(s + u for s, u, _ok, _skip in c) for c in checked)
    verify_ok = all(ok for c in checked for _s, _u, ok, _skip in c)
    layer["verify.structural_s"] = sum(statistics.fmean(x[0] for x in c) for c in checked)
    layer["verify.unitary_s"] = sum(statistics.fmean(x[1] for x in c) for c in checked)
    layer["verify.unitary_skipped"] = sum(c[0][3] for c in checked)

    out = []
    layer["qasm.emit_s"] = 0.0
    for inst, result in zip(job["instances"], first):
        if result is None or result.plan is None:
            out.append(None)
            continue
        t0 = time.perf_counter()
        qasm = swapsat.emit_qasm(result.mapped_circuit)
        layer["qasm.emit_s"] += time.perf_counter() - t0
        out.append({"qasm": qasm, "plan": swapsat.plan_to_dict(result.plan),
                    "swaps": result.metrics["swaps"], "bridges": result.metrics["bridges"],
                    "depth_after": result.metrics["depth_after"]})

    report = {
        "attempted": attempted, "failed": failed, "verify_ok": verify_ok,
        "rounds": len(rounds), "map_s": sum(instance_s), "instance_s": instance_s,
        "verify_s": verify_s, "peak_rss_mb": peak_rss_mb,
        "results": out, "layer": layer,
    }
    if tracer is not None:
        report["traced_map_s"] = traced_map_s
        report["layer"].update({k: v for k, (v, _u) in tracer.layer_metrics().items()})
        report["depth_after"] = sum(r["depth_after"] for r in out if r)
        tracer.write(job["trace_file"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
