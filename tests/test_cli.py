import csv
import json

import pytest

from conftest import DIMACS_COMMAND
from swapsat.circuit import extract_cnot_slice
from swapsat.cli import main
from swapsat.cnf import CnfInstance
from swapsat.coupling import load_coupling
from swapsat.dimacs_cli import main as dimacs_main
from swapsat.encoder import EncodeOptions, TwoWayEncoder
from swapsat.qasm import parse_qasm
from swapsat.solver import Status, make_solver
from swapsat.synthesis import build_dag


def or_path(circuits_dir):
    return str(circuits_dir / "or.qasm")


def test_map_basic(circuits_dir, tmp_path, capsys):
    out = tmp_path / "mapped.qasm"
    metrics = tmp_path / "metrics.json"
    code = main(["map", "--circuit", or_path(circuits_dir), "--platform", "linear-3",
                 "--output", str(out), "--metrics", str(metrics), "--verify"])
    assert code == 0
    summary = capsys.readouterr().out
    assert "2 SWAPs + 0 bridges (optimal)" in summary
    data = json.loads(metrics.read_text())
    assert data["swaps"] == 2 and data["status"] == "optimal"
    assert data["schema"] == "swapsat-metrics-1"
    # n = n_p = 3: every level is solved on the whole device
    assert data["shapes"] == [1, 1, 1] and len(data["step_times"]) == 3
    assert data["device_levels"] == [0, 1, 2]
    assert data["plan"]["steps"][0]["action"] is None
    assert out.exists()


def test_map_relaxed_melbourne(circuits_dir, tmp_path):
    metrics = tmp_path / "m.json"
    code = main(["map", "--circuit", or_path(circuits_dir), "--platform", "melbourne",
                 "--relaxed", "--metrics", str(metrics)])
    assert code == 0
    data = json.loads(metrics.read_text())
    assert data["swaps"] + data["bridges"] == 1
    assert len(data["shapes"]) == len(data["step_times"]) == 2
    assert min(data["shapes"]) >= 1


def test_map_infeasible_platform(circuits_dir, capsys):
    code = main(["map", "--circuit", or_path(circuits_dir), "--platform", "linear-2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_map_unknown_platform(circuits_dir):
    assert main(["map", "--circuit", or_path(circuits_dir),
                 "--platform", "atlantis"]) == 1


def test_map_timeout_exit_code(circuits_dir, tmp_path):
    metrics = tmp_path / "t.json"
    code = main(["map", "--circuit", or_path(circuits_dir), "--platform", "linear-3",
                 "--max-steps", "0", "--metrics", str(metrics)])
    assert code == 2
    data = json.loads(metrics.read_text())
    assert data["status"] == "timeout" and data["lower_bound"] == 1


def test_map_dump_dimacs(circuits_dir, tmp_path):
    dump = tmp_path / "inst.cnf"
    code = main(["map", "--circuit", or_path(circuits_dir), "--platform", "linear-3",
                 "--dump-dimacs", str(dump)])
    assert code == 0
    instance = CnfInstance.from_dimacs(dump.read_text())
    assert instance.num_vars > 0 and instance.clauses
    # the optimum is 2 SWAPs: steps 0..2, ending in step 2's goal as a unit clause
    circuit = parse_qasm((circuits_dir / "or.qasm").read_text())
    slice_ = extract_cnot_slice(circuit)
    enc = TwoWayEncoder(circuit.num_qubits, slice_, build_dag(slice_, circuit, False),
                        load_coupling("linear-3"), EncodeOptions())
    for t in range(3):
        enc.build_step(t)
    assert instance.clauses[-1] == [enc.assumption_literal(2)]
    assert instance.clauses[:-1] == enc.cnf.clauses
    assert make_solver(instance).solve().status is Status.SAT
    # without its goal the instance would read SAT at one step too
    body = CnfInstance.from_dimacs(enc.cnf.to_dimacs())
    assert make_solver(body).solve([enc.assumption_literal(1)]).status is Status.UNSAT


def test_verify_subcommand(circuits_dir, tmp_path, capsys):
    out = tmp_path / "mapped.qasm"
    metrics = tmp_path / "metrics.json"
    main(["map", "--circuit", or_path(circuits_dir), "--platform", "linear-3",
          "--output", str(out), "--metrics", str(metrics)])
    code = main(["verify", "--original", or_path(circuits_dir),
                 "--mapped", str(out), "--plan", str(metrics)])
    assert code == 0
    assert "unitary:      ok" in capsys.readouterr().out
    # tampering with the mapped circuit must be caught
    text = out.read_text().replace("swap q[1],q[2];", "")
    tampered = tmp_path / "bad.qasm"
    tampered.write_text(text)
    assert main(["verify", "--original", or_path(circuits_dir),
                 "--mapped", str(tampered), "--plan", str(metrics)]) == 1


def first_swap(plan):
    return next(s["action"] for s in plan["steps"]
                if s["action"] and s["action"]["type"] == "swap")


@pytest.mark.parametrize("damage", [
    lambda data: data["plan"].pop("initial_map"),
    lambda data: first_swap(data["plan"]).pop("q"),
    lambda data: data["plan"]["steps"][-1]["cnots"].append(99),
    lambda data: data["plan"].update(initial_map=[0]),
    lambda data: data.update(options=[]),
    lambda data: data.update(options=None),
    lambda data: data.update(platform=3),
], ids=["no-initial-map", "swap-without-q", "unknown-cnot", "short-initial-map",
        "options-list", "options-null", "platform-number"])
def test_verify_rejects_a_malformed_plan(circuits_dir, tmp_path, damage):
    out, metrics = tmp_path / "mapped.qasm", tmp_path / "metrics.json"
    assert main(["map", "--circuit", or_path(circuits_dir), "--platform", "linear-3",
                 "--output", str(out), "--metrics", str(metrics)]) == 0
    data = json.loads(metrics.read_text())
    damage(data)
    metrics.write_text(json.dumps(data))
    assert main(["verify", "--original", or_path(circuits_dir),
                 "--mapped", str(out), "--plan", str(metrics)]) == 1


def test_oracle_subcommand(circuits_dir, capsys):
    assert main(["oracle", "--circuit", or_path(circuits_dir),
                 "--platform", "linear-3"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["oracle", "--circuit", or_path(circuits_dir),
                 "--platform", "linear-3", "--relaxed"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["oracle", "--circuit", or_path(circuits_dir),
                 "--platform", "linear-3", "--cap", "0"]) == 2
    assert capsys.readouterr().out.strip() == "> 0"


def test_bench_sweep(circuits_dir, tmp_path):
    out = tmp_path / "bench.csv"
    jout = tmp_path / "bench.json"
    code = main(["bench", "--circuits", str(circuits_dir), "--platform", "linear-5",
                 "--combos", "S,SR", "--time-limit", "60",
                 "--output", str(out), "--json", str(jout)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert {r["combo"] for r in rows} == {"S", "SR"}
    or_rows = {r["combo"]: r for r in rows if r["circuit"] == "or"}
    assert or_rows["S"]["swaps"] == "2" and or_rows["SR"]["swaps"] == "1"
    assert all(r["status"].startswith(("optimal", "timeout")) for r in rows)
    assert json.loads(jout.read_text())


def test_bench_bad_file_does_not_abort(tmp_path, circuits_dir):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.qasm").write_text(
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n")
    (corpus / "broken.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nwat;\n")
    out = tmp_path / "bench.csv"
    code = main(["bench", "--circuits", str(corpus), "--platform", "linear-2",
                 "--combos", "S", "--output", str(out)])
    assert code == 0
    rows = {r["circuit"]: r for r in csv.DictReader(out.open())}
    assert rows["ok"]["status"] == "optimal"
    assert rows["broken"]["status"].startswith("error")


def test_bench_loads_each_platform_once(circuits_dir, tmp_path, monkeypatch):
    loads = []
    monkeypatch.setattr("swapsat.cli.load_coupling",
                        lambda spec: loads.append(spec) or load_coupling(spec))
    out = tmp_path / "bench.csv"
    code = main(["bench", "--circuits", str(circuits_dir), "--platform", "linear-5",
                 "--platform", "nope", "--combos", "S,SR", "--output", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    circuits = len(list(circuits_dir.glob("*.qasm")))
    assert len(rows) == circuits * 2 * 2
    for row in rows:
        if row["platform"] == "nope":
            assert row["status"].startswith("error: unknown platform spec")
        else:
            assert row["status"] == "optimal"
    assert loads == ["linear-5", "nope"]


def test_malformed_coupling_file(circuits_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_qubits": 3, "edges": 5}))
    assert main(["map", "--circuit", or_path(circuits_dir),
                 "--platform", f"file:{bad}"]) == 1
    assert capsys.readouterr().err.startswith("error: edges 5 is not a list")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "or.qasm").write_text((circuits_dir / "or.qasm").read_text())
    out = tmp_path / "bench.csv"
    code = main(["bench", "--circuits", str(corpus), "--platform", "linear-3",
                 "--platform", f"file:{bad}", "--output", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2 * 4
    for row in rows:
        if row["platform"] == "linear-3":
            assert row["status"] == "optimal", row
        else:
            assert row["status"].startswith("error: edges 5 is not a list")


def test_bench_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "bench.csv"
    assert main(["bench", "--circuits", str(empty), "--platform", "linear-2",
                 "--output", str(out)]) == 0
    assert list(csv.DictReader(out.open())) == []


def test_external_solver_cli(circuits_dir, tmp_path):
    metrics = tmp_path / "m.json"
    code = main(["map", "--circuit", or_path(circuits_dir), "--platform", "linear-3",
                 "--solver", "external:" + DIMACS_COMMAND, "--metrics", str(metrics)])
    assert code == 0
    assert json.loads(metrics.read_text())["swaps"] == 2


def test_dimacs_cli_roundtrip(tmp_path, capsys):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    assert dimacs_main([str(sat)]) == 10
    out = capsys.readouterr().out
    assert "s SATISFIABLE" in out and "v " in out
    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert dimacs_main([str(unsat)]) == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out
    assert dimacs_main([str(tmp_path / "none.cnf")]) == 1
    capsys.readouterr()
    malformed = tmp_path / "bad.cnf"
    malformed.write_text("p cnf 2 1\n1 a 0\n")
    assert dimacs_main([str(malformed)]) == 1
    out = capsys.readouterr().out
    assert "c error" in out and "s UNKNOWN" in out
