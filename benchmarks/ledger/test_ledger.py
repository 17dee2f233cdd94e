"""Self-test of the ledger harness (``pytest benchmarks/ledger``).

Outside the tier-1 ``testpaths``: it spawns interpreters and a daemon.
A ``--quick`` pass (tiny sizes, half-second phases) over every workload
in both modes must emit exactly the metrics ``BENCHMARK.json`` names.
"""

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _quick(job):
    workload, trace = job
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--quick", "--seconds", "0.5", "--seed", "3",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_quick_pass_emits_every_declared_metric():
    jobs = [(w["name"], trace) for trace in (1, 0)
            for w in SPEC["workloads"]]
    t0 = perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_quick, jobs))
    elapsed = perf_counter() - t0
    for (workload, trace), result in zip(jobs, results):
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [d["name"] for d in declared], \
            workload
        for d in declared:
            got = result["metrics"][d["name"]]
            assert NAME.fullmatch(d["name"])
            assert got["unit"] == d["unit"]
            assert isinstance(got["value"], (int, float))
    assert elapsed < 30.0, f"quick pass took {elapsed:.1f} s"


def test_spec_is_within_the_contract():
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_oracle_and_corpus_import_nothing_from_repro():
    for module in ("oracle.py", "corpus.py"):
        text = (HERE / module).read_text()
        assert not re.search(r"^\s*(from|import)\s+repro\b", text, re.M)
