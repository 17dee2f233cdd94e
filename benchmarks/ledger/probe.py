"""Engine-tier probes, run by :mod:`census` in a fresh interpreter.

``probe.py engines``: for each tier and each of the two MATMUL shapes,
the first ``run_blocks`` of this process (``cold_s``: kernel emission,
program build, pool spawn -- whatever the tier pays once) and the
median of the next three (``warm_s``); the pool spawn alone; and the
multiprocess tier's warm one-worker over two-worker time.

``probe.py diskwarm``: the codegen tier's first run in a process whose
kernel cache directory the previous probe filled.

``--quick`` selects the toy corpus.  The environment (cache
directories, ``PYTHONPATH``) is the parent's; plans come from the
parent's warm plan cache on disk, so neither probe pays for planning.
Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median
from time import perf_counter

import corpus
from spans import Recorder, Taps

WARM_RUNS = 3
TIERS = ("interp", "compiled", "codegen", "vectorized", "multiprocess")


def _shapes() -> dict:
    nests = corpus.corpus(quick="--quick" in sys.argv)
    return {"many_blocks": nests[-2], "one_block": nests[-1]}


def _engine_times(nest, tier: str, runs: int) -> list[float]:
    """``run_blocks`` durations of ``runs`` runs on a fresh session."""
    from repro.api import Session

    rec = Recorder()
    with Session(nest.source, strategy=nest.strategy) as s:
        s.plan()
        with Taps(rec):
            for _ in range(runs):
                if not s.run(backend=tier).ok:
                    raise RuntimeError(f"{tier} failed on {nest.name}")
    return rec.durations("runtime.engine")


def engines() -> dict:
    from repro.runtime.pool import WorkerPool

    out = {}
    for shape, nest in _shapes().items():
        for tier in TIERS:
            times = _engine_times(nest, tier, 1 + WARM_RUNS)
            out[f"runtime.engine.{tier}.{shape}.cold_s"] = times[0]
            out[f"runtime.engine.{tier}.{shape}.warm_s"] = median(times[1:])

    pool = WorkerPool("ledger-probe")
    t0 = perf_counter()
    pool.acquire(2).submit(os.getpid).result()
    out["runtime.pool.spawn_s"] = perf_counter() - t0
    pool.shutdown()

    warm = {}
    for workers in (1, 2):
        os.environ["REPRO_MP_WORKERS"] = str(workers)
        warm[workers] = median(_engine_times(
            _shapes()["many_blocks"], "multiprocess", 1 + WARM_RUNS)[1:])
    del os.environ["REPRO_MP_WORKERS"]
    out["runtime.multiprocess.scaling_w2"] = warm[1] / warm[2]
    return out


def diskwarm() -> dict:
    times = _engine_times(_shapes()["many_blocks"], "codegen", 1)
    return {"runtime.engine.codegen.diskwarm_s": times[0]}


if __name__ == "__main__":
    print(json.dumps({"engines": engines, "diskwarm": diskwarm}
                     [sys.argv[1]]()))
