"""Continuous perf history: measure engines, append, compare, gate.

One :func:`measure_entry` call times the execution engines on the
standard benchmark workload (the scaled matrix multiply under the
duplicate-data strategy -- the same case whose floors are committed in
``BENCH_engine.json``) and produces a JSON-ready history entry.
Entries append to a JSON-lines history file (one run per line, newest
last), so a working tree accumulates a local perf timeline that
``repro perf`` renders with deltas against the committed baseline.

``repro perf --check`` turns the floors into a regression gate: if a
backend's speedup over the interpreter falls below its floor (from the
baseline file, overridable per backend with ``--floor``), the command
exits non-zero -- suitable for CI.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from time import perf_counter
from typing import Mapping, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry, current_registry

#: Default benchmark geometry -- matches ``benchmarks/bench_engine.py``
#: and the committed ``BENCH_engine.json`` baseline.
DEFAULT_N = 40
DEFAULT_REPEATS = 3
DEFAULT_HISTORY = "BENCH_history.jsonl"
DEFAULT_BASELINE = "BENCH_engine.json"
#: Fallback floors when no baseline file is available.  The
#: multiprocess floor assumes the shared-memory store (descriptor
#: leases, warm pool); it is checked only when the entry ran with one.
#: ``X_over_Y`` keys gate the *relative* speedup of backend X over
#: backend Y (the codegen tier must actually beat the compiled tier it
#: specializes past, not merely beat the interpreter).
DEFAULT_FLOORS = {"compiled": 5.0, "vectorized": 20.0,
                  "multiprocess": 2.0, "codegen": 25.0,
                  "codegen_over_compiled": 1.5}

BACKENDS = ("interp", "compiled", "codegen", "vectorized", "multiprocess")

PathLike = Union[str, Path]


def perf_env(workers: Optional[int] = None) -> dict:
    """The environment stamp attached to every perf entry.

    Perf numbers are meaningless without the machine context: the
    worker count and CPU count explain multiprocess scaling, the
    python/numpy/shm fields explain which tiers and lease paths were
    even available.
    """
    import os
    import platform

    from repro.runtime import numpy_compat as npc
    from repro.runtime.blockstore import shm_available

    return {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": npc.have_numpy(),
        "shm": shm_available(),
    }


def matmul_nest(n: int = DEFAULT_N):
    """``C = C + A*B`` as a 3-deep nest (the benchmark workload)."""
    from repro.lang.parser import parse

    hi = n - 1
    return parse(
        f"""
        for i = 0 to {hi} {{
          for j = 0 to {hi} {{
            for k = 0 to {hi} {{
              C[i,j] = C[i,j] + A[i,k] * B[k,j];
            }} }} }}
        """,
        name=f"MATMUL{n}",
    )


def _run_once(backend: str, plan, initial) -> float:
    """One fresh-allocation run; returns engine-only seconds."""
    from repro.runtime.engine import get_engine
    from repro.runtime.parallel import ParallelResult, allocate_blocks

    engine = get_engine(backend)
    mapping = {b.index: b.index for b in plan.blocks}
    memories = allocate_blocks(plan, initial, mapping)
    result = ParallelResult(plan=plan, memories=memories,
                            block_to_pid=mapping)
    t0 = perf_counter()
    engine.run_blocks(plan, memories, result, initial, {}, strict=True)
    return perf_counter() - t0


def measure_engine_runs(
    n: int = DEFAULT_N,
    repeats: int = DEFAULT_REPEATS,
    backends: Optional[Sequence[str]] = None,
) -> dict[str, list[float]]:
    """Per-backend run times (seconds, in order) on the matmul workload.

    The *first* run of each backend is its cold run: it pays one-time
    setup -- kernel emission/compilation (amortized further by the
    codegen tier's on-disk cache), plan geometry, pool warm-up -- that
    steady-state runs skip, so the list shape is what lets
    :func:`make_entry` report setup cost separately from per-run cost.
    ``vectorized`` is skipped when numpy is unavailable; the
    interpreter baseline runs at most twice (it is the slow tier).
    Multiprocess runs are measured against a warm persistent
    :class:`~repro.runtime.pool.WorkerPool`, matching how a
    :class:`~repro.api.Session` amortizes pool spawn across runs.
    """
    from repro.core.plan import build_plan
    from repro.core.strategy import Strategy
    from repro.runtime import numpy_compat as npc
    from repro.runtime.arrays import make_arrays
    from repro.runtime.pool import WorkerPool, use_pool

    plan = build_plan(matmul_nest(n), strategy=Strategy.DUPLICATE)
    initial = make_arrays(plan.model)
    runs: dict[str, list[float]] = {}
    pool = WorkerPool()
    try:
        with use_pool(pool):
            for backend in (backends if backends is not None else BACKENDS):
                if backend == "vectorized" and not npc.have_numpy():
                    continue
                reps = max(1, min(repeats, 2) if backend == "interp"
                           else repeats)
                runs[backend] = [_run_once(backend, plan, initial)
                                 for _ in range(reps)]
    finally:
        pool.shutdown()
    return runs


def measure_engines(
    n: int = DEFAULT_N,
    repeats: int = DEFAULT_REPEATS,
    backends: Optional[Sequence[str]] = None,
) -> dict[str, float]:
    """Best-of engine-only seconds per backend on the matmul workload."""
    return {b: min(r)
            for b, r in measure_engine_runs(n=n, repeats=repeats,
                                            backends=backends).items()}


def make_entry(times: Mapping[str, float], n: int, repeats: int,
               runs: Optional[Mapping[str, Sequence[float]]] = None) -> dict:
    """A JSON-ready history entry from measured times.

    ``runs`` (per-backend run lists, first run cold) adds the
    ``cold_ms`` / ``setup_ms`` breakdown: the one-time setup cost --
    codegen emit + compile on a cold cache, plan geometry, pool warm-up
    -- reported separately from the steady-state per-run ``ms``, so a
    warm on-disk kernel cache is *visible* as a shrunken setup column.
    """
    from repro.runtime.engine.multiproc import worker_count

    interp = times.get("interp")
    entry = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "case": f"MATMUL{n}-dup",
        "n": n,
        "repeats": repeats,
        "env": perf_env(workers=worker_count(n)),
        "ms": {b: round(t * 1e3, 3) for b, t in sorted(times.items())},
        "speedup": ({b: round(interp / t, 2)
                     for b, t in sorted(times.items()) if b != "interp"}
                    if interp else {}),
    }
    if runs:
        entry["cold_ms"] = {b: round(r[0] * 1e3, 3)
                            for b, r in sorted(runs.items()) if r}
        entry["setup_ms"] = {
            b: round(max(0.0, r[0] - min(r)) * 1e3, 3)
            for b, r in sorted(runs.items()) if r}
    return entry


def measure_plan_latency(n: int = DEFAULT_N,
                         repeats: int = 5) -> tuple[dict, int]:
    """Plan-build latency stats (ms) and the plan's block count.

    Several back-to-back builds of the benchmark nest; later builds hit
    the content-addressed plan cache, so the distribution covers both
    the cold build and the cached serve path (the thing the
    ``plan-latency-p95`` SLO is actually about).  Quantiles are
    nearest-rank (the sample is tiny by construction).
    """
    import math

    from repro.core.plan import build_plan
    from repro.core.strategy import Strategy

    nest = matmul_nest(n)
    samples: list[float] = []
    nblocks = 0
    for _ in range(max(1, repeats)):
        t0 = perf_counter()
        plan = build_plan(nest, strategy=Strategy.DUPLICATE)
        samples.append((perf_counter() - t0) * 1e3)
        nblocks = len(plan.blocks)
    ordered = sorted(samples)

    def rank(q: float) -> float:
        return round(ordered[max(1, math.ceil(q * len(ordered))) - 1], 3)

    return ({"p50": rank(0.5), "p95": rank(0.95),
             "mean": round(sum(samples) / len(samples), 3),
             "runs": len(samples)}, nblocks)


def committed_obs_overhead(path: PathLike = "BENCH_obs.json") \
        -> Optional[float]:
    """The committed flight-recorder overhead fraction, or None.

    Read from ``BENCH_obs.json`` (written by
    ``benchmarks/bench_obs_overhead.py``) so the ``obs-overhead`` SLO
    evaluates against the measured, committed figure.
    """
    p = Path(path)
    if not p.exists():
        return None
    try:
        data = json.loads(p.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    frac = (data.get("flight") or {}).get("overhead_fraction")
    return float(frac) if isinstance(frac, (int, float)) else None


def measure_entry(n: int = DEFAULT_N, repeats: int = DEFAULT_REPEATS,
                  registry: Optional[MetricsRegistry] = None) -> dict:
    """Measure and publish one history entry (``perf.*`` metrics).

    Beyond the per-backend times the entry carries the serving-side
    series the SLOs and the EWMA watchdog gate: ``plan_ms`` (plan-build
    latency stats), ``blocks_per_sec`` (multiprocess block throughput),
    ``obs_overhead_fraction`` (the committed flight-recorder tax) and
    the evaluated ``slo`` block itself.
    """
    from repro.obs.slo import evaluate_slos, slo_block

    runs = measure_engine_runs(n=n, repeats=repeats)
    entry = make_entry({b: min(r) for b, r in runs.items()}, n, repeats,
                       runs=runs)
    plan_ms, nblocks = measure_plan_latency(n=n)
    entry["plan_ms"] = plan_ms
    mp_ms = entry["ms"].get("multiprocess")
    if mp_ms:
        entry["blocks_per_sec"] = round(nblocks / (mp_ms / 1e3), 2)
    frac = committed_obs_overhead()
    if frac is not None:
        entry["obs_overhead_fraction"] = frac
    entry["serve"] = measure_serve_entry()
    entry["slo"] = slo_block(evaluate_slos(entry))
    reg = registry if registry is not None else current_registry()
    reg.inc("perf.runs")
    for backend, s in entry["speedup"].items():
        reg.set(f"perf.speedup.{backend}", s)
    if "blocks_per_sec" in entry:
        reg.set("perf.blocks_per_sec", entry["blocks_per_sec"])
    if "plans_per_sec" in entry["serve"]:
        reg.set("perf.serve.plans_per_sec",
                entry["serve"]["plans_per_sec"])
    return entry


def measure_serve_entry(requests: int = 30, bursts: int = 3) -> dict:
    """One small in-process serving burst: the ``entry["serve"]`` block.

    Mixed plan/verify traffic against an :class:`~repro.serve.server.
    AsyncServer` measures warm request throughput (``plans_per_sec``,
    the series the EWMA watchdog tracks) and latency quantiles from
    the ``serve.latency_ms`` histogram -- the same shape
    ``benchmarks/bench_serve.py`` records floors for.
    """
    import asyncio

    from repro.serve import AsyncServer
    from repro.serve.protocol import Request

    cases = [("plan", "L1"), ("verify", "L2"), ("plan", "L2")]
    per_burst = max(1, requests // bursts)

    async def drive(srv: AsyncServer):
        t0 = perf_counter()
        ok = total = 0
        for burst in range(bursts):
            frames = []
            for i in range(per_burst):
                op, nest = cases[i % len(cases)]
                frames.append(Request(op=op, nest=nest,
                                      strategy="duplicate",
                                      id=f"p{burst}-{i}").to_dict())
            responses = await asyncio.gather(
                *[srv.handle(f) for f in frames])
            total += len(responses)
            ok += sum(1 for r in responses if r["ok"])
        return ok, total, perf_counter() - t0

    with AsyncServer(max_concurrency=4, queue_limit=64) as srv:
        ok, total, wall = asyncio.run(drive(srv))
        lat = srv.registry.get("serve.latency_ms")
        coalesced = int(srv.registry.value("serve.coalesced"))
    block = {
        "requests": total,
        "ok": ok,
        "coalesced": coalesced,
        "wall_ms": round(wall * 1e3, 1),
    }
    if wall > 0 and ok:
        block["plans_per_sec"] = round(ok / wall, 2)
    if lat is not None and lat.count:
        block["p50_ms"] = round(lat.quantile(0.50), 3)
        block["p95_ms"] = round(lat.quantile(0.95), 3)
        block["p99_ms"] = round(lat.quantile(0.99), 3)
    return block


# ---------------------------------------------------------------------------
# history file + baseline comparison
# ---------------------------------------------------------------------------

def append_history(entry: dict, path: PathLike = DEFAULT_HISTORY) -> int:
    """Append one entry to the JSON-lines history; returns the new length."""
    p = Path(path)
    with p.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return sum(1 for line in p.read_text().splitlines() if line.strip())


def load_history(path: PathLike = DEFAULT_HISTORY) -> list[dict]:
    p = Path(path)
    if not p.exists():
        return []
    return [json.loads(line) for line in p.read_text().splitlines()
            if line.strip()]


def load_baseline(path: PathLike = DEFAULT_BASELINE) -> Optional[dict]:
    """The committed baseline: ``{"floors": ..., "speedup": ...}``.

    Reads ``BENCH_engine.json`` and extracts the matmul case matching
    its recorded ``matmul_n``; returns ``None`` when no baseline file
    exists (deltas are then omitted and floors fall back to
    :data:`DEFAULT_FLOORS`).
    """
    p = Path(path)
    if not p.exists():
        return None
    data = json.loads(p.read_text())
    case = f"MATMUL{data.get('matmul_n', DEFAULT_N)}-dup"
    row = data.get("cases", {}).get(case, {})
    return {
        "case": case,
        "floors": data.get("floors", dict(DEFAULT_FLOORS)),
        "speedup": row.get("speedup", {}),
        "ms": row.get("ms", {}),
    }


def check_floors(entry: dict, floors: Mapping[str, float]) -> list[str]:
    """Regression failures: backends whose speedup fell below the floor.

    A floored backend missing from the entry entirely (e.g. vectorized
    without numpy) is skipped -- absence is an environment limitation,
    not a regression.  The multiprocess floor is likewise skipped when
    the entry's environment stamp says the shared-memory store was off
    (``REPRO_NO_SHM`` / no numpy): the floor is a commitment about the
    zero-copy path, and the by-value fallback is dominated by pickling.

    ``X_over_Y`` floor keys gate the ratio of backend X's speedup over
    backend Y's (equivalently Y's ms over X's) and are skipped when
    either backend is missing from the entry.
    """
    failures = []
    env = entry.get("env", {})
    ms = entry.get("ms", {})
    for backend, floor in sorted(floors.items()):
        if "_over_" in backend:
            num, _, den = backend.partition("_over_")
            if num not in ms or den not in ms or not ms[num]:
                continue
            ratio = round(ms[den] / ms[num], 2)
            if ratio < floor:
                failures.append(
                    f"{num}: only {ratio}x over {den} (floor {floor}x)")
            continue
        got = entry.get("speedup", {}).get(backend)
        if got is None:
            continue
        if backend == "multiprocess" and not env.get("shm", True):
            continue
        if got < floor:
            failures.append(f"{backend}: {got}x < floor {floor}x")
    return failures


def render_perf_table(entry: dict, baseline: Optional[dict],
                      floors: Mapping[str, float]) -> str:
    """The ``repro perf`` table: ms, setup, speedup, delta, floor.

    The ``setup ms`` column (cold first run minus steady-state best)
    appears when the entry carries per-run data; a warm on-disk kernel
    cache shows up directly as a near-zero codegen setup cost.
    """
    setup = entry.get("setup_ms") or {}
    header = f"{'backend':<14} {'best ms':>10} "
    if setup:
        header += f"{'setup ms':>9} "
    header += f"{'speedup':>8} {'baseline':>9} {'delta':>7} " \
              f"{'floor':>6}  status"
    lines = [header]
    base_speedup = (baseline or {}).get("speedup", {})

    def setup_col(backend):
        if not setup:
            return ""
        su = setup.get(backend)
        return f"{su:>9.3f} " if su is not None else f"{'-':>9} "

    for backend in sorted(entry["ms"]):
        ms = entry["ms"][backend]
        if backend == "interp":
            lines.append(f"{backend:<14} {ms:>10.3f} {setup_col(backend)}"
                         f"{'1.0':>8} {'-':>9} {'-':>7} {'-':>6}  baseline")
            continue
        s = entry["speedup"].get(backend)
        base = base_speedup.get(backend)
        delta = f"{s - base:+.1f}" if base is not None else "-"
        floor = floors.get(backend)
        if floor is not None and s < floor:
            status = f"REGRESSION (< {floor}x)"
        else:
            status = "ok"
        lines.append(
            f"{backend:<14} {ms:>10.3f} {setup_col(backend)}{s:>8.1f} "
            f"{base if base is not None else '-':>9} {delta:>7} "
            f"{floor if floor is not None else '-':>6}  {status}")
    return "\n".join(lines)
