"""The performance ledger: one command, every metric by name and unit.

    python benchmarks/ledger/run.py [--workload W] [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--runs K] [--out FILE]

With ``--workload`` it runs that workload once and prints its metrics,
then -- as the last line of standard output -- one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--workload`` it runs all five (each in a fresh interpreter, so
imports and peak memory are per workload), ``--runs`` times each with
seeds ``N, N+1, ...``, prints the table and writes ``--out`` for
:mod:`compare`.  It exits non-zero if any output disagrees with the
oracle, any op failed, or a run left a daemon, socket, pidfile or
shared-memory segment behind.

Metric names, units and regression bounds live in ``BENCHMARK.json`` at
the repository root; this file only measures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from statistics import mean, median
from time import perf_counter

_T0 = perf_counter()      # set-up is timed from the first line we run

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from hermetic import OUT, ROOT, Hermetic, machine_facts  # noqa: E402
from spans import OP_SPAN  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
#: set-up is timed up to this many times, while the total stays under
#: the budget (the expensive set-ups are timed once)
SETUP_REPEATS = 3
SETUP_BUDGET_S = 4.0
WORKLOAD_NAMES = ("cold_compile", "warm_execute", "certify", "cli_oneshot",
                  "serve_socket_mixed")


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except OSError as exc:
        raise SystemExit(f"ledger: cannot read {SPEC}: {exc}")


def _with_units(values: dict, declared: list[dict]) -> dict:
    """``values`` as the contract's ``{name: {value, unit}}``, checked
    against the names ``BENCHMARK.json`` declares."""
    names = [d["name"] for d in declared]
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing or extra:
        raise SystemExit(f"ledger: metrics out of step with {SPEC.name}: "
                         f"missing {missing}, undeclared {extra}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in declared}


def _shares(rec, traced_total: float) -> dict:
    """Layer -> share of the traced ops' wall time (self times)."""
    if not traced_total:
        return {}
    return {name: s / traced_total
            for name, s in sorted(rec.self_times().items(),
                                  key=lambda kv: -kv[1])}


def timed_setup(load, cal) -> tuple[float, float]:
    """One set-up from a cold start; -> (wall, calibrated) seconds.

    The kernel runs before, after, and wherever a long set-up calls
    ``load.tick()`` between its steps; each stretch is calibrated by
    the slowdown at its two ends.
    """
    wall = calibrated = 0.0
    slow = cal.slowdown()
    t0 = perf_counter()

    def tick() -> None:
        nonlocal wall, calibrated, slow, t0
        stretch = perf_counter() - t0
        after = cal.slowdown()
        wall += stretch
        calibrated += stretch / ((slow + after) / 2)
        slow = after
        t0 = perf_counter()

    load.tick = tick
    load.setup()
    tick()
    return wall, calibrated


def run_one(args, spec: dict) -> dict:
    """One workload, one seed, one mode; -> the full record."""
    from workloads import WORKLOADS, Tracing

    with Hermetic() as world:
        load = WORKLOADS[args.workload](world, args.seed, quick=args.quick)
        tracing = Tracing() if args.trace else None
        # the calibration kernel runs beside set-up and beside the ops;
        # end-to-end times are wall times over the machine's slowdown
        cal = load.calibration()
        for module in load.modules:
            import_module(module)
        imports_s = perf_counter() - _T0
        imports_cal_s = imports_s / cal.slowdown()
        try:
            # set-up is repeated from a cold start while that is cheap,
            # and its median reported
            setups = [timed_setup(load, cal)]
            while len(setups) < (1 if args.quick else SETUP_REPEATS) \
                    and sum(w for w, _ in setups) <= SETUP_BUDGET_S:
                load.reset()
                setups.append(timed_setup(load, cal))
            # a traced run spends the other half of its time on the census
            m = load.measure(args.seconds / 2 if tracing else args.seconds,
                             cal, tracing)
        finally:
            load.teardown()
        tail = load.tail
        wall = {"setup_s": imports_s + median(w for w, _ in setups),
                "op_s.p50": median(m.wall),
                "op_s.tail": float(np.percentile(m.wall, tail)),
                "ops_per_s": len(m.wall) / m.busy_wall_s}
        record = {"workload": load.name, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "attempted": len(m.plain) + len(m.traced),
                  "failed": m.failed,
                  "samples": len(m.plain), "op_unit": load.op_unit,
                  "points_per_op": load.points_per_op,
                  "tail_percentile": tail,
                  "wall": wall, "op_s": m.plain,
                  "setups_s": [c for _, c in setups],
                  "slowdown": {"setup": median(w / c for w, c in setups),
                               "ops": median(m.slowdowns)},
                  "machine": machine_facts()}
        if tracing is None:
            values = {
                "setup_s": imports_cal_s + median(c for _, c in setups),
                "op_s.p50": median(m.plain),
                "op_s.tail": float(np.percentile(m.plain, tail)),
                "ops_per_s": len(m.plain) / m.busy_s,
                "peak_rss_mb": load.rss_mb(),
            }
            record["metrics"] = _with_units(values, spec["end_to_end"])
        else:
            import census

            rec = tracing.rec
            roots = [sp for sp in rec.spans if sp.name == OP_SPAN]
            values = census.take(world, args.seed, quick=args.quick)
            values["ledger.calibration_s"] = cal.kernel_s
            values["ledger.unattributed_s"] = mean(
                sp.self_s for sp in roots)
            values["ledger.trace_overhead_ratio"] = \
                median(m.traced) / median(m.plain)
            record["metrics"] = _with_units(values, spec["per_layer"])
            record["shares"] = _shares(
                rec, sum(sp.duration for sp in roots))
            record["traced_op_s.p50"] = median(m.traced)
            OUT.mkdir(parents=True, exist_ok=True)
            rec.dump(OUT / f"trace-{load.name}.json")
    record["leaks"] = world.leaks
    record["correct"] = m.failed == 0 and not world.leaks
    return record


def contract_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def print_record(record: dict, out=sys.stdout) -> None:
    facts = record["machine"]
    print(f"ledger: {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} | "
          f"nproc={facts['nproc']} python={facts['python']} "
          f"numpy={facts['numpy']} shm={facts['shm']} "
          f"loadavg={facts['loadavg']}", file=out)
    print(f"  one op = one {record['op_unit']} "
          f"({record['points_per_op']} iteration points); "
          f"{record['samples']} untraced samples; op_s.tail = "
          f"p{record['tail_percentile']}", file=out)
    slow = record["slowdown"]
    print(f"  machine slowdown against the calibration reference: "
          f"x{slow['setup']:.3f} during set-up, x{slow['ops']:.3f} "
          f"during the ops; wall: " + ", ".join(
              f"{k}={v:.5g}" for k, v in record["wall"].items()), file=out)
    for name, m in record["metrics"].items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}", file=out)
    for name, share in record.get("shares", {}).items():
        print(f"  share {name:38s} {share:>13.1%}", file=out)
    print(f"  attempted={record['attempted']} failed={record['failed']} "
          f"fail_ratio={record['failed'] / record['attempted']:.4f} "
          f"correct={record['correct']}", file=out)
    for leak in record["leaks"]:
        print(f"  LEAK {leak}", file=out)


def shares_markdown(records: list[dict]) -> str:
    """The first ledger: layer shares per workload, from traced runs."""
    lines = []
    for r in records:
        if not r.get("shares"):
            continue
        lines += [f"**{r['workload']}** (traced op p50 "
                  f"{r['traced_op_s.p50']:.4g} s, overhead x"
                  f"{r['metrics']['ledger.trace_overhead_ratio']['value']:.3f})",
                  "", "| layer | share of op |", "|---|---|"]
        lines += [f"| `{name}` | {share:.1%} |"
                  for name, share in r["shares"].items() if share >= 0.001]
        lines.append("")
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload in its own interpreter; -> exit code."""
    OUT.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = []
    for name in names:
        for k in range(args.runs):
            part = OUT / f"part-{name}-{k}.json"
            argv = [sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(args.seed + k),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--out", str(part)]
            if args.quick:
                argv.append("--quick")
            proc = subprocess.run(argv, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            if proc.returncode not in (0, 1) or not part.exists():
                print(f"ledger: {name} crashed (exit {proc.returncode})")
                return 2
            records += json.loads(part.read_text())["runs"]
            part.unlink()
    if args.trace:
        print(shares_markdown(records))
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": records}, indent=1)
                                  + "\n")
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload when running several")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full records as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (the self-test)")
    args = parser.parse_args(argv)
    if args.workload is None or args.runs > 1:
        return run_all(args)
    record = run_one(args, spec)
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": [record]}) + "\n")
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
