"""The reachability step: every function of ``src/repro`` is entered by
something a user runs, or is listed in ``tests/golden/library_only.json``
with a reason.  Run from the repository root; it takes no options, and
the benchmark's self-test among the commands needs ``numpy``::

    python tests/reach/run.py

Every process below runs with ``profile_hook.py``, copied as
``sitecustomize.py`` into a directory first on its ``PYTHONPATH`` (the
daemon and forked workers too): the ``repro`` subcommands, ``python -m
repro.config``, ``python -m repro.obs.schema`` and ``python -m
repro.obs.export``, ``examples/*.py``, a daemon round trip per wire op,
and ``pytest benchmarks/ledger`` (what the benchmark imports, taps and
runs is its contract).  Exit 0 iff no ``def`` is left unentered and
unlisted, no listed one is entered (stale), and every entry has a
reason.  It writes only under a temporary directory and the ledger's
ignored ``out/``, and takes a few minutes: a CI job, not tier-1.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
ROOT = SRC / "repro"
LISTED = REPO / "tests" / "golden" / "library_only.json"

sys.path[:0] = [str(SRC), str(HERE)]

import reach  # noqa: E402

#: one child runs a block's command lines through ``repro.cli.main``
#: (a fresh interpreter per line would spend minutes starting Python)
BATCH = """
import shlex, sys
from repro.cli import main
for line in sys.argv[1].splitlines():
    try:
        code = main(shlex.split(line))
    except SystemExit as exc:
        code = exc.code
    print("reach: exit", code, line, file=sys.stderr)
"""

#: the daemon's two refusals: a malformed frame on the socket, and a
#: nest that does not parse through the blocking client
REFUSALS = """
import os, socket
from repro.serve.client import ServeClient, ServeError
with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
    s.connect(os.environ["REPRO_SERVE_SOCKET"])
    s.sendall(b"{not a frame\\n")
    print("reach:", s.recv(65536))
try:
    ServeClient().request("plan", nest="for i = 1 to {")
except ServeError as exc:
    print("reach: refused:", exc.kind)
"""

PER_LOOP = ("verify --backend all", "run", "audit", "report",
            "audit --static --inject-violation --json bad.json")
COMBOS = ("", " --duplicate", " --eliminate", " --duplicate --eliminate")

#: ``(environment, command lines)`` run in one child each: CI's CLI,
#: input-error, observability and audit smoke steps, and a few inputs
#: more (a stepped loop, a unary minus, a non-integer subscript)
BLOCKS = [({}, """
selftest
tables
figures
--version
--help
verify --help
report --loop L4 --section plan --trace plan-L4.json
report --loop L1 -p 4
report --loop L3 --duplicate --eliminate --section 'why Psi looks like this'
report int.loop --section 'why Psi looks like this'
report --loop L1 -p 4 --trace report.json
verify --loop L4 --backend codegen
verify --loop TRI --backend codegen --eliminate
verify --loop TRI --backend interp
verify --loop L2 --duplicate --backend codegen
verify --loop L1 --backend compiled
run --loop L5 --duplicate --backend auto --trace run.json
audit --loop L1 --inject-violation --backend codegen
audit --loop L1 --inject-violation --backend interp
run zero.loop --backend auto
audit zero.loop
verify zero.loop
top --once
analyze --loop L1
verify step.loop --backend all
verify unbound.loop --scalars alpha=2
"""), ({}, """
verify unbound.loop
verify half.loop
report --loop L1 -p 0
report --loop L1 -p -2
report --loop L1 --duplicate-arrays Z
report --loop L1 --section nope
verify --loop L3sub --scalars D=nan,F=3
verify --loop L3sub --scalars D=2,F=3,D=5
"""), ({"REPRO_MP_WORKERS": "0"}, """
verify --loop L1 --backend multiprocess
"""), ({"REPRO_CODEGEN_DISK": "0"}, """
verify --loop L5 --backend codegen
"""), ({}, """
report --loop L1 -p 4 --trace trace.json
verify --loop L2 --duplicate --trace verify-trace.json
run --loop L1 --trace run-L1.json
verify --loop L1 --backend multiprocess --trace mp-trace.json
audit --loop L1 --duplicate --json audit.json
audit --loop L4 --json audit-L4.json
audit --loop STENCIL2D --json audit-S.json
audit --loop L3 --eliminate --static
audit --loop L1 --duplicate --inject-violation --static --json bad-static.json
audit --loop L1 --duplicate --inject-violation --json bad.json
""")]

#: ``(environment, python arguments)`` run one process each, in order;
#: the daemon's shared pool keeps one worker
PROCESSES = [({}, """
-m repro.config
-m repro.obs.schema trace.json
-m repro.obs.schema verify-trace.json
-m repro.obs.export report.json --as prom
-m repro.obs.export run.json --as prom
-m repro.obs.export plan-L4.json --as timings
-m repro.obs.export mp-trace.json --as timings
-m repro verify matmul.loop --duplicate --backend all
-m repro run matmul.loop --duplicate --backend multiprocess --json mp.json
-m repro audit --loop L5 --duplicate --inject-violation --backend multiprocess
"""), ({"REPRO_MP_WORKERS": "1"}, """
-m repro verify --loop L5 --duplicate --backend multiprocess
-m repro serve start
-m repro serve submit --op plan --loop L2 --duplicate
-m repro serve submit --op run --loop L2 --duplicate
-m repro serve submit --op verify --loop L2 --duplicate
-m repro serve submit --op audit --loop L2 --duplicate
-m repro serve submit --op report --loop L2 --duplicate
-m repro serve submit --op verify unbound.loop --scalars alpha=2 --duplicate-arrays B
-m repro serve submit --op run --loop L1 --backend multiprocess
""")]

LOOPS = {
    "zero.loop": "for i = 5 to 1 { S1: A[i] = A[i - 1] + 1; }",
    "int.loop": "for i = 1 to 6 { for j = 1 to 6 { "
                "S1: A[2*i + j] = A[2*i + j - 3] + 1; } }",
    "unbound.loop": "for i = 1 to 4 { A[i] = B[i] * alpha; }",
    "half.loop": "for i = 1 to 4 { A[i / 2] = 1; }",
    "step.loop": "for i = 1 to 9 step 2 { S1: A[i] = -A[i - 2] + B[i]; }",
    "matmul.loop": "for i = 1 to 8 { for j = 1 to 8 { for k = 1 to 8 { "
                   "S1: C[i, j] = C[i, j] + A[i, k] * B[k, j]; } } }",
}


def call(argv: list[str], env: dict, work: Path, cwd=None) -> int:
    with open(work / "output.log", "ab") as log:
        return subprocess.run(argv, env=env, cwd=cwd or work, stdout=log,
                              stderr=log, timeout=900).returncode


def disk_round(env: dict, work: Path) -> None:
    """One-shot ``verify`` processes through the disk caches: a cold one
    (it sweeps a dead writer's temporary file), a warm one after every
    entry was torn (each is discarded and made again), a warm hit."""
    plans = work / "plans"
    plans.mkdir()
    (plans / f"stale.plan.tmp.{2 ** 31 - 1}").write_bytes(b"")
    env = {**env, "REPRO_PLAN_CACHE_DIR": str(plans)}
    verify = [sys.executable, "-m", "repro", "verify"]
    for torn in (False, True, False):
        for entry in [*plans.glob("*.plan"),
                      *Path(env["XDG_CACHE_HOME"]).rglob("*.py")] * torn:
            entry.write_bytes(b"\xff torn")
        call(verify + ["matmul.loop", "--duplicate", "--backend", "auto"],
             env, work)
    call(verify + ["--loop", "TRI", "--eliminate"], env, work)


def trace(tmp: Path) -> tuple[set, set]:
    """Run everything under the profiler -> ``reach.read_rows`` of it."""
    shutil.copy(HERE / "profile_hook.py", tmp / "sitecustomize.py")
    work = tmp / "work"
    work.mkdir(parents=True)
    for name, text in LOOPS.items():
        (work / name).write_text(text + "\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=os.pathsep.join([str(tmp), str(SRC)]),
               XDG_CACHE_HOME=str(tmp / "xdg"),
               REPRO_SERVE_SOCKET=str(tmp / "serve.sock"))
    py = sys.executable
    from repro.lang.catalog import ALL_LOOPS

    blocks = [({}, "\n".join(f"{cmd} --loop {name}{combo}"
                             for combo in COMBOS for cmd in PER_LOOP))
              for name in ALL_LOOPS] + BLOCKS
    with ThreadPoolExecutor(2) as pool:
        list(pool.map(lambda b: call([py, "-c", BATCH, b[1].strip()],
                                     {**env, **b[0]}, work), blocks))
    try:
        for extra, lines in PROCESSES:
            for line in lines.strip().splitlines():
                call([py, *shlex.split(line)], {**env, **extra}, work)
        call([py, "-c", REFUSALS], env, work)
        call([py, "-m", "repro", "serve", "status"], env, work)
    finally:
        call([py, "-m", "repro", "serve", "stop"], env, work)
    for example in sorted((REPO / "examples").glob("*.py")):
        call([py, str(example)], env, work)
    disk_round(env, work)
    if call([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "benchmarks/ledger"], env, work, cwd=REPO):
        print("reach: pytest benchmarks/ledger failed: what only the "
              "benchmark runs reads as unreached")
    return reach.read_rows((tmp / "entered").glob("*.txt"))


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-reach-"))
    try:
        entered, made = trace(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    listed = json.loads(LISTED.read_text())
    found = reach.check(ROOT, entered, made, listed)
    print(f"reach: {len(reach.definitions(ROOT)[0])} defs under src/repro, "
          f"{len(listed)} listed as library-only")
    whats = {"unreached": "nothing enters it and the list does not name it",
             "stale": "listed as library-only, but something enters it",
             "unreasoned": "listed without a reason",
             "unknown": "listed, but there is no such def"}
    problems = [f"{kind}: {name}: {what}" for kind, what in whats.items()
                for name in found[kind]]
    print("\n".join(problems + [f"reach: {len(problems)} problem(s)"
                                if problems else "reach: OK"]))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
