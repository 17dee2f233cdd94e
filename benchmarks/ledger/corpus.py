"""Seeded inputs of the ledger: source text, request mixes, nothing else.

Everything the program under test sees is generated here from
``--seed`` and handed over as mini-language *source text* (or wire
request fields); this module imports nothing from ``repro``, so the
inputs cannot depend on the code they measure.

Three kinds of input:

- the **corpus**: twelve fixed nests (paper L1-L5 plus five library
  kernels plus MATMUL twice), each with the reason it was chosen; the
  seed permutes the order a sweep visits them in, sizes stay fixed so
  every per-layer *count* repeats exactly;
- **novel nests**: small uniformly generated two-deep nests (random
  nonsingular ``H``, random offsets ``c``) built around a chosen flow
  dependence ``t``, so the communication-free partition is known by
  construction (``Psi = span{t}``) without asking ``repro``;
- the **serve mix**: a seeded request schedule over a hot set, pairs of
  identical requests, and novel nests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd


@dataclass(frozen=True)
class Nest:
    """One input program: its text, how to plan it, and why it is here."""

    name: str
    source: str
    strategy: str            # "duplicate" | "nonduplicate"
    why: str
    #: parameters the oracle needs (sizes, or H/c/t for novel nests)
    params: dict = field(default_factory=dict, hash=False, compare=False)


def _loops(bounds: list[tuple[str, str, str]], body: str) -> str:
    """Nested ``for`` text around ``body`` (one statement per line)."""
    lines = []
    for depth, (idx, lo, hi) in enumerate(bounds):
        lines.append(f"{'  ' * depth}for {idx} = {lo} to {hi} {{")
    pad = "  " * len(bounds)
    lines += [pad + stmt for stmt in body.strip().splitlines()]
    for depth in range(len(bounds) - 1, -1, -1):
        lines.append(f"{'  ' * depth}}}")
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _square(n: int, *idx: str) -> list[tuple[str, str, str]]:
    return [(i, "1", str(n)) for i in idx]


def matmul(n: int, strategy: str, why: str = "") -> Nest:
    """``C += A * B`` on ``n^3`` points (paper loop L5 at size ``n``)."""
    return Nest(
        name=f"MATMUL{n}-{strategy}",
        source=_loops(_square(n, "i", "j", "k"),
                      "S1: C[i, j] = C[i, j] + A[i, k] * B[k, j];"),
        strategy=strategy,
        why=why or f"matrix multiply, {n}^3 points, {strategy}",
        params={"kind": "matmul", "n": n},
    )


def paper_l1(n: int = 4) -> Nest:
    return Nest("L1", _loops(_square(n, "i", "j"), """
S1: A[2*i, j] = C[i, j] * 7;
S2: B[j, i + 1] = A[2*i - 2, j - 1] + C[i - 1, j - 1];
"""), "nonduplicate",
        "paper Example 1: three arrays, Psi = span{(1,1)} (Theorem 1)",
        {"kind": "l1", "n": n})


def paper_l2(n: int = 4) -> Nest:
    return Nest("L2", _loops(_square(n, "i", "j"), """
S1: A[i + j, i + j] = B[2*i, j] * A[i + j - 1, i + j];
S2: A[i + j - 1, i + j - 1] = B[2*i - 1, j - 1] / 3;
"""), "duplicate",
        "paper Example 2: singular H_A, exercises Ker(H) and duplication "
        "(Theorem 2)",
        {"kind": "l2", "n": n})


def paper_l3(n: int = 4) -> Nest:
    return Nest("L3", _loops(_square(n, "i", "j"), """
S1: A[i, j] = A[i - 1, j - 1] * 3;
S2: A[i, j - 1] = A[i + 1, j - 2] / 7;
"""), "nonduplicate",
        "paper Example 3: two writes to one array, Psi fills the plane "
        "(single block)",
        {"kind": "l3", "n": n})


def paper_l4(n: int = 4) -> Nest:
    return Nest("L4", _loops(_square(n, "i1", "i2", "i3"), """
S1: A[i1, i2, i3] = A[i1 - 1, i2 + 1, i3 - 1] + B[i1, i2, i3];
"""), "nonduplicate",
        "paper Example 4: three-deep, Psi = span{(1,-1,1)}",
        {"kind": "l4", "n": n})


def paper_l5(n: int = 4) -> Nest:
    nest = matmul(n, "duplicate")
    return Nest("L5", nest.source, "duplicate",
                "paper loop L5 (Section IV study) at the paper's size",
                nest.params)


def stencil2d(n: int = 16) -> Nest:
    return Nest(f"STENCIL2D{n}", _loops(_square(n, "i", "j"), """
S1: U[i, j] = U[i - 1, j - 1] + F[i, j];
"""), "nonduplicate",
        "diagonal-flow stencil: many uneven blocks (2n-1 diagonals)",
        {"kind": "stencil2d", "n": n})


def convolution(n: int = 64, w: int = 5) -> Nest:
    return Nest(f"CONV{n}x{w}", _loops(
        [("i", "1", str(n)), ("k", "1", str(w))],
        "S1: Y[i] = Y[i] + X[i + k] * H[k];"), "duplicate",
        "1-D convolution: read-only operands replicated, short inner loop",
        {"kind": "conv", "n": n, "w": w})


def matvec(n: int = 24) -> Nest:
    return Nest(f"MATVEC{n}", _loops(_square(n, "i", "j"), """
S1: Y[i] = Y[i] + A[i, j] * X[j];
"""), "duplicate",
        "BLAS-2 row blocks: one rank-1 array replicated into every block",
        {"kind": "matvec", "n": n})


def triangular(n: int = 16) -> Nest:
    return Nest(f"TRI{n}", _loops(
        [("i", "1", str(n)), ("j", "1", "i")],
        "S1: T[i, j] = T[i - 1, j] + V[i, j];"), "nonduplicate",
        "non-rectangular space (j <= i): the only affine upper bound",
        {"kind": "tri", "n": n})


def dft(n: int = 12) -> Nest:
    return Nest(f"DFT{n}", _loops(_square(n, "i", "k"), """
S1: XOUT[i] = XOUT[i] + W[i, k] * XIN[k];
"""), "duplicate",
        "DFT-shaped accumulation: a rank-2 read-only array partitioned "
        "beside a replicated rank-1 one",
        {"kind": "dft", "n": n})


def corpus(quick: bool = False) -> list[Nest]:
    """The twelve corpus nests, in canonical order (``quick``: the same
    twelve at toy sizes, for the harness's self-test)."""
    n = 4 if quick else 12
    return [
        paper_l1(), paper_l2(), paper_l3(), paper_l4(), paper_l5(),
        *((stencil2d(4), convolution(6, 3), matvec(4), triangular(4),
           dft(4)) if quick else
          (stencil2d(16), convolution(64, 5), matvec(24), triangular(16),
           dft(12))),
        matmul(n, "duplicate",
               f"{n * n} blocks of {n} points: per-block overhead "
               "dominates"),
        matmul(n, "nonduplicate",
               f"one block of {n ** 3} points: per-point throughput "
               "dominates"),
    ]


def sweep_order(seed: int, sweep: int, size: int) -> list[int]:
    """The seeded visiting order of one sweep over ``size`` nests."""
    order = list(range(size))
    random.Random(f"{seed}:sweep:{sweep}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# novel uniformly generated nests
# ---------------------------------------------------------------------------

def _affine(coeffs: tuple[int, int], const: int, idx=("i", "j")) -> str:
    """``a*i + b*j + c`` as source text (zero terms dropped)."""
    text = ""
    for a, name in zip(coeffs, idx):
        if a == 0:
            continue
        mag = name if abs(a) == 1 else f"{abs(a)}*{name}"
        if not text:
            text = mag if a > 0 else f"-{mag}"
        else:
            text += f" + {mag}" if a > 0 else f" - {mag}"
    if not text:
        return str(const)
    if const:
        text += f" + {const}" if const > 0 else f" - {-const}"
    return text


def _ref(array: str, H, c) -> str:
    return f"{array}[{_affine(H[0], c[0])}, {_affine(H[1], c[1])}]"


def _nonsingular(rng: random.Random):
    while True:
        H = ((rng.randint(-2, 2), rng.randint(-2, 2)),
             (rng.randint(-2, 2), rng.randint(-2, 2)))
        if H[0][0] * H[1][1] - H[0][1] * H[1][0] != 0:
            return H


def novel_nest(seed: int, serial: int) -> Nest:
    """One fresh uniformly generated nest.

    ``A`` is written at ``H i + c`` and read at ``H (i - t) + c``, so
    iteration ``i`` consumes what ``i - t`` produced: the only flow
    dependence is ``t`` and, ``H`` being nonsingular, ``Psi = span{t}``
    (``{0}`` when ``t = 0``).  ``B`` is a read-only array with its own
    nonsingular reference matrix and contributes nothing.  ``serial``
    is folded into the offsets, which keeps fingerprints distinct.
    """
    rng = random.Random(f"{seed}:novel:{serial}")
    n = 4       # fixed, like the corpus sizes: the seed varies the shape
    H = _nonsingular(rng)
    HB = _nonsingular(rng)
    t = rng.choice([(0, 0), (1, 0), (0, 1), (1, 1), (1, -1), (1, 2),
                    (2, 1), (2, -1)])
    c = (rng.randint(-3, 3) + serial % 7, rng.randint(-3, 3) + serial // 7)
    cb = (rng.randint(-3, 3), rng.randint(-3, 3))
    # read offset: H (i - t) + c = H i + (c - H t)
    cr = (c[0] - (H[0][0] * t[0] + H[0][1] * t[1]),
          c[1] - (H[1][0] * t[0] + H[1][1] * t[1]))
    k = rng.randint(2, 9)
    body = (f"S1: {_ref('A', H, c)} = {_ref('A', H, cr)} * {k} "
            f"+ {_ref('B', HB, cb)};")
    return Nest(
        name=f"NOVEL{serial}",
        source=_loops(_square(n, "i", "j"), body),
        strategy="nonduplicate",
        why="seeded uniformly generated nest with a constructed dependence",
        params={"kind": "novel", "n": n, "H": H, "c": c, "cr": cr,
                "HB": HB, "cb": cb, "t": t, "k": k},
    )


def primitive(t: tuple[int, int]) -> tuple[int, int]:
    g = gcd(abs(t[0]), abs(t[1]))
    return (t[0] // g, t[1] // g) if g else (0, 0)


# ---------------------------------------------------------------------------
# the serve request mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WireRequest:
    """One request of the serve schedule (fields of ``ServeClient.request``)."""

    op: str                  # plan | run | verify
    nest: Nest
    kind: str                # hot | pair | novel
    backend: str = "auto"


def hot_set() -> list[Nest]:
    """Six small nests every serve run keeps warm (fewer than the
    daemon's eight session slots, so they only leave the LRU when novel
    traffic pushes them out)."""
    return [paper_l1(), paper_l2(), paper_l4(), paper_l5(),
            stencil2d(8), matvec(8)]


def serve_schedule(seed: int):
    """The endless seeded schedule: 70 % hot, 20 % identical pairs,
    10 % novel.

    A pair slot is sent by *both* connections at once (single-flight);
    every other slot goes to whichever connection is free next.  Novel
    slots each carry a nest no earlier slot used.
    """
    rng = random.Random(f"{seed}:serve")
    hot = hot_set()
    serial = 0
    while True:
        roll = rng.random()
        op = rng.choice(("verify", "run", "plan"))
        if roll < 0.70:
            yield WireRequest(op, rng.choice(hot), "hot")
        elif roll < 0.90:
            yield WireRequest(op, rng.choice(hot), "pair")
        else:
            yield WireRequest(op, novel_nest(seed, serial), "novel")
            serial += 1
