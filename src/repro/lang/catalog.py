"""Catalog of loops: the paper's L1-L5 plus extra workloads.

Every function returns a freshly parsed :class:`~repro.lang.ast.LoopNest`
so callers can mutate derived structures without aliasing.

The extra workloads (convolution, DFT-as-nested-loop, SOR-like stencil)
mirror the applications the paper's UPPER project evaluates and are used
by the examples and the property/ablation test suites.
"""

from __future__ import annotations

from repro.lang.ast import LoopNest
from repro.lang.parser import parse


def l1(n: int = 4) -> LoopNest:
    """Paper Example 1 (loop L1): three arrays, partitioning space span{(1,1)}."""
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            S1: A[2*i, j] = C[i, j] * 7;
            S2: B[j, i + 1] = A[2*i - 2, j - 1] + C[i - 1, j - 1];
          }}
        }}
        """,
        name="L1",
    )


def l2(n: int = 4) -> LoopNest:
    """Paper Example 2 (loop L2): singular H_A; fully duplicable arrays."""
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            S1: A[i + j, i + j] = B[2*i, j] * A[i + j - 1, i + j];
            S2: A[i + j - 1, i + j - 1] = B[2*i - 1, j - 1] / 3;
          }}
        }}
        """,
        name="L2",
    )


def l3(n: int = 4) -> LoopNest:
    """Paper Example 3 (loop L3): redundant computations, minimal spaces."""
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            S1: A[i, j] = A[i - 1, j - 1] * 3;
            S2: A[i, j - 1] = A[i + 1, j - 2] / 7;
          }}
        }}
        """,
        name="L3",
    )


def l3_sub(n: int = 4) -> LoopNest:
    """The four-statement variant of L3 used to illustrate redundant writes.

    ``D``, ``F``, ``G``, ``K`` are free scalar parameters.
    """
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            S1: A[i, j] = C[i, j] * 3;
            S2: B[i, j] = A[i, j - 1] / D;
            S3: A[i - 1, j - 1] = E[i, j - 1] / F + 11;
            S4: B[i, j - 1] = G * 5 - K;
          }}
        }}
        """,
        name="L3sub",
    )


def l4(n: int = 4) -> LoopNest:
    """Paper Example 4 (loop L4): 3-nested, Psi = span{(1,-1,1)}."""
    return parse(
        f"""
        for i1 = 1 to {n} {{
          for i2 = 1 to {n} {{
            for i3 = 1 to {n} {{
              S1: A[i1, i2, i3] = A[i1 - 1, i2 + 1, i3 - 1] + B[i1, i2, i3];
            }}
          }}
        }}
        """,
        name="L4",
    )


def l5(m: int = 4) -> LoopNest:
    """Paper loop L5: matrix multiplication ``C += A * B`` (Section IV study)."""
    return parse(
        f"""
        for i = 1 to {m} {{
          for j = 1 to {m} {{
            for k = 1 to {m} {{
              S1: C[i, j] = C[i, j] + A[i, k] * B[k, j];
            }}
          }}
        }}
        """,
        name="L5",
    )


def convolution(n: int = 8, w: int = 3) -> LoopNest:
    """1-D convolution ``y[i] += x[i+k] * h[k]`` as a 2-nested loop.

    One of the UPPER-project workloads (Section V).  ``x`` and ``h`` are
    read-only, so the duplicate-data strategy fully parallelizes it.
    """
    return parse(
        f"""
        for i = 1 to {n} {{
          for k = 1 to {w} {{
            S1: Y[i] = Y[i] + X[i + k] * H[k];
          }}
        }}
        """,
        name="CONV",
    )


def dft(n: int = 8) -> LoopNest:
    """DFT-shaped doubly nested accumulation ``X[i] += W[i, k] * x[k]``.

    The twiddle factors are modeled as a precomputed read-only 2-D array
    (the mini-language is linear, so ``W`` carries the non-linear part).
    """
    return parse(
        f"""
        for i = 1 to {n} {{
          for k = 1 to {n} {{
            S1: XOUT[i] = XOUT[i] + W[i, k] * XIN[k];
          }}
        }}
        """,
        name="DFT",
    )


def stencil2d(n: int = 6) -> LoopNest:
    """Diagonal-flow 2-D stencil: communication-free along span{(1,1)}."""
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            S1: U[i, j] = U[i - 1, j - 1] + F[i, j];
          }}
        }}
        """,
        name="STENCIL2D",
    )


def triangular(n: int = 5) -> LoopNest:
    """Non-rectangular iteration space (affine upper bound j <= i)."""
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to i {{
            S1: T[i, j] = T[i - 1, j] + V[i, j];
          }}
        }}
        """,
        name="TRI",
    )


def independent(n: int = 4) -> LoopNest:
    """Embarrassingly parallel loop: every iteration its own block."""
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            S1: A[i, j] = B[i, j] * 2;
          }}
        }}
        """,
        name="INDEP",
    )


def axpy(n: int = 8) -> LoopNest:
    """BLAS-1 AXPY ``y = a*x + y``: embarrassingly parallel."""
    return parse(
        f"""
        for i = 1 to {n} {{
          S1: Y[i] = ALPHA * X[i] + Y[i];
        }}
        """,
        name="AXPY",
    )


def outer_product(n: int = 6) -> LoopNest:
    """BLAS-2 rank-1 update ``A += x y^T``: 2-D parallel with duplication."""
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            S1: A[i, j] = A[i, j] + X[i] * Y[j];
          }}
        }}
        """,
        name="OUTER",
    )


def matvec(n: int = 6) -> LoopNest:
    """BLAS-2 matrix-vector product ``y += A x`` as a 2-nested loop."""
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            S1: Y[i] = Y[i] + A[i, j] * X[j];
          }}
        }}
        """,
        name="MATVEC",
    )


def forward_subst(n: int = 5) -> LoopNest:
    """Forward-substitution-shaped recurrence -- OUTSIDE the model.

    ``x[i] += L[i,j] * x[j]`` references X through two *different*
    reference matrices (``[1 0]`` and ``[0 1]``), so its references are
    not uniformly generated and
    :func:`repro.analysis.extract_references` rejects it.  Kept in the
    catalog (but not in :data:`ALL_LOOPS`) as the canonical example of
    the model boundary.
    """
    return parse(
        f"""
        for i = 1 to {n} {{
          for j = 1 to i {{
            S1: X[i] = X[i] + L[i, j] * X[j];
          }}
        }}
        """,
        name="FSUB",
    )


def matmul(n: int) -> LoopNest:
    """``C = C + A*B`` on a 0-based ``n x n x n`` space, named ``MATMUL{n}``.

    The scalable run-time workload (``repro chaos --matmul``, the engine
    parity suites).  Not in :data:`ALL_LOOPS`: its members run at their
    default size in catalog-wide tests, and this one has none.
    """
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


PAPER_LOOPS = {"L1": l1, "L2": l2, "L3": l3, "L4": l4, "L5": l5}

ALL_LOOPS = {
    **PAPER_LOOPS,
    "L3sub": l3_sub,
    "CONV": convolution,
    "DFT": dft,
    "STENCIL2D": stencil2d,
    "TRI": triangular,
    "INDEP": independent,
    "AXPY": axpy,
    "OUTER": outer_product,
    "MATVEC": matvec,
    # forward_subst is intentionally NOT here: its references are not
    # uniformly generated (the model boundary; see its docstring).
}
