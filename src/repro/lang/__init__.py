"""The loop mini-language: the paper's normalized nested-loop model.

A program is one perfectly nested, normalized ``n``-deep loop whose body
is a list of array assignment statements (the paper's Section II model):

.. code-block:: text

    for i = 1 to 4 {
      for j = 1 to 4 {
        S1: A[2*i, j]   = C[i, j] * 7;
        S2: B[j, i+1]   = A[2*i - 2, j - 1] + C[i - 1, j - 1];
      }
    }

Loop bounds are affine expressions in the enclosing indices; subscripts
are affine expressions in the loop indices (this is exactly what makes
references *uniformly generated* analysable: ``A[H i + c]``).

Use :func:`parse` for source text; :mod:`repro.lang.catalog` has the
paper's loops L1-L5 ready-made.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "ast": (
        "ArrayRef", "Assign", "BinOp", "Const", "Expr", "LoopNest",
        "Name", "UnaryOp",
    ),
    "affine": ("AffineExpr", "NotAffineError", "affine_of"),
    "lexer": ("LexError", "Token", "TokenType", "tokenize"),
    "parser": ("ParseError", "Parser", "parse"),
    "printer": ("to_source",),
    "space": ("IterationSpace",),
    "catalog": ("catalog",),
})
