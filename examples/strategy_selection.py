#!/usr/bin/env python3
"""Automatic strategy selection.

The paper closes Section IV observing that "determining which kind of
duplication of array is suitable for replicating their referenced data
can be appropriately estimated".  This example does exactly that: the
cost-based selector ranks every duplication choice for matmul
(reproducing the L5 < L5' < L5'' verdict of Tables I-II) and for L3
with redundancy elimination.

Run:  python examples/strategy_selection.py
"""

from repro import catalog
from repro.machine.cost import TRANSPUTER
from repro.perf import choose_strategy


def main() -> None:
    print("== strategy ranking: matmul (M=16, p=16, Transputer costs) ==")
    result = choose_strategy(catalog.l5(16), p=16, cost=TRANSPUTER)
    print(result.table())
    print(f"selected: {result.best.label}\n")

    print("== strategy ranking: L3 (n=8, with redundancy elimination) ==")
    result = choose_strategy(catalog.l3(8), p=4, cost=TRANSPUTER,
                             consider_elimination=True)
    print(result.table())
    print(f"selected: {result.best.label}")


if __name__ == "__main__":
    main()
