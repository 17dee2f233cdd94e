#!/usr/bin/env python3
"""UPPER-project workloads: convolution and DFT under duplicate data.

The paper's conclusion names the scientific kernels evaluated in the
authors' UPPER programming environment: matrix multiplication, discrete
Fourier transform, convolution, basic linear algebra.  This example runs
the convolution and DFT kernels through the pipeline:

- both have an accumulation array with a flow dependence along the
  reduction axis, and read-only inputs -> the duplicate-data strategy
  parallelizes fully across outputs;
- the blocks are mapped cyclically onto a fixed-size machine and the
  workload balance is reported;
- the plan is run on the simulated mesh (``Session.machine``): the host
  scatters what one processor holds, multicasts what several share and
  broadcasts what all do, so the message log shows the communication
  cost structure of the duplicate strategy.

Run:  python examples/signal_workloads.py
"""

from repro import Session, Strategy, catalog, transform_nest
from repro.mapping import assign_blocks, shape_grid, workload_stats


def study(name: str, nest, p: int) -> None:
    print(f"== {name} ==")
    with Session(nest, Strategy.DUPLICATE) as session:
        plan = session.plan()
        rep = session.verify().raise_on_failure()
        print(f"Psi = {plan.psi!r}; {plan.num_blocks} independent blocks; "
              f"remote accesses {rep.remote_accesses}")

        tnest = transform_nest(nest, plan.psi)
        grid = shape_grid(p, tnest.k)
        assignment = assign_blocks(tnest, grid)
        print(f"on {p} processors (grid {grid.dims}): "
              f"{workload_stats(assignment).summary()}")

        # simulated run: accumulators arrive by scatter (private), the
        # read-only inputs by multicast / broadcast (replicated)
        run = session.machine(p)
    st = run.stats
    print(f"distribution: {st.messages} messages, {st.words_sent} words, "
          f"{st.distribution_time * 1e3:.2f} ms simulated; "
          f"{run.summary()}\n")


def main() -> None:
    study("1-D convolution (y[i] += x[i+k] * h[k])", catalog.convolution(16, 4), 4)
    study("DFT (X[i] += W[i,k] * x[k])", catalog.dft(16), 4)


if __name__ == "__main__":
    main()
