"""The chaos layer: deterministic fault injection for the block scheduler.

A :class:`FaultPlan` describes *what goes wrong* during a multiprocess
run: workers crash (the process dies mid-lease), workers run slow (a
delay before the lease executes, so its deadline expires and the blocks
are stolen), or results are lost in flight (the work happened but the
parent never sees it).  Faults exist to demonstrate the paper's point
operationally: because a communication-free partition makes every
iteration block independent (Theorems 1-4), any lease can be killed and
re-executed anywhere with zero coordination -- retries are idempotent
*by theorem*, and a crashed-and-retried run is bit-identical to an
undisturbed one.

Injection decisions are **deterministic**: each (unit, attempt) pair
draws from a hash of ``(seed, unit, attempt)``, so a chaos run is
reproducible bit-for-bit -- same seed, same crashes, same retries, same
timeline.  A retried lease is a *new* attempt and draws fresh, so
recovery makes progress; with ``shield_final`` (the default) the last
allowed attempt always runs clean, so any ``crash_prob < 1`` --
including 1.0 -- still terminates.

``slow_blocks`` is different from the probabilistic faults: it is a
deterministic per-block delay (a synthetic straggler) that skews block
costs, the case dynamic leasing exists for; what the worker processes
buy on unskewed blocks is the ledger's
``runtime.multiprocess.scaling_w2``.

The active plan is scoped like the tracer and the metrics registry:
:func:`use_fault_plan` pushes one for a region of code,
:func:`current_fault_plan` reads it (``None`` outside any scope), so
chaos reaches the engine through context, never through the
``Engine.run_blocks`` signature.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Union

from repro.ctxstack import ScopeStack

#: Fault kinds a lease can draw.
CRASH = "crash"
SLOW = "slow"
DROP = "drop"


def _half_open_range(text: str) -> tuple[int, ...]:
    lo, _, hi = text.partition(":")
    return tuple(range(int(lo), int(hi)))


#: spec key -> the parser of its value, in ``FaultPlan`` field order
_SPEC_VALUES = {
    "crash-prob": float, "slow-prob": float, "slow-ms": float,
    "drop-prob": float, "slow-blocks": _half_open_range, "seed": int,
    "shield-final": lambda text: bool(int(text)),
}


class ChaosSpecError(ValueError):
    """A fault plan that cannot be: an unknown key, a value that does
    not parse, a probability outside [0, 1].  The spec's author's to
    fix; the message names the key."""


@dataclass(frozen=True)
class FaultPlan:
    """What to break, how often, and with which seed.

    Probabilities are per *lease* (one attempt of one work unit), drawn
    deterministically from ``seed``; they classify exclusively in the
    order crash > drop > slow, so ``crash_prob + drop_prob + slow_prob``
    should stay <= 1.
    """

    #: probability a lease's worker process dies (``os._exit``) after
    #: doing the work -- the result is lost *and* the pool breaks
    crash_prob: float = 0.0
    #: probability a lease is delayed by ``slow_ms`` before executing
    slow_prob: float = 0.0
    #: delay applied to slow leases and to ``slow_blocks``, milliseconds
    slow_ms: float = 50.0
    #: probability a lease completes but its result is dropped in flight
    drop_prob: float = 0.0
    #: blocks that are *always* delayed by ``slow_ms`` (synthetic
    #: stragglers for the static-vs-dynamic benchmark)
    slow_blocks: tuple[int, ...] = ()
    #: seed for the deterministic per-(unit, attempt) draws
    seed: int = 0
    #: when True, the final allowed attempt of a unit never draws a
    #: fault, so recovery terminates even at ``crash_prob=1.0``
    shield_final: bool = True

    def __post_init__(self) -> None:
        for name in ("crash_prob", "slow_prob", "drop_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ChaosSpecError(
                    f"{name.replace('_', '-')} must be in [0, 1], got {v}")
        if self.slow_ms < 0:
            raise ChaosSpecError(
                f"slow-ms must be >= 0, got {self.slow_ms}")

    # -- injection decisions ----------------------------------------------
    @property
    def active(self) -> bool:
        """Does this plan inject anything at all?"""
        return bool(self.crash_prob or self.slow_prob or self.drop_prob
                    or self.slow_blocks)

    def draw(self, unit: int, attempt: int) -> float:
        """The deterministic uniform draw in [0, 1) for one lease."""
        h = hashlib.sha256(
            f"repro-chaos:{self.seed}:{unit}:{attempt}".encode()).digest()
        return int.from_bytes(h[:8], "big") / 2.0 ** 64

    def decision(self, unit: int, attempt: int) -> Optional[str]:
        """The fault (if any) injected into lease (unit, attempt)."""
        if not (self.crash_prob or self.slow_prob or self.drop_prob):
            return None
        u = self.draw(unit, attempt)
        if u < self.crash_prob:
            return CRASH
        if u < self.crash_prob + self.drop_prob:
            return DROP
        if u < self.crash_prob + self.drop_prob + self.slow_prob:
            return SLOW
        return None

    def delays_block(self, block: int) -> bool:
        return block in self.slow_blocks

    # -- spec round-trip --------------------------------------------------
    @classmethod
    def parse(cls, spec: Union[str, "FaultPlan", None]) -> Optional["FaultPlan"]:
        """Parse ``"crash-prob=0.2,slow-ms=30,seed=7"`` into a plan.

        Keys (dashes or underscores): ``crash-prob``, ``slow-prob``,
        ``slow-ms``, ``drop-prob``, ``seed``, ``shield-final`` (0/1),
        ``slow-blocks`` (a half-open range ``lo:hi``).  ``None``/empty
        parses to ``None``; a :class:`FaultPlan` passes through.
        """
        if spec is None or isinstance(spec, cls):
            return spec or None
        spec = spec.strip()
        if not spec:
            return None
        kwargs: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise ChaosSpecError(
                    f"chaos spec item {part!r} is not KEY=VALUE")
            key = key.strip().lower().replace("_", "-")
            value = value.strip()
            parse_value = _SPEC_VALUES.get(key)
            if parse_value is None:
                raise ChaosSpecError(f"unknown chaos key {key!r}; known: "
                                     f"{', '.join(_SPEC_VALUES)}")
            try:
                kwargs[key.replace("-", "_")] = parse_value(value)
            except ValueError:
                raise ChaosSpecError(
                    f"chaos key {key!r} cannot take {value!r}") from None
        return cls(**kwargs)

    def describe(self) -> str:
        """A round-trippable one-line spec of the non-default fields."""
        bits = []
        if self.crash_prob:
            bits.append(f"crash-prob={self.crash_prob:g}")
        if self.drop_prob:
            bits.append(f"drop-prob={self.drop_prob:g}")
        if self.slow_prob:
            bits.append(f"slow-prob={self.slow_prob:g}")
        if self.slow_prob or self.slow_blocks:
            bits.append(f"slow-ms={self.slow_ms:g}")
        if self.slow_blocks:
            lo, hi = min(self.slow_blocks), max(self.slow_blocks) + 1
            bits.append(f"slow-blocks={lo}:{hi}")
        bits.append(f"seed={self.seed}")
        if not self.shield_final:
            bits.append("shield-final=0")
        return ",".join(bits)


# ---------------------------------------------------------------------------
# the scoped active plan
# ---------------------------------------------------------------------------

_plan_stack = ScopeStack()


def current_fault_plan() -> Optional[FaultPlan]:
    """The fault plan chaos-aware call sites consult.

    The innermost :func:`use_fault_plan` scope *on this thread* wins
    (including an explicit ``None``, which disables chaos for that
    scope); outside any scope there is no plan.
    """
    return _plan_stack.top()


def use_fault_plan(plan: Union[FaultPlan, str, None]):
    """Scope the active fault plan (a plan, a spec string, or ``None``)."""
    return _plan_stack.scoped(FaultPlan.parse(plan))
