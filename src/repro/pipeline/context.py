"""Pipeline configuration and the artifact-carrying context.

:class:`PipelineConfig` is the single source of truth for the
strategy/duplication/elimination flags that the CLI, ``report.py``,
``selftest.py`` and the strategy selector all used to plumb
independently.  :class:`PipelineContext` carries the artifacts
one compilation produces (reference model, redundancy analysis, space
breakdown, partition plan, transformed nest, processor assignment)
between registered passes, together with diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Optional

from repro.core.strategy import Strategy
from repro.obs.trace import current_tracer
from repro.pipeline.diagnostics import DiagnosticBag


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run varies on, in one hashable record.

    ``duplicate_arrays=None`` under the duplicate strategy means "all
    arrays" (the Theorem 2/4 default), matching ``partitioning_space``.
    ``processors`` only matters for the ``map`` pass; ``scalars`` only
    for the ``verify`` pass; neither affects the partition itself (or
    the cache key).
    """

    strategy: Strategy = Strategy.NONDUPLICATE
    duplicate_arrays: Optional[frozenset[str]] = None
    eliminate_redundant: bool = False
    processors: int = 0
    scalars: tuple[tuple[str, float], ...] = ()
    use_cache: bool = True
    # execution-engine backend for the verify pass (None = default;
    # "all" = cross-check every available backend); like ``scalars``,
    # it affects execution only, never the partition or the cache key
    backend: Optional[str] = None

    @classmethod
    def from_flags(
        cls,
        duplicate: bool = False,
        duplicate_arrays: Optional[Iterable[str]] = None,
        eliminate: bool = False,
        processors: int = 0,
        scalars: Optional[Mapping[str, float]] = None,
        use_cache: bool = True,
        backend: Optional[str] = None,
    ) -> "PipelineConfig":
        """The CLI flag semantics: ``--duplicate`` / ``--duplicate-arrays``
        select the duplicate strategy, ``--eliminate`` turns on
        Section III.C elimination."""
        dup: Optional[frozenset[str]] = None
        if duplicate_arrays:
            dup = frozenset(duplicate_arrays)
        strategy = (Strategy.DUPLICATE if duplicate or dup
                    else Strategy.NONDUPLICATE)
        return cls(
            strategy=strategy,
            duplicate_arrays=dup,
            eliminate_redundant=bool(eliminate),
            processors=int(processors),
            scalars=tuple(sorted((scalars or {}).items())),
            use_cache=use_cache,
            backend=backend,
        )

    @classmethod
    def from_cli_args(cls, args: Any) -> "PipelineConfig":
        """Build from an ``argparse`` namespace (missing flags default off)."""
        raw = getattr(args, "duplicate_arrays", None)
        names = raw.split(",") if isinstance(raw, str) and raw else raw
        scalars: dict[str, float] = {}
        if getattr(args, "scalars", None):
            for part in args.scalars.split(","):
                name, _, value = part.partition("=")
                try:   # no "=" leaves value empty, which is no float
                    if not name.strip():
                        raise ValueError(part)
                    scalars[name.strip()] = float(value)
                except ValueError:
                    raise ValueError(
                        f"--scalars: {part!r} is not NAME=VALUE (give "
                        f"NAME=VALUE[,...], e.g. D=2,F=3)") from None
        return cls.from_flags(
            duplicate=getattr(args, "duplicate", False),
            duplicate_arrays=names,
            eliminate=getattr(args, "eliminate", False),
            processors=getattr(args, "processors", 0) or 0,
            scalars=scalars,
            backend=getattr(args, "backend", None),
        )

    def with_processors(self, p: int) -> "PipelineConfig":
        return replace(self, processors=p)

    def scalars_dict(self) -> dict[str, float]:
        return dict(self.scalars)

    def plan_kwargs(self) -> dict:
        """Keyword form for legacy ``build_plan``-style call sites."""
        return {
            "strategy": self.strategy,
            "duplicate_arrays": (set(self.duplicate_arrays)
                                 if self.duplicate_arrays is not None else None),
            "eliminate_redundant": self.eliminate_redundant,
        }

    def cache_key_parts(self) -> tuple:
        dup = (None if self.duplicate_arrays is None
               else tuple(sorted(self.duplicate_arrays)))
        return (self.strategy.value, dup, self.eliminate_redundant)

    def describe(self) -> str:
        bits = [self.strategy.value]
        if self.duplicate_arrays is not None:
            bits.append("dup{" + ",".join(sorted(self.duplicate_arrays)) + "}")
        if self.eliminate_redundant:
            bits.append("elim")
        if self.backend is not None:
            bits.append(f"backend={self.backend}")
        return "+".join(bits)


@dataclass
class PipelineContext:
    """One compilation in flight: the nest, its config, and artifacts.

    Artifacts are stored under the names passes declare as outputs;
    the named properties below are typed accessors for the standard
    chain.  A context pre-populated with an artifact (e.g. a shared
    ``model``) makes the producing pass a no-op.
    """

    nest: Any
    config: PipelineConfig = field(default_factory=PipelineConfig)
    artifacts: dict[str, Any] = field(default_factory=dict)
    diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)
    completed: list[str] = field(default_factory=list)

    # -- artifact store ---------------------------------------------------
    def has(self, name: str) -> bool:
        return name in self.artifacts

    def get(self, name: str, default: Any = None) -> Any:
        return self.artifacts.get(name, default)

    def put(self, name: str, value: Any) -> None:
        self.artifacts[name] = value

    def require(self, name: str) -> Any:
        if name not in self.artifacts:
            raise KeyError(
                f"artifact {name!r} not available; ran: {self.completed}")
        return self.artifacts[name]

    # -- diagnostics ------------------------------------------------------
    def diagnose(self, severity, code: str, message: str,
                 loc: Optional[str] = None) -> None:
        diag = self.diagnostics.emit(severity, code, message, loc)
        current_tracer().event(
            f"diagnostic:{diag.code}", category="pipeline",
            severity=diag.severity.label, message=diag.message,
            **({"loc": diag.loc} if diag.loc else {}))

    # -- typed accessors for the standard artifact chain ------------------
    @property
    def model(self):
        return self.get("model")

    @property
    def redundancy(self):
        return self.get("redundancy")

    @property
    def breakdown(self):
        return self.get("breakdown")

    @property
    def plan(self):
        return self.get("plan")

    @property
    def tnest(self):
        return self.get("tnest")

    @property
    def grid(self):
        return self.get("grid")

    @property
    def assignment(self):
        return self.get("assignment")

    @property
    def verification(self):
        return self.get("verification")
