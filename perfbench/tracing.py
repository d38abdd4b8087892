"""Spans and counts for the traced run, without editing the package.

:class:`Tracer` replaces the public names that ``cli``, ``simulate``,
``bands``, ``surrogate``, ``bounds``, ``specfun`` and ``subspace`` call
through, as seen in each importing module's namespace (plus
``Subspace.project``), by wrappers
that record one span per call: name, start, end and the span that caused it.
Spans stay in memory; :func:`summarize` turns them into per-layer metrics.
Leaving the ``with`` block restores every original object, and
:func:`assert_clean` proves that no wrapper is left before untraced timing.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

_MARK = "__perfbench_span__"

# (module, attribute, span name).  A span name is "<layer>.<function>".
WRAPPED = (
    ("cli", "dyadic_scale", "subspace.dyadic_scale"),
    ("cli", "nested_tuning", "surrogate.nested_tuning"),
    ("cli", "level_widths", "bands.level_widths"),
    ("cli", "run", "simulate.run"),
    ("simulate", "gaussian_draw", "simulate.gaussian_draw"),
    ("simulate", "normal_quantile", "specfun.normal_quantile"),
    ("simulate", "min_feasible_gamma", "bands.min_feasible_gamma"),
    ("simulate", "surrogate_set", "surrogate.surrogate_set"),
    ("simulate", "adaptive_band_nested", "bands.adaptive_band_nested"),
    ("simulate", "bonferroni_band", "bands.bonferroni_band"),
    ("bands", "min_feasible_gamma", "bands.min_feasible_gamma"),
    ("bands", "t_statistic", "bands.t_statistic"),
    ("bands", "acceptance_threshold", "bands.acceptance_threshold"),
    ("bands", "chi2_cdf", "specfun.chi2_cdf"),
    ("bands", "chi2_quantile", "specfun.chi2_quantile"),
    ("bands", "z_upper", "specfun.z_upper"),
    ("surrogate", "selected_levels", "surrogate.selected_levels"),
    ("surrogate", "econst", "specfun.econst"),
    ("bounds", "kappa", "specfun.kappa"),
    ("bounds", "tau_inv", "specfun.tau_inv"),
    ("specfun", "chi2_cdf", "specfun.chi2_cdf"),
    ("specfun", "chi2_quantile", "specfun.chi2_quantile"),
    ("specfun", "z_upper", "specfun.z_upper"),
    ("specfun", "qconst", "specfun.qconst"),
    ("specfun", "kappa", "specfun.kappa"),
    ("subspace", "dyadic_blocks", "subspace.dyadic_blocks"),
    ("subspace.Subspace", "project", "subspace.project"),
)

# Spans that run once per replication; calls under them count as per-rep.
REP_SPANS = frozenset(
    {"simulate.gaussian_draw", "bands.adaptive_band_nested", "bands.bonferroni_band"}
)
LAYERS = ("cli", "simulate", "bands", "subspace", "specfun", "surrogate")


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"surrband.{module}")
    return getattr(owner, cls) if cls else owner


@dataclass
class Span:
    name: str
    start: int
    parent: int            # index of the causing span, -1 for the root
    rep: bool              # inside a per-replication span
    end: int = 0
    child_ns: int = 0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.dur - self.child_ns


class Tracer:
    """Installs the wrappers for the length of a ``with`` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns ``(result, span)``."""
        parent = self._stack[-1] if self._stack else -1
        rep = name in REP_SPANS or (parent >= 0 and self.spans[parent].rep)
        idx = len(self.spans)
        sp = Span(name, 0, parent, rep)
        self.spans.append(sp)
        self._stack.append(idx)
        sp.start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs), sp
        finally:
            sp.end = time.perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].child_ns += sp.dur

    def _wrapper(self, name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            result, sp = self.span(name, original, *args, **kwargs)
            if name == "subspace.project":
                # Computed, not measured: a dense projection makes two passes
                # (coefficients, then reconstruction) over the d x n basis.
                sp.info["bytes"] = 2 * 8 * args[0].d * args[0].n
            elif name == "specfun.normal_quantile":
                sp.info["values"] = int(getattr(result, "size", 1))
            elif name == "surrogate.surrogate_set":
                sp.info["candidates"] = len(result)
            elif name == "bands.adaptive_band_nested":
                sp.info["needed"] = min(result.selected_level, len(result.t_stats))
            return result

        setattr(traced, _MARK, name)
        return traced

    def __enter__(self):
        for path, attr, name in WRAPPED:
            owner = _owner(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        assert_clean()
        return False


def assert_clean() -> None:
    """Raise if any wrapper of a :class:`Tracer` is still installed."""
    left = [
        f"{path}.{attr}"
        for path, attr, _ in WRAPPED
        if hasattr(_owner(path).__dict__.get(attr), _MARK)
    ]
    if left:
        raise RuntimeError(f"trace wrappers still installed: {', '.join(left)}")


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the package, as in a fresh interpreter."""
    import surrband

    for name in ("specfun", "subspace", "surrogate", "bands", "bounds", "simulate", "cli"):
        module = importlib.import_module(f"{surrband.__name__}.{name}")
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _sum(spans, name, attr="dur", rep=None):
    return sum(
        getattr(s, attr) for s in spans if s.name == name and (rep is None or s.rep == rep)
    )


def _count(spans, name, rep=None):
    return sum(1 for s in spans if s.name == name and (rep is None or s.rep == rep))


def summarize(spans: list[Span], reps: int, wall_ns: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced simulate call.

    ``spans[0]`` must be the root span around ``cli.main`` and ``wall_ns``
    the wall time of that call measured outside the tracer.  Returns
    ``(timings, counts)``: times vary between runs, counts must repeat
    exactly.  A mean over no calls is 0; ``bands.tstat_useful_frac`` is 1
    when no t-statistic was computed, since none was wasted.
    """
    us = 1e-3
    root = spans[0]
    run = next(s for s in spans if s.name == "simulate.run")

    def mean_us(name, attr="dur"):
        k = _count(spans, name)
        return _sum(spans, name, attr) / k * us if k else 0.0

    draw_ns = _sum(spans, "simulate.gaussian_draw")
    nq_ns = _sum(spans, "specfun.normal_quantile")
    nq_values = sum(s.info.get("values", 0) for s in spans if s.name == "specfun.normal_quantile")
    bands = [s for s in spans if s.rep and s.name in ("bands.adaptive_band_nested", "bands.bonferroni_band")]
    band_ns = sum(s.dur for s in bands)
    band_self_ns = sum(s.self_ns for s in bands)
    tstats = _count(spans, "bands.t_statistic", rep=True)
    needed = sum(s.info.get("needed", 0) for s in bands)
    projects = [s for s in spans if s.name == "subspace.project"]
    rep_projects = [s for s in projects if s.rep]
    before_run = sum(
        s.dur for s in spans if s.parent == 0 and s.end <= run.start
    )
    layer_self = {layer: 0 for layer in LAYERS}
    for s in spans:
        layer_self[s.name.partition(".")[0]] += s.self_ns

    counts = {
        "simulate.draw_calls": _count(spans, "simulate.gaussian_draw"),
        "bands.floor_calls_per_rep": _count(spans, "bands.min_feasible_gamma", rep=True) / reps,
        "bands.tstat_calls_per_rep": tstats / reps,
        "subspace.project_calls_per_rep": len(rep_projects) / reps,
        "subspace.project_bytes_per_rep": sum(s.info["bytes"] for s in rep_projects) / reps,
        "surrogate.candidates": sum(
            s.info.get("candidates", 0) for s in spans if s.name == "surrogate.surrogate_set"
        ),
    }
    for fn in ("chi2_cdf", "chi2_quantile", "z_upper"):
        counts[f"specfun.{fn}_calls_setup"] = _count(spans, f"specfun.{fn}", rep=False)
        counts[f"specfun.{fn}_calls_per_rep"] = _count(spans, f"specfun.{fn}", rep=True) / reps

    timings = {
        "simulate.draw_us": mean_us("simulate.gaussian_draw"),
        "simulate.draw_self_us": mean_us("simulate.gaussian_draw", "self_ns"),
        "simulate.draw_share": draw_ns / run.dur,
        "simulate.loop_self_us_per_rep": run.self_ns / reps * us,
        "specfun.normal_quantile_us": mean_us("specfun.normal_quantile"),
        "specfun.normal_quantile_values_per_s": nq_values / (nq_ns * 1e-9) if nq_ns else 0.0,
        "bands.band_us": band_ns / len(bands) * us if bands else 0.0,
        "bands.band_self_us": band_self_ns / len(bands) * us if bands else 0.0,
        "bands.tstat_useful_frac": needed / tstats if tstats else 1.0,
        "subspace.project_us": (
            sum(s.dur for s in projects) / len(projects) * us if projects else 0.0
        ),
        "subspace.scale_build_s": _sum(spans, "subspace.dyadic_scale") * 1e-9,
        "surrogate.tuning_s": _sum(spans, "surrogate.nested_tuning") * 1e-9,
        "surrogate.set_s": _sum(spans, "surrogate.surrogate_set") * 1e-9,
        "cli.parse_s": (run.start - root.start - before_run) * 1e-9,
        "cli.emit_s": (root.end - run.end) * 1e-9,
    }
    for layer, ns in layer_self.items():
        timings[f"{layer}.self_frac"] = ns / wall_ns
    timings["trace.accounted_frac"] = sum(layer_self.values()) / wall_ns
    return timings, counts
