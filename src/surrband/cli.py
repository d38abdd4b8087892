"""Command-line interface.

Four subcommands, all driven by a JSON config file (``--config``):

``constants``
    Calibration constants for a single-subspace configuration (leverage,
    benchmark width, chi-square separation constants).
``band``
    Compute an adaptive band for a supplied data vector; writes a CSV
    (``x,lower,center,upper``) to ``--out`` and a JSON sidecar with the
    selection diagnostics to ``<out>.json``.
``bounds``
    Width lower-bound decomposition for a tuning configuration.
``simulate``
    Monte Carlo coverage/width certification.  ``--threads``, when given,
    is checked (a positive count in ASCII digits, else exit 2) but unused:
    runs are serial.

Each subcommand, and each ``simulate`` procedure, has one key table that
gives every key's check and whether it is required.  The whole config is
checked against its table before any numerics run, and nothing is coerced:

* a number is a finite JSON number, never a string or a boolean; ``NaN`` and
  ``Infinity`` are rejected while the file is parsed;
* ``perCoordinate`` is a JSON boolean and ``version`` the integer 1;
* a key that the chosen subcommand or procedure does not use is an unknown
  key (``perCoordinate``, for instance, is accepted only with
  ``"procedure": "subspace"``).

Exit codes: 0 success, 2 invalid arguments or config (domain errors, or a
config too large to allocate), 3 infeasible narrowness level (the message
carries the smallest feasible ``gamma``).  All JSON output is serialized with sorted keys and 2-space
indentation so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .bands import BandParams, adaptive_band_nested, level_widths
from .bounds import surrogate_lower_bound, w_target
from .errors import DomainError, FeasibilityError
from .simulate import Scenario, make_spoiler, run
from .specfun import _alpha_split, econst, kappa, qconst, tau_inv
from .subspace import (
    DesignGrid,
    NestedScale,
    Subspace,
    cosine_basis,
    dyadic_scale,
    orthonormalize,
)
from .surrogate import SurrogateTuning, nested_tuning

__all__ = ["main", "build_parser"]

_CONFIG_VERSION = 1


# --- strict config checks -------------------------------------------------
#
# A check is called as ``check(value, where, cfg)`` and raises DomainError
# naming ``where``, the dotted path of ``value``; ``cfg`` is the whole config.
# A table maps each key of an object to its check; a trailing ``?`` marks an
# optional key.  Keys are checked in table order, so a check may read any key
# listed above it: the grid size (``n`` or ``y``) and the level count
# (``subspace``).

_Check = Callable[[object, str, dict], None]


def _bad(where: str, expected: str, value) -> DomainError:
    return DomainError(f"{where} must be {expected}, got {value!r}")


def _rule(ok: Callable[[object], bool], expected: str) -> _Check:
    """A check that ``ok(value)`` holds; ``expected`` describes a valid value."""

    def check(value, where, cfg):
        if not ok(value):
            raise _bad(where, expected, value)

    return check


def _finite_numbers(values) -> bool:
    # Types are compared exactly because bool is a subclass of int.  A literal
    # such as 1e400 parses to inf, and an integer beyond the double range
    # makes isfinite raise.
    try:
        return all(type(v) in (int, float) and math.isfinite(v) for v in values)
    except OverflowError:
        return False


def _grid(cfg: dict) -> int:
    return cfg["n"] if "n" in cfg else len(cfg["y"])


def _levels(cfg: dict) -> int:
    sub = cfg["subspace"]
    return len(sub["dims"]) if "dims" in sub else 1


_NUMBER = _rule(lambda v: _finite_numbers((v,)), "a finite JSON number")
_POSITIVE = _rule(lambda v: type(v) is int and v >= 1, "a positive integer")
_SEED = _rule(lambda v: type(v) is int and v >= 0, "a nonnegative integer")
_BOOLEAN = _rule(lambda v: type(v) is bool, "a JSON boolean")
_VERSION = _rule(
    lambda v: type(v) is int and v == _CONFIG_VERSION, f"the integer {_CONFIG_VERSION}"
)


def _level(extra: int) -> _Check:
    """A level index in ``[1, m + extra]`` for a subspace of ``m`` levels."""

    def check(value, where, cfg):
        top = _levels(cfg) + extra
        if type(value) is not int or not 1 <= value <= top:
            raise _bad(where, f"an integer in [1, {top}]", value)

    return check


def _numbers(length: Callable[[dict], int] | None = None) -> _Check:
    """A list of finite JSON numbers: ``length(cfg)`` of them, or at least one."""

    def check(value, where, cfg):
        want = None if length is None else length(cfg)
        if type(value) is not list or not value or (want is not None and len(value) != want):
            size = "a nonempty list of" if want is None else f"a list of {want}"
            got = f"a list of {len(value)}" if type(value) is list else repr(value)
            raise DomainError(f"{where} must be {size} numbers, got {got}")
        if not _finite_numbers(value):
            i = next(i for i, v in enumerate(value) if not _finite_numbers((v,)))
            _NUMBER(value[i], f"{where}[{i}]", cfg)

    return check


def _list_of(item: _Check) -> _Check:
    def check(value, where, cfg):
        if type(value) is not list or not value:
            raise _bad(where, "a nonempty list", value)
        for i, v in enumerate(value):
            item(v, f"{where}[{i}]", cfg)

    return check


def _object(table: dict[str, _Check]) -> _Check:
    checks = {key.rstrip("?"): check for key, check in table.items()}
    required = sorted(key for key in table if not key.endswith("?"))

    def check(value, where, cfg):
        if type(value) is not dict:
            raise _bad(where, "a JSON object", value)
        unknown = sorted(value.keys() - checks.keys())
        if unknown:
            raise DomainError(f"unknown key(s) in {where}: {', '.join(unknown)}")
        missing = [key for key in required if key not in value]
        if missing:
            raise DomainError(f"missing key(s) in {where}: {', '.join(missing)}")
        for key, check_key in checks.items():
            if key in value:
                check_key(value[key], f"{where}.{key}", cfg)

    return check


def _tagged(tag: str, tables: dict[str, dict[str, _Check]]) -> _Check:
    """An object whose ``tag`` value names the table it is checked against."""
    *rest, last = map(repr, tables)
    expected = f"{', '.join(rest)} or {last}" if rest else last
    pick = _rule(lambda v: type(v) is str and v in tables, expected)
    objects = {name: _object({tag: pick, **table}) for name, table in tables.items()}

    def check(value, where, cfg):
        if type(value) is not dict:
            raise _bad(where, "a JSON object", value)
        pick(value.get(tag), f"{where}.{tag}", cfg)
        objects[value[tag]](value, where, cfg)

    return check


def _when(test: Callable[[object], bool], then: _Check, otherwise: _Check) -> _Check:
    return lambda value, where, cfg: (then if test(value) else otherwise)(value, where, cfg)


_SUBSPACE_KINDS = _tagged(
    "kind",
    {
        "dyadic": {"d?": _POSITIVE, "dims?": _list_of(_POSITIVE)},
        "cosine": {"d": _POSITIVE},
        "custom": {"rows": _list_of(_numbers(_grid))},
    },
)


def _subspace(single_for: str | None = None) -> _Check:
    """A subspace; a single level when it serves ``single_for``."""

    def check(value, where, cfg):
        _SUBSPACE_KINDS(value, where, cfg)
        if value["kind"] == "dyadic" and ("d" in value) == ("dims" in value):
            raise DomainError(f"{where}: a dyadic subspace needs exactly one of 'd' or 'dims'")
        if single_for and _levels(cfg) != 1:
            raise DomainError(
                f"{where}: {single_for} requires a single subspace, got {_levels(cfg)} levels"
            )

    return check


def _truth(kinds: dict[str, dict[str, _Check]]) -> _Check:
    return _when(lambda v: type(v) is dict, _tagged("kind", kinds), _numbers(_grid))


_PER_LEVEL = _when(lambda v: type(v) is list, _numbers(_levels), _NUMBER)
_TUNING = _when(
    lambda v: type(v) is dict and "auto" in v,
    _tagged("auto", {"achievable": {}, "lower-bound": {}}),
    _object({"eps2": _PER_LEVEL, "epsInf": _PER_LEVEL}),
)
_ALPHA_SPLIT = _numbers(lambda cfg: _levels(cfg) + 1)
_PLAIN_TRUTH = _truth({"zero": {}})

# One table per subcommand and per simulate procedure.
_CONSTANTS = {
    "version": _VERSION, "n": _POSITIVE, "subspace": _subspace("constants"),
    "alpha": _NUMBER, "gamma": _NUMBER, "sigma": _NUMBER,
}
_BAND = {
    "version": _VERSION, "y": _numbers(), "subspace": _subspace(),
    "alpha": _NUMBER, "gamma": _NUMBER, "sigma": _NUMBER,
    "tuning": _TUNING, "alphaSplit?": _ALPHA_SPLIT,
}
_BOUNDS = {**_CONSTANTS, "subspace": _subspace("bounds"), "tuning": _TUNING}
_RUN = {  # the keys of every simulate procedure
    "version": _VERSION, "n": _POSITIVE, "alpha": _NUMBER, "sigma": _NUMBER,
    "reps": _POSITIVE, "seed": _SEED,
}
_SIMULATE = {
    "adaptive": {
        **_RUN, "subspace": _subspace(), "gamma": _NUMBER,
        "tuning": _TUNING, "alphaSplit?": _ALPHA_SPLIT,
        "truth": _truth({"zero": {}, "spoiler": {"margin": _NUMBER, "level?": _level(0)}}),
        "widthThreshold?": _when(
            lambda v: type(v) is dict,
            _tagged("kind", {"levelWidth": {"level": _level(1)}}),
            _NUMBER,
        ),
    },
    "bonferroni": {**_RUN, "truth": _PLAIN_TRUTH, "widthThreshold?": _NUMBER},
    "subspace": {
        **_RUN, "subspace": _subspace("the subspace procedure"),
        "truth": _PLAIN_TRUTH, "widthThreshold?": _NUMBER, "perCoordinate?": _BOOLEAN,
    },
}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_config(path: str, check: _Check) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:  # also bad UTF-8 and over-long integer literals
        raise DomainError(f"config {path!r} is not valid JSON: {exc}") from exc
    check(cfg, "config", cfg)
    return cfg


# --- building from a checked config ---------------------------------------


def _build_scale(cfg: dict, n: int) -> NestedScale:
    sub = cfg["subspace"]
    if sub["kind"] == "dyadic":
        return dyadic_scale(n, sub["dims"] if "dims" in sub else [sub["d"]])
    if sub["kind"] == "cosine":
        return NestedScale((cosine_basis(n, sub["d"]),))
    return NestedScale((Subspace(orthonormalize(np.asarray(sub["rows"], dtype=np.float64))),))


def _build_params(cfg: dict, scale: NestedScale) -> BandParams:
    alpha, gamma, sigma = (float(cfg[k]) for k in ("alpha", "gamma", "sigma"))
    # Without alphaSplit, the library's equal split.
    split = cfg.get("alphaSplit")
    if split is not None:  # the budget rule, refused under the config's own key
        split = _alpha_split("config.alphaSplit", split, alpha, scale.m)
    tuning = cfg["tuning"]
    if "auto" in tuning:
        tuning = nested_tuning(
            scale, alpha, gamma, sigma, alphas=split, achievable=tuning["auto"] == "achievable"
        )
    else:  # a number is shared by all levels
        eps2, eps_inf = (
            v if type(v) is list else [v] * scale.m for v in (tuning["eps2"], tuning["epsInf"])
        )
        tuning = SurrogateTuning(eps2, eps_inf)
    if split is None:
        return BandParams.equal_split(alpha, gamma, sigma, tuning)
    return BandParams(alpha=alpha, gamma=gamma, sigma=sigma, tuning=tuning, alpha_split=split)


def _dumps(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for a value
    that starts at indentation ``pad``.

    With ``indent``, ``json`` takes its pure-Python encoder, which costs
    about 2 us per number.  A list of plain numbers (``int`` or ``float``:
    an echoed truth or data vector) is instead encoded by the C encoder on
    one line, and its ``", "`` separators, which no number contains, are
    broken into indented lines.  Lists and dicts with string keys recurse;
    a scalar takes ``json``'s default encoder, and any other container is
    encoded whole and indented from ``pad``.
    """
    inner = pad + "  "
    if type(obj) in (list, tuple) and obj:
        if all(type(v) is float or type(v) is int for v in obj):
            body = json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
        else:
            body = (",\n" + inner).join(_dumps(v, inner) for v in obj)
        return f"[\n{inner}{body}\n{pad}]"
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        body = (",\n" + inner).join(f"{json.dumps(k)}: {_dumps(obj[k], inner)}" for k in sorted(obj))
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(obj, (list, tuple, dict)):  # empty, or with keys json converts
        return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
    return json.dumps(obj)


def _emit(payload: dict, cfg: dict, out: str | None) -> int:
    """Write ``payload`` and the config it echoes as JSON to ``out`` or stdout."""
    text = _dumps({**payload, "config": cfg}) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
    return 0


# --- subcommand handlers --------------------------------------------------


def _cmd_constants(cfg: dict, args) -> int:
    n = cfg["n"]
    alpha, gamma, sigma = (float(cfg[k]) for k in ("alpha", "gamma", "sigma"))
    space = _build_scale(cfg, n).levels[0]
    payload = {
        "omega": space.omega,
        "kappa": kappa(alpha, gamma),
        "tauInv": tau_inv(1.0 - 2.0 * alpha - gamma),
        "wF": w_target(space.omega, alpha, gamma, sigma),
        "Q": None if space.d == n else qconst(n - space.d, alpha / 2.0, gamma),
        "E": None if space.d == n else econst(n - space.d, alpha / 2.0, gamma),
    }
    return _emit(payload, cfg, args.out)


def _cmd_band(cfg: dict, args) -> int:
    y = np.asarray(cfg["y"], dtype=np.float64)
    scale = _build_scale(cfg, y.shape[0])
    band = adaptive_band_nested(scale, y, _build_params(cfg, scale))
    lines = ["x,lower,center,upper"]
    for xi, lo, ce, up in zip(DesignGrid(scale.n).x, band.lower, band.center, band.upper):
        lines.append(f"{float(xi)!r},{float(lo)!r},{float(ce)!r},{float(up)!r}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return _emit(band.to_dict(), cfg, args.out + ".json")


def _cmd_bounds(cfg: dict, args) -> int:
    scale = _build_scale(cfg, cfg["n"])
    params = _build_params(cfg, scale)
    tuning = params.tuning
    report = surrogate_lower_bound(
        scale.levels[0], tuning.eps2[0], tuning.eps_inf[0], params.alpha, params.gamma,
        params.sigma,
    )
    payload = {**report.to_dict(), "eps2": tuning.eps2[0], "epsInf": tuning.eps_inf[0]}
    return _emit(payload, cfg, args.out)


def _thread_count(text: str) -> None:
    """Refuse a ``--threads`` value that is not a positive count in ASCII
    digits: ``int`` would also take other Unicode digits, underscores and
    surrounding spaces."""
    try:
        value = int(text) if text.isascii() and text.isdigit() else 0
    except ValueError:  # more digits than int() converts
        value = 0
    if value < 1:
        raise DomainError(f"--threads must be a positive integer, got {text!r}")


def _cmd_simulate(cfg: dict, args) -> int:
    if args.threads is not None:
        _thread_count(args.threads)
    procedure, n, truth = cfg["procedure"], cfg["n"], cfg["truth"]
    if procedure == "adaptive":
        scale = _build_scale(cfg, n)
        params = _build_params(cfg, scale)
        scenario_args = {"scale": scale, "params": params}
    else:
        scenario_args = {"alpha": cfg["alpha"], "sigma": cfg["sigma"]}
        if procedure == "subspace":
            scenario_args["space"] = _build_scale(cfg, n).levels[0]
            scenario_args["per_coordinate"] = cfg.get("perCoordinate", False)
    if type(truth) is list:
        truth = np.asarray(truth, dtype=np.float64)
    elif truth["kind"] == "zero":
        truth = np.zeros(n)
    else:  # a spoiler, which the tables allow on adaptive runs only
        j = truth.get("level", 1) - 1
        eps2, eps_inf = params.tuning.eps2[j], params.tuning.eps_inf[j]
        truth = make_spoiler(scale.levels[j], eps2, eps_inf, float(truth["margin"]))
    scenario = Scenario(
        kind=procedure, truth=truth, reps=cfg["reps"], seed=cfg["seed"], **scenario_args
    )
    width_threshold = cfg.get("widthThreshold")
    if type(width_threshold) is dict:  # a level width, adaptive runs only
        width_threshold = level_widths(scale, params)[width_threshold["level"] - 1]
    report = run(scenario, width_threshold=width_threshold)
    return _emit(report.to_dict(), cfg, args.out)


# --- parser ---------------------------------------------------------------

_OUT = {"help": "write JSON here instead of stdout"}
_THREADS_HELP = "a positive count, checked but unused: runs are serial"

# name: (config check, handler, options besides --config, help, description)
_COMMANDS = {
    "constants": (
        _object(_CONSTANTS), _cmd_constants,
        {"--out": _OUT},
        "calibration constants for a single-subspace configuration",
        "Report leverage omega, kappa, tau_inv, the benchmark width wF, "
        "and the chi-square separation constants Q and E evaluated at "
        "(n - d, alpha/2, gamma) — the values the achievable tuning uses "
        "(null when d == n).",
    ),
    "band": (
        _object(_BAND), _cmd_band,
        {"--out": {"required": True, "help": "output CSV path (sidecar: <out>.json)"}},
        "compute an adaptive band for a data vector",
        "Write the band as CSV (x,lower,center,upper) to --out and the "
        "selection diagnostics to <out>.json.",
    ),
    "bounds": (
        _object(_BOUNDS), _cmd_bounds,
        {"--out": _OUT},
        "width lower-bound decomposition for a tuning configuration",
        None,
    ),
    "simulate": (
        _tagged("procedure", _SIMULATE), _cmd_simulate,
        {"--out": _OUT, "--threads": {"help": _THREADS_HELP}},
        "Monte Carlo coverage/width certification",
        "Run the configured scenario; replications are keyed by a "
        "counter-based generator, not by execution order, so results are "
        "byte-identical for any --threads value.",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surrband",
        description=(
            "Finite-sample adaptive confidence bands over nested regression "
            "subspaces: calibration constants, band computation, width lower "
            "bounds, and Monte Carlo certification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (check, handler, options, help_text, description) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=description)
        p.add_argument("--config", required=True, help="JSON configuration file")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(check=check, func=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on the first call of the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(_load_config(args.config, args.check), args)
    except (FeasibilityError, DomainError, MemoryError) as exc:  # MemoryError: n or reps too big
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, FeasibilityError) else 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
