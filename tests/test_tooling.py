"""Checks that the benchmark's tooling still fits the package.

``perfbench/tracing.py`` wraps the names listed in its ``WRAPPED`` table, as
found in each owner's ``__dict__``, when a traced run starts; a name that the
package no longer has there breaks that run only then, outside this suite,
and a name that the package stops calling through silently reads 0.  These
tests catch both here, check that a run draws and walks one block of
replications per call, and catch a drift of the draw from the fingerprint
``V1_DRAW`` with which ``perfbench/run.py`` recognises draw stream v1.  They
also keep the numeric argument checks, and the type checks of structured
arguments, in ``specfun``, their one home, keep the package free of thread
and process pools (Monte Carlo runs are serial) and keep it from reading
environment variables.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from surrband import BandParams, Scenario, bands, dyadic_blocks, dyadic_scale, nested_tuning, simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_resolves():
    # The tracer replaces owner.__dict__[attribute]: a name that an owner only
    # inherits (a method moved to a base class or a subclass) would not be
    # wrapped where the calls go, so it must be the owner's own.
    missing = []
    for path, attribute, _span in _load_tracing().WRAPPED:
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"surrband.{module}")
        if cls:
            owner = getattr(owner, cls, None)
        if attribute not in getattr(owner, "__dict__", {}):
            missing.append(f"surrband.{path}.{attribute}")
    assert not missing, missing


def _draw_calls(monkeypatch, name, scenario):
    """The ``(rep, count)`` of each call ``run`` makes to ``simulate.<name>``."""
    calls = []
    original = getattr(simulate, name)

    def counting(seed, rep, n, count=None):
        calls.append((rep, count))
        return original(seed, rep, n, count)

    monkeypatch.setattr(simulate, name, counting)
    simulate.run(scenario)
    return calls


def test_run_draws_one_block_per_call(monkeypatch):
    # The traced run times the draw layer by wrapping simulate.gaussian_draw;
    # adaptive and subspace runs must call it by that module name, once per
    # block of replications.
    rows = simulate._BLOCK_VALUES // 64
    s = Scenario(kind="subspace", truth=np.zeros(64), reps=2 * rows + 5, seed=1,
                 space=dyadic_blocks(64, 4), alpha=0.1, sigma=1.0)
    assert _draw_calls(monkeypatch, "gaussian_draw", s) == [(0, rows), (rows, rows), (2 * rows, 5)]


def test_bonferroni_run_makes_one_uniform_block_per_call(monkeypatch):
    # A Bonferroni run takes the words behind its uniforms, not its normals,
    # one block at a time, on the block grid of every other run.
    rows = simulate._BLOCK_VALUES // 64
    s = Scenario(kind="bonferroni", truth=np.zeros(64), reps=2 * rows + 5, seed=1, alpha=0.1, sigma=1.0)
    assert _draw_calls(monkeypatch, "_words", s) == [(0, rows), (rows, rows), (2 * rows, 5)]


def test_run_walks_one_block_per_call(monkeypatch):
    # An adaptive run makes one band step per drawn block: the plan's block
    # walk sees each block once.
    calls = []
    original = bands._Plan.walk

    def counting(plan, block):
        calls.append(block.shape[0])
        return original(plan, block)

    monkeypatch.setattr(bands._Plan, "walk", counting)
    rows = simulate._BLOCK_VALUES // 64
    reps = 2 * rows + 5
    scale = dyadic_scale(64, [1, 4, 16])
    params = BandParams.equal_split(0.1, 0.1, 1.0, nested_tuning(scale, 0.1, 0.1))
    s = Scenario(kind="adaptive", truth=np.zeros(64), reps=reps, seed=1, scale=scale, params=params)
    simulate.run(s)
    assert calls == [rows, rows, 5]


RUN = TRACING.parent / "run.py"


def _benchmark_fingerprint():
    """``V1_DRAW`` as ``perfbench/run.py`` defines it, read from its syntax
    tree: importing that file would set the BLAS thread variables of this
    process."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["V1_DRAW"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no V1_DRAW in {RUN}")


def test_draw_matches_the_benchmark_fingerprint():
    # The benchmark reports draw stream v1 only while gaussian_draw(0, 0, 4)
    # gives these values; a drift would show up there as "not-v1".
    want = np.array(_benchmark_fingerprint(), dtype=np.float64)
    got = simulate.gaussian_draw(0, 0, 4)
    assert want.shape == (4,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


PACKAGE = TRACING.parents[1] / "src" / "surrband"

# Helpers that once checked arguments outside specfun's, and the messages of
# specfun's range and type checks; neither may appear in another module.  cli.py is
# exempt: its key tables check JSON types and name config paths.
_DELETED_CHECKS = (
    "_is_int", "_check_finite", "_validate_chi2_args", "_check_pos", "_check_nonneg", "_check_count",
)
_CHECK_STEMS = (
    "must lie in (0, 1)", "must be positive", "must be nonnegative", "must be finite",
    "must be a Subspace", "must be a NestedScale", "must be a SurrogateTuning", "must be a BandParams",
)


def test_argument_checks_live_in_specfun():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("specfun.py", "cli.py"):
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            found += [
                f"{path.name}:{number}: {word}"
                for word in _DELETED_CHECKS + _CHECK_STEMS
                if word in line
            ]
    assert not found, found


# Top-level modules that start threads or processes.
_CONCURRENCY = ("concurrent", "threading", "multiprocessing")


def test_package_imports_no_pool():
    # Two threads never ran a benchmark workload faster than one, so runs are
    # serial; a pool can come back only by changing this list on purpose.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}: {name}" for name in names if name.partition(".")[0] in _CONCURRENCY
            ]
    assert not found, found


def test_package_reads_no_environment():
    # The package's behaviour is set by its arguments, flags and config files
    # only; a settings variable can come back only by changing this test on
    # purpose.
    found = [
        f"{path.name}:{number}: {word}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for word in ("environ", "getenv")
        if word in line
    ]
    assert not found, found
