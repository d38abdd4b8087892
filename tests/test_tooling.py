"""Checks that the benchmark's tooling still fits the package.

``perfbench/tracing.py`` wraps the names listed in its ``WRAPPED`` table, as
found in each owner's ``__dict__``, when a traced run starts; a name that the
package no longer has there breaks that run only then, outside this suite,
and a name that the package stops calling through silently reads 0.  These
tests catch both here, check that a run draws and walks one block of
replications per call and does its procedure's set-up once, and catch a
drift of the draw from the fingerprint ``V1_DRAW`` with which
``perfbench/run.py`` recognises draw stream v1.  They
also keep the numeric argument checks, and the type checks of structured
arguments, in ``specfun``, their one home, keep the package free of thread
and process pools (Monte Carlo runs are serial), keep it from reading
environment variables, keep ``specfun`` to one loop that steps the
normal quantile's bisection brackets, keep each subspace to one projection
routine and keep ``bands`` to one constructor call of ``Band``.  One test checks that
``tools/report_digests.py`` hashes the report that each of its keys names,
and another that its 65 digests equal the committed ``report_digests.json``.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from surrband import (
    BandParams, Scenario, bands, cli, dyadic_blocks, dyadic_scale, nested_tuning, simulate,
)

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
    # Adaptive and subspace runs key Philox through simulate._words once per
    # block of replications, as Bonferroni runs do, and decide most rows
    # from the first stage of the quantile: they never call gaussian_draw.
    rows = simulate._BLOCK_VALUES // 64
    s = Scenario(kind="subspace", truth=np.zeros(64), reps=2 * rows + 5, seed=1,
                 space=dyadic_blocks(64, 4), alpha=0.1, sigma=1.0)
    assert _draw_calls(monkeypatch, "_words", s) == [(0, rows), (rows, rows), (2 * rows, 5)]
    assert _draw_calls(monkeypatch, "gaussian_draw", s) == []


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


@pytest.mark.parametrize("kind, names", [
    ("bonferroni", ("_window_ends",)),
    ("adaptive", ("_plan", "surrogate_set")),
    ("subspace", ("_subspace_half_width",)),
])
def test_run_sets_up_once(monkeypatch, kind, names):
    # A procedure's set-up runs once per run, not once per block: on a run of
    # two full blocks and a partial one, each set-up call is made once.
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _original=getattr(simulate, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(simulate, name, counting)
    rows = simulate._BLOCK_VALUES // 64
    fields = {"alpha": 0.1, "sigma": 1.0}
    if kind == "adaptive":
        scale = dyadic_scale(64, [1, 4, 16])
        fields = {"scale": scale, "params": BandParams.equal_split(0.1, 0.1, 1.0, nested_tuning(scale, 0.1, 0.1))}
    elif kind == "subspace":
        fields["space"] = dyadic_blocks(64, 4)
    simulate.run(Scenario(kind=kind, truth=np.zeros(64), reps=2 * rows + 5, seed=1, **fields))
    assert calls == dict.fromkeys(names, 1)


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
    "must lie in [0, 1]", "must lie in (0, 1]", "must lie in [0, 1)",
    "need eps < 1/2 - alpha", "must have length m + 1", "exceeding alpha",
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


# Routines whose work another took over: a subspace projects a vector and a
# block alike through its one _project, omega is the largest entry of the
# leverage profile, and attributes are written straight into __dict__.  None
# may come back in any module.
_DELETED_NAMES = ("_project_rows", "_omega", "_freeze")


def test_deleted_names_stay_deleted():
    found = [
        f"{path.name}:{number}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for name in _DELETED_NAMES
        if name in line
    ]
    assert not found, found


def test_no_projection_loops():
    # Each subspace kind projects a vector or a (k, n) block in numpy calls;
    # a Python loop over rows can come back only by changing this test.
    tree = ast.parse((PACKAGE / "subspace.py").read_text())
    projections = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_project"]
    assert len(projections) == 2
    loops = (ast.For, ast.While, ast.comprehension)
    for function in projections:
        assert not any(isinstance(node, loops) for node in ast.walk(function)), function.lineno


def test_every_band_is_built_in_one_place():
    # Band._around is the one call of the Band constructor in bands.py, and
    # each band function builds its band through it.
    tree = ast.parse((PACKAGE / "bands.py").read_text())
    band = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Band")
    around = next(n for n in band.body if isinstance(n, ast.FunctionDef) and n.name == "_around")

    def calls(node, *names):
        return [
            c for c in ast.walk(node)
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id in names
        ]

    assert calls(tree, "Band") == [] and calls(band, "cls") == calls(around, "cls")
    assert len(calls(around, "cls")) == 1
    for name in ("adaptive_band_nested", "bonferroni_band", "subspace_band"):
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
        assert any(
            isinstance(c, ast.Call) and ast.unparse(c.func) == "Band._around" for c in ast.walk(fn)
        ), name


def test_every_name_imported_from_specfun_is_used():
    # A check that moved into specfun leaves no import behind it.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno}: {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "specfun"
            for alias in node.names
            if alias.name != "*" and (alias.asname or alias.name) not in used
        ]
    assert not unused, unused


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


# Functions of specfun whose for loops evaluate ndtr: the one bisection loop
# of the normal quantile, and z_upper, the scalar tail quantile of the band
# widths, which bisects Python floats and returns at an exact hit.
_NDTR_LOOPS = {"_bisect", "z_upper"}


def test_one_bisection_loop_in_specfun():
    # normal_quantile's last steps and its 64-step fallback both run
    # _bisect; a second loop that steps brackets can come back only by
    # changing this test on purpose.
    source = (PACKAGE / "specfun.py").read_text()
    assert "_finish" not in source
    found = set()
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, ast.FunctionDef):
            continue
        for loop in ast.walk(function):
            if not isinstance(loop, ast.For):
                continue
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "ndtr"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "special"
                ):
                    found.add(function.name)
    assert found == _NDTR_LOOPS, found


DIGESTS = TRACING.parents[1] / "tools" / "report_digests.py"


def test_report_digests_match_direct_runs(tmp_path):
    # tools/report_digests.py keys each report of its 65-report matrix by
    # case, seed and reps; an entry must be the SHA-256 of the report that
    # surrband simulate writes for that key, for a workload and for a
    # subspace-procedure case alike.
    spec = importlib.util.spec_from_file_location("report_digests", DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    matrix = dict(tool.cases())
    assert len(matrix) == 65
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    expected = {}
    for key, cfg in (
        ("bonferroni-64/seed=2/reps=7", tool.workloads.make_config(tool.workloads.WORKLOADS["bonferroni-64"], 2, 7)),
        ("subspace-dyadic-8/seed=3/reps=333", {
            "version": 1, "procedure": "subspace", "n": 64, "alpha": 0.1, "sigma": 1.0,
            "truth": {"kind": "zero"}, "reps": 333, "seed": 3,
            "subspace": {"kind": "dyadic", "d": 8}, "perCoordinate": False,
        }),
    ):
        assert matrix[key] == cfg
        config.write_text(json.dumps(cfg))
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        expected[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert tool.digests((key, matrix[key]) for key in expected) == expected


def _digest_mismatches() -> list:
    """The keys whose report digest differs from ``tests/report_digests.json``."""
    spec = importlib.util.spec_from_file_location("report_digests", DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    committed = json.loads((Path(__file__).parent / "report_digests.json").read_text())
    found = tool.digests(tool.cases())
    assert len(committed) == 65
    return sorted(k for k in found.keys() | committed.keys() if found.get(k) != committed.get(k))


def test_report_digests_match_the_committed_matrix():
    # Every report of the matrix keeps its bytes.  Its 15 bonferroni-64
    # reports run in one process, so the window ends a run keeps for the next
    # run of its configuration are reused across reps and seeds here.
    assert _digest_mismatches() == []


def test_report_digests_match_with_every_row_refined(monkeypatch):
    # An infinite radius finishes every adaptive and subspace row's draw
    # before its decisions; the reports keep their bytes.
    monkeypatch.setattr(simulate, "_UNDERFLOW", math.inf)
    assert _digest_mismatches() == []
