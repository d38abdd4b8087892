"""End-to-end tests for the command-line interface.

Most tests drive ``main(argv)`` directly with JSON configs on disk, checking
frozen constant values, CSV/sidecar structure, byte-identical replay across
``--threads`` values, and the exit-code contract (0 success, 2 config/domain
error, 3 infeasible narrowness level). One test,
``TestExitCodes.test_console_script_installed``, runs the entry points as
separate processes: the ``surrband`` console script declared in
``pyproject.toml`` (through a launcher it writes itself, and the installed
script too when one is on PATH) and ``python -m surrband``.
"""

import json
import math

import numpy as np
import pytest

from surrband import (
    BandParams,
    DesignGrid,
    Scenario,
    adaptive_band_nested,
    cli,
    dyadic_scale,
    nested_tuning,
    run,
)
from surrband.cli import main


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _constants_config(**overrides):
    cfg = {
        "version": 1,
        "n": 256,
        "subspace": {"kind": "dyadic", "d": 4},
        "alpha": 0.1,
        "gamma": 0.1,
        "sigma": 1.0,
    }
    cfg.update(overrides)
    return cfg


def _simulate_config(**overrides):
    cfg = {
        "version": 1,
        "procedure": "adaptive",
        "n": 32,
        "subspace": {"kind": "dyadic", "dims": [1, 4]},
        "alpha": 0.1,
        "gamma": 0.2,
        "sigma": 1.0,
        "tuning": {"auto": "achievable"},
        "truth": {"kind": "zero"},
        "reps": 100,
        "seed": 5,
    }
    cfg.update(overrides)
    return cfg


def _band_config(**overrides):
    cfg = {
        "version": 1,
        "y": [1.0, 1.4, 0.8, 1.1, 2.0, 1.7, 2.2, 1.9],
        "subspace": {"kind": "dyadic", "dims": [1, 2]},
        "alpha": 0.1,
        "gamma": 0.2,
        "sigma": 0.5,
        "tuning": {"eps2": 2.0, "epsInf": 0.25},
    }
    cfg.update(overrides)
    return cfg


_BONFERRONI = {
    "version": 1,
    "procedure": "bonferroni",
    "n": 16,
    "alpha": 0.1,
    "sigma": 1.0,
    "truth": {"kind": "zero"},
    "reps": 10,
    "seed": 1,
}
_SUBSPACE = {
    "version": 1,
    "procedure": "subspace",
    "n": 16,
    "subspace": {"kind": "dyadic", "d": 2},
    "alpha": 0.1,
    "sigma": 0.5,
    "truth": {"kind": "zero"},
    "reps": 10,
    "seed": 1,
}
# Base config of each subcommand; simulate's is picked by "procedure".
_BASES = {
    "constants": _constants_config(),
    "band": _band_config(),
    "bounds": _constants_config(tuning={"auto": "achievable"}),
    "adaptive": _simulate_config(),
    "bonferroni": _BONFERRONI,
    "subspace": _SUBSPACE,
}


def _custom_rows(rows):
    return {"n": 4, "subspace": {"kind": "custom", "rows": rows}}


# (config fragment, subcommand, exit code, message stem).  A fragment updates
# the base config of its subcommand, or is the whole file when it is bytes.
# Each row must be refused with its exit code and a message holding the stem,
# which names the offending key: never coerced, run or ended by a traceback.
_REJECTED = [
    # numbers given as strings or booleans
    ({"alphaSplit": ["0.03", "0.03", "0.04"]}, "band", 2, "alphaSplit"),
    ({"alphaSplit": [True, 0.03, 0.04]}, "simulate", 2, "alphaSplit"),
    ({"procedure": "bonferroni", "truth": ["0"] * 16}, "simulate", 2, "truth"),
    (_custom_rows([["1", "1", "1", "1"]]), "constants", 2, "rows"),
    ({"y": ["1", "2", "3", "4", "5", "6", "7", "8"]}, "band", 2, "y"),
    ({"tuning": {"eps2": ["2.0", 1.0], "epsInf": 0.25}}, "band", 2, "eps2"),
    ({"version": True}, "constants", 2, "version"),
    ({"version": 1.0}, "constants", 2, "version"),
    # keys the procedure does not use
    ({"perCoordinate": True}, "simulate", 2, "perCoordinate"),
    ({"procedure": "subspace", "perCoordinate": "false"}, "simulate", 2, "perCoordinate"),
    ({"procedure": "bonferroni", "gamma": 0.1}, "simulate", 2, "gamma"),
    ({"procedure": "bonferroni", "tuning": {"auto": "x"}}, "simulate", 2, "tuning"),
    ({"procedure": "bonferroni", "subspace": 3}, "simulate", 2, "subspace"),
    # malformed lists and files
    (_custom_rows([[1, 0, 0, 0], [0, 1]]), "constants", 2, "rows"),
    ({"y": [1, "a", 3, 4], "subspace": {"kind": "dyadic", "d": 2}}, "band", 2, "y"),
    ({"alphaSplit": [0.03, "x", 0.03]}, "simulate", 2, "alphaSplit"),
    ({"tuning": {"eps2": [0.5, {}], "epsInf": 0.1}}, "simulate", 2, "eps2"),
    (b'{"version": 1, "n": 256, "note": "\xff"}', "constants", 2, "utf-8"),
    ({"procedure": "bonferroni", "truth": [10**400] + [0] * 15}, "simulate", 2, "truth"),
    (b'{"version": 1, "n": ' + b"1" * 5000 + b"}", "constants", 2, "not valid JSON"),
    # non-finite values, refused by the parser rather than in the numerics
    ({"alpha": float("nan")}, "constants", 2, "NaN"),
    ({"procedure": "bonferroni", "sigma": float("inf")}, "simulate", 2, "Infinity"),
    ({"procedure": "bonferroni", "truth": [None] + [0] * 15}, "simulate", 2, "truth"),
    # 1e400 parses to inf
    (json.dumps(_constants_config(sigma=0)).replace('"sigma": 0', '"sigma": 1e400').encode(),
     "constants", 2, "sigma"),
    # a sigma whose square overflows
    ({"procedure": "bonferroni", "sigma": 1.3407807929942597e154}, "simulate", 2, "sigma"),
    # structure: level indices, lists, objects and subspaces
    ({"widthThreshold": {"kind": "levelWidth", "level": 4}}, "simulate", 2,
     "config.widthThreshold.level must be an integer in [1, 3]"),
    ({"truth": {"kind": "spoiler", "margin": 1.0, "level": 3}}, "simulate", 2,
     "config.truth.level must be an integer in [1, 2]"),
    ({"subspace": {"kind": "dyadic", "dims": []}}, "simulate", 2,
     "config.subspace.dims must be a nonempty list"),
    ({"tuning": 0.5}, "band", 2, "config.tuning must be a JSON object"),
    ({"subspace": 3}, "simulate", 2, "config.subspace must be a JSON object"),
    ({"subspace": {"kind": "dyadic", "d": 2, "dims": [1, 2]}}, "band", 2,
     "exactly one of 'd' or 'dims'"),
    ({"subspace": {"kind": "dyadic", "dims": [1, 4]}}, "constants", 2,
     "constants requires a single subspace, got 2 levels"),
    # alpha and gamma with 1 - 2*alpha - gamma < 0: the message names both
    # config keys
    ({"alpha": 0.5, "gamma": 0.1, "tuning": {"auto": "achievable"}}, "band", 2,
     "gamma must lie in (0, 1 - 2*alpha); got alpha=0.5, gamma=0.1"),
    ({"alpha": 0.5, "gamma": 0.1, "tuning": {"auto": "achievable"}}, "bounds", 2,
     "gamma must lie in (0, 1 - 2*alpha); got alpha=0.5, gamma=0.1"),
    ({"alpha": 0.5, "gamma": 0.1, "tuning": {"auto": "achievable"}}, "simulate", 2,
     "gamma must lie in (0, 1 - 2*alpha); got alpha=0.5, gamma=0.1"),
    # an alphaSplit over the alpha budget is refused by the budget rule under
    # either tuning, not by the chi-square constant its largest entry reaches
    ({"gamma": 0.1, "tuning": {"auto": "achievable"}, "alphaSplit": [0.05, 0.95, 0.05]}, "band", 2,
     "config.alphaSplit sums to 1.05, exceeding alpha=0.1"),
    ({"n": 64, "gamma": 0.1, "alphaSplit": [0.05, 0.95, 0.05]}, "simulate", 2,
     "config.alphaSplit sums to 1.05, exceeding alpha=0.1"),
    ({"n": 64, "gamma": 0.1, "tuning": {"auto": "lower-bound"}, "alphaSplit": [0.05, 0.95, 0.05]},
     "simulate", 2, "config.alphaSplit sums to 1.05, exceeding alpha=0.1"),
]


class TestConstants:
    def test_frozen_values(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _constants_config())
        assert main(["constants", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega"] == pytest.approx(0.125, abs=1e-14)
        assert payload["kappa"] == pytest.approx(1.2137629358245081, rel=1e-11)
        assert payload["tauInv"] == pytest.approx(2.0728667789875797, rel=1e-11)
        assert payload["wF"] == pytest.approx(0.25910834737344746, rel=1e-11)
        # Chi-square separation constants at (n - d, alpha/2, gamma),
        # independently recomputed with scipy root-finding.
        assert payload["Q"] == pytest.approx(0.5431459413192895, rel=1e-9)
        assert payload["E"] == pytest.approx(2.524747504565849, rel=1e-10)
        assert payload["config"]["n"] == 256

    def test_full_space_nulls(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, _constants_config(n=4, subspace={"kind": "dyadic", "d": 4})
        )
        assert main(["constants", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["Q"] is None and payload["E"] is None
        assert payload["omega"] == pytest.approx(1.0, abs=1e-14)

    def test_out_file(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _constants_config())
        out = tmp_path / "constants.json"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["omega"] == pytest.approx(0.125, abs=1e-14)

    def test_cosine_subspace(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, _constants_config(n=64, subspace={"kind": "cosine", "d": 2})
        )
        assert main(["constants", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega"] == pytest.approx(0.21862865010506158, rel=1e-11)


class TestBand:
    def _band_config(self):
        return _band_config()

    def test_csv_and_sidecar(self, tmp_path):
        cfg = _write_config(tmp_path, self._band_config())
        out = tmp_path / "band.csv"
        assert main(["band", "--config", cfg, "--out", str(out)]) == 0

        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,lower,center,upper"
        assert len(lines) == 9
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        xs = [r[0] for r in rows]
        assert xs == [i / 8 for i in range(1, 9)]
        for _, lo, ce, up in rows:
            assert lo <= ce <= up

        sidecar = json.loads((tmp_path / "band.csv.json").read_text())
        assert set(sidecar) == {"width", "selectedLevel", "accepted", "tStats", "thresholds", "config"}
        gaps = [up - lo for _, lo, _, up in rows]
        assert max(gaps) == pytest.approx(sidecar["width"], rel=1e-12)
        assert sidecar["selectedLevel"] in (1, 2, 3)
        assert len(sidecar["tStats"]) == 2
        assert sidecar["config"]["sigma"] == 0.5

    @pytest.mark.parametrize("n", [7, 256])
    def test_csv_x_is_the_design_grid(self, tmp_path, n):
        # The x column is DesignGrid(n).x bit for bit, written with repr.
        y = [math.sin(3.0 * i / n) for i in range(1, n + 1)]
        cfg = _write_config(tmp_path, _band_config(y=y, subspace={"kind": "cosine", "d": 2}))
        out = tmp_path / "band.csv"
        assert main(["band", "--config", cfg, "--out", str(out)]) == 0
        xs = [line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]]
        assert xs == [repr(float(x)) for x in DesignGrid(n).x]

    def test_csv_floats_round_trip(self, tmp_path):
        # repr-formatted floats must parse back to the exact doubles.
        cfg = _write_config(tmp_path, self._band_config())
        out = tmp_path / "band.csv"
        main(["band", "--config", cfg, "--out", str(out)])
        for line in out.read_text().strip().split("\n")[1:]:
            for field in line.split(","):
                value = float(field)
                assert repr(value) == field

    @staticmethod
    def _alternating_config(tmp_path, size, sigma):
        y = [size if i % 2 == 0 else -size for i in range(64)]
        return _write_config(tmp_path, _band_config(
            y=y, subspace={"kind": "dyadic", "dims": [1, 4]}, gamma=0.3, sigma=sigma,
            tuning={"auto": "achievable"},
        ))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sidecar_writes_an_overflowed_statistic_as_null(self, tmp_path, capsys):
        # The residual sum of squares of +-1e155 overflows to inf, which JSON
        # cannot hold: the sidecar must parse without Infinity or NaN, and
        # the overflow prints no warning.  At sigma = 1e140 the half-width is
        # still wider than one ulp of the data, so the band is written.
        cfg = self._alternating_config(tmp_path, 1e155, 1e140)
        out = tmp_path / "band.csv"
        assert main(["band", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "band.csv.json").read_text()
        sidecar = json.loads(text, parse_constant=cli._reject_constant)
        assert sidecar["tStats"] == [None, None] and sidecar["selectedLevel"] == 3
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().split()[1:]]
        assert len(rows) == 64 and all(lo < up for _, lo, _, up in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_band_narrower_than_one_ulp_of_its_centre_is_refused(self, tmp_path, capsys):
        # At +-1e200 and sigma = 1 one ulp of the centre exceeds the
        # half-width, so every row would read lower == center == upper.
        cfg = self._alternating_config(tmp_path, 1e200, 1.0)
        out = tmp_path / "band.csv"
        assert main(["band", "--config", cfg, "--out", str(out)]) == 2
        assert "below the spacing of doubles at its centre" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestBounds:
    def test_designed_equality(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "version": 1,
                "n": 256,
                "subspace": {"kind": "dyadic", "d": 4},
                "alpha": 0.05,
                "gamma": 0.05,
                "sigma": 1.0,
                "tuning": {"auto": "lower-bound"},
            },
        )
        assert main(["bounds", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"wTarget", "v0", "v1", "v2", "lowerWidth", "eps2", "epsInf"}
        assert payload["lowerWidth"] == payload["wTarget"]
        assert payload["v1"] == 0.0
        assert payload["eps2"] == pytest.approx(0.6394039241397547, rel=1e-11)


class TestSimulate:
    def test_replay_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, _simulate_config())
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_threads_flag_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path, _simulate_config())
        out_a, out_b = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert main(["simulate", "--config", cfg, "--out", str(out_a), "--threads", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b), "--threads", "3"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_threads_env_ignored(self, tmp_path, monkeypatch):
        # SURRBAND_THREADS is no longer read, not even to be checked.
        cfg = _write_config(tmp_path, _simulate_config())
        out_a, out_b = tmp_path / "env.json", tmp_path / "unset.json"
        monkeypatch.setenv("SURRBAND_THREADS", "many")
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        monkeypatch.delenv("SURRBAND_THREADS")
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    # int() accepts all of these: underscores, spaces, non-ASCII digits (U+0662
    # is an Arabic-Indic two), and integers longer than it converts.
    BAD_COUNTS = ["1_0", " \u0662", "\u0662", " 2 ", "+2", "2.0", "0", "-1", "", "many", "1" * 5000]

    @pytest.mark.parametrize("text", BAD_COUNTS)
    def test_bad_threads_flag_rejected(self, tmp_path, capsys, text):
        cfg = _write_config(tmp_path, _simulate_config())
        assert main(["simulate", "--config", cfg, "--threads", text]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_width_threshold_level_form(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, _simulate_config(widthThreshold={"kind": "levelWidth", "level": 2})
        )
        assert main(["simulate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        hist = payload["levelHistogram"]
        covered = (hist.get("1", 0) + hist.get("2", 0)) / payload["reps"]
        assert payload["probWidthLE"]["prob"] == pytest.approx(covered, abs=1e-12)

    def test_spoiler_truth(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, _simulate_config(truth={"kind": "spoiler", "margin": 0.5, "level": 1})
        )
        assert main(["simulate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["surrogateCoverage"] >= payload["trueCoverage"]

    def test_large_explicit_eps2_runs(self, tmp_path, capsys):
        # Noncentrality 64 * 1e10, beyond the library's chi-square quantile:
        # the feasibility floor falls back to a bound and the run proceeds.
        cfg = _write_config(
            tmp_path,
            _simulate_config(n=64, gamma=0.1, tuning={"eps2": 100000.0, "epsInf": 1.0}, reps=20),
        )
        assert main(["simulate", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["reps"] == 20

    def test_bonferroni_procedure(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "version": 1,
                "procedure": "bonferroni",
                "n": 16,
                "alpha": 0.1,
                "sigma": 1.0,
                "truth": {"kind": "zero"},
                "reps": 200,
                "seed": 12,
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = (1.0 - 0.1 / 16.0) ** 16
        se = math.sqrt(want * (1.0 - want) / 200.0)
        assert abs(payload["trueCoverage"] - want) < 4.0 * se
        assert payload["levelHistogram"] is None

    def test_subspace_procedure_with_explicit_truth(self, tmp_path, capsys):
        truth = list(np.repeat([1.0, -1.0], 8))
        cfg = _write_config(
            tmp_path,
            {
                "version": 1,
                "procedure": "subspace",
                "n": 16,
                "subspace": {"kind": "dyadic", "d": 2},
                "alpha": 0.1,
                "sigma": 0.5,
                "truth": truth,
                "reps": 150,
                "seed": 9,
                "perCoordinate": True,
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.8 <= payload["trueCoverage"] <= 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("procedure, fields", [
        ("adaptive", {"subspace": {"kind": "dyadic", "dims": [1, 4]}, "gamma": 0.3,
                      "tuning": {"auto": "achievable"}}),
        ("bonferroni", {}),
        ("subspace", {"subspace": {"kind": "dyadic", "d": 4}}),
    ])
    def test_truth_too_large_for_its_noise_is_refused(self, tmp_path, capsys, procedure, fields):
        # At +-1e200 and sigma = 1 every draw rounds back to the truth, so
        # coverage would mean nothing: exit 2, no report, no warning.
        cfg = _write_config(tmp_path, {
            "version": 1, "procedure": procedure, "n": 64, "alpha": 0.1, "sigma": 1.0,
            "truth": [1e200 if i % 2 == 0 else -1e200 for i in range(64)], "reps": 20, "seed": 1,
            **fields,
        })
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "below the spacing of doubles at the truth" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestAlphaSplit:
    """A valid ``alphaSplit`` gives what the library gives for
    ``nested_tuning(alphas=split)`` with ``BandParams(alpha_split=split)``."""

    SPLIT = [0.04, 0.04, 0.02]  # not the equal split of alpha = 0.1

    def _params(self, scale, gamma, sigma, split):
        tuning = nested_tuning(scale, 0.1, gamma, sigma, alphas=split)
        if split is None:
            return BandParams.equal_split(0.1, gamma, sigma, tuning)
        return BandParams(alpha=0.1, gamma=gamma, sigma=sigma, tuning=tuning, alpha_split=split)

    def test_band(self, tmp_path):
        cfg = _band_config(gamma=0.3, tuning={"auto": "achievable"}, alphaSplit=self.SPLIT)
        out = tmp_path / "band.csv"
        assert main(["band", "--config", _write_config(tmp_path, cfg), "--out", str(out)]) == 0
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in out.read_text().split("\n")[1:-1]]
        )
        sidecar = json.loads((tmp_path / "band.csv.json").read_text())
        scale = dyadic_scale(8, [1, 2])
        params = self._params(scale, 0.3, 0.5, tuple(self.SPLIT))
        band = adaptive_band_nested(scale, np.array(cfg["y"]), params)
        assert np.array_equal(rows[:, 1], band.lower) and np.array_equal(rows[:, 3], band.upper)
        assert sidecar == json.loads(json.dumps({**band.to_dict(), "config": cfg}))
        # The split reaches the caps: they differ from the equal split's.
        assert self._params(scale, 0.3, 0.5, None).tuning != params.tuning

    def test_simulate(self, tmp_path, capsys):
        cfg = _simulate_config(alphaSplit=self.SPLIT, reps=50)
        assert main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("config") == cfg
        scale = dyadic_scale(32, [1, 4])
        params = self._params(scale, 0.2, 1.0, tuple(self.SPLIT))
        report = run(Scenario(kind="adaptive", truth=np.zeros(32), reps=50, seed=5, scale=scale, params=params))
        assert payload == json.loads(json.dumps(report.to_dict()))


class TestParser:
    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch, capsysbinary):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        config = _write_config(tmp_path, _constants_config())
        outputs = []
        for _ in range(2):
            assert main(["constants", "--config", config]) == 0
            outputs.append(capsysbinary.readouterr().out)
        assert len(built) == 1
        assert outputs[0] == outputs[1] and outputs[0].startswith(b"{")
        # build_parser itself still gives a new parser on every call.
        assert real() is not real()


class TestOutputBytes:
    """``_dumps`` encodes lists of plain numbers with ``json``'s C encoder;
    its output must be ``json.dumps(obj, sort_keys=True, indent=2)``."""

    ATOMS = [-0.0, 0.0, 5e-324, 1e16, -1e16, math.nan, math.inf, -math.inf, 0.1, 1.0, 0, -7,
             2**63, 2**64 + 3, -(2**70), True, False, None, "", "a, b", "[1, 2]", "\u00e9, x",
             "line\nbreak"]

    @staticmethod
    def _value(rng, depth):
        pick = rng.random()
        if depth > 3 or pick < 0.3:
            return rng.choice(TestOutputBytes.ATOMS + [rng.uniform(-1e6, 1e6), rng.randint(-10**20, 10**20)])
        if pick < 0.55:  # plain numbers, or almost: a bool or None among them
            numbers = [rng.choice([rng.uniform(-1.0, 1.0), rng.randint(-9, 9), -0.0, 5e-324, 1e16,
                                   math.nan, 2**64]) for _ in range(rng.randint(0, 8))]
            if numbers and rng.random() < 0.2:
                numbers[rng.randrange(len(numbers))] = rng.choice([True, None, "1, 2"])
            return numbers if rng.random() < 0.8 else tuple(numbers)
        if pick < 0.75:
            return [TestOutputBytes._value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        keys = ["a", "b", "c, d", "Z", "\u00e9", "config", "truth"]
        return {rng.choice(keys) + str(rng.randint(0, 9)): TestOutputBytes._value(rng, depth + 1)
                for _ in range(rng.randint(0, 5))}

    def test_matches_json_dumps(self):
        import random

        rng = random.Random(20261019)
        for _ in range(2000):
            obj = {"config": self._value(rng, 0), "payload": self._value(rng, 1)}
            assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2), obj

    def test_echoed_vectors_and_odd_keys(self):
        truth = np.sin(np.arange(4096) / 7.0).tolist()
        for obj in (
            {"config": {"truth": truth, "n": 4096}, "reps": 3},
            {"y": [], "z": {}, "w": [[], {}, [1.5, 2]]},
            {"a": {1: "int keys", 2.5: [1, 2]}},  # non-string keys: encoded whole
            [[1, 2], [3.5, -0.0]],
        ):
            assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("length, long", [(0, False), (64, False), (65, True), (4096, True)])
    @pytest.mark.parametrize("nest", ["config", "list", "tuple"])
    def test_emit_sends_only_long_lists_through_dumps(self, tmp_path, monkeypatch, length, long, nest):
        truth = np.sin(np.arange(length) / 7.0).tolist()
        held = {"config": truth, "list": [[1, truth]], "tuple": ({"t": tuple(truth)},)}[nest]
        payload, cfg = {"reps": 3, "widthQuantiles": {"0.5": 0.25}}, {"truth": held, "n": length}
        assert cli._has_long_list({**payload, "config": cfg}) is long
        calls, dumps = [], cli._dumps
        monkeypatch.setattr(cli, "_dumps", lambda *a: calls.append(a) or dumps(*a))
        out = tmp_path / "out.json"
        assert cli._emit(payload, cfg, str(out)) == 0
        assert bool(calls) is long
        want = json.dumps({**payload, "config": cfg}, sort_keys=True, indent=2) + "\n"
        assert out.read_text() == want


class TestExitCodes:
    def test_wrong_version(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _constants_config(version=2))
        assert main(["constants", "--config", cfg]) == 2
        assert "version" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _constants_config(bogus=1))
        assert main(["constants", "--config", cfg]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, _constants_config(subspace={"kind": "dyadic", "d": 4, "extra": 1})
        )
        assert main(["constants", "--config", cfg]) == 2
        assert "extra" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        payload = _constants_config()
        del payload["gamma"]
        cfg = _write_config(tmp_path, payload)
        assert main(["constants", "--config", cfg]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["constants", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["constants", "--config", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_tuning_length_mismatch(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, _simulate_config(tuning={"eps2": [0.5], "epsInf": 0.1})
        )
        assert main(["simulate", "--config", cfg]) == 2
        capsys.readouterr()

    def test_rank_deficient_custom_rows(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            _constants_config(
                n=4, subspace={"kind": "custom", "rows": [[1, 0, 0, 0], [2, 0, 0, 0]]}
            ),
        )
        assert main(["constants", "--config", cfg]) == 2
        capsys.readouterr()

    def test_spoiler_requires_adaptive(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {
                "version": 1,
                "procedure": "bonferroni",
                "n": 16,
                "alpha": 0.1,
                "sigma": 1.0,
                "truth": {"kind": "spoiler", "margin": 0.5},
                "reps": 10,
                "seed": 1,
            },
        )
        assert main(["simulate", "--config", cfg]) == 2
        capsys.readouterr()

    def test_truth_length_mismatch(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _simulate_config(truth=[0.0] * 16))
        assert main(["simulate", "--config", cfg]) == 2
        capsys.readouterr()

    def test_infeasible_gamma_exit_3_with_floor(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            _simulate_config(gamma=0.001, tuning={"eps2": 1e-6, "epsInf": 0.1}),
        )
        assert main(["simulate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "gamma" in err
        # The message carries a usable feasibility floor.
        assert any(ch.isdigit() for ch in err)

    @pytest.mark.parametrize(
        "fragment, subcommand, code, stem",
        _REJECTED,
        ids=[f"{i}-{stem.replace(' ', '_')}" for i, (*_, stem) in enumerate(_REJECTED)],
    )
    def test_rejected_config(self, tmp_path, capsys, fragment, subcommand, code, stem):
        path = tmp_path / "config.json"
        if isinstance(fragment, bytes):
            path.write_bytes(fragment)
        else:
            base = subcommand
            if subcommand == "simulate":
                base = fragment.get("procedure", "adaptive")
            path.write_text(json.dumps({**_BASES[base], **fragment}))
        argv = [subcommand, "--config", str(path)]
        if subcommand == "band":
            argv += ["--out", str(tmp_path / "band.csv")]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stem in captured.err

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # A config too large to allocate is a config error, not a crash.  The
        # allocation failure is simulated so the test allocates nothing.
        import surrband.cli

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(surrband.cli, "run", no_memory)
        cfg = _write_config(tmp_path, _simulate_config())
        assert main(["simulate", "--config", cfg]) == 2
        assert "Unable to allocate" in capsys.readouterr().err

    def test_argparse_errors_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["constants", "--config", "x", "--bogus-flag"])
        assert info.value.code == 2

    def test_console_script_installed(self, tmp_path):
        # The declared ``surrband`` script must run as its own process. An
        # installer writes the launcher below from ``[project.scripts]``; the
        # test writes the same launcher itself, so it needs no installed copy,
        # and also runs the real script when one is on PATH.
        import importlib
        import os
        import re
        import shutil
        import stat
        import subprocess
        import sys
        from pathlib import Path

        import surrband

        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
        assert "surrband" in scripts
        module_name, _, func_name = scripts["surrband"].partition(":")
        assert callable(getattr(importlib.import_module(module_name), func_name, None))

        launcher = tmp_path / "surrband"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module_name} import {func_name}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({func_name}())\n"
        )
        launcher.chmod(launcher.stat().st_mode | stat.S_IXUSR)

        src = str(Path(surrband.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        commands = [[str(launcher)], [sys.executable, "-m", "surrband"]]
        installed = shutil.which("surrband")
        if installed is not None:
            commands.append([installed])
        for cmd in commands:
            proc = subprocess.run(
                cmd + ["--help"], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, (cmd, proc.stderr)
            # Each subcommand heads its own line of the listing ("band" alone
            # would also match inside "surrband").
            for sub in ("constants", "band", "bounds", "simulate"):
                assert re.search(rf"^\s+{sub}\b", proc.stdout, re.M), (cmd, sub)
