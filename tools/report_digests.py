"""Print the SHA-256 of every report in the byte-identity matrix, as JSON.

The matrix is 65 ``surrband simulate`` reports:

* the three workloads of ``perfbench/workloads.py`` x workload seeds 1-5 x
  reps {the workload's default, 7, 333 (100 at n=4096)}: 45 reports;
* the subspace procedure at n=64 with a zero truth, on a cosine subspace
  of dimension 4 with per-coordinate half-widths and on 8 dyadic blocks
  with one half-width, x seeds 1-5 x reps {7, 333}: 20 reports.

Each report is made in-process by ``surrband.cli.main`` from the package
under ``src/`` of the checkout this script sits in.  A change that keeps the
draw stream and the band engine bit for bit leaves every digest as it was::

    python3 tools/report_digests.py > before.json     # on the old checkout
    python3 tools/report_digests.py --against before.json

With ``--against FILE`` the script prints the key of each report whose
digest differs from FILE's, or that only one side has, and exits 1 if there
is any; a matching matrix prints nothing and exits 0.

``tests/report_digests.json`` holds the matrix of draw stream v1, and a
test checks the package against it.  A change that moves reports on purpose
(a new draw stream) rewrites that file with this script's output::

    python3 tools/report_digests.py > tests/report_digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SEEDS = range(1, 6)
# name: (subspace, perCoordinate) of each subspace-procedure case.
SUBSPACES = {
    "subspace-cosine-4": ({"kind": "cosine", "d": 4}, True),
    "subspace-dyadic-8": ({"kind": "dyadic", "d": 8}, False),
}


_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # its dataclasses look the module up here
_SPEC.loader.exec_module(workloads)


def cases():
    """``(key, config)`` of every report in the matrix."""
    for w in workloads.WORKLOADS.values():
        for seed in SEEDS:
            for reps in (w.reps, 7, 100 if w.n == 4096 else 333):
                yield f"{w.name}/seed={seed}/reps={reps}", workloads.make_config(w, seed, reps)
    for name, (subspace, per_coordinate) in SUBSPACES.items():
        for seed in SEEDS:
            for reps in (7, 333):
                yield f"{name}/seed={seed}/reps={reps}", {
                    "version": 1, "procedure": "subspace", "n": 64, "alpha": 0.1, "sigma": 1.0,
                    "truth": {"kind": "zero"}, "reps": reps, "seed": seed,
                    "subspace": subspace, "perCoordinate": per_coordinate,
                }


def digests(matrix) -> dict[str, str]:
    """The hex digest of the report of each case of ``matrix`` (see :func:`cases`)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from surrband import cli

    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        for key, cfg in matrix:
            config.write_text(json.dumps(cfg))
            if cli.main(["simulate", "--config", str(config), "--out", str(out)]) != 0:
                raise SystemExit(f"error: {key} exited with a nonzero code")
            found[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", metavar="FILE", help="JSON digests to compare with")
    args = parser.parse_args(argv)
    found = digests(cases())
    if args.against is None:
        print(json.dumps(found, indent=2))
        return 0
    before = json.loads(Path(args.against).read_text())
    differ = sorted(k for k in found.keys() | before.keys() if found.get(k) != before.get(k))
    for key in differ:
        print(key)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
