"""Set-up probe, run in a fresh interpreter by ``run.py``.

Times ``import surrband`` and then one ``surrband simulate`` call (the
config should ask for one replication) with every cache empty, and prints
``{"rc": ..., "import_s": ..., "setup_s": ..., "peak_rss_mb": ...}`` as one
JSON line; the peak resident set is that of this whole process.

Usage: python3 probe.py SRC_DIR CONFIG OUT
"""

import json
import resource
import sys
import time


def main() -> int:
    src, config, out = sys.argv[1:4]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import surrband  # noqa: F401

    import_s = time.perf_counter() - t0
    from surrband.cli import main as cli_main

    t0 = time.perf_counter()
    rc = cli_main(["simulate", "--config", config, "--out", out, "--threads", "1"])
    setup_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rc": rc, "import_s": import_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
