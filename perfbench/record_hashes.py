"""Record the content hash of every exact-mode run of `exact-ladder`.

    python3 perfbench/record_hashes.py

Writes `exact_hashes.json`.  Exact-mode records hold no floats, so the
hashes are the same on every machine; a later run that differs has changed
what the exact layer computes.  Re-record only for an intended change to
the records, and say so in the change.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from holobreak.cli import run_suite  # noqa: E402


def main() -> int:
    out = {}
    for short in (True, False):
        for suite, grids in workloads.exact_ladder_runs(short):
            cfg = workloads._config(suite, True, **grids)
            report = run_suite(cfg)
            if report.failed_count:
                raise SystemExit(f"{workloads.suite_key(cfg)}: {report.failed_count} failed cases")
            out[workloads.suite_key(cfg)] = report.content_hash()
    workloads.HASH_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} hashes in {workloads.HASH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
