"""Compare two result sets written by ``perfbench/run.py --out``.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric both sets share, per workload, with the ratio
NEW / BASE.  Sets recorded on hosts with another CPU count or affinity
are refused (exit status 2) instead of compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import host  # noqa: E402


def _metrics(result_set: dict) -> dict:
    return {
        result["workload"]: result["metrics"] for result in result_set["results"]
    }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    try:
        host.check_comparable(base["host"], new["host"])
    except host.HostMismatch as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    base_metrics, new_metrics = _metrics(base), _metrics(new)
    for workload in base_metrics:
        if workload not in new_metrics:
            continue
        for name, old in base_metrics[workload].items():
            if name not in new_metrics[workload]:
                continue
            value = new_metrics[workload][name]["value"]
            ratio = value / old["value"] if old["value"] else float("nan")
            print(
                f"{workload:18s} {name:36s} {old['value']:12.6g} -> "
                f"{value:12.6g} {old['unit']:10s} x{ratio:.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
