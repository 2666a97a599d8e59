"""Host record kept with every result set, and the rule for comparing sets.

Scaling and wall-clock figures only compare between matching hosts: a
set recorded with another CPU count or CPU affinity is refused rather
than turned into a ratio.
"""

from __future__ import annotations

import os
import platform
import sys
from importlib import metadata
from typing import Dict, List


class HostMismatch(Exception):
    """Two result sets come from hosts that cannot be compared."""


def _numpy_version() -> str:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return "missing"


def record() -> Dict[str, object]:
    """The host as seen now; ``loadavg_after`` is filled in by :func:`close`."""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "loadavg_before": list(os.getloadavg()),
        "loadavg_after": None,
    }


def close(host: Dict[str, object]) -> Dict[str, object]:
    host["loadavg_after"] = list(os.getloadavg())
    return host


#: Host fields that must agree before two sets are compared.
MATCH_FIELDS = ("cpu_count", "affinity")


def check_comparable(a: Dict[str, object], b: Dict[str, object]) -> None:
    """Raise :class:`HostMismatch` unless the two hosts match."""
    differ: List[str] = [
        f"{name}: {a.get(name)!r} vs {b.get(name)!r}"
        for name in MATCH_FIELDS
        if a.get(name) != b.get(name)
    ]
    if differ:
        raise HostMismatch("hosts differ (" + "; ".join(differ) + ")")
