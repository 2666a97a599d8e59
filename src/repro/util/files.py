"""Atomic file output shared by every writer in the package."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` via a ``.tmp`` sibling and ``os.replace``.

    Missing parent directories are created.  A process killed mid-write
    leaves the previous file (or none) behind, never a torn one — which
    is what lets resume trust any artifact it finds.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, target)
    return target
