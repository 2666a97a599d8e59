"""Patch ``repro`` modules right after they are first imported.

The benchmark never edits the program.  It installs a meta-path finder
that loads each named module exactly as Python would and then hands the
fresh module to a patch function.  Modules therefore import in the
CLI's own order and at the CLI's own moment, so import time stays where
the program puts it; only the wrapped callables change.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict


class _PatchingLoader:
    """Delegating loader that runs ``patch(module)`` after execution."""

    def __init__(self, inner, patch: Callable) -> None:
        self._inner = inner
        self._patch = patch

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module) -> None:
        self._inner.exec_module(module)
        self._patch(module)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class PatchFinder:
    """Meta-path finder applying ``patches[module_name](module)`` on import."""

    def __init__(self, patches: Dict[str, Callable]) -> None:
        self._patches = dict(patches)

    def find_spec(self, name, path=None, target=None):
        patch = self._patches.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                if spec.loader is not None:
                    spec.loader = _PatchingLoader(spec.loader, patch)
                return spec
        return None


def install(patches: Dict[str, Callable]) -> PatchFinder:
    """Put a :class:`PatchFinder` first on ``sys.meta_path``."""
    finder = PatchFinder(patches)
    sys.meta_path.insert(0, finder)
    return finder
