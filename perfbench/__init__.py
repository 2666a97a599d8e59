"""Outside-in benchmark of the ``repro`` CLI (see README.md)."""
