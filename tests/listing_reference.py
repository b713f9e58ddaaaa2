"""Reference file listing: pathlib's glob and path arithmetic.

``workspace.regular_files`` lists a directory in one ``os.scandir`` walk
and builds every path as text; ``bom.source_files`` prefixes those paths
with the root's own. The tests hold both to these functions, which list
through ``Path.glob``, keep what ``Path.is_file`` accepts, and spell each
origin by ``relative_to`` and ``as_posix``.
"""

from __future__ import annotations

import os
from pathlib import Path


def regular_files(root: Path, pattern: str) -> list:
    """The regular files under root whose paths match the glob pattern,
    sorted by their parts: a directory named like one (``x.json``) is not
    one."""
    return [path for path in sorted(root.glob(pattern), key=lambda p: p.parts)
            if path.is_file()]


def source_files(root: Path, origin_base: Path = None) -> list:
    """(origin, path) of every regular .jx file under root, the origin
    relative to origin_base (default: root itself)."""
    base = origin_base if origin_base is not None else root
    prefix = Path(os.path.relpath(root, base))
    return [((prefix / path.relative_to(root)).as_posix(), path)
            for path in regular_files(root, "**/*.jx")]
