"""Workspace layout and atomic artifact IO.

Analyses persist intermediate artifacts under ``.vet/`` so the scan steps
compose incrementally in any order. All JSON artifacts are written with
sorted keys and no wall-clock data, so reruns on an unchanged workspace are
byte-identical.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import MalformedArtifact

ARTIFACT_DIR = ".vet"


def read_text(path: Path, error) -> str:
    """The UTF-8 text of a file, newlines translated as in text mode. A file
    that is not UTF-8 raises ``error(message)``, the message naming the file
    and its first bad line, so each reader reports it as its own kind of bad
    input."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error("%s: line %d is not UTF-8 text" % (path, line)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


class Workspace:
    def __init__(self, root: Path, kb_path: Path = None):
        self.root = Path(root)
        self.kb_path = Path(kb_path) if kb_path else self.root / "kb"

    @classmethod
    def discover(cls, root=None, kb_path=None) -> "Workspace":
        root = root or os.environ.get("VET_WORKSPACE") or "."
        return cls(Path(root), kb_path)

    @property
    def manifest(self) -> Path:
        return self.root / "app.json"

    @property
    def artifact_dir(self) -> Path:
        return self.root / ARTIFACT_DIR

    def artifact(self, name: str) -> Path:
        return self.artifact_dir / name

    def write_text(self, name: str, text: str) -> Path:
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        path = self.artifact(name)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
        return path

    def write_json(self, name: str, data) -> Path:
        return self.write_text(name, json.dumps(data, indent=2, sort_keys=True) + "\n")

    def read_json(self, name: str, default=None):
        path = self.artifact(name)
        if not path.is_file():
            return default
        try:
            return json.loads(read_text(path, MalformedArtifact))
        except json.JSONDecodeError as exc:
            raise MalformedArtifact("%s: %s" % (name, exc))
