"""Deterministic output files: every artifact carries the config echo.

All files start with comment lines ``# schema_version=...`` and
``# config_sha256=...`` followed by the payload; CSV files use comma
delimiters, ``.`` decimal points and LF line endings.  Identical config and
seed must reproduce every file byte for byte.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

SCHEMA_VERSION = 1


def config_hash(config: Any) -> str:
    """SHA-256 of the config dataclass as compact JSON with sorted keys."""
    text = json.dumps(dataclasses.asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def header_lines(config: Any) -> list[str]:
    return [
        f"# schema_version={SCHEMA_VERSION}",
        f"# config_sha256={config_hash(config)}",
    ]


def write_with_header(path: Path, config: Any, body: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\n".join(header_lines(config)) + "\n" + body
    if not text.endswith("\n"):
        text += "\n"
    path.write_text(text, newline="\n")


def write_csv(path: Path, config: Any, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One line per row, each cell written as str(v): the shortest text that
    reads back as the same float."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(str, row)) for row in rows)
    write_with_header(path, config, "\n".join(lines))
