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
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Sequence

SCHEMA_VERSION = 1


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def config_json(config: Any) -> str:
    return json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))


def config_hash(config: Any) -> str:
    return hashlib.sha256(config_json(config).encode()).hexdigest()


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
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    write_with_header(path, config, "\n".join(lines))


def _cell(v: Any) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)
