"""Scenario file ingestion.

Scenario files are a flat, sectioned key-value format (a TOML-compatible
subset): ``[section]`` headers, one ``key = value`` per line, and ``#``
comments, which start anywhere on a line (no allowed string value holds one).
Values are numbers, ``true``/``false``, or double-quoted strings.  All
quantities are MHz and dimensionless depths.  Unknown sections or keys are
rejected, and every problem is reported together with its line number rather
than failing on the first.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from .errors import LambdaMixerError
from .model import Scenario, field_specs, scenario_violations

_PACKAGED_DIR = Path(__file__).parent / "scenarios"
SCENARIO_DIR_ENV = "LAMBDA_MIXER_SCENARIO_DIR"

# One section per Scenario field, one key per field of its dataclass.
_SECTIONS = {section.name: section for section in field_specs(Scenario)}
_SECTION_KEYS: dict[str, dict[str, tuple[type, bool]]] = {
    name: {f.name: (f.type, f.required) for f in field_specs(section.type)}
    for name, section in _SECTIONS.items()
}
_SECTION_KEYS["absorber"]["gamma_ac"] = (float, False)  # if omitted, it is set equal to gamma_ab

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")
_INT_RE = re.compile(r"^[+-]?\d+$")


class ScenarioFileError(LambdaMixerError):
    """The file did not parse into a valid scenario; carries all problems."""

    def __init__(self, path, errors):
        self.path = str(path)
        self.errors = list(errors)
        super().__init__(f"{self.path}: " + "; ".join(self.errors))


def _parse_value(text: str, want: type, errors: list[str], lineno: int, key: str):
    if want is bool:
        if text in ("true", "false"):
            return text == "true"
        errors.append(f"line {lineno}: {key} must be true or false, got {text!r}")
        return None
    if want is str:
        if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
            return text[1:-1]
        errors.append(f"line {lineno}: {key} must be a double-quoted string, got {text!r}")
        return None
    if want is int:
        if _INT_RE.match(text):
            return int(text)
        errors.append(f"line {lineno}: {key} must be an integer, got {text!r}")
        return None
    try:
        return float(text)
    except ValueError:
        errors.append(f"line {lineno}: {key} must be a number, got {text!r}")
        return None


def parse_scenario_text(text: str, path: str = "<string>") -> Scenario:
    """Parse scenario text, raising :class:`ScenarioFileError` with every problem found."""
    errors: list[str] = []
    sections: dict[str, dict[str, object]] = {}
    key_lines: dict[str, int] = {}
    current: Optional[str] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        section_match = _SECTION_RE.match(line)
        if section_match:
            name = section_match.group(1)
            if name not in _SECTION_KEYS:
                errors.append(f"line {lineno}: unknown section [{name}]")
                current = None
                continue
            if name in sections:
                errors.append(f"line {lineno}: duplicate section [{name}]")
            current = name
            sections.setdefault(name, {})
            continue
        key_match = _KEY_RE.match(line)
        if not key_match:
            errors.append(f"line {lineno}: expected 'key = value' or '[section]', got {raw.strip()!r}")
            continue
        key, value_text = key_match.groups()
        if current is None:
            errors.append(f"line {lineno}: key {key!r} appears outside any section")
            continue
        schema = _SECTION_KEYS[current]
        if key not in schema:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{current}]")
            continue
        if key in sections[current]:
            errors.append(f"line {lineno}: duplicate key {key!r} in section [{current}]")
            continue
        value = _parse_value(value_text.strip(), schema[key][0], errors, lineno, key)
        if value is not None:
            sections[current][key] = value
            key_lines[f"{current}.{key}"] = lineno

    for name, section in _SECTIONS.items():
        if section.required and name not in sections:
            errors.append(f"missing required section [{name}]")
    for name, data in sections.items():
        for key, (_, required) in _SECTION_KEYS[name].items():
            if required and key not in data:
                errors.append(f"section [{name}] is missing required key {key!r}")
    if errors:
        raise ScenarioFileError(path, errors)

    if "absorber" in sections:
        sections["absorber"].setdefault("gamma_ac", sections["absorber"]["gamma_ab"])
    scenario = Scenario(**{name: _SECTIONS[name].type(**data) for name, data in sections.items()})

    for violation in scenario_violations(scenario):
        lineno = key_lines.get(violation.field)
        prefix = f"line {lineno}: " if lineno is not None else ""
        errors.append(prefix + str(violation))
    if errors:
        raise ScenarioFileError(path, errors)
    return scenario


def scenario_search_dirs() -> list[Path]:
    dirs = []
    env = os.environ.get(SCENARIO_DIR_ENV)
    if env:
        dirs.append(Path(env))
    dirs.append(_PACKAGED_DIR)
    return dirs


def resolve_scenario_path(name: str) -> Path:
    """Resolve a path or a shipped-scenario name to an existing file."""
    direct = Path(name)
    if direct.is_file():
        return direct
    candidates = []
    for base in scenario_search_dirs():
        candidates.append(base / name)
        if not name.endswith(".toml"):
            candidates.append(base / f"{name}.toml")
    for cand in candidates:
        if cand.is_file():
            return cand
    searched = ", ".join(map(str, candidates))
    raise FileNotFoundError(f"scenario not found: {name!r} (also searched {searched})")


def load_scenario(name: str) -> tuple[Scenario, Path]:
    path = resolve_scenario_path(name)
    return parse_scenario_text(path.read_text(encoding="utf-8"), str(path)), path


def scenario_to_dict(scenario: Scenario) -> dict:
    """JSON-ready snapshot of a scenario, omitting absent sections."""
    return {name: data for name, data in asdict(scenario).items() if data is not None}
