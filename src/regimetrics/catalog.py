"""Competency descriptor catalog.

The catalog is a three-level (Bachelor / Master / PhD), five-skill
taxonomy: each level states the same five skill families, and each skill
carries exactly one qualification request. It ships as a CSV data file
rather than hard-coded constants so an alternative framework with the
same 3x5 shape can be substituted; the bundled Dublin Descriptors file
is the authoritative default. The file syntax (header, quoting, blank
lines, error lines) is the one table syntax of ``io``; this module holds
only the catalog's own rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import ParseError, ValidationError
from .io import _read_table, _write_table

LEVELS = (1, 2, 3)
SKILLS_PER_LEVEL = 5
CATALOG_SIZE = len(LEVELS) * SKILLS_PER_LEVEL

CATALOG_FIELDS = ("level", "level_name", "skill_id", "skill_name", "request_id", "request_text")

_SKILL_ID_RE = re.compile(r"^([1-3])\.([1-5])$")

_BUNDLED_CATALOG = "dublin_descriptors.csv"


@dataclass(frozen=True)
class DescriptorEntry:
    """One skill of one education level, with its qualification request."""

    level: int
    level_name: str
    skill_id: str
    skill_name: str
    request_id: str
    request_text: str

    @property
    def skill_number(self) -> int:
        return int(self.skill_id.split(".")[1])


@dataclass(frozen=True)
class DescriptorCatalog:
    """Validated, immutable collection of descriptor entries."""

    entries: tuple[DescriptorEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != CATALOG_SIZE:
            raise ValidationError(
                f"catalog must have exactly {CATALOG_SIZE} entries, got {len(self.entries)}"
            )
        seen: set[str] = set()
        for entry in self.entries:
            key = entry.skill_id
            if key in seen:
                raise ValidationError(f"duplicate skill_id {key!r} in catalog")
            seen.add(key)

    def lookup(self, skill_id: str) -> DescriptorEntry:
        """Return the unique entry with the given skill id.

        Raises KeyError when the id is absent.
        """
        for entry in self.entries:
            if entry.skill_id == skill_id:
                return entry
        raise KeyError(f"no catalog entry with skill_id {skill_id!r}")

    def skill_ids(self) -> tuple[str, ...]:
        return tuple(entry.skill_id for entry in self.entries)

    def level_entries(self, level: int) -> tuple[DescriptorEntry, ...]:
        return tuple(entry for entry in self.entries if entry.level == level)


def _parse_entry(row: list[str], source, line: int) -> DescriptorEntry:
    raw_level, level_name, skill_id, skill_name, request_id, request_text = (
        field.strip() for field in row
    )
    try:
        level = int(raw_level)
    except ValueError:
        raise ParseError(f"level {raw_level!r} is not an integer", source=source, line=line)
    if level not in LEVELS:
        raise ParseError(f"level must be one of {LEVELS}, got {level}", source=source, line=line)
    match = _SKILL_ID_RE.match(skill_id)
    if match is None:
        raise ParseError(
            f"skill_id {skill_id!r} does not match '<level>.<skill>' with skill in 1..5",
            source=source,
            line=line,
        )
    if int(match.group(1)) != level:
        raise ParseError(
            f"skill_id {skill_id!r} does not belong to level {level}",
            source=source,
            line=line,
        )
    if request_id != skill_id + ".1":
        raise ParseError(
            f"request_id {request_id!r} must be skill_id + '.1'",
            source=source,
            line=line,
        )
    if not request_text:
        raise ParseError("request_text must be non-empty", source=source, line=line)
    return DescriptorEntry(level, level_name, skill_id, skill_name, request_id, request_text)


def load_catalog(path) -> DescriptorCatalog:
    """Load and validate a catalog file.

    The file is a table with header ``level,level_name,skill_id,
    skill_name,request_id,request_text`` and one record per entry.
    Entries are returned sorted by (skill number, level) regardless of
    file order.
    """
    entries = []
    seen_lines: dict[str, int] = {}
    with _read_table(path) as (line, header, _, rows, _):
        if header != CATALOG_FIELDS:
            raise ParseError(f"header must be {','.join(CATALOG_FIELDS)}", source=path, line=line)
        for at, _, row in rows:
            entry = _parse_entry(row, path, at)
            if entry.skill_id in seen_lines:
                raise ValidationError(
                    f"duplicate (level, skill_id) ({entry.level}, {entry.skill_id!r}) "
                    f"at lines {seen_lines[entry.skill_id]} and {at} of {path}"
                )
            seen_lines[entry.skill_id] = at
            entries.append(entry)
    entries.sort(key=lambda e: (e.skill_number, e.level))
    try:
        return DescriptorCatalog(tuple(entries))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_catalog(catalog: DescriptorCatalog, path) -> Path:
    """Write a catalog back out in the document format (round-trips), atomically."""
    rows = (
        (e.level, e.level_name, e.skill_id, e.skill_name, e.request_id, e.request_text)
        for e in catalog.entries
    )
    return _write_table(path, CATALOG_FIELDS, rows)


@lru_cache(maxsize=1)
def default_catalog() -> DescriptorCatalog:
    """The bundled Dublin Descriptors catalog (immutable, cached)."""
    resource = resources.files(__package__).joinpath("data", _BUNDLED_CATALOG)
    with resources.as_file(resource) as path:
        return load_catalog(path)
