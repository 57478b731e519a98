"""Fixture files: location logic and canonical JSON serialization.

Fixtures ship inside the package under bisetforge/fixtures/.  An explicit
directory (the CLI's --fixture-dir) overrides the packaged default.

Serialization is canonical (sorted keys, two-space indent, trailing newline)
so that regenerated files are byte-identical when the content agrees.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "fixture_dir",
    "load_json",
    "canonical_dumps",
    "load_peirce",
    "load_delta_matrix",
    "load_presentation",
    "load_errata",
    "PRESENTATION_NAMES",
    "STAGE_ORDER",
]

DEFAULT_DIR = Path(__file__).with_name("fixtures")

PRESENTATION_NAMES = ("q_corner", "z2_corner", "z3_corner")

# The verify stages in dependency order; here so that the CLI can offer them
# without importing the verifier.
STAGE_ORDER = ("peirce", "gamma", "lambda", "local2", "local3", "paths")


def fixture_dir(override=None):
    return DEFAULT_DIR if override is None else Path(override)


def load_json(name, override=None):
    """The parsed fixture file name; a file that is not UTF-8 JSON raises
    ValueError naming it."""
    path = fixture_dir(override) / name
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError("%s: not valid JSON: %s" % (name, exc)) from None


def canonical_dumps(data):
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_peirce(override=None):
    return load_json("peirce.json", override)


def load_delta_matrix(override=None):
    return load_json("delta_matrix.json", override)


def load_presentation(name, override=None):
    if name not in PRESENTATION_NAMES:
        raise ValueError("unknown presentation %r" % (name,))
    return load_json("presentations/%s.json" % name, override)


# The prose keys an errata entry may omit; the "" default stands in for one
# that is missing, so only a present key must hold a string.
_ERRATA_PROSE = {"finding": "", "affects": "", "resolution": ""}


def load_errata(override=None):
    """The entries of errata.json, a list of objects with string "fixture"
    and "id" keys and, where present, string "finding", "affects" and
    "resolution" prose; [] if there is no file."""
    try:
        entries = load_json("errata.json", override)
    except FileNotFoundError:
        return []
    if not isinstance(entries, list):
        raise ValueError("errata.json: expected a list of objects")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError("errata.json:[%d]: expected an object" % i)
        for key in ("fixture", "id", *_ERRATA_PROSE):
            if not isinstance(entry.get(key, _ERRATA_PROSE.get(key)), str):
                raise ValueError("errata.json:[%d].%s: expected a string" % (i, key))
    return entries
