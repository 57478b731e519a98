"""Fixture files: location logic and canonical JSON serialization.

Fixtures ship inside the package under bisetforge/fixtures/.  An explicit
directory (the CLI's --fixture-dir) overrides the packaged default.

Serialization is canonical (sorted keys, two-space indent, trailing newline)
so that regenerated files are byte-identical when the content agrees.
`canonical_dumps` writes containers by recursion and strings through json's
string encoder: byte for byte `json.dumps(data, sort_keys=True, indent=2,
ensure_ascii=False) + "\n"` for string keys, in half to three quarters of its time.
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
    """The parsed fixture file name; a file that is not UTF-8 JSON, nests too
    deep or holds an integer too long to convert raises ValueError naming it."""
    path = fixture_dir(override) / name
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError("%s: not valid JSON: %s" % (name, exc)) from None


def canonical_dumps(data):
    """data as canonical JSON text; a dict key that is not a string, or a
    value json cannot write, raises TypeError."""
    return _dumps(data, "\n") + "\n"


_encode_str = json.encoder.encode_basestring


def _dumps(o, nl):
    """o as JSON, nl being the newline and indent of the line o starts on; a
    container writes its str items itself, saving a call per string."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if type(o) is int:
        return int.__repr__(o)
    if isinstance(o, (int, float)):  # bool, a float or an int subclass
        return json.dumps(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        items, brackets = [_encode_str(x) if type(x) is str else _dumps(x, inner) for x in o], "[]"
    elif isinstance(o, dict):
        items = [
            _encode_str(k) + ": " + (_encode_str(v) if type(v) is str else _dumps(v, inner))
            for k, v in sorted(o.items())
        ]
        brackets = "{}"
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


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
