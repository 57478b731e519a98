"""Exact-arithmetic workbench for the double Burnside ring of S3.

Computes the 22 transitive biset classes and their structure constants from
first principles, transports the ring through its slot decomposition, and
certifies the congruence description of the integral form together with its
localized corner presentations.
"""

__version__ = "0.1.0"

from .bisets import (
    BASIS_LABELS,
    IDENTITY_INDEX,
    BurnsideElement,
    format_element,
    parse_element,
    structure_table,
)
from .rings import RINGS

__all__ = [
    "BASIS_LABELS",
    "IDENTITY_INDEX",
    "RINGS",
    "BurnsideElement",
    "format_element",
    "parse_element",
    "structure_table",
    "__version__",
]
