"""Frontend for the JX subject language: parsing and name resolution."""

from .ast import SourceUnit
from .errors import JxError, ParseError
from .parser import parse_unit
from .resolver import ResolvedProgram, resolve

__all__ = [
    "JxError",
    "ParseError",
    "ResolvedProgram",
    "SourceUnit",
    "parse_unit",
    "resolve",
]
