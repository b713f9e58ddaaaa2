"""Frontend for the JX subject language: parsing and name resolution. The
pretty-printer is not imported here; import ``vulnvet.jx.printer`` to use it."""

from .ast import SourceUnit
from .errors import JxError, ParseError, ResolutionError
from .parser import parse_unit
from .resolver import ResolvedProgram, resolve

__all__ = [
    "JxError",
    "ParseError",
    "ResolutionError",
    "ResolvedProgram",
    "SourceUnit",
    "parse_unit",
    "resolve",
]
