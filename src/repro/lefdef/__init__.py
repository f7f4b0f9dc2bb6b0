"""LEF/DEF readers and writers, and the route-guide writer.

This implements the subset of the LEF/DEF 5.8 grammar the ISPD-2018
benchmarks exercise: technology LEF (UNITS, SITE, LAYER, VIA, MACRO) and
design DEF (DIEAREA, ROW, TRACKS, GCELLGRID, COMPONENTS, PINS, NETS,
BLOCKAGES), plus writing the contest's ``.guide`` route-guide format.
"""

from repro.lefdef.lexer import tokenize
from repro.lefdef.lef_parser import parse_lef, write_lef
from repro.lefdef.def_parser import parse_def, write_def
from repro.lefdef.guides import write_guides

__all__ = [
    "tokenize",
    "parse_lef",
    "write_lef",
    "parse_def",
    "write_def",
    "write_guides",
]
