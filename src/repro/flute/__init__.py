"""Rectilinear Steiner minimal tree construction (FLUTE substitute)."""

from repro.flute.rsmt import SteinerTree, build_rsmt

__all__ = ["SteinerTree", "build_rsmt"]
