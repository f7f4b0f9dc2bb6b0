"""CUGR-style 3D global routing.

Net decomposition via RSMT, L/Z pattern routing with dynamic-programming
layer assignment (the paper's "3D pattern route"), an A* maze fallback,
and a rip-up-and-reroute scheduler, all costed by Eq. 9/10.
"""

from repro.groute.patterns import pattern_paths_2d, runs_of_path
from repro.groute.pattern3d import PatternRouter3D
from repro.groute.maze import maze_route
from repro.groute.router import GlobalRouter, GuideRect, NetRoute

__all__ = [
    "pattern_paths_2d",
    "runs_of_path",
    "PatternRouter3D",
    "maze_route",
    "GlobalRouter",
    "GuideRect",
    "NetRoute",
]
