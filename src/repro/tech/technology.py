"""The technology container assembled from a LEF file."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geom import Rect
from repro.tech.layer import Layer
from repro.tech.macro import Macro
from repro.tech.site import Site
from repro.tech.via import ViaDef


@dataclass(slots=True)
class Technology:
    """Everything a design needs from LEF: sites, layers, vias, macros."""

    name: str = "tech"
    dbu_per_micron: int = 1000
    sites: dict[str, Site] = field(default_factory=dict)
    layers: list[Layer] = field(default_factory=list)
    vias: list[ViaDef] = field(default_factory=list)
    macros: dict[str, Macro] = field(default_factory=dict)

    def add_site(self, site: Site) -> None:
        self.sites[site.name] = site

    def add_layer(self, layer: Layer) -> None:
        if layer.index != len(self.layers):
            raise ValueError(
                f"layer {layer.name}: expected index {len(self.layers)}, got {layer.index}"
            )
        self.layers.append(layer)

    def add_macro(self, macro: Macro) -> None:
        if macro.name in self.macros:
            raise ValueError(f"duplicate macro {macro.name}")
        self.macros[macro.name] = macro

    def add_via(self, via: ViaDef) -> None:
        self.vias.append(via)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def layer_by_name(self, name: str) -> Layer:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name}")

    def default_site(self) -> Site:
        if not self.sites:
            raise ValueError("technology has no sites")
        return next(iter(self.sites.values()))

    def make_default_vias(self) -> None:
        """Create one square default via per adjacent routing-layer pair."""
        for lower, upper in zip(self.layers[:-1], self.layers[1:]):
            half = max(lower.width, upper.width) // 2
            pad = Rect(-half, -half, half, half)
            self.add_via(
                ViaDef(
                    name=f"VIA{lower.index}{upper.index}",
                    bottom=lower.index,
                    bottom_shape=pad,
                    top_shape=pad,
                )
            )
