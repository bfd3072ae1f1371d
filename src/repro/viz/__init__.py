"""Visualization: stacked bars and through-time stacked areas.

matplotlib-free: charts render either as terminal text
(:mod:`repro.viz.ascii_art`) or as standalone SVG files
(:mod:`repro.viz.svg`), reproducing the visual language of the paper's
figures (grouped stacked bars for Figs. 2-6/8-9, stacked areas through
time for Fig. 7).
"""

from repro.viz.ascii_art import render_stack_table, render_stacks
from repro.viz.export import (
    series_to_csv,
    stacks_to_csv,
    stacks_to_json,
)
from repro.viz.live import BatchProgressMeter
from repro.viz.palette import color_for
from repro.viz.svg import stacked_area_svg, stacked_bars_svg

__all__ = [
    "BatchProgressMeter",
    "color_for",
    "render_stack_table",
    "render_stacks",
    "series_to_csv",
    "stacked_area_svg",
    "stacked_bars_svg",
    "stacks_to_csv",
    "stacks_to_json",
]
