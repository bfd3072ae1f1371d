"""Standalone SVG charts: grouped stacked bars and stacked areas.

Pure string generation, no dependencies. The two chart types cover the
paper's figures: grouped stacked bars (Figs. 2-6, 8, 9) and stacked
areas through time (Fig. 7).
"""

from __future__ import annotations

from xml.sax.saxutils import escape as _xml_escape

from repro.stacks.components import Stack, StackSeries
from repro.viz.palette import color_for

_FONT = "font-family='Helvetica,Arial,sans-serif'"


def _esc(text: str) -> str:
    """XML-escape user-facing text (titles, labels, legend names)."""
    return _xml_escape(str(text))


def _header(width: int, height: int) -> list[str]:
    return [
        "<?xml version='1.0' encoding='UTF-8'?>",
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
    ]


def _component_names(stacks: list[Stack]) -> list[str]:
    names: list[str] = []
    for stack in stacks:
        for name, __ in stack.as_rows():
            if name not in names:
                names.append(name)
    return names


def _legend_svg(names: list[str], x: int, y: int) -> list[str]:
    parts = []
    for index, name in enumerate(names):
        ly = y + index * 18
        parts.append(
            f"<rect x='{x}' y='{ly}' width='12' height='12' "
            f"fill='{color_for(name)}'/>"
        )
        parts.append(
            f"<text x='{x + 18}' y='{ly + 10}' font-size='11' {_FONT}>"
            f"{_esc(name)}</text>"
        )
    return parts


def _axis(
    x0: int, y0: int, y1: int, max_value: float, unit: str, ticks: int = 5
) -> list[str]:
    parts = [
        f"<line x1='{x0}' y1='{y0}' x2='{x0}' y2='{y1}' stroke='black'/>"
    ]
    for i in range(ticks + 1):
        value = max_value * i / ticks
        ty = y1 - (y1 - y0) * i / ticks
        parts.append(
            f"<line x1='{x0 - 4}' y1='{ty:.1f}' x2='{x0}' y2='{ty:.1f}' "
            "stroke='black'/>"
        )
        parts.append(
            f"<text x='{x0 - 8}' y='{ty + 4:.1f}' font-size='10' "
            f"text-anchor='end' {_FONT}>{value:g}</text>"
        )
    parts.append(
        f"<text x='14' y='{(y0 + y1) / 2:.0f}' font-size='11' {_FONT} "
        f"transform='rotate(-90 14 {(y0 + y1) / 2:.0f})' "
        f"text-anchor='middle'>{unit}</text>"
    )
    return parts


def stacked_bars_svg(
    stacks: list[Stack],
    title: str = "",
    width: int = 640,
    height: int = 360,
    max_value: float | None = None,
    groups: list[tuple[str, int]] | None = None,
) -> str:
    """Grouped stacked-bar chart (one bar per stack).

    `groups` optionally labels consecutive runs of bars, e.g.
    ``[("sequential", 4), ("random", 4)]`` as in Fig. 2.
    """
    if not stacks:
        raise ValueError("no stacks to draw")
    margin_left, margin_right = 60, 130
    margin_top, margin_bottom = 34, 52
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    top = max_value if max_value is not None else max(s.total for s in stacks)
    top = top or 1.0
    names = _component_names(stacks)

    parts = _header(width, height)
    if title:
        parts.append(
            f"<text x='{width / 2:.0f}' y='20' font-size='14' "
            f"text-anchor='middle' {_FONT}>{_esc(title)}</text>"
        )
    parts.extend(_axis(
        margin_left, margin_top, margin_top + plot_h, top, stacks[0].unit
    ))

    slot = plot_w / len(stacks)
    bar_w = slot * 0.7
    for index, stack in enumerate(stacks):
        x = margin_left + slot * index + (slot - bar_w) / 2
        y = margin_top + plot_h
        for name, value in stack.as_rows():
            if value <= 0:
                continue
            h = plot_h * value / top
            y -= h
            parts.append(
                f"<rect x='{x:.1f}' y='{y:.1f}' width='{bar_w:.1f}' "
                f"height='{h:.1f}' fill='{color_for(name)}' "
                "stroke='white' stroke-width='0.4'/>"
            )
        parts.append(
            f"<text x='{x + bar_w / 2:.1f}' y='{margin_top + plot_h + 14}' "
            f"font-size='10' text-anchor='middle' {_FONT}>"
            f"{_esc(stack.label)}</text>"
        )

    if groups:
        x = margin_left
        for label, count in groups:
            span = slot * count
            parts.append(
                f"<text x='{x + span / 2:.1f}' "
                f"y='{margin_top + plot_h + 32}' font-size='11' "
                f"text-anchor='middle' {_FONT}>{_esc(label)}</text>"
            )
            x += span

    parts.extend(_legend_svg(names, width - margin_right + 16, margin_top))
    parts.append("</svg>")
    return "\n".join(parts)


def stacked_area_svg(
    series: StackSeries,
    title: str = "",
    width: int = 720,
    height: int = 300,
    max_value: float | None = None,
) -> str:
    """Through-time stacked-area chart (Fig. 7 style)."""
    if not len(series):
        raise ValueError("empty series")
    margin_left, margin_right = 60, 130
    margin_top, margin_bottom = 34, 40
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    top = (
        max_value if max_value is not None
        else max(stack.total for stack in series) or 1.0
    )
    names = _component_names(list(series))
    times = series.times_ms()
    span_ms = times[-1] + series.bin_ns / 1e6 if times else 1.0

    def x_of(t_ms: float) -> float:
        """Time to x pixel."""
        return margin_left + plot_w * t_ms / span_ms

    def y_of(value: float) -> float:
        """Value to y pixel."""
        return margin_top + plot_h * (1.0 - min(value, top) / top)

    parts = _header(width, height)
    if title:
        parts.append(
            f"<text x='{width / 2:.0f}' y='20' font-size='14' "
            f"text-anchor='middle' {_FONT}>{_esc(title)}</text>"
        )
    parts.extend(_axis(
        margin_left, margin_top, margin_top + plot_h, top, series[0].unit
    ))

    # Cumulative stacking, drawn top component last so lower layers are
    # painted first.
    baseline = [0.0] * len(series)
    for name in names:
        tops = [
            baseline[i] + series[i][name] for i in range(len(series))
        ]
        points = []
        for i, t in enumerate(times):
            points.append(f"{x_of(t):.1f},{y_of(tops[i]):.1f}")
        for i in range(len(series) - 1, -1, -1):
            points.append(f"{x_of(times[i]):.1f},{y_of(baseline[i]):.1f}")
        parts.append(
            f"<polygon points='{' '.join(points)}' "
            f"fill='{color_for(name)}' fill-opacity='0.9'/>"
        )
        baseline = tops

    # X axis time labels.
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t_ms = span_ms * frac
        parts.append(
            f"<text x='{x_of(t_ms):.1f}' y='{margin_top + plot_h + 16}' "
            f"font-size='10' text-anchor='middle' {_FONT}>"
            f"{t_ms:.2f}ms</text>"
        )

    parts.extend(_legend_svg(names, width - margin_right + 16, margin_top))
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(svg: str, path: str) -> None:
    """Write an SVG document to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)
