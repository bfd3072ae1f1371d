"""Plain-text performance reports combining stacks and advice."""

from __future__ import annotations

from repro.analysis.advisor import advise
from repro.stacks.components import Stack
from repro.viz.ascii_art import render_stack_table, render_stacks


def render_report(
    bandwidth: Stack,
    latency: Stack | None = None,
    cycle: Stack | None = None,
    title: str = "DRAM performance report",
    width: int = 56,
) -> str:
    """One text report: stacks, a component table, and the advisor."""
    sections = [title, "=" * len(title), ""]

    achieved = bandwidth["read"] + bandwidth["write"]
    sections.append(
        f"achieved bandwidth: {achieved:.2f} {bandwidth.unit} of "
        f"{bandwidth.total:.2f} {bandwidth.unit} peak "
        f"({achieved / bandwidth.total:.0%})"
    )
    if latency is not None and latency.total > 0:
        base = (
            latency["base"] + latency["base_cntlr"] + latency["base_dram"]
        )
        sections.append(
            f"average read latency: {latency.total:.1f} {latency.unit} "
            f"(base {base:.1f})"
        )
    sections.append("")

    sections.append("Bandwidth stack")
    sections.append(render_stacks([bandwidth], width=width))
    sections.append("")
    if latency is not None and latency.total > 0:
        sections.append("Latency stack")
        sections.append(render_stacks([latency], width=width))
        sections.append("")
    if cycle is not None and cycle.total > 0:
        sections.append("Cycle stack")
        sections.append(render_stacks([cycle], width=width))
        sections.append("")

    sections.append("Findings")
    findings = advise(bandwidth, latency)
    if findings:
        for finding in findings:
            sections.append(f"  - {finding}")
    else:
        sections.append("  (no significant bottlenecks)")
    return "\n".join(sections)


def render_comparison(
    stacks: list[Stack], title: str = "Comparison"
) -> str:
    """Side-by-side component table for a group of stacks."""
    return render_stack_table(stacks, title=title)
