"""Minimal self-contained SVG rendering of sweep results.

No external assets, no plotting dependencies: each panel is a fixed 800 x 500
frame with linear or log10 axes, tick labels, and inline styles only.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .scan import Sweep

PANEL_W = 800
PANEL_H = 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 75, 25, 45, 60

_COLORS = ("#1f4e9c", "#b3261e", "#3a7d34")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    """About ``n`` round values from ``lo`` to ``hi``; ``[lo]`` when the span has no usable step."""
    raw = (hi - lo) / (n - 1)
    if not 0.0 < raw < math.inf:  # also a non-finite end, hi <= lo, or a span that over/underflows
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next((s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw), None)
    if step is None:  # mag underflowed, as for a subnormal span: even 10 * mag falls short of raw
        return [lo]
    out, t = [], math.ceil(lo / step) * step
    # at most n + 1 ticks: across a span of a few ulps, t += step rounds to less than step
    while t <= hi + 1e-9 * step and len(out) <= n:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # a span of a few ulps: t would never pass hi
            break
        t += step
    return out or [lo]


def _panel(x, log_x: bool, x_label: str, y_offset: int, title: str, y_label: str, series) -> str:
    """A panel of ``(label, y, color, dashed)`` series over ``x``, log10(x) when ``log_x``."""
    x_lo, x_hi = min(x), max(x)
    y_all = [y for _, ys, _, _ in series for y in ys]
    y_lo, y_hi = min(y_all + [0.0]), max(y_all)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad if y_lo < 0 else y_lo, y_hi + pad
    plot_w = PANEL_W - _MARGIN_L - _MARGIN_R
    plot_h = PANEL_H - _MARGIN_T - _MARGIN_B

    def px(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return y_offset + _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<rect x="{_MARGIN_L}" y="{y_offset + _MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="white" stroke="#444" stroke-width="1"/>',
        f'<text x="{PANEL_W / 2:.0f}" y="{y_offset + 25}" text-anchor="middle" '
        f'font-size="16" font-family="sans-serif">{title}</text>',
        f'<text x="{PANEL_W / 2:.0f}" y="{y_offset + PANEL_H - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{x_label}</text>',
        f'<text x="18" y="{y_offset + _MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 18 {y_offset + _MARGIN_T + plot_h / 2:.0f})">{y_label}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        tx = px(t)
        parts.append(
            f'<line x1="{tx:.1f}" y1="{py(y_lo):.1f}" x2="{tx:.1f}" '
            f'y2="{py(y_lo) + 5:.1f}" stroke="#444"/>'
            f'<text x="{tx:.1f}" y="{py(y_lo) + 20:.1f}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{10.0**t if log_x else t:.6g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" stroke="#444"/>'
            f'<text x="{_MARGIN_L - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{t:.6g}</text>'
        )
    legend_y = y_offset + _MARGIN_T + 18
    for label, ys, color, dashed in series:
        pts = " ".join(f"{px(a):.2f},{py(min(max(b, y_lo), y_hi)):.2f}" for a, b in zip(x, ys))
        dash = ' stroke-dasharray="7,5"' if dashed else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{legend_y}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif" fill="{color}">{label}</text>'
        )
        legend_y += 16
    return "\n".join(parts)


def _document(x: Sequence[float], x_label: str, panels, log_x: bool = False) -> str:
    """Panels ``(title, y_label, series)`` stacked over one x axis; ``log_x`` needs every x > 0."""
    if log_x:
        x = [math.log10(v) for v in x]
    height = PANEL_H * len(panels)
    body = "\n".join(
        _panel(x, log_x, x_label, i * PANEL_H, *panel) for i, panel in enumerate(panels)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" height="{height}" '
        f'viewBox="0 0 {PANEL_W} {height}">\n'
        f'<rect width="{PANEL_W}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def render_detuning_scan(sweep: Sweep) -> str:
    """Probe and Stokes panels versus two-photon detuning, absorber profile dashed."""
    absorber = ("absorber profile", sweep.absorber_profile.tolist(), "#777777", True)
    probe = [
        ("probe transmission", sweep.probe_transmission.tolist(), _COLORS[0], False),
        ("pure-EIT reference", sweep.eit_reference.tolist(), _COLORS[2], False),
        absorber,
    ]
    stokes = [("Stokes output", sweep.stokes_output.tolist(), _COLORS[1], False), absorber]
    return _document(
        sweep.axis_value.tolist(),
        "two-photon detuning (MHz)",
        [
            ("probe", "intensity transmission", probe),
            ("Stokes", "intensity (input-signal units)", stokes),
        ],
    )


def render_depth_scan(sweep: Sweep) -> str:
    """Peak probe and Stokes outputs versus absorber depth (log axis when spanning decades)."""
    depths = sweep.axis_value.tolist()
    probe = [
        ("probe peak", sweep.probe_transmission.tolist(), _COLORS[0], False),
        ("pure-EIT reference", sweep.eit_reference.tolist(), _COLORS[2], True),
    ]
    stokes = [("Stokes peak", sweep.stokes_output.tolist(), _COLORS[1], False)]
    return _document(
        depths,
        "effective absorber depth",
        [
            ("probe", "peak intensity transmission", probe),
            ("Stokes", "peak intensity (input-signal units)", stokes),
        ],
        log_x=min(depths) > 0 and max(depths) / min(depths) > 50,
    )
