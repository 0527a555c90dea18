"""Minimal self-contained SVG rendering of sweep results.

No external assets, no plotting dependencies: each panel is a fixed 800 x 500
frame with linear or log10 axes, tick labels, and inline styles only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .scan import Sweep

PANEL_W = 800
PANEL_H = 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 75, 25, 45, 60

_COLORS = ("#1f4e9c", "#b3261e", "#3a7d34")


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]
    color: str
    dashed: bool = False


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # a span of a few ulps: t would never pass hi
            break
        t += step
    return out or [lo]


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def _panel(
    series: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str,
    y_offset: int,
    log_x: bool = False,
) -> str:
    xs = [x for s in series for x in s.x]
    ys = [y for s in series for y in s.y if math.isfinite(y)]
    if log_x:  # set only when every x is positive
        xs = [math.log10(x) for x in xs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad if y_lo < 0 else y_lo, y_hi + pad
    plot_w = PANEL_W - _MARGIN_L - _MARGIN_R
    plot_h = PANEL_H - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return y_offset + _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

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
        x = px(t)
        label = _fmt_tick(10.0**t) if log_x else _fmt_tick(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{py(y_lo):.1f}" x2="{x:.1f}" y2="{py(y_lo) + 5:.1f}" stroke="#444"/>'
            f'<text x="{x:.1f}" y="{py(y_lo) + 20:.1f}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{label}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" stroke="#444"/>'
            f'<text x="{_MARGIN_L - 9}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt_tick(t)}</text>'
        )
    legend_y = y_offset + _MARGIN_T + 18
    for s in series:
        pts = []
        for x, y in zip(s.x, s.y):
            if log_x:
                x = math.log10(x)
            if math.isfinite(y):
                pts.append(f"{px(x):.2f},{py(min(max(y, y_lo), y_hi)):.2f}")
        dash = ' stroke-dasharray="7,5"' if s.dashed else ""
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{s.color}" '
            f'stroke-width="1.6"{dash}/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 8}" y="{legend_y}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif" fill="{s.color}">{s.label}</text>'
        )
        legend_y += 16
    return "\n".join(parts)


def _document(panels: Sequence[str]) -> str:
    height = PANEL_H * len(panels)
    body = "\n".join(panels)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" height="{height}" '
        f'viewBox="0 0 {PANEL_W} {height}">\n'
        f'<rect width="{PANEL_W}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def render_detuning_scan(sweep: Sweep) -> str:
    """Probe and Stokes panels versus two-photon detuning, absorber profile dashed."""
    deltas = sweep.axis_value.tolist()
    probe = sweep.probe_transmission.tolist()
    stokes = sweep.stokes_output.tolist()
    absorber = sweep.absorber_profile.tolist()
    reference = sweep.eit_reference.tolist()
    top = _panel(
        [
            Series("probe transmission", deltas, probe, _COLORS[0]),
            Series("pure-EIT reference", deltas, reference, _COLORS[2]),
            Series("absorber profile", deltas, absorber, "#777777", dashed=True),
        ],
        "two-photon detuning (MHz)",
        "intensity transmission",
        "probe",
        0,
    )
    bottom = _panel(
        [
            Series("Stokes output", deltas, stokes, _COLORS[1]),
            Series("absorber profile", deltas, absorber, "#777777", dashed=True),
        ],
        "two-photon detuning (MHz)",
        "intensity (input-signal units)",
        "Stokes",
        PANEL_H,
    )
    return _document([top, bottom])


def render_depth_scan(sweep: Sweep) -> str:
    """Peak probe and Stokes outputs versus absorber depth (log axis when spanning decades)."""
    depths = sweep.axis_value.tolist()
    log_x = min(depths) > 0 and max(depths) / min(depths) > 50
    probe = sweep.probe_transmission.tolist()
    stokes = sweep.stokes_output.tolist()
    reference = sweep.eit_reference.tolist()
    top = _panel(
        [
            Series("probe peak", depths, probe, _COLORS[0]),
            Series("pure-EIT reference", depths, reference, _COLORS[2], dashed=True),
        ],
        "effective absorber depth",
        "peak intensity transmission",
        "probe",
        0,
        log_x=log_x,
    )
    bottom = _panel(
        [Series("Stokes peak", depths, stokes, _COLORS[1])],
        "effective absorber depth",
        "peak intensity (input-signal units)",
        "Stokes",
        PANEL_H,
        log_x=log_x,
    )
    return _document([top, bottom])
