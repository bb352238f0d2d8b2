"""Minimal self-contained SVG writer for log-log convergence plots."""

import math
import xml.etree.ElementTree as ET

__all__ = ["render_loglog_svg"]

_W, _H = 760, 500
_ML, _MR, _MT, _MB = 70, 20, 40, 55
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _finite_positive(xs, ys):
    return [(x, y) for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0]


def _decades(lo, hi):
    k0 = math.ceil(math.log10(lo) - 1e-12)
    k1 = math.floor(math.log10(hi) + 1e-12)
    return [10.0 ** k for k in range(k0, k1 + 1)]


def _line(parent, x1, y1, x2, y2):
    """A light gray gridline."""
    ET.SubElement(parent, "line", x1=str(x1), y1=str(y1), x2=str(x2),
                  y2=str(y2), stroke="#dddddd", **{"stroke-width": "1"})


def _text(parent, x, y, text, size, fill, anchor="middle", **extra):
    """A sans-serif label at (x, y); ``extra`` holds further attributes."""
    el = ET.SubElement(parent, "text", x=str(x), y=str(y), fill=fill,
                       **{"font-size": str(size), "text-anchor": anchor,
                          "font-family": "sans-serif"}, **extra)
    el.text = text


def render_loglog_svg(curves, bold_curves=(), title=""):
    """Render polylines on log-log axes with decade gridlines.

    The x axis is labeled "time (s)" and the y axis "objective".

    Returns the SVG document as a string.

    Parameters
    ----------
    curves : list of (xs, ys, group) triples drawn as thin lines; ``group``
        indexes the color palette.
    bold_curves : list of (xs, ys, group, label) drawn thick, one per group.
    """
    pts = [pt for c in (*curves, *bold_curves)
           for pt in _finite_positive(c[0], c[1])]
    if not pts:
        raise ValueError("nothing to plot: no finite positive points")
    all_x, all_y = zip(*pts)
    x_lo, x_hi, y_lo, y_hi = min(all_x), max(all_x), min(all_y), max(all_y)
    # pad a few percent in log space; guard degenerate ranges
    if x_lo == x_hi:
        x_lo, x_hi = x_lo * 0.5, x_hi * 2.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.5, y_hi * 2.0
    lx0, lx1 = math.log10(x_lo), math.log10(x_hi)
    ly0, ly1 = math.log10(y_lo), math.log10(y_hi)
    lx0, lx1 = lx0 - 0.03 * (lx1 - lx0), lx1 + 0.03 * (lx1 - lx0)
    ly0, ly1 = ly0 - 0.05 * (ly1 - ly0), ly1 + 0.05 * (ly1 - ly0)

    def px(x):
        return _ML + (math.log10(x) - lx0) / (lx1 - lx0) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (math.log10(y) - ly0) / (ly1 - ly0) * (_H - _MT - _MB)

    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(_W), height=str(_H),
                     viewBox=f"0 0 {_W} {_H}")
    ET.SubElement(svg, "rect", x="0", y="0", width=str(_W), height=str(_H),
                  fill="white")
    # decade gridlines
    for gx in _decades(10 ** lx0, 10 ** lx1):
        X = f"{px(gx):.2f}"
        _line(svg, X, _MT, X, _H - _MB)
        _text(svg, X, _H - _MB + 18, f"1e{round(math.log10(gx))}", 11,
              "#444444")
    for gy in _decades(10 ** ly0, 10 ** ly1):
        Y = py(gy)
        _line(svg, _ML, f"{Y:.2f}", _W - _MR, f"{Y:.2f}")
        _text(svg, _ML - 6, f"{Y + 4:.2f}", f"1e{round(math.log10(gy))}", 11,
              "#444444", "end")
    ET.SubElement(svg, "rect", x=str(_ML), y=str(_MT),
                  width=str(_W - _ML - _MR), height=str(_H - _MT - _MB),
                  fill="none", stroke="#333333", **{"stroke-width": "1"})

    def polyline(xs, ys, color, width, opacity):
        good = _finite_positive(xs, ys)
        if not good:
            return
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in good)
        ET.SubElement(svg, "polyline", points=coords, fill="none",
                      stroke=color, **{"stroke-width": str(width),
                                       "stroke-opacity": str(opacity)})

    for xs, ys, group in curves:
        polyline(xs, ys, _PALETTE[group % len(_PALETTE)], 1.0, 0.45)
    legend_y = _MT + 16
    for xs, ys, group, label in bold_curves:
        color = _PALETTE[group % len(_PALETTE)]
        polyline(xs, ys, color, 3.0, 1.0)
        _text(svg, _W - _MR - 10, legend_y, label, 13, color, "end",
              **{"font-weight": "bold"})
        legend_y += 18
    if title:
        _text(svg, _W // 2, 24, title, 15, "#111111")
    _text(svg, (_ML + _W - _MR) // 2, _H - 14, "time (s)", 13, "#111111")
    mid = (_MT + _H - _MB) // 2
    _text(svg, 18, mid, "objective", 13, "#111111",
          transform=f"rotate(-90 18 {mid})")
    body = ET.tostring(svg, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"

