"""Minimal static SVG writers (no external plotting dependency).

Deterministic output: fixed float formatting, no timestamps, no randomness.
"""

from __future__ import annotations

import numpy as np

_W = 640
_H = 640
_PAD = 40


def _fmt(v: float) -> str:
    return f"{v:.5g}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<title>{title}</title>',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]


def _mapper(re_lo, re_hi, im_lo, im_hi):
    span_x = (re_hi - re_lo) or 1.0
    span_y = (im_hi - im_lo) or 1.0

    def to_px(z: complex) -> tuple[float, float]:
        x = _PAD + (z.real - re_lo) / span_x * (_W - 2 * _PAD)
        y = _H - _PAD - (z.imag - im_lo) / span_y * (_H - 2 * _PAD)
        return x, y

    return to_px


def scatter_svg(groups, title: str) -> str:
    """Scatter of complex point clouds.

    ``groups`` is a list of (points, radius, fill) triples; bounds are taken
    over all groups with a 5% margin.
    """
    allpts = np.concatenate([np.asarray(g[0], complex).ravel() for g in groups])
    re_lo, re_hi = float(allpts.real.min()), float(allpts.real.max())
    im_lo, im_hi = float(allpts.imag.min()), float(allpts.imag.max())
    mx = 0.05 * max(re_hi - re_lo, im_hi - im_lo, 1e-9)
    to_px = _mapper(re_lo - mx, re_hi + mx, im_lo - mx, im_hi + mx)
    out = _header(title)
    for pts, radius, fill in groups:
        for z in np.asarray(pts, complex).ravel():
            x, y = to_px(complex(z))
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}" '
                f'fill="{fill}" fill-opacity="0.6"/>'
            )
    out.append("</svg>")
    return "\n".join(out)


def region_svg(runs, shape, d: int, title: str) -> str:
    """Raster of region codes over a rectangular z grid of ``shape`` (rows,
    cols), one rect per run of equal codes along a row: ``runs`` holds the
    (row, start, stop, code) lists of ``harness._row_runs``.  Codes 0..d are
    the orders -d2..d1, greyscale by d0 = d - code (darker = fewer outside
    roots); code d + 1 is boundary, red.  Row r shows the r-th im value,
    drawn from the bottom since the y axis points up.
    """
    ny, nx = shape
    cw = (_W - 2 * _PAD) / nx
    ch = (_H - 2 * _PAD) / ny
    out = _header(title)
    rows, starts, stops, codes = runs
    fills = {c: "#" + f"{round(255 * ((d - c) / d)):02x}" * 3 for c in set(codes)}
    fills[d + 1] = "#cc2222"
    ypix = [_fmt(_H - _PAD - (r + 1) * ch) for r in range(ny)]
    height = _fmt(ch)
    for r, c0, c1, c in zip(rows, starts, stops, codes):
        out.append(
            f'<rect x="{_fmt(_PAD + c0 * cw)}" y="{ypix[r]}" '
            f'width="{_fmt((c1 - c0) * cw)}" height="{height}" fill="{fills[c]}"/>'
        )
    out.append("</svg>")
    return "\n".join(out)
