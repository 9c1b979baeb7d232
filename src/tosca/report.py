"""Result serialization (JSON, CSV) and a dependency-free SVG stage plot."""

from __future__ import annotations

import html
import json

from .data import replace_file

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _as_dict(report) -> dict:
    return report.to_dict() if hasattr(report, "to_dict") else dict(report)


def emit_report(report, path, fmt: str = "json") -> None:
    """Write one scenario result; CSV keeps only the per-stage table."""
    rep = _as_dict(report)
    if fmt == "json":
        text = json.dumps(rep, indent=2)
    elif fmt == "csv":
        lines = ["stage,A_b,selection_accuracy"]
        for s in rep["stages"]:
            lines.append(f"{s['index']},{s['A_b']:.6f},{s['selection_accuracy']:.6f}")
        text = "\n".join(lines)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    replace_file(path, [text.encode() + b"\n"])


def load_report(path) -> dict:
    """Read a JSON report that ``emit_report`` and ``emit_plot`` can take:
    an object with an ``A_bar`` and a non-empty ``stages`` list, stage i
    (from 1) an object with the int ``index`` i, an ``A_b`` and a
    ``selection_accuracy``.  Each accuracy is an int or float, not a bool,
    in [0, 100].  A ``method``, the plot's legend label, is a string if
    present.  Anything else raises ``ValueError`` naming the field."""
    try:
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"report {path}: not a UTF-8 JSON file ({exc})"
                         ) from None
    if not isinstance(rep, dict):
        raise ValueError(f"report {path}: not a JSON object")
    if not isinstance(rep.get("method", ""), str):
        raise ValueError(f"report {path}: method must be a string, not "
                         f"{rep['method']!r}")
    stages = rep.get("stages")
    if not isinstance(stages, list) or not stages:
        raise ValueError(f"report {path}: stages must be a non-empty list")
    _require_percent(path, rep, "A_bar", "A_bar")
    for i, stage in enumerate(stages):
        if not isinstance(stage, dict):
            raise ValueError(f"report {path}: stages[{i}] is not an object")
        index = _required(path, stage, "index", f"stages[{i}].index")
        if type(index) is not int or index != i + 1:
            raise ValueError(f"report {path}: stages[{i}].index must be "
                             f"{i + 1}, not {index!r}")
        for key in ("A_b", "selection_accuracy"):
            _require_percent(path, stage, key, f"stages[{i}].{key}")
    return rep


def _required(path, obj: dict, key: str, name: str):
    if key not in obj:
        raise ValueError(f"report {path}: {name} is missing")
    return obj[key]


def _require_percent(path, obj: dict, key: str, name: str) -> None:
    value = _required(path, obj, key, name)
    try:  # NaN compares false; an int past float range compares exactly
        percent = not isinstance(value, bool) and 0.0 <= value <= 100.0
    except TypeError:  # not a number
        percent = False
    if not percent:
        raise ValueError(f"report {path}: {name} must be a number in "
                         f"[0, 100], not {value!r}")


def emit_plot(reports, path) -> None:
    """Accuracy-per-stage curves for one or more runs as a standalone SVG."""
    reps = [_as_dict(r) for r in reports]
    if not reps:
        raise ValueError("nothing to plot")
    num_stages = len(reps[0]["stages"])
    if num_stages == 0 or any(len(r["stages"]) != num_stages for r in reps):
        raise ValueError("mismatched stage counts")

    width, height = 640, 420
    left, right, top, bottom = 60, 170, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom

    def x_px(stage):
        if num_stages == 1:
            return left + plot_w / 2
        return left + plot_w * (stage - 1) / (num_stages - 1)

    def y_px(acc):
        return top + plot_h * (1.0 - acc / 100.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for tick in range(0, 101, 20):
        y = y_px(tick)
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{tick}</text>')
    for stage in range(1, num_stages + 1):
        x = x_px(stage)
        parts.append(f'<line x1="{x:.1f}" y1="{top + plot_h}" x2="{x:.1f}" '
                     f'y2="{top + plot_h + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + plot_h + 18}" font-size="11" '
                     f'text-anchor="middle">{stage}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" '
                 'font-size="12" text-anchor="middle">stage</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.1f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{top + plot_h / 2:.1f})">accuracy (%)</text>')

    for i, rep in enumerate(reps):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{x_px(s['index']):.1f},{y_px(s['A_b']):.1f}"
                       for s in rep["stages"])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        for s in rep["stages"]:
            parts.append(f'<circle cx="{x_px(s["index"]):.1f}" '
                         f'cy="{y_px(s["A_b"]):.1f}" r="3" fill="{color}"/>')
        ly = top + 10 + 18 * i
        lx = left + plot_w + 14
        label = html.escape(str(rep.get("method", f"run {i + 1}")))
        parts.append(f'<rect x="{lx}" y="{ly - 8}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly + 2}" font-size="12">'
                     f'{label}</text>')
    parts.append("</svg>")
    replace_file(path, ["\n".join(parts).encode() + b"\n"])
