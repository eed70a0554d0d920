"""Result aggregation: learning-curve and attack-tradeoff CSVs plus SVG plots.

The SVG writer is deliberately hand-rolled: output bytes are a pure function
of the plotted data, so re-running a report over unchanged manifests yields
byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path

from .attacks import AttackReport, format_attack_row, read_attack_rows
from .experiment import load_manifest

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH, _HEIGHT = 720, 480
_ML, _MR, _MT, _MB = 80, 30, 45, 60  # margins: left, right, top, bottom


class ReportError(ValueError):
    """Raised when there is nothing to report or inputs are malformed."""


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ReportError("non-finite axis range")
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 2.5, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(round(t, 10))
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def svg_line_plot(
    series: list[tuple[str, list[float], list[float]]],
    xlabel: str,
    ylabel: str,
    title: str,
    draw_lines: bool = True,
) -> str:
    """A simple deterministic line/scatter plot as SVG text.

    ``series`` is a list of (label, xs, ys); points are drawn as circles and,
    when ``draw_lines``, connected in the given order.
    """
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if not pts:
        raise ReportError("no data points to plot")
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _HEIGHT - _MB - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="25" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    # Axes box and ticks.
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{_HEIGHT - _MB}" x2="{px:.2f}" '
            f'y2="{_HEIGHT - _MB + 5}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _MB + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="#333333"/>')
        out.append(
            f'<text x="{_ML - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>'
        )
    out.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{_MT + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_MT + plot_h / 2:.2f})">{ylabel}</text>'
    )
    # Series.
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = [(sx(x), sy(y)) for x, y in zip(xs, ys)]
        if draw_lines and len(coords) > 1:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in coords:
            out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        ly = _MT + 16 + 16 * k
        out.append(
            f'<rect x="{_ML + plot_w - 150}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
        )
        out.append(
            f'<text x="{_ML + plot_w - 132}" y="{ly + 2}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_report(manifest_paths: list[str | Path], out_dir: str | Path) -> list[Path]:
    """Aggregate manifests into CSVs and SVG plots; returns written paths.

    Emits ``learning_curves.csv`` (epoch vs validation perplexity per run),
    ``attack_tradeoff.csv`` (perplexity vs exposure and membership-inference
    accuracy per attacked checkpoint), and three SVG plots over the same
    axes. Every manifest and ``attacks.csv`` is read, and every output made,
    before ``out_dir`` is created, so a bad input leaves no directory behind.
    A run given twice, or an ``attacks.csv`` row of another run than its
    manifest's (one left by an earlier run in the same directory), raises
    ``ReportError``.
    """
    if not manifest_paths:
        raise ReportError("need at least one manifest")
    runs = []
    seen: dict[str, str | Path] = {}  # run_id -> its manifest path
    for mp in manifest_paths:
        manifest, csv_path = load_manifest(mp), Path(mp).parent / "attacks.csv"
        run_id = manifest["run_id"]
        if run_id in seen:
            raise ReportError(f"run {run_id} is given twice: {seen[run_id]} and {mp}")
        seen[run_id] = mp
        rows = read_attack_rows(csv_path)
        stale = next((row["run_id"] for row in rows if row["run_id"] != run_id), None)
        if stale is not None:
            raise ReportError(f"{csv_path}: holds attacks on run {stale}, but {mp} is run {run_id}")
        runs.append((manifest, rows))
    runs.sort(key=lambda r: (r[0]["regime"], r[0]["run_id"]))

    curve_lines = ["run_id,regime,epoch,valid_perplexity"]
    curve_series = []
    for manifest, _ in runs:
        epochs = manifest["epochs"]
        xs = [e["epoch"] for e in epochs]
        ys = [e["valid_perplexity"] for e in epochs]
        for x, y in zip(xs, ys):
            curve_lines.append(f"{manifest['run_id']},{manifest['regime']},{x},{y!r}")
        curve_series.append((manifest["regime"], [float(x) for x in xs], ys))

    tradeoff_lines = [AttackReport.CSV_HEADER]
    by_regime: dict[str, list[tuple[float, float, float]]] = {}
    for manifest, rows in runs:
        for row in sorted(rows, key=lambda r: r["epoch"]):
            tradeoff_lines.append(format_attack_row(row))
            by_regime.setdefault(row["regime"], []).append(
                (row["valid_perplexity"], row["exposure"], row["mi_accuracy"])
            )

    outputs = {
        "learning_curves.csv": "\n".join(curve_lines) + "\n",
        "attack_tradeoff.csv": "\n".join(tradeoff_lines) + "\n",
        "learning_curves.svg": svg_line_plot(
            curve_series, "epoch", "validation perplexity", "Learning curves"
        ),
    }
    scatters = [
        (1, "exposure_vs_perplexity.svg", "canary exposure", "Canary exposure vs utility"),
        (2, "mi_vs_perplexity.svg", "membership inference accuracy", "Membership inference vs utility"),
    ]
    for column, name, ylabel, title in scatters if by_regime else []:
        series = [
            (regime, [p[0] for p in pts], [p[column] for p in pts])
            for regime, pts in sorted(by_regime.items())
        ]
        outputs[name] = svg_line_plot(series, "validation perplexity", ylabel, title, draw_lines=False)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return [out_dir / name for name in outputs]
