"""Persistence and plotting: CSV records, key-value manifests, log-log SVG.

Both text formats are declared once, by dataclass fields. The columns of
``records.csv`` are ``SweepRecord``'s fields in order, and the ``config.*``
lines of ``manifest.txt`` are ``SweepConfig``'s, after the head keys of
``_HEAD_KEYS``; a new field changes the format, which bumps
``manifest_version``. Every value is written with ``str`` (a float's is its
shortest repr, so reading it back is exact, and a tuple's items are joined
by commas) and read back by the parser of its field's declared type. The
manifest, sufficient to rerun the sweep bitwise, holds one seed table per
trial, and every key read back from it is required. The SVG is
self-contained with log10 axes, one polyline per algorithm series, and a
slope annotation text node per fitted series.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import operator
from pathlib import Path

from .errors import InvalidArgumentError
from .harness import (
    RunManifest,
    SweepConfig,
    SweepRecord,
    build_manifest,
    error_stat_by_m,
    fit_slope,
    require_manifest_version,
)

_RECORD_FIELDS = dataclasses.fields(SweepRecord)
CSV_FIELDS = [f.name for f in _RECORD_FIELDS]
_row = operator.attrgetter(*CSV_FIELDS)  # not dataclasses.astuple, which deep-copies

# manifest.txt opens with these keys, in this order, for these RunManifest fields
_HEAD_KEYS = {
    "manifest_version": "manifest_version",
    "created_utc": "created_utc",
    "package_version": "package_version",
    "numpy_version": "numpy_version",
    "rng.algorithm": "rng_algorithm",
    "rng.gaussian_transform": "gaussian_transform",
    "rng.substream_rule": "substream_rule",
    "env.blas": "blas",
    "env.workers": "workers",
    "env.blas_threads_per_worker": "blas_threads_per_worker",
    "env.draw_threads": "draw_threads",
    "timing.draw_s": "draw_s",
    "timing.solve_s": "solve_s",
}
_RUN_TYPES = {f.name: f.type for f in dataclasses.fields(RunManifest)}
_CONFIG_FIELDS = dataclasses.fields(SweepConfig)

# one parser per declared field type (a string: harness postpones its annotations)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": lambda value: tuple(int(v) for v in value.split(",")),
    "tuple[str, ...]": lambda value: tuple(value.split(",")),
}
_RECORD_PARSERS = [_PARSERS[f.type] for f in _RECORD_FIELDS]

_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _format(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def write_records_csv(records: list[SweepRecord], path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        writer.writerows(map(_row, records))  # csv writes each value with str, as _format does
    return path


def read_records_csv(path) -> list[SweepRecord]:
    path = Path(path)
    records = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_FIELDS:
            raise InvalidArgumentError(f"unexpected CSV header in {path}")
        for row in reader:
            if len(row) != len(CSV_FIELDS):
                raise InvalidArgumentError(
                    f"{path} line {reader.line_num} has {len(row)} fields, not {len(CSV_FIELDS)}"
                )
            try:
                records.append(SweepRecord(*[parse(v) for parse, v in zip(_RECORD_PARSERS, row)]))
            except ValueError as exc:
                raise InvalidArgumentError(f"{path} line {reader.line_num} has a malformed value: {exc}") from exc
    return records


def _manifest_lines(manifest: RunManifest) -> list[str]:
    lines = [f"{key} = {_format(getattr(manifest, name))}" for key, name in _HEAD_KEYS.items()]
    lines += [f"config.{f.name} = {_format(getattr(manifest.config, f.name))}" for f in _CONFIG_FIELDS]
    for key in sorted(manifest.constants):
        lines.append(f"constants.{key} = {_format(manifest.constants[key])}")
    for trial, seeds in sorted(manifest.trial_seeds.items()):
        for role in sorted(seeds):
            lines.append(f"trial.{trial}.{role} = {seeds[role]}")
    return lines


def write_manifest(manifest: RunManifest, path) -> Path:
    path = Path(path)
    path.write_text("\n".join(_manifest_lines(manifest)) + "\n")
    return path


def load_manifest(path) -> RunManifest:
    """Parse a manifest file back into a RunManifest (seeds are re-derived and checked).

    Only the manifest version this build writes loads; another, or none, is
    rejected before any other key is read. Every key read here is required,
    and the ``trial.`` lines must be exactly the seed tables the config derives.
    """
    path = Path(path)
    if not path.exists():
        raise InvalidArgumentError(f"manifest not found: {path}")
    kv: dict[str, str] = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"malformed manifest line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise InvalidArgumentError(f"manifest {path} repeats key {key!r}")
        kv[key] = value

    def read(key: str, declared: str):
        parse = _PARSERS[declared]
        try:
            return parse(kv[key])
        except KeyError:
            raise InvalidArgumentError(f"manifest {path} is missing key {key!r}") from None
        except ValueError as exc:
            raise InvalidArgumentError(f"manifest {path} has a malformed value: {exc}") from exc

    version_key = next(iter(_HEAD_KEYS))  # so no key of another version is read
    require_manifest_version(read(version_key, _RUN_TYPES[_HEAD_KEYS[version_key]]))
    head = {name: read(key, _RUN_TYPES[name]) for key, name in _HEAD_KEYS.items()}
    cfg = SweepConfig(**{f.name: read(f"config.{f.name}", f.type) for f in _CONFIG_FIELDS})
    # the seeds and constants re-derived, the rest as recorded
    manifest = dataclasses.replace(build_manifest(cfg), **head)
    stored: dict[int, dict[str, int]] = {}
    for key, value in kv.items():
        if key.startswith("trial."):
            try:
                trial, role = key[len("trial."):].split(".", 1)
                stored.setdefault(int(trial), {})[role] = int(value)
            except ValueError as exc:
                raise InvalidArgumentError(f"manifest {path} has a malformed line: {key} = {value}") from exc
    if stored != manifest.trial_seeds:
        raise InvalidArgumentError(f"the trial seeds stored in {path} disagree with the config")
    return manifest


def render_loglog_svg(
    series: dict[str, list[tuple[float, float]]],
    annotations: list[str] | None = None,
    theory_curve: list[tuple[float, float]] | None = None,
    title: str = "error vs m",
) -> str:
    """Self-contained SVG: log10 axes, one polyline per series."""
    width, height = 640, 480
    left, right, top, bottom = 70, 20, 40, 50
    plots = {name: [(x, y) for x, y in pts if x > 0 and y > 0] for name, pts in series.items()}
    plots = {name: pts for name, pts in plots.items() if pts}
    curves = dict(plots)
    if theory_curve:
        curves["theory"] = [(x, y) for x, y in theory_curve if x > 0 and y > 0]

    all_pts = [p for pts in curves.values() for p in pts]
    if not all_pts:
        raise InvalidArgumentError("nothing to plot")
    lx = [math.log10(p[0]) for p in all_pts]
    ly = [math.log10(p[1]) for p in all_pts]
    x_lo, x_hi = min(lx), max(lx)
    y_lo, y_hi = min(ly), max(ly)
    x_hi = x_hi if x_hi > x_lo else x_lo + 1.0
    y_hi = y_hi if y_hi > y_lo else y_lo + 1.0
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo

    def px(x: float) -> float:
        return left + (math.log10(x) - x_lo) / span_x * (width - left - right)

    def py(y: float) -> float:
        return height - bottom - (math.log10(y) - y_lo) / span_y * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle">log10 m</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">log10 error</text>',
    ]
    for tick in range(math.floor(x_lo), math.ceil(x_hi) + 1):
        if x_lo <= tick <= x_hi:
            x = left + (tick - x_lo) / span_x * (width - left - right)
            parts.append(
                f'<line x1="{x:.1f}" y1="{height - bottom}" x2="{x:.1f}" y2="{height - bottom + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{x:.1f}" y="{height - bottom + 18}" text-anchor="middle">{tick}</text>'
            )
    for tick in range(math.floor(y_lo), math.ceil(y_hi) + 1):
        if y_lo <= tick <= y_hi:
            y = height - bottom - (tick - y_lo) / span_y * (height - top - bottom)
            parts.append(f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>')
            parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">{tick}</text>')

    legend_y = top + 8
    for idx, (name, pts) in enumerate(sorted(curves.items())):
        color = "#555555" if name == "theory" else _SERIES_COLORS[idx % len(_SERIES_COLORS)]
        dash = ' stroke-dasharray="6 4"' if name == "theory" else ""
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline id="series-{name}" fill="none" stroke="{color}" stroke-width="1.5"{dash} '
            f'points="{coords}"/>'
        )
        parts.append(f'<text x="{width - right - 160}" y="{legend_y}" fill="{color}">{name}</text>')
        legend_y += 16
    for note in annotations or []:
        parts.append(f'<text class="slope-annotation" x="{left + 10}" y="{legend_y}">{note}</text>')
        legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(
    records: list[SweepRecord],
    manifest: RunManifest,
    out_dir,
    theory_curve: list[tuple[float, float]] | None = None,
) -> dict[str, Path | None]:
    """Write records.csv, manifest.txt, and (when some run succeeded) plot.svg of median errors."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path | None] = {
            "csv": write_records_csv(records, out_dir / "records.csv"),
            "manifest": write_manifest(manifest, out_dir / "manifest.txt"),
            "svg": None,
        }
        algorithms = sorted({rec.algorithm for rec in records})
        series = {a: [(float(m), v) for m, v in error_stat_by_m(records, a)] for a in algorithms}
        if any(series.values()):
            annotations = []
            for algo in algorithms:
                try:
                    slope, _, r2 = fit_slope(records, algo)
                    annotations.append(f"{algo}: slope {slope:+.3f} (r2={r2:.3f})")
                except InvalidArgumentError:
                    pass  # fewer than 3 m values: plot without a fit
            svg = render_loglog_svg(
                series,
                annotations,
                theory_curve,
                title=f"median error vs m (N={manifest.config.n}, s={manifest.config.s})",
            )
            svg_path = out_dir / "plot.svg"
            svg_path.write_text(svg)
            paths["svg"] = svg_path
        return paths
    except OSError as exc:
        raise OSError(f"cannot write report under {out_dir}: {exc}") from exc
