"""Deterministic report files: CSV, JSON summaries, and solution snapshots.

Every file carries a manifest (code version and the sha256 of the config
text that produced it) and no timestamps, so a rerun with the same config
and seed is byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .mesh import DomainMesh

__all__ = [
    "manifest_dict",
    "write_json",
    "write_csv",
    "write_solution",
    "read_solution",
    "write_gnuplot_recipe",
]

SOLUTION_KEYS = ("eps", "grad_tol", "residual", "s")  # snapshot header lines


def manifest_dict(config_sha256: str) -> dict:
    return {"tool": "fracneumann", "version": __version__,
            "config_sha256": config_sha256}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_json(path: Path, payload: dict, config_sha256: str) -> None:
    body = {"manifest": manifest_dict(config_sha256)}
    body.update(payload)
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, columns: list[str], rows: list[tuple],
              config_sha256: str) -> None:
    lines = [f"# fracneumann {__version__} config_sha256={config_sha256}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_solution(path: Path, mesh: DomainMesh, values: np.ndarray,
                   config_sha256: str, eps: float | None = None,
                   grad_tol: float | None = None, residual: float | None = None,
                   s: float | None = None) -> None:
    """Plain-text solution snapshot.

    Comment lines first (the manifest, then ``# key=value`` for each given
    eps, grad_tol, residual and s), then the header ``dim h node_count``, then
    one line per node: coordinates followed by the value, interior block first.
    """
    if values.shape != (mesh.n_total,):
        raise ValueError(
            f"solution has {values.shape} values, mesh has {mesh.n_total} nodes"
        )
    lines = [f"# fracneumann {__version__} config_sha256={config_sha256}"]
    given = dict(zip(SOLUTION_KEYS, (eps, grad_tol, residual, s)))
    lines += [f"# {k}={_fmt(v)}" for k, v in given.items() if v is not None]
    lines.append(f"{mesh.dim} {_fmt(mesh.h)} {mesh.n_total}")
    row = " ".join(["%r"] * (mesh.dim + 1))  # repr, as _fmt writes a float
    lines += [row % tuple(r) for r in np.column_stack([mesh.nodes, values]).tolist()]
    path.write_text("\n".join(lines) + "\n")


def _rows(lines: list[str], width: int) -> np.ndarray | None:
    """The ``width`` finite numbers of each of ``lines`` as one array, else
    None."""
    try:
        data = np.loadtxt(lines, comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == width and np.isfinite(data).all() else None


def read_solution(path: Path, mesh: DomainMesh | None = None) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read a solution snapshot; returns (header, coordinates, values).

    If ``mesh`` is given, the node count and coordinates are checked against
    it (to 1e-12) so a stored solution cannot silently be replayed on the
    wrong mesh.  The header also holds the ``# key=value`` lines it found.
    """
    path = Path(path)
    comments, raw = [], []  # raw: (1-based line number, line) of each data line
    for k, ln in enumerate(path.read_text().splitlines(), 1):
        if ln.strip():
            (comments if ln.lstrip().startswith("#") else raw).append((k, ln))
    if not raw:
        raise ValueError(f"solution file {path} is empty")
    k, ln = raw[0]
    try:
        dim, h, n_total = ln.split()
        header = {"dim": int(dim), "h": float(h), "n_total": int(n_total)}
        if not math.isfinite(header["h"]):
            raise ValueError
    except ValueError:
        raise ValueError(f"solution file {path}, line {k}: header must be "
                         f"'dim h node_count', got '{ln}'") from None
    for k, ln in comments:
        key, sep, value = ln.lstrip("# ").strip().partition("=")
        if sep and key in SOLUTION_KEYS:
            try:
                header[key] = float(value)
            except ValueError:
                raise ValueError(f"solution file {path}, line {k}: {key} must be "
                                 f"a number, got '{value}'") from None
            positive = key in ("eps", "grad_tol")
            if not math.isfinite(header[key]) or positive and not header[key] > 0.0:
                raise ValueError(f"solution file {path}, line {k}: {key} must be a "
                                 f"finite {'positive ' * positive}number, got '{value}'")
    if not 0 < header["n_total"] == len(raw) - 1:
        raise ValueError(
            f"solution file {path}: header says {header['n_total']} nodes, "
            f"found {len(raw) - 1} data lines"
        )
    data = _rows([ln for _, ln in raw[1:]], header["dim"] + 1)
    if data is None:  # name the first line that fails on its own
        k, ln = next(p for p in raw[1:] if _rows([p[1]], header["dim"] + 1) is None)
        raise ValueError(f"solution file {path}, line {k}: expected {header['dim']} "
                         f"coordinates + value per line, all finite, got '{ln}'")
    coords, values = data[:, :-1], data[:, -1]
    if mesh is not None:
        if header["n_total"] != mesh.n_total or header["dim"] != mesh.dim:
            raise ValueError(
                f"solution file {path} was written for a different mesh "
                f"(dim {header['dim']}, {header['n_total']} nodes; configured mesh "
                f"has dim {mesh.dim}, {mesh.n_total} nodes)"
            )
        if not np.allclose(coords, mesh.nodes, atol=1e-12, rtol=0.0):
            raise ValueError(
                f"solution file {path}: node coordinates do not match the "
                "configured mesh"
            )
    return header, coords, values


def write_gnuplot_recipe(path: Path, csv_name: str, config_sha256: str) -> None:
    lines = [
        f"# fracneumann {__version__} config_sha256={config_sha256}",
        f"# gnuplot recipe for the sweep report {csv_name}",
        "# (column 1 = eps, 3 = level/eps^N, 7 = norm^2/eps^N)",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        "set key left top autotitle columnheader",
        "set logscale x",
        "set xlabel 'eps'",
        "set ylabel 'scaled level and norm'",
        f"plot '{csv_name}' using 1:3 with linespoints, \\",
        f"     '{csv_name}' using 1:7 with linespoints",
    ]
    path.write_text("\n".join(lines) + "\n")
