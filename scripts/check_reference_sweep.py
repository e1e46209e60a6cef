"""Check a sweep against the benchmark's reference rows.

Usage: ``python scripts/check_reference_sweep.py OUT_DIR [CONFIG]``, with
``src`` on ``PYTHONPATH``, where ``OUT_DIR`` holds what ``fracneumann.cli
sweep --config configs/CONFIG`` wrote and ``CONFIG`` names a config of
``perfbench/reference.json`` (default ``reference_1d.cfg``).  Every level
and norm must match its reference row to 1e-9 relative, as the benchmark
gate requires, and the sweep's certificates must hold.  The solution at
the reference snapshot's eps is compared as the benchmark compares its
snapshot: the node count, and 17 evenly spaced node values and the sup norm
to 1e-9 of the reference sup norm, so a flow that lands on the mirror image
of the reference solution fails here.
"""
import csv
import json
import sys
from pathlib import Path

import numpy as np

from fracneumann.reports import read_solution

out = Path(sys.argv[1])
name = sys.argv[2] if len(sys.argv) > 2 else "reference_1d.cfg"
reference = json.loads(Path("perfbench/reference.json").read_text())
ref = reference["sweep"][name]
with open(out / "sweep.csv") as f:
    got = {float(r["eps"]): r for r in csv.DictReader(
        ln for ln in f if not ln.startswith("#"))}
assert sorted(got) == sorted(row["eps"] for row in ref), sorted(got)
for row in ref:
    for key in ("level", "norm_sq"):
        value = float(got[row["eps"]][key])
        assert abs(value - row[key]) <= 1e-9 * abs(row[key]), (row["eps"], key, value, row[key])
assert json.loads((out / "sweep_summary.json").read_text())["certificates_ok"], \
    "sweep certificates failed"

snap = reference["snapshot"][name]
u = read_solution(out / f"solution_eps_{snap['eps']:g}.txt")[2]
assert u.size == snap["n_total"], (u.size, snap["n_total"])
idx = np.linspace(0, u.size - 1, len(snap["values"])).round().astype(int)
tol = 1e-9 * abs(snap["max_abs"])
for i, want in zip(idx, snap["values"]):
    assert abs(u[i] - want) <= tol, ("snapshot", int(i), float(u[i]), want)
assert abs(np.max(np.abs(u)) - snap["max_abs"]) <= tol, \
    ("snapshot sup norm", float(np.max(np.abs(u))), snap["max_abs"])
print(f"{name} sweep matches perfbench/reference.json")
