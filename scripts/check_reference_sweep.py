"""Check a reference_1d sweep against the benchmark's reference rows.

Usage: ``python scripts/check_reference_sweep.py OUT_DIR``, where ``OUT_DIR``
holds the ``sweep.csv`` and ``sweep_summary.json`` that
``fracneumann.cli sweep --config configs/reference_1d.cfg`` wrote.  Every
level and norm must match ``perfbench/reference.json`` to 1e-9 relative, as
the benchmark gate requires, and the sweep's certificates must hold.
"""
import csv
import json
import sys
from pathlib import Path

out = Path(sys.argv[1])
ref = json.loads(Path("perfbench/reference.json").read_text())["sweep"]["reference_1d.cfg"]
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
print("reference sweep matches perfbench/reference.json")
