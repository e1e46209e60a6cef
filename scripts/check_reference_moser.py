"""Check a reference_1d moser run against the benchmark's reference row.

Usage: ``python scripts/check_reference_moser.py OUT_DIR``, where ``OUT_DIR``
holds the ``moser_summary.json`` that ``fracneumann.cli moser --config
configs/reference_1d.cfg`` wrote for the sweep's eps=0.05 solution.
``sup_estimate`` and ``K`` must match ``perfbench/reference.json`` to 1e-9
relative, as the benchmark gate requires, and the run's own verdict
(``all_ok``) must hold.
"""
import json
import sys
from pathlib import Path

out = Path(sys.argv[1])
ref = json.loads(Path("perfbench/reference.json").read_text())["moser"]["reference_1d.cfg"]
got = json.loads((out / "moser_summary.json").read_text())
for key in ("sup_estimate", "K"):
    assert abs(got[key] - ref[key]) <= 1e-9 * abs(ref[key]), (key, got[key], ref[key])
assert got["all_ok"], "moser certificates failed"
print("reference moser run matches perfbench/reference.json")
