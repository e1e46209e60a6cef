"""Check a moser run against the benchmark's reference row.

Usage: ``python scripts/check_reference_moser.py OUT_DIR [CONFIG]``, where
``OUT_DIR`` holds the ``moser_summary.json`` that ``fracneumann.cli moser
--config configs/CONFIG`` wrote for the sweep's smallest-eps solution and
``CONFIG`` names a config of ``perfbench/reference.json`` (default
``reference_1d.cfg``).  ``sup_estimate`` and ``K`` must match the reference
to 1e-9 relative, as the benchmark gate requires, and the run's own verdict
(``all_ok``) must hold.
"""
import json
import sys
from pathlib import Path

out = Path(sys.argv[1])
name = sys.argv[2] if len(sys.argv) > 2 else "reference_1d.cfg"
ref = json.loads(Path("perfbench/reference.json").read_text())["moser"][name]
got = json.loads((out / "moser_summary.json").read_text())
for key in ("sup_estimate", "K"):
    assert abs(got[key] - ref[key]) <= 1e-9 * abs(ref[key]), (key, got[key], ref[key])
assert got["all_ok"], "moser certificates failed"
print(f"{name} moser run matches perfbench/reference.json")
