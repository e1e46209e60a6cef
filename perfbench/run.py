"""fracneumann benchmark: the three CLI jobs as closed-loop workloads.

    python3 perfbench/run.py --workload sweep-ref1d --seed 1 --seconds 35 --trace 0

One caller per workload, one pass at a time: each pass starts when the
previous one has ended.  Every number is taken from outside ``src/``: with
``--trace 0`` the end-to-end metrics of untraced passes, with ``--trace 1``
the per-layer metrics of traced passes (see ``NOTES.md``).  ``--workload
all`` runs every workload in turn and prints one row per workload.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The workloads run in child processes (``worker.py``) with ``src`` on the
import path and BLAS pinned to ``nproc`` threads; runner outputs go to
``.perfbench_out/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

REFERENCE_1D = "configs/reference_1d.cfg"
IDENTITIES_2D = "configs/identities_2d.cfg"

# name -> (runner job, config files)
WORKLOADS = {
    "sweep-ref1d": ("sweep", [REFERENCE_1D]),
    "moser-ref1d": ("moser", [REFERENCE_1D]),
    "identities": ("identities", [REFERENCE_1D, IDENTITIES_2D]),
}

# A run of one workload is stopped after this many seconds.
TIME_LIMIT = 170.0

# Fresh processes timed from start until their inputs are ready; the timed
# worker adds one more sample.
SETUP_SAMPLES = 6

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "config.load_config.s": "s",
    "mesh.build_mesh.s": "s",
    "operators.assemble.calls": "count",
    "operators.assemble.s": "s",
    "operators.assemble.bytes_computed": "B",
    "operators.estimate_embedding_constant.s": "s",
    "operators.estimate_embedding_constant.form_evals": "count",
    "operators.estimate_sobolev_constant.s": "s",
    "operators.apply.calls": "count",
    "operators.apply.s": "s",
    "operators.apply.flops_computed": "flop",
    "operators.verify_scaling_identity.s": "s",
    "problem.energy.calls": "count",
    "problem.energy.s": "s",
    "problem.energy_gradient.calls": "count",
    "problem.energy_gradient.s": "s",
    "problem.check_hypotheses.s": "s",
    "tent.thresholds.s": "s",
    "tent.ray_evals": "count",
    "tent.scan_failures": "count",
    "mountain_pass.solve.s": "s",
    "mountain_pass.flow.s": "s",
    "mountain_pass.flow.sweeps": "count",
    "mountain_pass.newton.s": "s",
    "mountain_pass.newton.iters": "count",
    "mountain_pass.newton.grad_evals": "count",
    "mountain_pass.newton.accept_ratio": "ratio",
    "mountain_pass.newton.lu_flops_computed": "flop",
    "mountain_pass.endpoint.s": "s",
    "mountain_pass.apriori_norm_certificate.s": "s",
    "mountain_pass.unconverged": "count",
    "moser.norm_ladder.s": "s",
    "moser.verify_caccioppoli_step.calls": "count",
    "moser.verify_caccioppoli_step.s": "s",
    "moser.chain_failures": "count",
    "reports.write.s": "s",
    "reports.bytes_written": "B",
    "reports.read_solution.s": "s",
    "runners.self_s": "s",
    "mesh.self_s": "s",
    "operators.self_s": "s",
    "problem.self_s": "s",
    "tent.self_s": "s",
    "mountain_pass.self_s": "s",
    "moser.self_s": "s",
    "reports.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "blas.single_thread_wall_s": "s",
    "blas.thread_speedup": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def call_worker(request: dict, threads: int, deadline: float) -> tuple[dict, float]:
    """Run one worker process to its end, killing it at the ``deadline``
    (a ``time.monotonic`` value); returns (reply, setup seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(request)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{request['mode']} worker ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{request['mode']} worker exited with code {proc.returncode}")
    reply = json.loads(lines[-1])
    return reply, reply["ready"] - start


def reference_for(configs: list[str]) -> dict:
    """Expected outputs for the job's first config, from ``reference.json``."""
    table = json.loads((HERE / "reference.json").read_text())
    name = Path(configs[0]).name
    return {key: table[key][name] for key in ("sweep", "moser", "snapshot")
            if name in table[key]}


def measure(job: str, configs: list[str], seed: int, seconds: float,
            trace: bool) -> dict:
    """Run one workload; returns metrics with their sample counts, the
    pass counts and the environment record."""
    paths = [str(ROOT / c) for c in configs]
    missing = [p for p in paths + [str(ROOT / "src" / "fracneumann")]
               if not os.path.exists(p)]
    if missing:
        raise BenchError("not a fracneumann checkout: missing " + ", ".join(missing))
    threads = nproc()
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    request = {"job": job, "configs": paths, "seed": seed, "seconds": seconds,
               "trace": trace, "warmup": trace, "work": str(work),
               "spans": str(OUT / f"spans-{job}.jsonl"),
               "reference": reference_for(configs)}
    deadline = time.monotonic() + TIME_LIMIT
    try:
        broken = []
        if job == "moser":
            reply, _ = call_worker({**request, "mode": "prepare"}, threads, deadline)
            broken = reply["problems"]
        setups = []
        if not trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(call_worker({**request, "mode": "setup"},
                                          threads, deadline)[1])
        main, setup = call_worker({**request, "mode": "passes"}, threads, deadline)
        setups.append(setup)
        single = None
        if trace:
            single, _ = call_worker({**request, "mode": "passes", "trace": False,
                                     "max_passes": 1}, 1, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = main["problems"] + (single["problems"] if single else [])
    if broken:
        # a wrong input snapshot makes every moser pass wrong
        problems = [p + broken for p in problems]
    for found in problems:
        for text in found:
            print(f"gate: {text}", file=sys.stderr)
    n_walls = len(main["walls"])
    wall = statistics.median(main["walls"])
    if trace:
        metrics = per_layer(main, wall)
        metrics["blas.single_thread_wall_s"] = (single["walls"][0], 1)
        metrics["blas.thread_speedup"] = (single["walls"][0] / wall, 1)
    else:
        metrics = {
            "wall_s": (wall, n_walls),
            "cpu_s": (statistics.median(main["cpus"]), len(main["cpus"])),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (main["peak_rss_mb"], 1),
        }
    return {"metrics": metrics, "attempted": len(problems),
            "failed": sum(1 for p in problems if p), "env": main["env"]}


def per_layer(main: dict, wall: float) -> dict:
    """Medians over the traced passes of each per-layer metric."""
    passes = main["layers"]
    for m in passes:
        m["tent.ray_evals"] = m.get("tent.ray_eval.calls", 0.0)
        m["mountain_pass.flow.s"] = m.get("mountain_pass.solve.self_s", 0.0)
        evals = m.get("mountain_pass.newton.grad_evals", 0.0)
        m["mountain_pass.newton.accept_ratio"] = (
            m.get("mountain_pass.newton.iters", 0.0) / evals if evals else 0.0)
    traced_wall = statistics.median(main["traced_walls"])
    n = len(passes)
    out = {name: (statistics.median(m.get(name, 0.0) for m in passes), n)
           for name in PER_LAYER}
    for name in ("config.load_config.s", "mesh.build_mesh.s"):
        out[name] = (main["setup_layers"].get(name, 0.0), 1)
    out["trace.overhead_s"] = (traced_wall - wall, n)
    return out


def print_env(name: str, seed: int, result: dict) -> None:
    env = result["env"]
    print(f"# env nproc={nproc()} blas_threads={env['blas_threads']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']!r}")
    for cfg in env["configs"]:
        print(f"# {name} seed={seed} n_total={cfg['n_total']} "
              f"n_interior={cfg['n_interior']} config_sha256={cfg['config_sha256']}")


def print_row(name: str, result: dict, units: dict) -> None:
    cells = [f"{key}={value:.6g} {units[key]} (n={n})"
             for key, (value, n) in result["metrics"].items()]
    frac = result["failed"] / result["attempted"]
    print(f"{name}: " + "  ".join(cells)
          + f"  failed_fraction={frac:.6g} (n={result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    results = {}
    try:
        for name in names:
            job, configs = WORKLOADS[name]
            results[name] = measure(job, configs, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    for name, result in results.items():
        print_env(name, args.seed, result)
    for name, result in results.items():
        print_row(name, result, units)
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(names) == 1 else name + "."
        for key, (value, _) in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
