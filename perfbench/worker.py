"""One benchmark process: set up a workload, run timed passes, gate outputs.

Run by ``run.py`` as ``python3 perfbench/worker.py '<json request>'``; the
last line of standard output is a JSON reply.  Request keys:

``mode``        ``setup`` (load and mesh, then exit), ``prepare`` (write the
                moser input snapshot) or ``passes``
``job``         ``sweep``, ``moser`` or ``identities``
``configs``     config paths; identities runs them in turn
``seed``        workload seed, applied like the CLI's ``--seed``
``seconds``     measuring time for ``passes``
``trace``       alternate traced and untraced passes instead of untraced only
``warmup``      run one untimed pass first
``max_passes``  stop after this many timed passes (the single-thread
                baseline uses 1)
``work``        directory for runner outputs and the snapshot
``spans``       file that receives the spans of the last traced pass
``reference``   expected outputs (see ``reference.json``)

numpy, scipy and fracneumann are imported inside the functions, not at the
top, on purpose: the parent times this process from its start until its
inputs are ready, and those imports belong to that set-up time.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

REL_TOL = 1e-9


def _close(got: float, want: float, scale: float | None = None) -> bool:
    return abs(got - want) <= REL_TOL * abs(want if scale is None else scale)


def load(paths, seed):
    """Setup: the config files with the seed override, and their meshes."""
    from fracneumann import config

    cfgs = []
    for path in paths:
        cfg = config.load_config(path)
        cfg.seed = seed
        cfg.solver_seed = seed
        cfgs.append(cfg)
    meshes = [cfg.build_mesh() for cfg in cfgs]
    return cfgs, meshes


def snapshot_path(work: Path, cfg) -> Path:
    return work / f"solution_eps_{cfg.eps_list[-1]:g}.txt"


def prepare_snapshot(cfg, mesh, work: Path, ref: dict) -> list[str]:
    """Solve at the sweep's smallest eps, exactly as the sweep does, write the
    snapshot and compare its values with the reference fingerprint."""
    import numpy as np
    from fracneumann import (ProblemSpec, assemble, endpoint,
                             estimate_sobolev_constant, mountain_pass_solve,
                             phi_eps, thresholds)
    from fracneumann.reports import write_solution

    eps = cfg.eps_list[-1]
    op = assemble(mesh, cfg.s, eps)
    spec = ProblemSpec(mesh, op, cfg.nonlinearity())
    phi = phi_eps(mesh, eps)
    e = endpoint(spec, phi, thresholds(spec, phi))
    report = mountain_pass_solve(spec, e, cfg.mpa_config(),
                                 sobolev_constant=estimate_sobolev_constant(op))
    write_solution(snapshot_path(work, cfg), mesh, report.u,
                   cfg.config_sha256, eps=eps)

    want = ref["snapshot"]
    u = report.u
    idx = np.linspace(0, u.size - 1, len(want["values"])).round().astype(int)
    scale = want["max_abs"]
    problems = []
    if u.size != want["n_total"]:
        problems.append(f"snapshot has {u.size} nodes, expected {want['n_total']}")
    elif not all(_close(float(g), w, scale) for g, w in zip(u[idx], want["values"])):
        problems.append("snapshot values differ from the reference")
    if not _close(float(np.max(np.abs(u))), scale):
        problems.append("snapshot sup norm differs from the reference")
    return problems


def run_pass(job: str, cfgs, work: Path):
    """One pass through the runner calls; returns what the gate checks."""
    from fracneumann import runners

    out = work / "out"
    if job == "sweep":
        return runners.run_scaling_sweep(cfgs[0], out)
    if job == "moser":
        return runners.run_moser_check(cfgs[0], snapshot_path(work, cfgs[0]), out)
    return [runners.run_identity_suite(cfg, out / str(i))
            for i, cfg in enumerate(cfgs)]


def gate(job: str, outputs, work: Path, ref: dict) -> list[str]:
    """Findings that make a pass count as failed; empty when it passed."""
    if job == "sweep":
        return gate_sweep(outputs, ref)
    if job == "moser":
        summary = json.loads((work / "out" / "moser_summary.json").read_text())
        return gate_moser(outputs, summary, ref)
    return [f"identity suite failed on config {i}"
            for i, ok in enumerate(outputs) if not ok]


def gate_sweep(result, ref: dict) -> list[str]:
    problems = [] if result.certificates_ok else ["sweep certificates failed"]
    got = {spec.eps: rep for spec, rep in zip(result.specs, result.reports)}
    for row in ref["sweep"]:
        rep = got.get(row["eps"])
        if rep is None:
            problems.append(f"no solve at eps={row['eps']}")
            continue
        for key in ("level", "norm_sq"):
            if not _close(getattr(rep, key), row[key]):
                problems.append(f"eps={row['eps']}: {key}={getattr(rep, key)!r}, "
                                f"reference {row[key]!r}")
    return problems


def gate_moser(ok: bool, summary: dict, ref: dict) -> list[str]:
    problems = [] if ok else ["moser check failed"]
    for key in ("sup_estimate", "K"):
        if not _close(summary[key], ref["moser"][key]):
            problems.append(f"moser {key}={summary[key]!r}, "
                            f"reference {ref['moser'][key]!r}")
    return problems


def environment(cfgs, meshes) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "configs": [{"n_total": m.n_total, "n_interior": m.n_interior,
                     "config_sha256": c.config_sha256, "seed": c.seed}
                    for c, m in zip(cfgs, meshes)],
    }


def checked_pass(req: dict, cfgs, work: Path) -> tuple[list[str], float, float]:
    """Run and gate one pass; returns (gate findings, wall s, CPU s)."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        outputs = run_pass(req["job"], cfgs, work)
    except Exception as err:  # a pass that raises counts as failed
        traceback.print_exc()
        return ([f"runner raised {err!r}"], time.perf_counter() - t0,
                time.process_time() - c0)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return gate(req["job"], outputs, work, req["reference"]), wall, cpu


def timed_passes(req: dict, cfgs, work: Path, tracer) -> dict:
    """Run passes until the measuring time is spent.

    With ``warmup`` a first untimed pass warms the process up.  With a
    tracer, traced and untraced passes then alternate, so that their
    difference is the tracing overhead and not the first pass's page faults
    and lazy imports.
    """
    walls = {False: [], True: []}
    cpus, layers, problems = [], [], []
    if req["warmup"]:
        problems.append(checked_pass(req, cfgs, work)[0])
    start = time.perf_counter()
    n = 0
    while n < req.get("max_passes", 1 << 30):
        traced = tracer is not None and n % 2 == 0
        if traced:
            tracer.run_id = n + 1
            tracer.install()
        found, wall, cpu = checked_pass(req, cfgs, work)
        if traced:
            tracer.remove()
            m = tracer.layer_metrics(n + 1)
            m["trace.wall_s"] = wall
            layers.append(m)
            tracer.dump(Path(req["spans"]), n + 1)
        else:
            cpus.append(cpu)
        if n == 0:
            # peak of a process that has run the job once, as the CLI does
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls[traced].append(wall)
        problems.append(found)
        n += 1
        elapsed = time.perf_counter() - start
        need_pair = tracer is not None and not (walls[True] and walls[False])
        if not need_pair and elapsed + statistics.median(walls[traced]) > req["seconds"]:
            break
    return {"walls": walls[False], "traced_walls": walls[True], "cpus": cpus,
            "layers": layers, "problems": problems, "peak_rss_mb": peak_rss_mb}


def main() -> int:
    req = json.loads(sys.argv[1])
    cfgs, meshes = load(req["configs"], req["seed"])
    ready = time.monotonic()
    reply: dict = {"ready": ready}
    work = Path(req["work"])
    if req["mode"] == "prepare":
        reply["problems"] = prepare_snapshot(cfgs[0], meshes[0], work,
                                             req["reference"])
    elif req["mode"] == "passes":
        tracer = None
        if req["trace"]:
            from spans import Tracer

            tracer = Tracer()
            # time the setup calls once more, traced, for the setup layers
            tracer.install()
            load(req["configs"], req["seed"])
            tracer.remove()
            reply["setup_layers"] = tracer.layer_metrics(0)
        reply.update(timed_passes(req, cfgs, work, tracer))
        reply["env"] = environment(cfgs, meshes)
    print(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main())
