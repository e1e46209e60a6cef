"""In-memory span recorder for the traced benchmark run.

Every traced function is replaced, in each ``fracneumann`` module that binds
it, by a wrapper that appends one span record: layer, function, parent span,
pass id, start, end, whether it raised, and an optional dict of counters read
from the return value.  The spans stay in memory until the pass ends; the
per-layer metrics are derived from them afterwards, so the recorder itself
does no bookkeeping beyond two clock reads and a list append per call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Span record fields, by index.
NAME, FUNC, PARENT, RUN, START, END, RAISED, EXTRA = range(8)

APPLY_FUNCS = ("frac_laplacian", "neumann_derivative", "seminorm_form",
               "bilinear_form")
WRITE_FUNCS = ("write_json", "write_csv", "write_solution",
               "write_gnuplot_recipe")


# Counter readers: (call arguments, return value) -> {metric: amount}.
# Byte and flop amounts are computed from array sizes, not measured.

def _newton_extra(args, result):
    iters, n = int(result[1]), len(args[1])
    return {"mountain_pass.newton.iters": iters,
            # one dense LU factorisation per Newton step
            "mountain_pass.newton.lu_flops_computed": iters * 2.0 / 3.0 * n**3}


def _solve_extra(args, result):
    return {"mountain_pass.flow.sweeps": len(result.max_energy_history),
            "mountain_pass.unconverged": int(not result.converged)}


def _thresholds_extra(args, result):
    return {"tent.scan_failures": len(result.failures)}


def _assemble_extra(args, result):
    n, dim = result.mesh.n_total, result.mesh.dim
    # diff (n, n, dim), r2 (n, n) and the weight matrix (n, n), all float64
    return {"operators.assemble.bytes_computed": 8 * n * n * (dim + 2)}


def _apply_extra(args, result):
    n = args[0].n_total
    return {"operators.apply.flops_computed": 2 * n * n}


def _write_extra(args, result):
    return {"reports.bytes_written": Path(args[0]).stat().st_size}


def targets():
    """(module, function, span name, counter reader) for every traced call."""
    from fracneumann import (config, mesh, moser, mountain_pass, operators,
                             problem, reports, runners, tent)

    t = [
        (config, "load_config", "config.load_config", None),
        (mesh, "build_interval_mesh", "mesh.build_mesh", None),
        (mesh, "build_box_mesh", "mesh.build_mesh", None),
        (operators, "assemble", "operators.assemble", _assemble_extra),
        (operators, "estimate_embedding_constant",
         "operators.estimate_embedding_constant", None),
        (operators, "estimate_sobolev_constant",
         "operators.estimate_sobolev_constant", None),
        (operators, "verify_scaling_identity",
         "operators.verify_scaling_identity", None),
        (problem, "energy", "problem.energy", None),
        (problem, "energy_gradient", "problem.energy_gradient", None),
        (problem, "check_hypotheses", "problem.check_hypotheses", None),
        (tent, "thresholds", "tent.thresholds", _thresholds_extra),
        (tent, "g_of_t", "tent.ray_eval", None),
        (tent, "g_prime", "tent.ray_eval", None),
        (mountain_pass, "mountain_pass_solve", "mountain_pass.solve",
         _solve_extra),
        (mountain_pass, "_newton_polish", "mountain_pass.newton",
         _newton_extra),
        (mountain_pass, "endpoint", "mountain_pass.endpoint", None),
        (mountain_pass, "apriori_norm_certificate",
         "mountain_pass.apriori_norm_certificate", None),
        (moser, "norm_ladder", "moser.norm_ladder", None),
        (moser, "verify_caccioppoli_step", "moser.verify_caccioppoli_step",
         None),
        (reports, "read_solution", "reports.read_solution", None),
        (runners, "run_scaling_sweep", "runners.run", None),
        (runners, "run_moser_check", "runners.run", None),
        (runners, "run_identity_suite", "runners.run", None),
    ]
    t += [(operators, f, "operators.apply", _apply_extra) for f in APPLY_FUNCS]
    t += [(reports, f, "reports.write", _write_extra) for f in WRITE_FUNCS]
    return t


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, extra=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, fn.__name__, stack[-1] if stack else -1, self.run_id,
                   clock(), 0.0, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if extra is not None:
                rec[EXTRA] = extra(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function wherever a fracneumann module binds
        it, since the modules import one another's functions by name."""
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "fracneumann" or k.startswith("fracneumann.")]
        for mod, attr, name, extra in targets():
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, extra)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def remove(self) -> None:
        for m, key, orig in reversed(self._patches):
            setattr(m, key, orig)
        self._patches.clear()

    def dump(self, path: Path, run_id: int) -> None:
        """Write the spans of one pass as JSON lines."""
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                if rec[RUN] == run_id:
                    fh.write(json.dumps({
                        "id": i, "name": rec[NAME], "func": rec[FUNC],
                        "parent": rec[PARENT], "run": rec[RUN],
                        "start": rec[START], "end": rec[END],
                        "raised": rec[RAISED], "extra": rec[EXTRA]}) + "\n")

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one pass.

        ``<span>.s`` is inclusive time, counting only the outermost span when
        a span of the same name is nested inside it; ``<module>.self_s`` is
        span time minus the time its child spans cover, so the self times of
        all modules add up to the time spent inside the runner calls.
        """
        spans = self.spans
        idx = [i for i, r in enumerate(spans) if r[RUN] == run_id]
        child = {i: 0.0 for i in idx}
        for i in idx:
            p = spans[i][PARENT]
            if p >= 0:
                child[p] += spans[i][END] - spans[i][START]

        def ancestors(i):
            p = spans[i][PARENT]
            while p >= 0:
                yield p
                p = spans[p][PARENT]

        m: dict[str, float] = {}

        def add(key, value):
            m[key] = m.get(key, 0.0) + value

        for i in idx:
            rec = spans[i]
            name, dur = rec[NAME], rec[END] - rec[START]
            add(name.split(".")[0] + ".self_s", dur - child[i])
            add(name + ".self_s", dur - child[i])
            nested = any(spans[a][NAME] == name for a in ancestors(i))
            if not nested:
                add(name + ".calls", 1)
                add(name + ".s", dur)
                for k, v in (rec[EXTRA] or {}).items():
                    add(k, v)
            anc = {spans[a][FUNC] for a in ancestors(i)}
            if rec[FUNC] == "bilinear_form" and "estimate_embedding_constant" in anc:
                add("operators.estimate_embedding_constant.form_evals", 1)
            if rec[FUNC] == "energy_gradient" and "_newton_polish" in anc:
                add("mountain_pass.newton.grad_evals", 1)
            if rec[FUNC] == "verify_caccioppoli_step" and rec[RAISED]:
                add("moser.chain_failures", 1)
        return m
