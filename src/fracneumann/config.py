"""Flat key=value run configuration.

The format is deliberately language-neutral: one ``key = value`` pair per
line, ``#`` comments, dotted section prefixes (``domain.``,
``nonlinearity.``, ``solver.``).  The domain bound keys of the configured
``domain.kind`` become ``RunConfig.bounds``, one ``(lo, hi)`` pair per
dimension, which only the mesh module interprets.  Every numeric
precondition of the downstream modules is checked at parse time so
misconfigurations fail before any assembly starts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunConfig", "parse_config", "load_config", "ConfigError"]

# the bound keys of each domain kind with their defaults, lo then hi per axis
BOUND_KEYS = {
    "interval": {"domain.a": -1.0, "domain.b": 1.0},
    "box": {"domain.ax": 0.0, "domain.bx": 1.0, "domain.ay": 0.0, "domain.by": 1.0},
}
KNOWN_KEYS = {
    "domain.kind", "domain.h", "domain.r_ext",
    "s", "eps", "eps_list",
    "nonlinearity.p", "solver.grad_tol", "seed",
}.union(*BOUND_KEYS.values())


class ConfigError(ValueError):
    """Configuration file problem with an actionable message."""


@dataclass
class RunConfig:
    """Validated run parameters plus the hash of their textual source."""

    bounds: tuple[tuple[float, float], ...] = ((-1.0, 1.0),)
    h: float = 0.01
    r_ext: float | None = None        # None: 5 * diam(domain)
    s: float = 0.25
    eps: float | None = None
    eps_list: list[float] = field(default_factory=list)
    p: float = 3.0
    grad_tol: float = 1e-8
    seed: int = 0
    config_sha256: str = ""

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def resolved_r_ext(self) -> float:
        if self.r_ext is None:
            return 5.0 * math.dist(*zip(*self.bounds))  # the box diagonal
        return self.r_ext

    def first_eps(self) -> float:
        if self.eps is not None:
            return self.eps
        if self.eps_list:
            return self.eps_list[0]
        raise ConfigError("no eps configured: set 'eps' or 'eps_list'")

    def build_mesh(self):
        from .mesh import build_box_mesh

        return build_box_mesh(self.bounds, self.h, self.resolved_r_ext())

    def nonlinearity(self):
        from .problem import power_nonlinearity

        return power_nonlinearity(self.p)

    def mpa_config(self):
        from .mountain_pass import MPAConfig

        return MPAConfig(grad_tol=self.grad_tol)


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got '{raw}'") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite number, got '{raw}'")
    return value


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got '{raw}'") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text; raises ConfigError on problems."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line.strip()}'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(
                f"line {lineno}: unknown key '{key}' (known keys: "
                + ", ".join(sorted(KNOWN_KEYS)) + ")"
            )
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        pairs[key] = raw

    cfg = RunConfig()
    cfg.config_sha256 = hashlib.sha256(text.encode()).hexdigest()

    kind = pairs.get("domain.kind", "interval")
    if kind not in BOUND_KEYS:
        raise ConfigError(f"domain.kind must be 'interval' or 'box', got '{kind}'")
    stray = sorted(set(pairs) & (set().union(*BOUND_KEYS.values()) - set(BOUND_KEYS[kind])))
    if stray:
        raise ConfigError(f"domain.kind = {kind} takes no {', '.join(stray)}")
    ends = [_parse_float(key, pairs[key]) if key in pairs else default
            for key, default in BOUND_KEYS[kind].items()]
    cfg.bounds = tuple(zip(ends[::2], ends[1::2]))
    for key, attr in (("domain.h", "h"), ("s", "s"), ("nonlinearity.p", "p")):
        if key in pairs:
            setattr(cfg, attr, _parse_float(key, pairs[key]))
    if "domain.r_ext" in pairs:
        cfg.r_ext = _parse_float("domain.r_ext", pairs["domain.r_ext"])
    if "eps" in pairs:
        cfg.eps = _parse_float("eps", pairs["eps"])
    if "eps_list" in pairs:
        items = [x for x in pairs["eps_list"].replace(",", " ").split() if x]
        if not items:
            raise ConfigError("eps_list is empty: give at least one eps value")
        cfg.eps_list = [_parse_float("eps_list", x) for x in items]
        names = [f"{x:g}" for x in cfg.eps_list]  # the sweep's output file names
        if clash := [x for x, name in zip(items, names) if names.count(name) > 1]:
            raise ConfigError(f"eps_list values {', '.join(clash)} would write the "
                              "same output files: give distinct eps values")
    if "solver.grad_tol" in pairs:
        cfg.grad_tol = _parse_float("solver.grad_tol", pairs["solver.grad_tol"])
    if "seed" in pairs:
        cfg.seed = _parse_int("seed", pairs["seed"])

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    from .mesh import check_box

    try:
        check_box(cfg.bounds, cfg.h, cfg.resolved_r_ext())
    except ValueError as err:
        raise ConfigError(f"domain: {err}") from None
    if not 0.0 < cfg.s < 1.0:
        raise ConfigError(f"s must lie in (0, 1), got {cfg.s}")
    if cfg.dim <= 2.0 * cfg.s:
        raise ConfigError(
            f"need dim > 2 s (finite critical exponent): dim={cfg.dim}, s={cfg.s}; "
            "for an interval use s < 1/2"
        )
    from .operators import critical_exponent

    two_star = critical_exponent(cfg.dim, cfg.s)
    if not 2.0 < cfg.p < two_star:
        raise ConfigError(
            f"nonlinearity.p must lie in (2, 2*_s) = (2, {two_star:.6g}), got {cfg.p}"
        )
    for value in ([cfg.eps] if cfg.eps is not None else []) + cfg.eps_list:
        if value <= 0.0:
            raise ConfigError(f"eps values must be positive, got {value}")
    if cfg.grad_tol <= 0.0:
        raise ConfigError(f"solver.grad_tol must be positive, got {cfg.grad_tol}")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())
