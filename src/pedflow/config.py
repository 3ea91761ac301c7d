"""Scenario configuration: flat `key = value` text files.

Recognized keys (defaults in parentheses):

    time.dt (1.0)                time.horizon (120.0)
    fd.variant (logistic)        fd.gamma (unset; required for power)
    pvdf.mode (symmetric)        pvdf.alpha (0.5)      pvdf.beta (2.0)
    pvdf.mu (0.0)                pvdf.eta_r (0.0)      pvdf.lambda_r (0.0)
    pvdf.eta_c (0.0)             pvdf.lambda_c (0.0)
    due.max_iters (50)           due.gap_tol (0.01)
    ltm.effective_storage (false)
    paths.max_paths (12)         paths.detour (1.0)
    paths.enumerate (true)
    debug.node_trace (true)
    penalty                      repeatable: "<link id or from-to>@<start_s>:<added_cost_s>"

Lines starting with # are comments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pvdf import PvdfParams


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class LinkPenalty:
    """Scheduled additive cost on one link from start_s until the end of the run."""

    link_ref: str  # integer link id, or "from-to" node pair
    start_s: float
    added_cost_s: float

    def resolve(self, network) -> int:
        """Link id in the given network, or ConfigError if it does not exist."""
        if "-" in self.link_ref.lstrip("-"):
            a, b = self.link_ref.split("-", 1)
            link = network.link_between(int(a), int(b))
            if link is None:
                raise ConfigError(f"penalty references missing link {self.link_ref}")
            return link.id
        lid = int(self.link_ref)
        if lid not in network.links:
            raise ConfigError(f"penalty references missing link id {lid}")
        return lid


@dataclass(frozen=True)
class ScenarioConfig:
    dt: float = 1.0
    horizon: float = 120.0
    fd_variant: str = "logistic"
    fd_gamma: float | None = None
    pvdf: PvdfParams = field(default_factory=PvdfParams)
    max_iters: int = 50
    gap_tol: float = 0.01
    effective_storage: bool = False
    penalties: tuple[LinkPenalty, ...] = ()
    node_trace: bool = True
    max_paths: int = 12
    detour: float = 1.0
    enumerate_paths: bool = True  # pre-enumerate per OD; turn off on big networks

    def __post_init__(self):
        if self.gap_tol <= 0:
            raise ConfigError(f"due.gap_tol must be positive, got {self.gap_tol}")
        if self.max_iters < 1:
            raise ConfigError(f"due.max_iters must be >= 1, got {self.max_iters}")
        if self.fd_variant == "power" and self.fd_gamma is None:
            raise ConfigError("fd.variant = power requires fd.gamma")


def parse_config(text: str) -> ScenarioConfig:
    values: dict[str, str] = {}
    penalties: list[LinkPenalty] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "penalty":
            penalties.append(_parse_penalty(value, lineno))
        else:
            values[key] = value

    def take(key, cast, default):
        if key not in values:
            return default
        raw = values.pop(key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc

    def boolean(raw: str) -> bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(raw)

    pvdf = PvdfParams(
        alpha=take("pvdf.alpha", float, 0.5),
        beta=take("pvdf.beta", float, 2.0),
        mode=take("pvdf.mode", str, "symmetric"),
        mu=take("pvdf.mu", float, 0.0),
        eta_r=take("pvdf.eta_r", float, 0.0),
        lambda_r=take("pvdf.lambda_r", float, 0.0),
        eta_c=take("pvdf.eta_c", float, 0.0),
        lambda_c=take("pvdf.lambda_c", float, 0.0),
    )
    cfg = ScenarioConfig(
        dt=take("time.dt", float, 1.0),
        horizon=take("time.horizon", float, 120.0),
        fd_variant=take("fd.variant", str, "logistic"),
        fd_gamma=take("fd.gamma", float, None),
        pvdf=pvdf,
        max_iters=take("due.max_iters", int, 50),
        gap_tol=take("due.gap_tol", float, 0.01),
        effective_storage=take("ltm.effective_storage", boolean, False),
        penalties=tuple(penalties),
        node_trace=take("debug.node_trace", boolean, True),
        max_paths=take("paths.max_paths", int, 12),
        detour=take("paths.detour", float, 1.0),
        enumerate_paths=take("paths.enumerate", boolean, True),
    )
    if values:
        raise ConfigError(f"unknown config keys: {sorted(values)}")
    return cfg


def _parse_penalty(value: str, lineno: int) -> LinkPenalty:
    try:
        ref, _, rest = value.partition("@")
        start, _, cost = rest.partition(":")
        return LinkPenalty(link_ref=ref.strip(), start_s=float(start), added_cost_s=float(cost))
    except ValueError as exc:
        raise ConfigError(
            f"line {lineno}: penalty must look like '<link>@<start_s>:<added_cost_s>', got {value!r}"
        ) from exc


def read_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def write_config(cfg: ScenarioConfig, path) -> None:
    lines = [
        f"time.dt = {cfg.dt:.10g}",
        f"time.horizon = {cfg.horizon:.10g}",
        f"fd.variant = {cfg.fd_variant}",
    ]
    if cfg.fd_gamma is not None:
        lines.append(f"fd.gamma = {cfg.fd_gamma:.10g}")
    p = cfg.pvdf
    lines += [
        f"pvdf.mode = {p.mode}",
        f"pvdf.alpha = {p.alpha:.10g}",
        f"pvdf.beta = {p.beta:.10g}",
    ]
    if p.mode == "asymmetric":
        lines += [
            f"pvdf.mu = {p.mu:.10g}",
            f"pvdf.eta_r = {p.eta_r:.10g}",
            f"pvdf.lambda_r = {p.lambda_r:.10g}",
            f"pvdf.eta_c = {p.eta_c:.10g}",
            f"pvdf.lambda_c = {p.lambda_c:.10g}",
        ]
    lines += [
        f"due.max_iters = {cfg.max_iters}",
        f"due.gap_tol = {cfg.gap_tol:.10g}",
        f"ltm.effective_storage = {str(cfg.effective_storage).lower()}",
        f"debug.node_trace = {str(cfg.node_trace).lower()}",
        f"paths.max_paths = {cfg.max_paths}",
        f"paths.detour = {cfg.detour:.10g}",
        f"paths.enumerate = {str(cfg.enumerate_paths).lower()}",
    ]
    for pen in cfg.penalties:
        lines.append(f"penalty = {pen.link_ref}@{pen.start_s:.10g}:{pen.added_cost_s:.10g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
