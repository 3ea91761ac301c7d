"""Scenario configuration: flat `key = value` text files.

`KEYS` lists every recognized key with the field it sets; a key left out of
the file keeps the default of `ScenarioConfig` or `PvdfParams`.  `penalty` is
repeatable: "<link id or from-to>@<start_s>:<added_cost_s>".  Lines starting
with # are comments.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import attrgetter

from .fd import check_speed_law
from .network import write_table
from .pvdf import PvdfParams


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


@dataclass(frozen=True)
class LinkPenalty:
    """Scheduled additive cost on one link from start_s until the end of the run."""

    link_ref: str  # integer link id, or "from-to" node pair (either may be negative: "-4--3")
    start_s: float
    added_cost_s: float

    @classmethod
    def parse(cls, value: str) -> "LinkPenalty":
        ref, _, rest = value.partition("@")
        start, _, cost = rest.partition(":")
        try:
            penalty = cls(link_ref=ref.strip(), start_s=float(start), added_cost_s=float(cost))
        except ValueError as exc:
            raise ValueError(f"expected '<link>@<start_s>:<added_cost_s>', got {value!r}") from exc
        if not re.fullmatch(r"-?\d+(--?\d+)?", penalty.link_ref):
            raise ValueError(f"link must be an integer id or '<from>-<to>', got {penalty.link_ref!r}")
        if not (math.isfinite(penalty.start_s) and 0 <= penalty.added_cost_s < math.inf):
            raise ValueError(f"start_s must be finite and added_cost_s finite and >= 0, got {value!r}")
        return penalty

    def __str__(self) -> str:
        return f"{self.link_ref}@{self.start_s:.10g}:{self.added_cost_s:.10g}"

    def resolve(self, network) -> int:
        """Link id in the given network, or ConfigError if it does not exist."""
        if pair := re.fullmatch(r"(-?\d+)-(-?\d+)", self.link_ref):
            link = network.link_between(int(pair[1]), int(pair[2]))
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
        for key, value in (("time.dt", self.dt), ("time.horizon", self.horizon)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        if not self.gap_tol > 0:
            raise ConfigError(f"due.gap_tol must be positive, got {self.gap_tol}")
        if self.max_iters < 1:
            raise ConfigError(f"due.max_iters must be >= 1, got {self.max_iters}")
        if self.max_paths < 0:
            raise ConfigError(f"paths.max_paths must be >= 0, got {self.max_paths}")
        if not self.detour >= 1:
            raise ConfigError(f"paths.detour must be >= 1, got {self.detour}")
        try:
            check_speed_law(self.fd_variant, self.fd_gamma)
        except ValueError as exc:
            raise ConfigError(f"fd.{exc}") from exc


def _boolean(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


# key: (field, parser), in the order write_config writes the keys.  A field
# "pvdf.<name>" is ScenarioConfig.pvdf's; only penalty may repeat.
KEYS = {
    "time.dt": ("dt", float),
    "time.horizon": ("horizon", float),
    "fd.variant": ("fd_variant", str),
    "fd.gamma": ("fd_gamma", float),
    "pvdf.mode": ("pvdf.mode", str),
    "pvdf.alpha": ("pvdf.alpha", float),
    "pvdf.beta": ("pvdf.beta", float),
    "pvdf.mu": ("pvdf.mu", float),
    "pvdf.eta_r": ("pvdf.eta_r", float),
    "pvdf.lambda_r": ("pvdf.lambda_r", float),
    "pvdf.eta_c": ("pvdf.eta_c", float),
    "pvdf.lambda_c": ("pvdf.lambda_c", float),
    "due.max_iters": ("max_iters", int),
    "due.gap_tol": ("gap_tol", float),
    "ltm.effective_storage": ("effective_storage", _boolean),
    "debug.node_trace": ("node_trace", _boolean),
    "paths.max_paths": ("max_paths", int),
    "paths.detour": ("detour", float),
    "paths.enumerate": ("enumerate_paths", _boolean),
    "penalty": ("penalties", LinkPenalty.parse),
}
# The bidirectional bump, which the symmetric mode ignores and config.cfg then leaves out.
_BUMP = ("pvdf.mu", "pvdf.eta_r", "pvdf.lambda_r", "pvdf.eta_c", "pvdf.lambda_c")


def parse_config(text: str) -> ScenarioConfig:
    fields: dict[str, object] = {}
    unknown = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            unknown.append(key)
            continue
        field_name, parser = KEYS[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        if key == "penalty":
            parsed = fields.get(field_name, ()) + (parsed,)
        fields[field_name] = parsed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(set(unknown))}")
    pvdf = {name.removeprefix("pvdf."): fields.pop(name) for name in list(fields) if name.startswith("pvdf.")}
    try:
        fields["pvdf"] = PvdfParams(**pvdf)
    except ValueError as exc:
        raise ConfigError(f"pvdf.{exc}") from exc
    return ScenarioConfig(**fields)


def read_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def write_config(cfg: ScenarioConfig, path) -> None:
    def rows():
        for key, (field_name, _) in KEYS.items():
            value = attrgetter(field_name)(cfg)
            if value is None or (key in _BUMP and cfg.pvdf.mode == "symmetric"):
                continue
            for item in value if key == "penalty" else (value,):
                yield f"{key} = {_text(item)}"

    write_table(path, None, rows())


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.10g}" if isinstance(value, float) else str(value)
