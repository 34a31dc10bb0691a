"""Run configuration for the batch CLI: flat key-value JSON plus overrides."""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .errors import DomainError
from .thermo import GasModel, validate_gas


class RunConfig(NamedTuple):
    """All CLI inputs.  Angles are degrees here; the library works in radians.

    beta_i defaults to 1 + epsilon when left unset.  beta_deg is the front
    ray angle used by the ``front`` command; eta labels the boundary state
    bordering the diffracted inner shock for the ``inner`` command.  The
    default beta_grid and btilde_grid are the axes of the stored fixture
    table (table_fixture), which keys its rows and columns by them.
    """

    gamma: float = 1.4
    btilde: float = 0.0
    alpha_deg: float = 45.0
    epsilon: float = 0.1
    beta_i: float | None = None
    rho0: float = 1.0
    p0: float = 1.0
    theta0: float = 0.0
    eta: float = -1.0
    beta_deg: float = 67.5
    r: float = 1.0
    beta_grid: tuple[float, ...] = (1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4,
                                     3.6, 3.8, 4.0)
    btilde_grid: tuple[float, ...] = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.3, 0.5, 0.7)
    xi_min: float = 1e-6
    xi_count: int = 21
    theta_count: int = 25
    rprime_min: float = -3.0
    rprime_max: float = 6.0
    rprime_count: int = 19
    thetaprime_min: float = -3.0
    thetaprime_max: float = 3.0
    thetaprime_count: int = 13
    btilde_sweep_max: float = 0.7
    btilde_sweep_count: int = 15

    @property
    def alpha(self) -> float:
        return math.radians(self.alpha_deg)

    @property
    def beta_angle(self) -> float:
        return math.radians(self.beta_deg)

    def resolved_beta_i(self) -> float:
        return 1.0 + self.epsilon if self.beta_i is None else self.beta_i


_COUNT_KEYS = ("xi_count", "theta_count", "rprime_count", "thetaprime_count",
               "btilde_sweep_count")
#: largest grid count or grid length a config may ask for along one axis
MAX_COUNT = 100_000


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coerce(key: str, value):
    """Type-check one config value; every scalar number must be finite."""
    if key not in RunConfig._fields:
        raise DomainError(f"unknown configuration key {key!r}")
    if key in ("beta_grid", "btilde_grid"):
        if not isinstance(value, (list, tuple)) or not value or not all(map(_is_number, value)):
            raise DomainError(f"{key} must be a non-empty array of numbers")
        try:
            return tuple(map(float, value))
        except OverflowError:  # an int beyond the float range
            raise DomainError(
                f"{key} entries must be finite, got an integer too large for a float") from None
    if key == "beta_i" and value is None:
        return None
    if not _is_number(value):
        raise DomainError(f"{key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"{key} must be finite, got {value!r}")
    if key in _COUNT_KEYS:
        iv = int(value)
        if iv != value:
            raise DomainError(f"{key} must be an integer, got {value!r}")
        return iv
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{key} must be finite, got an integer too large for a float") from None


def validate_config(cfg: RunConfig) -> RunConfig:
    """Re-check the module-level invariants at the CLI boundary."""
    validate_gas(GasModel(cfg.gamma, cfg.btilde))
    if not 0.0 < cfg.alpha_deg < 90.0:
        raise DomainError(f"alpha_deg must lie in (0, 90), got {cfg.alpha_deg}")
    if cfg.alpha == 0.0:
        raise DomainError(f"alpha_deg is too small: {cfg.alpha_deg} degrees is 0 radians")
    if cfg.epsilon < 0.0:
        raise DomainError(f"epsilon must be nonnegative, got {cfg.epsilon}")
    if cfg.beta_i is not None and cfg.beta_i <= 0.0:
        raise DomainError(f"beta_i must be positive, got {cfg.beta_i}")
    if cfg.rho0 <= 0.0 or cfg.p0 <= 0.0:
        raise DomainError("rho0 and p0 must be positive")
    if cfg.r <= 0.0:
        raise DomainError("r must be positive")
    if not 0.0 < cfg.beta_deg < 180.0 - cfg.alpha_deg:
        raise DomainError(f"beta_deg must lie in (0, 180 - alpha_deg), got {cfg.beta_deg}")
    if not 0.0 < cfg.xi_min < 1.0:
        raise DomainError(f"xi_min must lie in (0, 1), got {cfg.xi_min}")
    if not 0.0 < cfg.btilde_sweep_max < 1.0:
        raise DomainError(f"btilde_sweep_max must lie in (0, 1), got {cfg.btilde_sweep_max}")
    for key in _COUNT_KEYS:
        if getattr(cfg, key) < 2:
            raise DomainError(f"{key} must be at least 2")
        if getattr(cfg, key) > MAX_COUNT:
            raise DomainError(f"{key} must be at most {MAX_COUNT}")
    for name, grid in (("beta_grid", cfg.beta_grid), ("btilde_grid", cfg.btilde_grid)):
        if len(grid) > MAX_COUNT:
            raise DomainError(f"{name} must have at most {MAX_COUNT} entries")
        for v in grid:
            if not math.isfinite(v):
                raise DomainError(f"{name} entries must be finite")
    for bt in cfg.btilde_grid:
        if not 0.0 <= bt < 1.0:
            raise DomainError(f"btilde_grid entries must lie in [0, 1), got {bt}")
    return cfg


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional JSON file plus overrides.

    The file must hold one flat JSON object of scalars and arrays; overrides
    win over file values.
    """
    merged: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise DomainError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file {path} is not valid JSON: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad UTF-8, too many digits, deep nesting
            raise DomainError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise DomainError("config file must hold a JSON object")
        merged.update(data)
    if overrides:
        merged.update(overrides)
    cfg = RunConfig(**{key: _coerce(key, value) for key, value in merged.items()})
    return validate_config(cfg)
