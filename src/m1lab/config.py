"""Experiment configuration: a small sectioned key=value format with
validation, defaults, override precedence and a reproducibility hash.

Grammar (one statement per line):

    [section]            section header: model | run | tolerances
    key = value          scalar or comma-separated list
    # comment            (also ';'); blank lines ignored

Values are parsed per key: ints, floats, float lists, or strings.  Unknown
keys and malformed numbers are rejected with the offending key and line
number.  Precedence: command-line overrides > config file > environment
variable SEED (seed only) > built-in defaults.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field

from .models import (
    GarchSpec,
    LinearSpec,
    ModelError,
    RegVarSpec,
    SquaredGarchSpec,
    require_stationary_garch,
)
from .stable import MIN_SERIES_POINTS


class ConfigError(ValueError):
    pass


def _as_float(raw, key, line):
    try:
        x = float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}': malformed number {raw!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"line {line}: key '{key}': non-finite number {raw!r}")
    return x


def _as_int(raw, key, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key '{key}': malformed integer {raw!r}") from None


def _as_float_list(raw, key, line):
    return tuple(_as_float(tok.strip(), key, line) for tok in raw.split(",") if tok.strip())


def _as_int_list(raw, key, line):
    return tuple(_as_int(tok.strip(), key, line) for tok in raw.split(",") if tok.strip())


def _as_str(raw, key, line):
    return raw.strip()


# key -> (parser, default); None default means "required or derived"
SCHEMA = {
    "model": {
        "variant": (_as_str, "iid"),
        "alpha": (_as_float, 0.8),
        # symmetric default: sign balance cancels the leading finite-n bias
        # of uncentered sums, keeping the desk-scale demo within tolerance
        "p": (_as_float, 0.5),
        "coeffs": (_as_float_list, (1.0, 0.5)),
        "omega": (_as_float, 1.0),
        "a1": (_as_float, 0.5),
        "b1": (_as_float, 0.3),
    },
    "run": {
        "seed": (_as_int, 20240503),
        "n_grid": (_as_int_list, (100, 1000, 10000)),
        "replicates": (_as_int, 2000),
        "limit_draws": (_as_int, 2000),
        "t_grid": (_as_float_list, (0.25, 0.5, 0.75, 1.0)),
        "kappa": (_as_float, 0.5),
        "n_pts": (_as_int, 2000),
        "theta_exceedances": (_as_float, 25.0),
        "theta_replicates": (_as_int, 50),
        "theta_n": (_as_int, 10**5),
        "contrast_n_grid": (_as_int_list, (100, 300, 1000)),
        "contrast_replicates": (_as_int, 100),
        "karamata_alphas": (_as_float_list, (0.5,)),
        "karamata_u_grid": (_as_float_list, (0.05, 0.1, 0.5)),
        "karamata_n": (_as_int, 10**6),
        # retired: the Karamata check is exact and reads no draw count; the
        # key stays so that existing configs parse and keep their digests
        "karamata_mc": (_as_int, 10**8),
        "slutsky_alpha": (_as_float, 0.5),
        "slutsky_n": (_as_int, 10**4),
        "slutsky_replicates": (_as_int, 500),
        "slutsky_u_grid": (_as_float_list, (0.005, 0.01, 0.05)),
        "slutsky_eps_grid": (_as_float_list, (0.5, 1.0, 2.0)),
        "m1_resolution": (_as_int, 4096),
    },
    "tolerances": {
        "ks_fidi": (_as_float, 0.06),
        "ks_selfnorm": (_as_float, 0.07),
        "ks_selfnorm_clustered": (_as_float, 0.09),
        "karamata_rel": (_as_float, 0.05),
        "theta_abs": (_as_float, 0.08),
        "m1_j1_frac": (_as_float, 0.95),
        "charfn_rel": (_as_float, 1e-3),
        "metric_triangle_slack": (_as_float, 1e-6),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    model: object
    seed: int
    n_grid: tuple
    replicates: int
    limit_draws: int
    t_grid: tuple
    kappa: float
    n_pts: int
    theta_exceedances: float
    theta_replicates: int
    theta_n: int
    contrast_n_grid: tuple
    contrast_replicates: int
    karamata_alphas: tuple
    karamata_u_grid: tuple
    karamata_n: int
    karamata_mc: int
    slutsky_alpha: float
    slutsky_n: int
    slutsky_replicates: int
    slutsky_u_grid: tuple
    slutsky_eps_grid: tuple
    m1_resolution: int
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        # run on every construction, dataclasses.replace included
        for key, (parser, _) in SCHEMA["run"].items():
            if parser in (_as_float_list, _as_int_list) and not getattr(self, key):
                raise ConfigError(f"key 'run.{key}': the list is empty")
        n_grid = self.n_grid
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ConfigError("key 'run.n_grid': sample sizes must be strictly increasing")
        for key in ("n_grid", "contrast_n_grid"):
            if any(n < 1 for n in getattr(self, key)):
                raise ConfigError(f"key 'run.{key}': sample sizes must be at least 1")
        for key in ("limit_draws", "theta_replicates", "contrast_replicates", "karamata_n",
                    "karamata_mc", "slutsky_n", "slutsky_replicates"):
            if getattr(self, key) < 1:
                raise ConfigError(f"key 'run.{key}': {getattr(self, key)} must be at least 1")
        if not 0.0 < self.theta_exceedances < self.theta_n:
            raise ConfigError("key 'run.theta_exceedances': must lie in (0, run.theta_n)")
        if self.n_pts < MIN_SERIES_POINTS:
            raise ConfigError(f"key 'run.n_pts': {self.n_pts} below the floor {MIN_SERIES_POINTS}")
        if not all(0.0 <= t <= 1.0 for t in self.t_grid) or 1.0 not in self.t_grid:
            raise ConfigError("key 'run.t_grid': times must lie in [0,1] and include 1")
        if not 0.0 < self.kappa < 1.0:
            raise ConfigError(f"key 'run.kappa': {self.kappa} outside the valid range (0,1)")
        # the truncation-gap bound eps^{-1} alpha u^{1-alpha}/(1-alpha) needs alpha < 1
        if not 0.0 < self.slutsky_alpha < 1.0:
            raise ConfigError(
                f"key 'run.slutsky_alpha': {self.slutsky_alpha} outside the valid range (0,1)"
            )
        # the Karamata limits u^{1-alpha} alpha/(1-alpha) need these ranges
        if not all(0.0 < a < 1.0 for a in self.karamata_alphas):
            raise ConfigError("key 'run.karamata_alphas': every alpha must lie in (0,1)")
        if not all(u > 0.0 for u in self.karamata_u_grid):
            raise ConfigError("key 'run.karamata_u_grid': truncation levels must be positive")
        # the Slutsky bound divides by eps and takes powers of u
        for key in ("slutsky_u_grid", "slutsky_eps_grid"):
            if not all(x > 0.0 for x in getattr(self, key)):
                raise ConfigError(f"key 'run.{key}': every entry must be positive")

    def canonical_text(self):
        import dataclasses

        parts = [f"model={self.model!r}"]
        for f in dataclasses.fields(self):
            if f.name in ("model", "tolerances"):
                continue
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        for key in sorted(self.tolerances):
            parts.append(f"tolerances.{key}={self.tolerances[key]!r}")
        return "\n".join(parts)

    def digest(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _parse_lines(text):
    section = None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, raw_val = line.partition("=")
        key = key.strip().lower()
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{section}.{key}'")
        out[(section, key)] = (raw_val.strip(), lineno)
    return out


def _build_model(values):
    variant = values[("model", "variant")].lower()
    alpha = values[("model", "alpha")]
    p = values[("model", "p")]
    if variant in ("iid", "linear"):
        if not 0.0 < alpha < 2.0:
            raise ConfigError(f"key 'model.alpha': {alpha} outside the valid range (0,2)")
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"key 'model.p': {p} outside [0,1]")
        # iid is the moving average of order 0 and ignores model.coeffs
        coeffs = (1.0,) if variant == "iid" else values[("model", "coeffs")]
        try:
            return LinearSpec(coeffs, RegVarSpec(alpha, p))
        except ModelError as exc:
            raise ConfigError(f"model: {exc}") from None
    if variant in ("garch", "squared_garch"):
        try:
            inner = GarchSpec(
                values[("model", "omega")], values[("model", "a1")], values[("model", "b1")]
            )
            require_stationary_garch(inner)
        except ModelError as exc:
            raise ConfigError(f"model: {exc}") from None
        return inner if variant == "garch" else SquaredGarchSpec(inner)
    raise ConfigError(f"key 'model.variant': unknown variant {variant!r}")


def parse_config(text, overrides=(), env=None):
    """Parse config text, apply overrides, return (config, echo_lines).

    ``overrides`` are 'section.key=value' strings.  ``echo_lines`` lists
    every field that fell back to a default, so defaulted values are
    auditable in run manifests.
    """
    env = os.environ if env is None else env
    parsed = _parse_lines(text)
    for i, ov in enumerate(overrides):
        if "=" not in ov or "." not in ov.split("=", 1)[0]:
            raise ConfigError(f"override #{i + 1}: expected 'section.key=value', got {ov!r}")
        dotted, _, raw_val = ov.partition("=")
        sec, _, key = dotted.strip().partition(".")
        sec = sec.lower()
        key = key.lower()
        if sec not in SCHEMA or key not in SCHEMA[sec]:
            raise ConfigError(f"override #{i + 1}: unknown key '{sec}.{key}'")
        parsed[(sec, key)] = (raw_val.strip(), 0)

    values = {}
    echo = []
    for sec, keys in SCHEMA.items():
        for key, (parser, default) in keys.items():
            if (sec, key) in parsed:
                raw_val, lineno = parsed[(sec, key)]
                values[(sec, key)] = parser(raw_val, f"{sec}.{key}", lineno)
            else:
                if sec == "run" and key == "seed" and "SEED" in env:
                    values[(sec, key)] = _as_int(env["SEED"], "run.seed", 0)
                    echo.append(f"run.seed = {values[(sec, key)]} (from environment SEED)")
                else:
                    values[(sec, key)] = default
                    echo.append(f"{sec}.{key} = {default!r} (default)")

    model = _build_model(values)
    tolerances = {key: values[("tolerances", key)] for key in SCHEMA["tolerances"]}
    run = {key: values[("run", key)] for key in SCHEMA["run"]}
    return ExperimentConfig(model=model, tolerances=tolerances, **run), echo


def default_config(**over):
    """Programmatic config with keyword overrides like model or replicates."""
    cfg, _ = parse_config("", overrides=())
    if over:
        cfg = replace_config(cfg, **over)
    return cfg


def replace_config(cfg, **over):
    import dataclasses

    model = over.pop("model", cfg.model)
    tolerances = dict(cfg.tolerances)
    tolerances.update(over.pop("tolerances", {}))
    return dataclasses.replace(cfg, model=model, tolerances=tolerances, **over)
