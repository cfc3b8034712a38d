"""Experiment configuration: dataclasses, the key=value config file format,
and resolution of symbolic fields into concrete numbers.

Resolution happens exactly once per experiment: distances given as a range
expression are drawn from their own stream, the noise power is converted from dBm
to watts, and a symbolic truncation threshold ("optimize") is replaced by
the convex-objective minimizer.  A resolved experiment serializes back to
the same key=value format, which is what run manifests are made of; loading
a manifest of this STREAM_LAYOUT therefore replays the run bit-identically.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .aircomp import PowerConfig, dbm_to_watts
from .channel import substream

# Stream purposes.  Every random decision in an experiment hangs off
# (seed, purpose, ...indices) so that modes and replays stay aligned.
STREAM_DISTANCES = 1
STREAM_DATA = 2
STREAM_TEST = 3
STREAM_INIT = 4
STREAM_BATCH = 5
STREAM_CHANNEL = 6
STREAM_NOISE = 7
STREAM_MC_XI = 8
STREAM_MC_JOINT = 9
STREAM_MC_DIVERGENCE = 10
# which stream key each draw reads (2: one per divergence trial block and per
# training purpose and round); manifests record it, and load_config checks it
STREAM_LAYOUT = 2
_MANIFEST_HEADER = "# run manifest:"
_LAYOUT_RE = re.compile(r"^# env .*?\bstream_layout=(\S+)", re.MULTILINE)

_RUN_MODES = ("aircomp", "ideal")
_SWEEP_MODES = ("joint", "communication_oriented", "computation_oriented", "fixed")
_MIN_TRIALS = 1_000       # divergence trials per Monte-Carlo estimate
_MIN_SWEEP_GAMMAS = 8     # points of a threshold sweep's grid
_MIN_SWEEP_SEEDS = 3      # repetition seeds per sweep cell

_TASKS = ("synthetic_logistic", "small_mlp")
_G_MODES = ("calibrated", "fixed", "genie")
# the closed forms carry e^(2 gamma_th), which must stay a finite double
_MAX_GAMMA_TH = 0.5 * math.log(np.finfo(float).max)
_UNIFORM_RE = re.compile(r"^uniform\(\s*([0-9.eE+-]+)\s*,\s*([0-9.eE+-]+)\s*\]$")


def _finite(value) -> bool:
    """Whether value() evaluates to a finite double without an arithmetic error."""
    try:
        return math.isfinite(value())
    except (OverflowError, ZeroDivisionError):
        return False


def _is_rho(rho: float) -> bool:
    """A CSI correlation in (0, 1] whose 1/rho^2 is a finite double."""
    return 0.0 < rho <= 1.0 and _finite(lambda: 1.0 / (rho * rho))


def _is_threshold(gamma: float) -> bool:
    """A positive threshold whose e^(2 gamma) is a finite double."""
    return 0.0 < gamma <= _MAX_GAMMA_TH


def _is_window(pair: tuple[float, ...]) -> bool:
    return len(pair) == 2 and all(map(math.isfinite, pair)) and pair[0] < pair[1]


def _positive(v: float) -> bool:
    return 0.0 < v < math.inf


_IN = f"in (0, {_MAX_GAMMA_TH:.2f}]"
# key -> (check of its value, what the check asks): a bare key is a
# SystemConfig field, '<section>.<name>' a field of that section.  Checks
# that span several keys are in SystemConfig.__post_init__.
_RULES = {
    "k_devices": (lambda v: v >= 1, "expected at least 1 device"),
    "rho": (_is_rho, "expected a value in (0, 1] with 1/rho^2 finite"),
    "gamma_th": (lambda v: v == "optimize" if isinstance(v, str) else _is_threshold(v),
                 f"expected 'optimize' or a threshold {_IN}, where e^(2 gamma_th) stays finite"),
    "alpha": (_positive, "expected a positive finite value"),
    "p_max": (_positive, "expected a positive finite value"),
    "sigma2_dbm": (lambda v: math.isfinite(v) and _finite(lambda: dbm_to_watts(v)) and dbm_to_watts(v) > 0.0,
                   "expected a noise power that is a positive finite double in watts"),
    "eta": (_positive, "expected a positive finite value"),
    "g_bound": (lambda v: v is None or (v > 0.0 and np.finfo(float).tiny <= v * v < math.inf),
                "expected a positive value whose square is a finite normal double"),
    "g_mode": (lambda v: v in _G_MODES, f"expected one of {_G_MODES}"),
    "trials": (lambda v: v is None or v >= 1, "expected at least 1"),
    "train.task": (lambda v: v in _TASKS, f"expected one of {_TASKS}"),
    "train.batch_size": (lambda v: v >= 1, "expected at least 1"),
    "train.rounds_m": (lambda v: v >= 1, "expected at least 1"),
    "train.n_features": (lambda v: v >= 1, "expected at least 1"),
    "train.test_size": (lambda v: v >= 2 and v % 2 == 0, "expected an even size of at least 2"),
    "train.blob_separation": (lambda v: _positive(v) and _finite(lambda: v * v),
                              "expected a positive value whose square, the scale of the squared norms, is finite"),
    "train.label_skew": (lambda v: 0.0 <= v < 1.0, "expected a value in [0, 1)"),
    "train.hidden_units": (lambda v: v >= 1, "expected at least 1"),
    "verify_xi.rhos": (lambda v: all(map(_is_rho, v)), "each rho must lie in (0, 1] with 1/rho^2 finite"),
    "verify_xi.gammas": (lambda v: all(map(_is_threshold, v)), f"each threshold must lie {_IN}"),
    "verify_pdf.t_range": (_is_window, "expected two finite values lo < hi"),
    "verify_pdf.gamma_range": (lambda v: _is_window(v) and v[1] <= 0.0, "expected two finite values lo < hi <= 0"),
    "verify_pdf.bins": (lambda v: v >= 2, "expected at least 2 bins"),
    "verify_pdf.tail_gamma": (_is_threshold, f"the threshold must lie {_IN}"),
    "verify_divergence.scan_trials": (lambda v: v >= _MIN_TRIALS, f"expected at least {_MIN_TRIALS} trials"),
    "verify_divergence.scan_ks": (lambda v: len(set(v)) >= 2 and min(v) >= 1,
                                  "a slope needs at least two distinct fleet sizes, each >= 1"),
    "sweep.gammas": (lambda v: len(v) >= _MIN_SWEEP_GAMMAS and all(map(_is_threshold, v)),
                     f"expected at least {_MIN_SWEEP_GAMMAS} thresholds, each {_IN}"),
    "sweep.modes": (lambda v: v is None or (len(v) >= 1 and set(v) <= set(_SWEEP_MODES)),
                    f"expected one or more modes, each one of {_SWEEP_MODES}"),
    "sweep.seeds": (lambda v: v >= _MIN_SWEEP_SEEDS, f"expected at least {_MIN_SWEEP_SEEDS} seeds"),
    "run.mode": (lambda v: v in _RUN_MODES, f"expected one of {_RUN_MODES}"),
}


def check_key(key: str, value) -> None:
    """Reject a value that fails the rule of config key `key`, naming the key."""
    rule, expected = _RULES[key]
    if not rule(value):
        raise ValueError(f"config key {key!r}: {expected}, got {_fmt(value) or 'nothing'}")


def _check(obj, prefix: str = "") -> None:
    """Reject the first field of obj that fails its rule, naming its key."""
    for f in fields(obj):
        if prefix + f.name in _RULES:
            check_key(prefix + f.name, getattr(obj, f.name))


@dataclass(frozen=True)
class TrainConfig:
    """Training-task knobs; the learning rate and the seed are SystemConfig's."""

    task: str = "synthetic_logistic"
    batch_size: int = 32
    rounds_m: int = 200
    data_per_device: int = 200
    n_features: int = 10      # model dimension of the logistic task
    test_size: int = 1000
    blob_separation: float = 2.5   # class-mean distance of the synthetic task
    label_skew: float = 0.0        # 0 = IID shards, -> 1 = single-class devices
    hidden_units: int = 16         # small_mlp hidden width

    def __post_init__(self) -> None:
        _check(self, "train.")
        if self.data_per_device < self.batch_size:
            raise ValueError(
                f"train.data_per_device ({self.data_per_device}) must cover one batch ({self.batch_size})"
            )


# One section per command, set by '<section>.<name>' keys and held by SystemConfig.


@dataclass(frozen=True)
class VerifyXiConfig:
    rhos: tuple[float, ...] = (0.5, 0.8, 0.95, 1.0)   # every rho against every gamma_th
    gammas: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class VerifyPdfConfig:
    t_range: tuple[float, ...] = (-3.0, 3.0)          # t = ln of the gain ratio
    gamma_range: tuple[float, ...] = (-4.0, -0.1)     # gamma = ln |h_hat|^2
    bins: int = 40
    tail_gamma: float = 1.0   # threshold of the conditional-second-moment check


@dataclass(frozen=True)
class VerifyDivergenceConfig:
    k_scan: bool = True       # run the O(1/K^2) scan over the device count K
    scan_trials: int = 4000
    scan_ks: tuple[int, ...] = (5, 10, 20, 40)


@dataclass(frozen=True)
class SweepConfig:
    gammas: tuple[float, ...] = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.5, 3.0)
    modes: tuple[str, ...] | None = None   # None -> every mode that applies at this rho
    seeds: int = 3            # repetition seeds per cell


@dataclass(frozen=True)
class RunConfig:
    mode: str = "aircomp"     # train's aggregation: aircomp | ideal


@dataclass(frozen=True)
class SystemConfig:
    """Full experiment description; defaults follow the reference setup
    (10 devices, path-loss exponent 2.2, 0.1 W budget, -40 dBm noise,
    learning rate 0.005, distances uniform over (0, 500] meters)."""

    k_devices: int = 10
    rho: float = 0.8
    gamma_th: float | str = 0.5        # positive threshold or "optimize"
    alpha: float = 2.2
    p_max: float = 0.1                 # W
    sigma2_dbm: float = -40.0          # receiver noise power in dBm
    eta: float = 0.005
    distances: str | tuple[float, ...] = "uniform(0,500]"
    g_bound: float | None = None       # None -> calibrate on a warm-up pass; fixed needs one
    g_mode: str = "calibrated"         # calibrated | fixed | genie (G = the round's largest norm)
    seed: int = 2026
    trials: int | None = None          # per-command default when None
    train: TrainConfig = field(default_factory=TrainConfig)
    verify_xi: VerifyXiConfig = field(default_factory=VerifyXiConfig)
    verify_pdf: VerifyPdfConfig = field(default_factory=VerifyPdfConfig)
    verify_divergence: VerifyDivergenceConfig = field(default_factory=VerifyDivergenceConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self) -> None:
        _check(self)
        for f in fields(self):
            if f.default_factory is not MISSING:
                _check(getattr(self, f.name), f"{f.name}.")
        if isinstance(self.distances, str):
            match = _UNIFORM_RE.match(self.distances)
            if match is None:
                raise ValueError(
                    f"symbolic distances must look like 'uniform(0,500]', got {self.distances!r}"
                )
            lo, d_max = (float(g) for g in match.groups())
            if not (0.0 <= lo < d_max < math.inf):
                raise ValueError(f"bad distances range ({lo}, {d_max}]")
        else:
            if len(self.distances) != self.k_devices:
                raise ValueError(
                    f"{self.k_devices} devices but {len(self.distances)} distances"
                )
            if any(not (d > 0.0 and math.isfinite(d)) for d in self.distances):
                raise ValueError("distances must be positive and finite")
            d_max = max(self.distances)
        if not (_finite(lambda: d_max**self.alpha) and d_max**self.alpha > 0.0):
            raise ValueError(
                f"alpha = {self.alpha} takes d_max**alpha = {d_max}**{self.alpha} "
                "outside the positive finite doubles"
            )
        # the noise weight k2 of the threshold objective must stay a finite double
        sigma2 = dbm_to_watts(self.sigma2_dbm)
        if not _finite(lambda: sigma2 * d_max**self.alpha / (2.0 * self.p_max * self.rho * self.rho)):
            raise ValueError(
                f"sigma2_dbm = {self.sigma2_dbm}, alpha = {self.alpha}, p_max = {self.p_max} and "
                f"rho = {self.rho} overflow sigma2 * d_max**alpha / (2 p_max rho^2)"
            )
        if self.g_mode == "fixed" and self.g_bound is None:
            raise ValueError("g_mode 'fixed' requires g_bound")


@dataclass(frozen=True)
class ResolvedExperiment:
    """SystemConfig with every symbolic field made concrete; the other
    settings are read through from cfg."""

    cfg: SystemConfig
    distances: tuple[float, ...]
    d_max_alpha: float
    sigma2: float            # watts
    gamma_th: float

    @property
    def k_devices(self) -> int:
        return self.cfg.k_devices

    @property
    def rho(self) -> float:
        return self.cfg.rho

    @property
    def seed(self) -> int:
        return self.cfg.seed

    @property
    def train(self) -> TrainConfig:
        return self.cfg.train

    def power_config(self, g_bound: float) -> PowerConfig:
        return PowerConfig(
            p_max=self.cfg.p_max,
            sigma2=self.sigma2,
            g_bound=g_bound,
            d_max_alpha=self.d_max_alpha,
        )


def resolve(cfg: SystemConfig) -> ResolvedExperiment:
    """Make distances, noise power, and the threshold concrete.

    Distance draws use their own stream, so experiments with different
    trial counts or modes share the same geometry under one seed.
    """
    if isinstance(cfg.distances, str):
        lo, hi = (float(g) for g in _UNIFORM_RE.match(cfg.distances).groups())
        gen = substream(cfg.seed, STREAM_DISTANCES)
        # hi - u*(hi-lo) with u in [0,1) lands in (lo, hi]: the lower
        # endpoint (zero distance) is excluded, the upper included.
        dist = tuple(float(d) for d in hi - gen.random(cfg.k_devices) * (hi - lo))
    else:
        dist = tuple(float(d) for d in cfg.distances)

    d_max_alpha = max(dist) ** cfg.alpha
    sigma2 = dbm_to_watts(cfg.sigma2_dbm)

    if isinstance(cfg.gamma_th, str):
        from .optimizer import coefficients_from_system, optimal_threshold

        probe = PowerConfig(p_max=cfg.p_max, sigma2=sigma2, g_bound=1.0, d_max_alpha=d_max_alpha)
        coef = coefficients_from_system(cfg.rho, probe)
        gamma_th = optimal_threshold(coef).gamma_star
    else:
        gamma_th = float(cfg.gamma_th)
    return ResolvedExperiment(cfg=cfg, distances=dist, d_max_alpha=d_max_alpha, sigma2=sigma2, gamma_th=gamma_th)


# ---------------------------------------------------------------------------
# key=value config files


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


_TUPLE_RE = re.compile(r"tuple\[(\w+), \.\.\.\]")
_READERS = {"int": (int, "an integer"), "bool": ({"1": True, "0": False}.__getitem__, "1 or 0")}


def _parse_field(key: str, annotation: str, value: str) -> object:
    """The text of config key `key` as its field's annotation reads it.

    A str field takes the text; a field that also admits a str takes the
    word 'optimize' or a 'uniform(...)' range; 'float | None' (g_bound)
    reads 'calibrate' as None; a bool reads 1 or 0.  A tuple reads a comma
    list, each item as the tuple's element type; other text parses as the
    annotation's int or float.
    """
    symbolic = value == "optimize" or value.startswith("uniform")
    if annotation == "str" or (symbolic and "str" in annotation.split(" | ")):
        return value
    if annotation == "float | None" and value == "calibrate":
        return None
    element = _TUPLE_RE.search(annotation)
    if element:
        return tuple(_parse_field(key, element.group(1), v.strip()) for v in value.split(","))
    read, expected = _READERS.get(annotation.split(" | ")[0], (float, "a number"))
    try:
        return read(value)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: expected {expected}, got {value!r}") from exc


# section prefix -> its dataclass (None holds the bare keys), and each one's key schema
_SECTIONS = {None: SystemConfig} | {
    f.name: f.default_factory for f in fields(SystemConfig) if f.default_factory is not MISSING
}
_SCHEMAS = {s: {f.name: f.type for f in fields(cls) if f.default_factory is MISSING} for s, cls in _SECTIONS.items()}


def config_from_kv(kv: dict[str, str]) -> SystemConfig:
    """Build a SystemConfig from parsed keys.

    A bare key is a SystemConfig field and '<section>.<name>' a field of
    the section SystemConfig holds under that name ('train' or a
    command's, such as 'verify_xi'), each parsed by its annotation.
    Every other key is rejected.
    """
    kwargs: dict[str | None, dict[str, object]] = {section: {} for section in _SECTIONS}
    for key, value in kv.items():
        section, name = key.rsplit(".", 1) if "." in key else (None, key)
        schema = _SCHEMAS.get(section, {})
        if name not in schema:
            hint = f"; {name!r} is a top-level key" if section is not None and name in _SCHEMAS[None] else ""
            raise ValueError(f"unknown config key {key!r}{hint}")
        kwargs[section][name] = _parse_field(key, schema[name], value)
    bare = kwargs.pop(None)
    return SystemConfig(**bare, **{section: _SECTIONS[section](**kw) for section, kw in kwargs.items()})


def load_config(path: str) -> SystemConfig:
    """Load a config or manifest file (same format) from disk.  A run
    manifest must record this STREAM_LAYOUT on its '# env' line (none means
    layout 1), or its run would not replay."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.startswith(_MANIFEST_HEADER):
        match = _LAYOUT_RE.search(text)
        layout = match.group(1) if match else "1"
        if layout != str(STREAM_LAYOUT):
            raise ValueError(f"{path} records a run under stream layout {layout}, but this airfl "
                             f"draws under stream layout {STREAM_LAYOUT}; that run cannot replay")
    return config_from_kv(parse_kv_text(text))


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def config_to_kv(cfg: SystemConfig, section: str | None = None) -> list[tuple[str, str]]:
    """Serialize a config to ordered key/value pairs: the bare fields and
    the train.* fields in field order, then the named command section's
    fields sorted by key.  Floats use repr, tuples are comma lists and
    bools 1 or 0, so a round trip through text is bit-exact.  A None is
    written as 'calibrate' in a 'float | None' field and omitted elsewhere."""

    def pairs(obj, prefix: str) -> list[tuple[str, str]]:
        plain = [(f, getattr(obj, f.name)) for f in fields(obj) if f.default_factory is MISSING]
        return [(prefix + f.name, "calibrate" if value is None else _fmt(value))
                for f, value in plain if value is not None or f.type == "float | None"]

    tail = sorted(pairs(getattr(cfg, section), f"{section}.")) if section else []
    return pairs(cfg, "") + pairs(cfg.train, "train.") + tail


def resolved_to_config(exp: ResolvedExperiment, g_bound: float | None = None) -> SystemConfig:
    """Concrete SystemConfig that replays this experiment bit-identically."""
    return replace(
        exp.cfg,
        gamma_th=exp.gamma_th,
        distances=exp.distances,
        g_bound=exp.cfg.g_bound if g_bound is None else g_bound,
    )
