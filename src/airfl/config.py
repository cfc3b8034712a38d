"""Experiment configuration: dataclasses, the key=value config file format,
and resolution of symbolic fields into concrete numbers.

Resolution happens exactly once per experiment: distances given as a range
expression are drawn from their own stream, and a symbolic truncation
threshold ("optimize") is replaced by the convex-objective minimizer.  A
resolved run is one concrete SystemConfig (a float gamma_th and a tuple of
distances), resolved once by the command that runs it and handed down;
resolving it again draws and solves nothing.  power_config and
objective_coefficients derive the power budget and the threshold
objective's weights from it.  It serializes back to the same key=value
format, which is what run manifests are made of; loading a manifest of this
STREAM_LAYOUT therefore replays the run bit-identically.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .aircomp import PowerConfig, dbm_to_watts
from .channel import substream
from .optimizer import _MODES, ObjectiveCoefficients, coefficients_from_system, optimal_threshold, threshold_modes

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
_SWEEP_MODES = (*_MODES, "fixed")
_MIN_TRIALS = 1_000       # divergence trials per Monte-Carlo estimate
_MIN_SWEEP_GAMMAS = 8     # points of a threshold sweep's grid
_MIN_SWEEP_SEEDS = 3      # repetition seeds per sweep cell

_TASKS = ("synthetic_logistic", "small_mlp")
FD_STEP = 1e-4  # spacing of verify-pdf's CDF/density finite-difference stencil
# the closed forms carry e^(2 gamma_th), which must stay a finite double
_MAX_GAMMA_TH = 0.5 * math.log(np.finfo(float).max)
_SEED_LIMIT = 1 << 64  # substream keeps a seed's low 64 bits, so a larger seed would alias a smaller one
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


def _grid(v: tuple, each) -> bool:
    """One or more entries, none repeated, each passing `each`."""
    return len(v) >= 1 and len(set(v)) == len(v) and all(map(each, v))


_IN = f"in (0, {_MAX_GAMMA_TH:.2f}]"
# key -> (check of its value, what the check asks): a bare key is a
# SystemConfig field, '<section>.<name>' a field of that section.  Checks
# that span several keys are in the __post_init__ of the class that holds them.
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
    "g_bound": (lambda v: v in ("calibrate", "genie") if isinstance(v, str)
                else v > 0.0 and np.finfo(float).tiny <= v * v < math.inf,
                "expected 'calibrate', 'genie' or a G whose square is a positive finite normal double"),
    "seed": (lambda v: 0 <= v < _SEED_LIMIT, "expected an integer in [0, 2^64), the seeds that substream tells apart"),
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
    "verify_xi.rhos": (lambda v: _grid(v, _is_rho),
                       "expected one or more distinct rhos, each in (0, 1] with 1/rho^2 finite"),
    "verify_xi.gammas": (lambda v: _grid(v, _is_threshold), f"expected one or more distinct thresholds, each {_IN}"),
    "verify_pdf.t_range": (_is_window, "expected two finite values lo < hi"),
    "verify_pdf.gamma_range": (lambda v: _is_window(v) and v[1] <= 0.0, "expected two finite values lo < hi <= 0"),
    "verify_pdf.bins": (lambda v: v >= 2, "expected at least 2 bins"),
    "verify_pdf.tail_gamma": (_is_threshold, f"the threshold must lie {_IN}"),
    "verify_divergence.scan_trials": (lambda v: v >= _MIN_TRIALS, f"expected at least {_MIN_TRIALS} trials"),
    "verify_divergence.scan_ks": (lambda v: len(v) >= 2 and _grid(v, lambda k: k >= 1),
                                  "a slope needs at least two fleet sizes, each >= 1 and none repeated"),
    "sweep.gammas": (lambda v: len(v) >= _MIN_SWEEP_GAMMAS and _grid(v, _is_threshold),
                     f"expected at least {_MIN_SWEEP_GAMMAS} distinct thresholds, each {_IN}"),
    "sweep.modes": (lambda v: v is None or _grid(v, lambda m: m in _SWEEP_MODES),
                    f"expected one or more distinct modes, each one of {_SWEEP_MODES}"),
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


def bin_centers(lo: float, hi: float, bins: int, first: int = 0) -> np.ndarray:
    """Centres of bins first, ..., bins - 1 of `bins` equal bins over [lo, hi].

    The edges are np.linspace(lo, hi, bins + 1)'s, i * ((hi - lo) / bins) + lo
    with the last one hi, computed for the bins asked for alone, so a check
    of the last bin costs two edges whatever `bins` is.  Each centre halves
    its edges before the sum, so a window near the double range stays
    finite.
    """
    edges = np.arange(first, bins + 1, dtype=float) * ((hi - lo) / bins) + lo
    edges[-1] = hi
    return 0.5 * edges[:-1] + 0.5 * edges[1:]


@dataclass(frozen=True)
class VerifyPdfConfig:
    t_range: tuple[float, ...] = (-3.0, 3.0)          # window of x = Re{v* h_hat} / |h_hat|^2
    gamma_range: tuple[float, ...] = (-4.0, -0.1)     # window of y = -|h_hat|^2
    bins: int = 40
    tail_gamma: float = 1.0   # threshold of the conditional-second-moment check

    def __post_init__(self) -> None:
        _check(self, "verify_pdf.")
        # the histogram indexes a sample by (v - lo) * bins / (hi - lo): a width
        # past the doubles takes that scale to 0, a subnormal one to inf
        for name in ("t_range", "gamma_range"):
            lo, hi = window = getattr(self, name)
            if not 0.0 < self.bins / (hi - lo) < math.inf:
                raise ValueError(f"config key 'verify_pdf.{name}': expected a window whose bins / (hi - lo) "
                                 f"is a positive finite double, got {self.bins} bins over {_fmt(window)}")
        # the CDF/density stencil steps FD_STEP past each gamma bin centre; the last is the highest
        last = float(bin_centers(*self.gamma_range, self.bins, self.bins - 1)[0])
        if last + FD_STEP >= 0.0:
            raise ValueError(f"config key 'verify_pdf.gamma_range': expected a window whose last of {self.bins} "
                             f"bin centres lies below -{FD_STEP!r}, where the CDF/density stencil stays "
                             f"inside the support, got {_fmt(self.gamma_range)} (last centre {last!r})")


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
    # G of power control: "calibrate" (on a warm-up pass), "genie" (the round's largest norm) or a pinned G
    g_bound: float | str = "calibrate"
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
                    f"config key 'distances': expected a range such as 'uniform(0,500]' or a comma list "
                    f"of distances, got {self.distances!r}"
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
        if self.seed + self.sweep.seeds > _SEED_LIMIT:
            raise ValueError(f"config keys 'seed' and 'sweep.seeds': a sweep runs seeds seed, ..., seed + sweep.seeds - 1, "
                             f"which must stay below 2^64, got seed = {self.seed} and sweep.seeds = {self.sweep.seeds}")
        applies = (*threshold_modes(self.rho), "fixed")
        if not set(self.sweep.modes or ()) <= set(applies):
            raise ValueError(f"config key 'sweep.modes': expected modes that have a threshold at rho = {self.rho!r}, "
                             f"each one of {applies}, got {_fmt(self.sweep.modes)}")
        # the noise weight k2 of the threshold objective must stay a finite double
        sigma2 = dbm_to_watts(self.sigma2_dbm)
        if not _finite(lambda: sigma2 * d_max**self.alpha / (2.0 * self.p_max * self.rho * self.rho)):
            raise ValueError(
                f"sigma2_dbm = {self.sigma2_dbm}, alpha = {self.alpha}, p_max = {self.p_max} and "
                f"rho = {self.rho} overflow sigma2 * d_max**alpha / (2 p_max rho^2)"
            )


def power_config(cfg: SystemConfig, g_bound: float) -> PowerConfig:
    """The power budget of a resolved cfg at gradient bound g_bound."""
    return PowerConfig(
        p_max=cfg.p_max,
        sigma2=dbm_to_watts(cfg.sigma2_dbm),
        g_bound=g_bound,
        d_max_alpha=max(cfg.distances) ** cfg.alpha,
    )


def objective_coefficients(cfg: SystemConfig) -> ObjectiveCoefficients:
    """The threshold objective's weights k1 and k2 of a resolved cfg; G does not enter them."""
    return coefficients_from_system(cfg.rho, power_config(cfg, 1.0))


def resolve(cfg: SystemConfig) -> SystemConfig:
    """cfg with its distances and threshold made concrete: a tuple of
    floats and a float.  A concrete cfg resolves to an equal one.

    Distance draws use their own stream, so experiments with different
    trial counts or modes share the same geometry under one seed.  The
    result, written out, replays the run bit-identically.
    """
    if isinstance(cfg.distances, str):
        lo, hi = (float(g) for g in _UNIFORM_RE.match(cfg.distances).groups())
        gen = substream(cfg.seed, STREAM_DISTANCES)
        # hi - u*(hi-lo) with u in [0,1) lands in (lo, hi]: the lower
        # endpoint (zero distance) is excluded, the upper included.
        dist = hi - gen.random(cfg.k_devices) * (hi - lo)
    else:
        dist = cfg.distances
    cfg = replace(cfg, distances=tuple(float(d) for d in dist))
    gamma = cfg.gamma_th
    if isinstance(gamma, str):
        # the objective's weights do not depend on the threshold they choose
        gamma = optimal_threshold(objective_coefficients(cfg)).gamma_star
    return replace(cfg, gamma_th=float(gamma))


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

    A str field takes the text, and a field that also admits a str takes
    the text that its other type does not read (a symbolic value such as
    'optimize', 'genie' or 'uniform(0,500]'), which the key's rule then
    checks; a bool reads 1 or 0.  A tuple reads a comma list, each item as
    the tuple's element type; other text parses as the annotation's int or
    float.
    """
    types = annotation.split(" | ")
    if types == ["str"]:
        return value
    if "str" in types:
        try:
            return _parse_field(key, " | ".join(t for t in types if t != "str"), value)
        except ValueError:
            return value
    element = _TUPLE_RE.search(annotation)
    if element:
        return tuple(_parse_field(key, element.group(1), v.strip()) for v in value.split(","))
    read, expected = _READERS.get(types[0], (float, "a number"))
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
    bools 1 or 0, so a round trip through text is bit-exact; a None is
    omitted."""

    def pairs(obj, prefix: str) -> list[tuple[str, str]]:
        plain = [(prefix + f.name, getattr(obj, f.name)) for f in fields(obj) if f.default_factory is MISSING]
        return [(key, _fmt(value)) for key, value in plain if value is not None]

    tail = sorted(pairs(getattr(cfg, section), f"{section}.")) if section else []
    return pairs(cfg, "") + pairs(cfg.train, "train.") + tail

