"""Federated training over the simulated multiple-access channel.

Each round: every device computes a mini-batch cross-entropy gradient at the
current global model, the gradients are aggregated either ideally (exact
mean) or over the air (truncated channel inversion plus receiver noise), and
the server applies one gradient step.  Rounds whose active set is empty are
skipped: the model is left untouched and the event is counted in the trace.

Two desk-scale tasks are built in: a two-class Gaussian-blob logistic
regression and a one-hidden-layer MLP on the same data.

train_cells is the one training loop: it trains one SeedDraws' config at
several thresholds in lock-step, one array step per round for the group,
each cell's arithmetic exactly a single run's.  `train` is train_cells on
a group of one.  gradient_bound is the one rule for the G that power
control scales by.

A trace keeps each round's weights and statistics; the training loss and
test accuracy are evaluated only when they are read (all rounds for
`records`, the last round alone for `final_accuracy`).

Everything a run draws that depends only on the seed and the config lives
in a SeedDraws, which holds the resolved config it drew for; train_cells is
the one way to share it between runs.  Under stream layout 2 round m reads
one numpy stream per purpose, substream(seed, purpose, m), so a shared draw
is exactly a private run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .aircomp import _gain, aggregate_batch, compensation_lambda, dbm_to_watts, receiver_noise_scale, scaling_zeta
from .channel import ChannelArrays, channel_from_normals, substream
from .config import (
    _RUN_MODES,
    STREAM_BATCH,
    STREAM_CHANNEL,
    STREAM_DATA,
    STREAM_INIT,
    STREAM_NOISE,
    STREAM_TEST,
    SystemConfig,
    power_config,
    resolve,
)

_WARMUP_ROUNDS = 10
_G_MARGIN = 1.1


@dataclass
class DeviceDataset:
    features: np.ndarray  # (D, n_features)
    labels: np.ndarray    # (D,) in {0, 1}


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    loss: float            # global training loss after the update
    accuracy: float        # test accuracy after the update
    divergence_sq: float   # ||g_hat - ideal mean||^2 for this round
    grad_spread_sq: float  # mean_k ||g_k - ideal mean||^2 (local variance)
    active_count: int
    skipped: bool


@dataclass(eq=False)
class TrainingTrace:
    """One run's weights and per-round statistics.

    Each round's training loss and test accuracy are evaluated on the
    run's draws when first read: `records` evaluates every round once and
    keeps the result, `final_accuracy` evaluates the last weights alone
    (or reads the kept records).  The other summaries evaluate nothing.
    """

    weights: np.ndarray         # (M, d): the global model after each round
    divergence_sq: np.ndarray   # (M,) ||g_hat - ideal mean||^2
    grad_spread_sq: np.ndarray  # (M,) mean_k ||g_k - ideal mean||^2
    active_count: np.ndarray    # (M,)
    skipped: np.ndarray         # (M,) bool
    mode: str
    gamma_th: float | None
    g_bound: float | None       # the largest G power control used; None in ideal mode
    draws: SeedDraws = field(repr=False)
    _records: list[RoundRecord] | None = field(default=None, init=False, repr=False)

    @property
    def final(self) -> np.ndarray:
        """Flat parameter vector of the final global model."""
        return self.weights[-1]

    @property
    def rounds(self) -> int:
        return len(self.weights)

    def _evaluate(self, w: np.ndarray) -> tuple[float, float]:
        return evaluate(self.draws.task, w, self.draws.all_train, self.draws.test)

    @property
    def records(self) -> list[RoundRecord]:
        if self._records is None:
            self._records = [
                RoundRecord(
                    round_index=m,
                    loss=loss,
                    accuracy=accuracy,
                    divergence_sq=float(self.divergence_sq[m]),
                    grad_spread_sq=float(self.grad_spread_sq[m]),
                    active_count=int(self.active_count[m]),
                    skipped=bool(self.skipped[m]),
                )
                for m, (loss, accuracy) in enumerate(map(self._evaluate, self.weights))
            ]
        return self._records

    @property
    def skipped_rounds(self) -> int:
        return int(np.count_nonzero(self.skipped))

    @property
    def final_accuracy(self) -> float:
        if self._records is not None:
            return self._records[-1].accuracy
        return self._evaluate(self.final)[1]

    @property
    def mean_divergence_sq(self) -> float:
        return float(np.mean(self.divergence_sq))


# ---------------------------------------------------------------------------
# tasks


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def _bce_loss(scores: np.ndarray, y: np.ndarray) -> float:
    # log(1 + e^s) - y s, evaluated stably via logaddexp
    return float(np.mean(np.logaddexp(0.0, scores) - y * scores))


class LogisticTask:
    """Binary logistic regression, w in R^n_features, no bias term."""

    def __init__(self, n_features: int):
        self.dim = n_features

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return np.zeros(self.dim)

    def scores(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return x @ w

    def gradients(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Entry [c, k] is the gradient of the mean loss at w[c] on the
        batch (x[k], y[k]), for w of shape (C, d) and x of shape (K, B, f)."""
        residual = _sigmoid(np.matmul(x[None], w[:, None, :, None])[..., 0]) - y
        return np.matmul(residual[:, :, None, :], x[None])[:, :, 0, :] / x.shape[1]


class MlpTask:
    """One hidden relu layer (hidden_units wide), sigmoid output, packed as
    [W1.ravel(), b1, w2, b2]."""

    def __init__(self, n_features: int, hidden_units: int):
        self.n_in = n_features
        self.n_hid = hidden_units
        self.dim = hidden_units * n_features + hidden_units + hidden_units + 1

    def _unpack(self, w: np.ndarray):
        # along the last axis, so that a (C, d) stack unpacks per row
        h, d = self.n_hid, self.n_in
        w1 = w[..., : h * d].reshape(*w.shape[:-1], h, d)
        b1 = w[..., h * d : h * d + h]
        w2 = w[..., h * d + h : h * d + 2 * h]
        b2 = w[..., -1]
        return w1, b1, w2, b2

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        h, d = self.n_hid, self.n_in
        w1 = rng.standard_normal((h, d)) / math.sqrt(d)
        w2 = rng.standard_normal(h) / math.sqrt(h)
        return np.concatenate([w1.ravel(), np.zeros(h), w2, np.zeros(1)])

    def scores(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(w)
        a1 = np.maximum(x @ w1.T + b1, 0.0)
        return a1 @ w2 + b2

    def gradients(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """As LogisticTask.gradients, over the packed parameters."""
        w1, b1, w2, b2 = self._unpack(w)
        n_cells = w.shape[0]
        n_dev, batch = y.shape
        z1 = np.matmul(x[None], w1.transpose(0, 2, 1)[:, None]) + b1[:, None, None, :]
        a1 = np.maximum(z1, 0.0)
        scores = np.matmul(a1, w2[:, None, :, None])[..., 0] + b2[:, None, None]
        dscore = (_sigmoid(scores) - y) / batch
        d_w2 = np.matmul(dscore[:, :, None, :], a1)[:, :, 0, :]
        d_b2 = np.sum(dscore, axis=2)
        dz1 = dscore[..., None] * w2[:, None, None, :] * (z1 > 0.0)
        d_w1 = np.matmul(dz1.swapaxes(2, 3), x[None])
        d_b1 = dz1.sum(axis=2)
        return np.concatenate(
            [d_w1.reshape(n_cells, n_dev, -1), d_b1, d_w2, d_b2[..., None]], axis=2
        )


def build_task(train_cfg) -> LogisticTask | MlpTask:
    if train_cfg.task == "synthetic_logistic":
        return LogisticTask(train_cfg.n_features)
    return MlpTask(train_cfg.n_features, train_cfg.hidden_units)


# ---------------------------------------------------------------------------
# data


def _blob_features(y: np.ndarray, n_features: int, separation: float, gen: np.random.Generator) -> np.ndarray:
    x = gen.standard_normal((y.shape[0], n_features))
    x[:, 0] += (2.0 * y - 1.0) * (separation / 2.0)
    return x


def build_devices(cfg: SystemConfig) -> list[DeviceDataset]:
    """Per-device shards of the two-blob mixture.

    label_skew tilts device k toward class k mod 2: the probability of the
    preferred class is 0.5 + skew/2, so 0 recovers IID shards and values
    near 1 give almost single-class devices.  Every device holds the same
    number of samples.
    """
    tc = cfg.train
    devices = []
    for k in range(cfg.k_devices):
        gen = substream(cfg.seed, STREAM_DATA, k)
        p_pref = 0.5 + 0.5 * tc.label_skew
        preferred = k % 2
        take_pref = gen.random(tc.data_per_device) < p_pref
        y = np.where(take_pref, preferred, 1 - preferred).astype(np.float64)
        x = _blob_features(y, tc.n_features, tc.blob_separation, gen)
        devices.append(DeviceDataset(features=x, labels=y))
    return devices


def build_test_set(cfg: SystemConfig) -> DeviceDataset:
    """Exactly class-balanced held-out set (even size enforced by config)."""
    tc = cfg.train
    gen = substream(cfg.seed, STREAM_TEST)
    y = (np.arange(tc.test_size) % 2).astype(np.float64)
    x = _blob_features(y, tc.n_features, tc.blob_separation, gen)
    return DeviceDataset(features=x, labels=y)


# ---------------------------------------------------------------------------
# aggregation primitives


def ideal_aggregate(gradients) -> np.ndarray:
    """Exact gradient mean, accumulated in device order, of a list of
    vectors or the rows of a (K, d) array (or the (C, d) slices of a
    (K, C, d) array, one mean per cell)."""
    if len(gradients) == 0:
        raise ValueError("no gradients to aggregate")
    total = np.zeros_like(gradients[0])
    for g in gradients:
        total += g
    return total / len(gradients)


def global_update(w: np.ndarray, g_hat: np.ndarray, eta: float) -> np.ndarray:
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"eta must be positive, got {eta}")
    if w.shape != g_hat.shape:
        raise ValueError(f"shape mismatch: w {w.shape} vs g_hat {g_hat.shape}")
    return w - eta * g_hat


def evaluate(task, w: np.ndarray, train_data: DeviceDataset, test_data: DeviceDataset) -> tuple[float, float]:
    """(mean loss on train_data, accuracy on test_data); scores of exactly
    zero predict class 0."""
    loss = _bce_loss(task.scores(w, train_data.features), train_data.labels)
    scores = task.scores(w, test_data.features)
    accuracy = float(np.mean((scores > 0.0) == (test_data.labels > 0.5)))
    return loss, accuracy


def round_gradients(w, draws: SeedDraws, round_index: int) -> np.ndarray:
    """All K mini-batch gradients of one round, at the batches of draws.

    For w of shape (d,) a (K, d) array whose row k is device k's mini-batch
    gradient; for the weights of C cells, shape (C, d), a (C, K, d)
    array whose entry [c] is what w[c] alone would give.
    """
    grads = draws.task.gradients(np.atleast_2d(w), *draws.batches(round_index))
    return grads if np.ndim(w) == 2 else grads[0]


class _Cells(NamedTuple):
    """Each cell's gamma_th, lambda, zeta and gradient bound G, shape (C, 1)."""

    gamma_th: np.ndarray
    lam: np.ndarray
    zeta: np.ndarray
    g_bound: np.ndarray


def _zetas(cfg: SystemConfig, gammas, g_bounds) -> np.ndarray:
    """scaling_zeta of each cell at its own threshold and gradient bound, shape (C, 1)."""
    return np.array([[scaling_zeta(cfg.k_devices, cfg.rho, power_config(cfg, g), gamma)]
                     for gamma, g in zip(gammas, g_bounds)])


def _air_round(grads, cells: _Cells, draws: SeedDraws, round_index: int):
    """Every cell's over-the-air aggregation of grads (C, K, d) in one
    aggregate_batch call: g_hat (C, d), active counts and skip flags (C,)."""
    cfg = draws.cfg
    scale = receiver_noise_scale(dbm_to_watts(cfg.sigma2_dbm), cells.zeta)  # (C, 1): one noise draw, scaled per cell
    noise = draws.noise(round_index).standard_normal(grads.shape[2]) * scale
    channels = draws.channels(round_index)
    _, active, sent, g_hat = aggregate_batch(grads, channels.h, channels.h_hat, cells.gamma_th, cells.lam, noise)
    _assert_power_feasible(grads, channels, active, cells, cfg.p_max)
    return g_hat, active.sum(axis=1), ~sent


def _sent_power(grads: np.ndarray, channels: ChannelArrays, cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """(|beta_k|^2 ||g_k||^2, ||g_k||^2) of cell c's device k at [c, k], with beta_k
    as in aircomp.preprocessing_beta: (zeta lambda)^2 d_k^alpha ||g_k||^2 / (K^2 |h_hat_k|^2)."""
    g_norm_sq = np.einsum("ckd,ckd->ck", grads, grads)
    k_devices = grads.shape[1]
    scale = cells.zeta * cells.lam
    return scale * scale * channels.d_alpha * g_norm_sq / (k_devices * k_devices * _gain(channels.h_hat)), g_norm_sq


def _assert_power_feasible(grads, channels: ChannelArrays, active, cells: _Cells, p_max: float) -> None:
    # Instantaneous power check for every active (cell, device) pair whose
    # gradient obeys the norm bound; a tiny slack absorbs rounding in the
    # boundary case |h_hat|^2 == gamma_th.
    sent, g_norm_sq = _sent_power(grads, channels, cells)
    over = active & (sent > p_max * (1.0 + 1e-9)) & (g_norm_sq <= np.square(cells.g_bound))
    if over.any():
        c, k = np.argwhere(over)[0]
        raise AssertionError(f"device {k} exceeded the power budget at gamma_th="
                             f"{float(cells.gamma_th[c, 0])}: {sent[c, k]} > {p_max}")


def max_grad_norm(grads) -> float:
    """The largest of one round's K gradient norms: genie power control's G."""
    return max(float(np.linalg.norm(g)) for g in grads)


def gradient_bound(draws: SeedDraws, grads: np.ndarray, round_index: int) -> float:
    """The G that power control scales by in a round whose K gradients are
    grads (K, d), by the config's g_bound: under 'genie' their largest
    norm, under 'calibrate' the bound calibrated on draws (once), else the
    pinned G."""
    g_bound = draws.cfg.g_bound
    if g_bound == "calibrate":
        return draws.calibrated_g_bound()
    if g_bound != "genie":
        return g_bound
    g = max_grad_norm(grads)
    if not 0.0 < g < math.inf:
        raise RuntimeError(f"g_bound = genie has no G in round {round_index}: the largest gradient norm is {g!r}")
    return g


def calibrate_g_bound(draws: SeedDraws, rounds: int = _WARMUP_ROUNDS) -> float:
    """Gradient-norm bound from an ideal-mode warm-up pass.

    Runs the first `rounds` rounds with exact aggregation on the batches of
    draws (hence the batches the real run will see) and returns 1.1x the
    largest per-device gradient norm observed.
    """
    task, cfg = draws.task, draws.cfg
    w = task.init_params(substream(cfg.seed, STREAM_INIT))
    g_max = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging warm-up is reported below
        for m in range(rounds):
            grads = round_gradients(w, draws, m)
            g_max = max(g_max, max_grad_norm(grads))
            w = global_update(w, ideal_aggregate(grads), cfg.eta)
            if not (np.all(np.isfinite(grads)) and np.all(np.isfinite(w))):
                raise ValueError(f"the calibration warm-up diverged in round {m} with eta = {cfg.eta!r}")
    if g_max == 0.0:
        raise RuntimeError("warm-up saw only zero gradients; cannot calibrate a norm bound")
    return _G_MARGIN * g_max


class SeedDraws:
    """What one seed's training runs draw, drawn once and shared.

    Holds the task, the device shards stacked into (K, D, f) features and
    (K, D) labels, the test set and the shards' union, each round's
    mini-batch indices and channel arrays (filled lazily, round by round),
    and the calibrated gradient bound (computed on first use), all for
    `cfg`, the resolved config.  None of it depends on gamma_th or on the
    model weights, so train_cells trains cfg at any thresholds on it.
    Round m of any purpose reads substream(seed, purpose, m), so any round
    can be drawn, in any order.
    """

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg = resolve(cfg)
        self.task = build_task(cfg.train)
        shards = build_devices(cfg)
        self.features = np.stack([d.features for d in shards])
        self.labels = np.stack([d.labels for d in shards])
        self.test = build_test_set(cfg)
        self.all_train = DeviceDataset(
            features=self.features.reshape(-1, self.features.shape[-1]),
            labels=self.labels.reshape(-1),
        )
        self._rows = np.arange(cfg.k_devices)[:, None]
        self._d_alpha = np.array([d ** cfg.alpha for d in cfg.distances])
        self._picks: dict[int, np.ndarray] = {}
        self._channels: dict[int, ChannelArrays] = {}
        self._g_bound: float | None = None

    def batches(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The round's (features, labels) batches, shapes (K, B, f) and (K, B);
        the K devices' batches are drawn without replacement, in device
        order, from substream(seed, STREAM_BATCH, round).

        Only the indices are held, so the draws stay small next to the
        shards; each call gathers fresh arrays from them.
        """
        picks = self._picks.get(round_index)
        if picks is None:
            size, batch = self.labels.shape[1], self.cfg.train.batch_size
            gen = substream(self.cfg.seed, STREAM_BATCH, round_index)
            picks = np.array([gen.choice(size, size=batch, replace=False) for _ in range(self.cfg.k_devices)])
            self._picks[round_index] = picks
        return self.features[self._rows, picks], self.labels[self._rows, picks]

    def channels(self, round_index: int) -> ChannelArrays:
        """The round's K channel draws as arrays: device k's from row k of
        one (K, 4) normal draw from substream(seed, STREAM_CHANNEL, round),
        in draw_channel's order."""
        out = self._channels.get(round_index)
        if out is None:
            z = substream(self.cfg.seed, STREAM_CHANNEL, round_index).standard_normal((self.cfg.k_devices, 4))
            out = ChannelArrays(*channel_from_normals(z, self.cfg.rho), self._d_alpha)
            self._channels[round_index] = out
        return out

    def noise(self, round_index: int) -> np.random.Generator:
        """A fresh substream(seed, STREAM_NOISE, round)."""
        return substream(self.cfg.seed, STREAM_NOISE, round_index)

    def calibrated_g_bound(self) -> float:
        """calibrate_g_bound on these draws, run once."""
        if self._g_bound is None:
            self._g_bound = calibrate_g_bound(self)
        return self._g_bound


def train_cells(draws: SeedDraws, gammas, mode: str = "aircomp") -> list[TrainingTrace]:
    """Train draws.cfg at each threshold of gammas in lock-step,
    and return one trace per threshold.

    Every round gathers the batches once, computes every cell's K
    gradients in one call and aggregates every cell at once (ideally, or
    over the air with each cell's own threshold and the G of
    gradient_bound), with each cell's arithmetic exactly that of a run on
    its own, so a cell's trace does not depend on the other cells.  A
    skipped round leaves the cell's weights unchanged.
    """
    if mode not in _RUN_MODES:
        raise ValueError(f"mode must be one of {_RUN_MODES}, got {mode!r}")
    if len(gammas) == 0:
        raise ValueError("no thresholds to train")

    cfg = draws.cfg
    n_cells, n_rounds, k_devices = len(gammas), cfg.train.rounds_m, cfg.k_devices
    if mode == "aircomp":
        # lambda once per run; zeta whenever a cell's G changes, which only genie power control does
        cells = _Cells(np.array([[g] for g in gammas]),
                       np.array([[compensation_lambda(g, cfg.rho)] for g in gammas]), None, None)
        g_prev = None
    weights = np.tile(draws.task.init_params(substream(cfg.seed, STREAM_INIT)), (n_cells, 1))
    history = np.empty((n_cells, n_rounds, weights.shape[1]))
    divergence = np.empty((n_cells, n_rounds))
    spread = np.empty((n_cells, n_rounds))
    active = np.empty((n_cells, n_rounds), dtype=int)
    skipped = np.zeros((n_cells, n_rounds), dtype=bool)
    g_used = np.zeros((n_cells, 1))  # the largest G each cell's power control used
    # the steps of a diverging run overflow; the first non-finite step is reported
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_rounds):
            grads = round_gradients(weights, draws, m)
            g_ideal = ideal_aggregate(grads.swapaxes(0, 1))  # (C, d), in device order
            spread[:, m] = np.mean(np.sum((grads - g_ideal[:, None]) ** 2, axis=2), axis=1)
            if mode == "ideal":
                g_hat, active[:, m] = g_ideal, k_devices
            else:
                g_now = [gradient_bound(draws, cell, m) for cell in grads]
                if g_now != g_prev:
                    cells = cells._replace(zeta=_zetas(cfg, gammas, g_now), g_bound=np.array(g_now)[:, None])
                    g_prev = g_now
                g_hat, active[:, m], skipped[:, m] = _air_round(grads, cells, draws, m)
                g_used = np.maximum(g_used, cells.g_bound)
            weights = np.where(skipped[:, m, None], weights, global_update(weights, g_hat, cfg.eta))
            if not np.all(np.isfinite(weights)):
                raise ValueError(f"model parameters must be finite; round {m}'s step with eta = {cfg.eta!r} overflowed")
            divergence[:, m] = [float(r @ r) for r in g_hat - g_ideal]
            history[:, m] = weights

    return [
        TrainingTrace(
            weights=history[c],
            divergence_sq=divergence[c],
            grad_spread_sq=spread[c],
            active_count=active[c],
            skipped=skipped[c],
            mode=mode,
            gamma_th=float(gamma) if mode == "aircomp" else None,
            g_bound=float(g_used[c, 0]) if mode == "aircomp" else None,
            draws=draws,
        )
        for c, gamma in enumerate(gammas)
    ]


def train(cfg: SystemConfig, mode: str = "aircomp") -> TrainingTrace:
    """Run a full federated experiment and return its trace.

    mode "ideal" aggregates exactly (no channel); "aircomp" sends gradients
    over the simulated channel with truncated inversion.  With the same
    seed, both modes draw identical data and batches.  This is train_cells
    on a group of one.
    """
    draws = SeedDraws(cfg)
    return train_cells(draws, [draws.cfg.gamma_th], mode)[0]
