"""Federated training over the simulated multiple-access channel.

Each round: every device computes a mini-batch cross-entropy gradient at the
current global model, the gradients are aggregated either ideally (exact
mean) or over the air (truncated channel inversion plus receiver noise), and
the server applies one gradient step.  Rounds whose active set is empty are
skipped: the model is left untouched and the event is counted in the trace.

Two desk-scale tasks are built in: a two-class Gaussian-blob logistic
regression and a one-hidden-layer MLP on the same data.

A round is one array step over the K devices: the batches are gathered
with one fancy index into the stacked shards, the task computes all K
gradients with stacked matmuls (each slice makes the same BLAS call as a
per-device product, so every row equals local_gradient bit for bit), and
the spread and the power check are one reduction each.

Everything a run draws that depends only on the seed and the config (the
device shards, the test set, each round's mini-batches and channel draws,
the receiver-noise stream states and the calibrated gradient bound) lives
in a SeedDraws.  Runs that differ only in gamma_th can share one.  The
stream states of every (round, device) batch and channel key, and of every
round's noise key, are derived once per SeedDraws by
channel.substream_states; one reused generator is reseeded to a state per
draw, so each draw reads exactly the substream a private run would use and
sharing changes no bit of any run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .aircomp import PowerConfig, aggregate
from .channel import ChannelDraw, Reseeder, check_substream_states, draw_channel, substream, substream_states
from .config import (
    STREAM_BATCH,
    STREAM_CHANNEL,
    STREAM_DATA,
    STREAM_INIT,
    STREAM_NOISE,
    STREAM_TEST,
    ResolvedExperiment,
    SystemConfig,
    resolve,
)

_MODES = ("aircomp", "ideal")
_WARMUP_ROUNDS = 10
_G_MARGIN = 1.1


@dataclass
class DeviceDataset:
    features: np.ndarray  # (D, n_features)
    labels: np.ndarray    # (D,) in {0, 1}

    @property
    def size(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    loss: float            # global training loss after the update
    accuracy: float        # test accuracy after the update
    divergence_sq: float   # ||g_hat - ideal mean||^2 for this round
    grad_spread_sq: float  # mean_k ||g_k - ideal mean||^2 (local variance)
    active_count: int
    skipped: bool


@dataclass
class TrainingTrace:
    records: list[RoundRecord]
    final: np.ndarray  # flat parameter vector of the global model
    mode: str
    gamma_th: float | None
    g_bound: float | None

    @property
    def skipped_rounds(self) -> int:
        return sum(r.skipped for r in self.records)

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy

    @property
    def mean_divergence_sq(self) -> float:
        return float(np.mean([r.divergence_sq for r in self.records]))

    @property
    def delta2_hat(self) -> float:
        """Empirical local-gradient variance level (mean over rounds)."""
        return float(np.mean([r.grad_spread_sq for r in self.records]))


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

    def loss(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        return _bce_loss(self.scores(w, x), y)

    def gradient(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        residual = _sigmoid(self.scores(w, x)) - y
        return x.T @ residual / x.shape[0]

    def gradients(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row k is gradient(w, x[k], y[k]) for x of shape (K, B, f)."""
        residual = _sigmoid(np.matmul(x, w)) - y
        return np.matmul(residual[:, None, :], x)[:, 0, :] / x.shape[1]


class MlpTask:
    """One hidden relu layer (hidden_units wide), sigmoid output, packed as
    [W1.ravel(), b1, w2, b2]."""

    def __init__(self, n_features: int, hidden_units: int):
        self.n_in = n_features
        self.n_hid = hidden_units
        self.dim = hidden_units * n_features + hidden_units + hidden_units + 1

    def _unpack(self, w: np.ndarray):
        h, d = self.n_hid, self.n_in
        w1 = w[: h * d].reshape(h, d)
        b1 = w[h * d : h * d + h]
        w2 = w[h * d + h : h * d + 2 * h]
        b2 = w[-1]
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

    def loss(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        return _bce_loss(self.scores(w, x), y)

    def gradient(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(w)
        z1 = x @ w1.T + b1
        a1 = np.maximum(z1, 0.0)
        scores = a1 @ w2 + b2
        dscore = (_sigmoid(scores) - y) / x.shape[0]
        d_w2 = a1.T @ dscore
        d_b2 = np.sum(dscore)
        dz1 = np.outer(dscore, w2) * (z1 > 0.0)
        d_w1 = dz1.T @ x
        d_b1 = dz1.sum(axis=0)
        return np.concatenate([d_w1.ravel(), d_b1, d_w2, [d_b2]])

    def gradients(self, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Row k is gradient(w, x[k], y[k]) for x of shape (K, B, f)."""
        w1, b1, w2, b2 = self._unpack(w)
        n_dev, batch = y.shape
        z1 = np.matmul(x, w1.T) + b1
        a1 = np.maximum(z1, 0.0)
        scores = np.matmul(a1, w2) + b2
        dscore = (_sigmoid(scores) - y) / batch
        d_w2 = np.matmul(dscore[:, None, :], a1)[:, 0, :]
        d_b2 = np.sum(dscore, axis=1)
        dz1 = dscore[:, :, None] * w2 * (z1 > 0.0)
        d_w1 = np.matmul(dz1.transpose(0, 2, 1), x)
        d_b1 = dz1.sum(axis=1)
        return np.concatenate([d_w1.reshape(n_dev, -1), d_b1, d_w2, d_b2[:, None]], axis=1)


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


def build_devices(exp: ResolvedExperiment) -> list[DeviceDataset]:
    """Per-device shards of the two-blob mixture.

    label_skew tilts device k toward class k mod 2: the probability of the
    preferred class is 0.5 + skew/2, so 0 recovers IID shards and values
    near 1 give almost single-class devices.  Every device holds the same
    number of samples.
    """
    tc = exp.train
    devices = []
    for k in range(exp.k_devices):
        gen = substream(exp.seed, STREAM_DATA, k)
        p_pref = 0.5 + 0.5 * tc.label_skew
        preferred = k % 2
        take_pref = gen.random(tc.data_per_device) < p_pref
        y = np.where(take_pref, preferred, 1 - preferred).astype(np.float64)
        x = _blob_features(y, tc.n_features, tc.blob_separation, gen)
        devices.append(DeviceDataset(features=x, labels=y))
    return devices


def build_test_set(exp: ResolvedExperiment) -> DeviceDataset:
    """Exactly class-balanced held-out set (even size enforced by config)."""
    tc = exp.train
    gen = substream(exp.seed, STREAM_TEST)
    y = (np.arange(tc.test_size) % 2).astype(np.float64)
    x = _blob_features(y, tc.n_features, tc.blob_separation, gen)
    return DeviceDataset(features=x, labels=y)


# ---------------------------------------------------------------------------
# aggregation primitives


def local_gradient(task, w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mini-batch gradient of the mean cross-entropy loss at w."""
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"batch mismatch: {x.shape[0]} samples vs {y.shape[0]} labels")
    return task.gradient(w, x, y)


def ideal_aggregate(gradients) -> np.ndarray:
    """Exact gradient mean, accumulated in device order, of a list of
    vectors or the rows of a (K, d) array."""
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


def evaluate(task, w: np.ndarray, data: DeviceDataset) -> tuple[float, float]:
    """(mean loss, accuracy); scores of exactly zero predict class 0."""
    scores = task.scores(w, data.features)
    loss = _bce_loss(scores, data.labels)
    accuracy = float(np.mean((scores > 0.0) == (data.labels > 0.5)))
    return loss, accuracy


def round_gradients(w, draws: SeedDraws, round_index: int) -> np.ndarray:
    """All K mini-batch gradients of one round, at the batches of draws, as a
    (K, d) array; row k equals local_gradient at device k's batch."""
    return draws.task.gradients(w, *draws.batches(round_index))


def run_round(
    w: np.ndarray,
    round_index: int,
    exp: ResolvedExperiment,
    draws: SeedDraws,
    power: PowerConfig | None,
    mode: str,
) -> tuple[np.ndarray, RoundRecord]:
    """One aggregation round; returns the updated model and its record."""
    grads = round_gradients(w, draws, round_index)
    g_ideal = ideal_aggregate(grads)
    spread = float(np.mean(np.sum((grads - g_ideal) ** 2, axis=1)))

    skipped = False
    if mode == "ideal":
        g_hat = g_ideal
        active_count = len(grads)
    else:
        channels = draws.channels(round_index)
        round_power = power
        if exp.cfg.g_mode == "genie":
            g_now = max(float(np.linalg.norm(g)) for g in grads)
            if g_now == 0.0:
                raise RuntimeError("genie power control with all-zero gradients")
            round_power = PowerConfig(
                p_max=power.p_max,
                sigma2=power.sigma2,
                g_bound=g_now,
                d_max_alpha=power.d_max_alpha,
            )
        outcome = aggregate(
            grads,
            channels,
            exp.gamma_th,
            exp.rho,
            round_power,
            draws.noise(round_index),
        )
        _assert_power_feasible(grads, channels, outcome, round_power, exp.k_devices)
        skipped = outcome.skipped
        g_hat = outcome.g_hat
        active_count = len(outcome.active_set)

    if skipped:
        w_next = w
    else:
        w_next = global_update(w, g_hat, exp.train.eta)

    loss, _ = evaluate(draws.task, w_next, draws.all_train)
    _, accuracy = evaluate(draws.task, w_next, draws.test)
    diff = g_hat - g_ideal
    record = RoundRecord(
        round_index=round_index,
        loss=loss,
        accuracy=accuracy,
        divergence_sq=float(np.dot(diff, diff)),
        grad_spread_sq=spread,
        active_count=active_count,
        skipped=skipped,
    )
    return w_next, record


def _sent_power(grads: np.ndarray, channels, outcome, k_devices: int) -> tuple[np.ndarray, np.ndarray]:
    """(|beta_k|^2 ||g_k||^2, ||g_k||^2) of the devices in outcome.active_set,
    in its order, with beta_k as in aircomp.preprocessing_beta:
    |beta_k|^2 ||g_k||^2 = (zeta lambda)^2 d_k^alpha ||g_k||^2 / (K^2 |h_hat_k|^2).
    """
    active = outcome.active_set
    g = grads[active]
    g_norm_sq = np.einsum("ij,ij->i", g, g)
    h_hat = np.array([channels[k].h_hat for k in active])
    d_alpha = np.array([channels[k].d ** channels[k].alpha for k in active])
    gain = h_hat.real * h_hat.real + h_hat.imag * h_hat.imag
    scale = outcome.zeta * outcome.lam
    return scale * scale * d_alpha * g_norm_sq / (k_devices * k_devices * gain), g_norm_sq


def _assert_power_feasible(grads, channels, outcome, power: PowerConfig, k_devices: int) -> None:
    # Instantaneous power check for every active device whose gradient obeys
    # the norm bound; a tiny slack absorbs rounding in the boundary case
    # |h_hat|^2 == gamma_th.
    sent, g_norm_sq = _sent_power(grads, channels, outcome, k_devices)
    over = (sent > power.p_max * (1.0 + 1e-9)) & (g_norm_sq <= power.g_bound**2)
    if over.any():
        i = int(np.argmax(over))
        raise AssertionError(
            f"device {outcome.active_set[i]} exceeded the power budget: {sent[i]} > {power.p_max}"
        )


def calibrate_g_bound(draws: SeedDraws, rounds: int = _WARMUP_ROUNDS) -> float:
    """Gradient-norm bound from an ideal-mode warm-up pass.

    Runs the first `rounds` rounds with exact aggregation on the batches of
    draws (hence the batches the real run will see) and returns 1.1x the
    largest per-device gradient norm observed.
    """
    task, exp = draws.task, draws.exp
    w = task.init_params(substream(exp.seed, STREAM_INIT))
    g_max = 0.0
    for m in range(rounds):
        grads = round_gradients(w, draws, m)
        g_max = max(g_max, max(float(np.linalg.norm(g)) for g in grads))
        w = global_update(w, ideal_aggregate(grads), exp.train.eta)
    if g_max == 0.0:
        raise RuntimeError("warm-up saw only zero gradients; cannot calibrate a norm bound")
    return _G_MARGIN * g_max


def _draws_key(exp: ResolvedExperiment) -> tuple:
    # every field of the experiment and of its config but the threshold
    return tuple(
        (f.name, getattr(obj, f.name))
        for obj, skip in ((exp.cfg, ("gamma_th",)), (exp, ("cfg", "gamma_th", "gamma_policy")))
        for f in fields(obj)
        if f.name not in skip
    )


class SeedDraws:
    """What one seed's training runs draw, drawn once and shared.

    Holds the task, the device shards stacked into (K, D, f) features and
    (K, D) labels, the test set and the shards' union, each round's
    mini-batch indices and channel draws (filled lazily, round by round),
    the stream states of the receiver noise, and the calibrated gradient
    bound (computed on first use).  None of it depends on gamma_th or on the
    model weights, so `train` accepts one SeedDraws for every run whose
    config differs from `exp`'s in gamma_th alone.

    The stream states of substream(seed, STREAM_BATCH | STREAM_CHANNEL,
    round, device) and of substream(seed, STREAM_NOISE, round) are derived
    once per purpose, on first use, for max(rounds_m, 10) rounds so that the
    calibration warm-up is covered; every draw reseeds one reused generator
    to its key's state and so reads exactly that substream.  The noise
    normals themselves are drawn per run and round, by `aggregate`.
    """

    def __init__(self, cfg: SystemConfig | ResolvedExperiment):
        exp = cfg if isinstance(cfg, ResolvedExperiment) else resolve(cfg)
        self.exp = exp
        self.key = _draws_key(exp)
        self.task = build_task(exp.train)
        shards = build_devices(exp)
        self.features = np.stack([d.features for d in shards])
        self.labels = np.stack([d.labels for d in shards])
        self.devices = [DeviceDataset(x, y) for x, y in zip(self.features, self.labels)]
        self.test = build_test_set(exp)
        self.all_train = DeviceDataset(
            features=self.features.reshape(-1, self.features.shape[-1]),
            labels=self.labels.reshape(-1),
        )
        check_substream_states(exp.seed, (STREAM_NOISE,), 0)
        self.n_rounds = max(exp.train.rounds_m, _WARMUP_ROUNDS)
        self._reseed = Reseeder()
        self._rows = np.arange(exp.k_devices)[:, None]
        self._states: dict[int, list[tuple[int, int]]] = {}
        self._picks: dict[int, np.ndarray] = {}
        self._channels: dict[int, list[ChannelDraw]] = {}
        self._g_bound: float | None = None

    def _round_states(self, purpose: int, round_index: int) -> list[tuple[int, int]]:
        # one round's stream states: the K (round, device) keys of the batch
        # and channel purposes, the one (round,) key of the noise; derived
        # for every round on the purpose's first use
        if not 0 <= round_index < self.n_rounds:
            raise IndexError(f"round {round_index} is outside the {self.n_rounds} rounds these draws cover")
        width = 1 if purpose == STREAM_NOISE else self.exp.k_devices
        states = self._states.get(purpose)
        if states is None:
            inner = None if purpose == STREAM_NOISE else width
            states = substream_states(self.exp.seed, (purpose,), 0, self.n_rounds, inner)
            self._states[purpose] = states
        return states[round_index * width : (round_index + 1) * width]

    def batches(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The round's (features, labels) batches, shapes (K, B, f) and (K, B);
        device k's batch is drawn without replacement from
        substream(seed, STREAM_BATCH, round, k).

        Only the indices are held, so the draws stay small next to the
        shards; each call gathers fresh arrays from them.
        """
        picks = self._picks.get(round_index)
        if picks is None:
            size, batch = self.labels.shape[1], self.exp.train.batch_size
            picks = np.array([
                self._reseed(state).choice(size, size=batch, replace=False)
                for state in self._round_states(STREAM_BATCH, round_index)
            ])
            self._picks[round_index] = picks
        return self.features[self._rows, picks], self.labels[self._rows, picks]

    def channels(self, round_index: int) -> list[ChannelDraw]:
        """Per device, the round's channel draw from
        substream(seed, STREAM_CHANNEL, round, k)."""
        out = self._channels.get(round_index)
        if out is None:
            exp = self.exp
            out = [
                draw_channel(exp.est, exp.distances[k], self._reseed(state))
                for k, state in enumerate(self._round_states(STREAM_CHANNEL, round_index))
            ]
            self._channels[round_index] = out
        return out

    def noise(self, round_index: int) -> np.random.Generator:
        """A generator at the start of substream(seed, STREAM_NOISE, round).

        It is the reused generator: draw from it before the next call on
        these draws reseeds it.
        """
        (state,) = self._round_states(STREAM_NOISE, round_index)
        return self._reseed(state)

    def calibrated_g_bound(self) -> float:
        """calibrate_g_bound on these draws, run once."""
        if self._g_bound is None:
            self._g_bound = calibrate_g_bound(self)
        return self._g_bound


def train(
    cfg: SystemConfig | ResolvedExperiment,
    mode: str = "aircomp",
    draws: SeedDraws | None = None,
) -> TrainingTrace:
    """Run a full federated experiment and return its trace.

    mode "ideal" aggregates exactly (no channel); "aircomp" sends gradients
    over the simulated channel with truncated inversion.  With the same
    seed, both modes draw identical data and batches.  `draws` may come from
    a config that differs from cfg in gamma_th alone; without it the run
    builds its own, with the same result.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    exp = cfg if isinstance(cfg, ResolvedExperiment) else resolve(cfg)
    if draws is None:
        draws = SeedDraws(exp)
    elif draws.key != _draws_key(exp):
        raise ValueError("draws were built for a config that differs in more than gamma_th")

    power = None
    gamma_th: float | None = None
    g_bound: float | None = None
    if mode == "aircomp":
        gamma_th = exp.gamma_th
        if exp.cfg.g_mode == "fixed":
            if exp.cfg.g_bound is None:
                raise ValueError("g_mode 'fixed' requires g_bound")
            g_bound = exp.cfg.g_bound
        else:
            g_bound = exp.cfg.g_bound if exp.cfg.g_bound is not None else draws.calibrated_g_bound()
        power = exp.power_config(g_bound)

    w = draws.task.init_params(substream(exp.seed, STREAM_INIT))
    records = []
    for m in range(exp.train.rounds_m):
        w, record = run_round(w, m, exp, draws, power, mode)
        records.append(record)

    if not np.all(np.isfinite(w)):
        raise ValueError("model parameters must be finite")
    return TrainingTrace(
        records=records,
        final=w,
        mode=mode,
        gamma_th=gamma_th,
        g_bound=g_bound,
    )
