"""Training loop: tasks, data shards, and full runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
import airfl.channel
from airfl.aircomp import PowerConfig, _gain, compensation_lambda, scaling_zeta
from airfl.channel import ChannelArrays, EstimationModel, channel_from_normals, draw_channel, substream
from airfl.config import (
    STREAM_BATCH,
    STREAM_CHANNEL,
    STREAM_INIT,
    STREAM_NOISE,
    SystemConfig,
    TrainConfig,
    power_config,
    resolve,
)
import airfl.fltrain
from airfl.fltrain import (
    DeviceDataset,
    LogisticTask,
    MlpTask,
    SeedDraws,
    _Cells,
    _assert_power_feasible,
    _sent_power,
    build_devices,
    build_task,
    build_test_set,
    calibrate_g_bound,
    evaluate,
    global_update,
    gradient_bound,
    ideal_aggregate,
    max_grad_norm,
    round_gradients,
    train,
    train_cells,
)

SMALL_TRAIN = TrainConfig(
    task="synthetic_logistic",
    batch_size=8,
    rounds_m=4,
    data_per_device=40,
    n_features=5,
    test_size=200,
)


def small_cfg(**kw):
    base = dict(k_devices=3, train=SMALL_TRAIN, seed=11)
    base.update(kw)
    return SystemConfig(**base)


def local_gradient(task, w, x, y):
    """One device's mini-batch gradient, from the plain-numpy references."""
    if isinstance(task, MlpTask):
        return oracles.mlp_gradient_ref(w, x, y, task.n_hid)
    return oracles.logistic_gradient_ref(w, x, y)


def one_gradient(task, w, x, y):
    """The package's batched gradient for one cell and one device."""
    return task.gradients(w[None], x[None], y[None])[0, 0]


def warmup_bound(cfg, rounds):
    """1.1x the peak device gradient norm of an ideal warm-up, drawn the slow
    way: one reference gradient per device and round, the devices' batches
    picked in device order from the round's one substream."""
    task = build_task(cfg.train)
    devices = build_devices(cfg)
    w = task.init_params(substream(cfg.seed, STREAM_INIT))
    g_max = 0.0
    for m in range(rounds):
        grads = []
        gen = substream(cfg.seed, STREAM_BATCH, m)
        for dev in devices:
            idx = gen.choice(len(dev.labels), size=cfg.train.batch_size, replace=False)
            grads.append(local_gradient(task, w, dev.features[idx], dev.labels[idx]))
        g_max = max(g_max, max(float(np.linalg.norm(g)) for g in grads))
        w = global_update(w, ideal_aggregate(grads), cfg.eta)
    return 1.1 * g_max


def estimation_model(cfg):
    return EstimationModel(rho=cfg.rho, alpha=cfg.alpha)


def assert_channel_row(arrays, k, draw):
    got = (arrays.h[k], arrays.h_hat[k], arrays.d_alpha[k])
    assert got == (draw.h, draw.h_hat, draw.d ** draw.alpha)


def fd_gradient(task, w, x, y, step=1e-6):
    out = np.empty_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = step
        loss_hi = oracles.bce_loss_ref(task.scores(w + e, x), y)
        out[i] = (loss_hi - oracles.bce_loss_ref(task.scores(w - e, x), y)) / (2 * step)
    return out


class TestTasks:
    def test_logistic_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(0)
        task = LogisticTask(5)
        w = gen.standard_normal(5)
        x = gen.standard_normal((30, 5))
        y = (gen.random(30) < 0.5).astype(np.float64)
        g = one_gradient(task, w, x, y)
        fd = fd_gradient(task, w, x, y)
        assert np.max(np.abs(g - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_mlp_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(1)
        task = MlpTask(4, 3)
        assert task.dim == 3 * 4 + 3 + 3 + 1
        w = task.init_params(gen) + 0.01 * gen.standard_normal(task.dim)
        x = gen.standard_normal((25, 4))
        y = (gen.random(25) < 0.5).astype(np.float64)
        g = one_gradient(task, w, x, y)
        fd = fd_gradient(task, w, x, y)
        assert np.max(np.abs(g - fd)) < 1e-5 * max(1.0, np.max(np.abs(fd)))

    def test_loss_is_stable_at_extreme_scores(self):
        task = LogisticTask(1)
        data = DeviceDataset(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
        loss_hi = evaluate(task, np.array([1000.0]), data, data)[0]
        loss_lo = evaluate(task, np.array([-1000.0]), data, data)[0]
        assert math.isfinite(loss_hi) and math.isfinite(loss_lo)
        assert abs(loss_hi - 500.0) < 1e-9
        assert abs(loss_lo - 500.0) < 1e-9

    def test_logistic_init_is_zero(self):
        task = LogisticTask(7)
        assert np.all(task.init_params(np.random.default_rng(0)) == 0.0)

    def test_mlp_init_biases_are_zero(self):
        task = MlpTask(4, 3)
        w = task.init_params(np.random.default_rng(0))
        assert w.size == task.dim
        assert np.all(w[3 * 4 : 3 * 4 + 3] == 0.0)
        assert w[-1] == 0.0

    def test_build_task_dispatch(self):
        assert isinstance(build_task(TrainConfig(task="synthetic_logistic")), LogisticTask)
        mlp = build_task(TrainConfig(task="small_mlp", hidden_units=8))
        assert isinstance(mlp, MlpTask)
        assert mlp.n_hid == 8


class TestData:
    def test_shard_shapes_and_labels(self):
        devices = build_devices(resolve(small_cfg()))
        assert len(devices) == 3
        for dev in devices:
            assert dev.features.shape == (40, 5)
            assert dev.labels.shape == (40,)
            assert set(np.unique(dev.labels)) <= {0.0, 1.0}

    def test_shards_are_seed_deterministic(self):
        a = build_devices(resolve(small_cfg()))
        b = build_devices(resolve(small_cfg()))
        for da, db in zip(a, b):
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.labels, db.labels)

    def test_label_skew_tilts_alternating_devices(self):
        tc = replace(SMALL_TRAIN, data_per_device=2000, label_skew=0.9)
        devices = build_devices(resolve(small_cfg(train=tc, k_devices=2)))
        # device 0 prefers class 0, device 1 prefers class 1, both at 0.95
        assert np.mean(devices[0].labels) < 0.15
        assert np.mean(devices[1].labels) > 0.85

    def test_zero_skew_is_roughly_balanced(self):
        tc = replace(SMALL_TRAIN, data_per_device=2000)
        devices = build_devices(resolve(small_cfg(train=tc)))
        for dev in devices:
            assert abs(np.mean(dev.labels) - 0.5) < 0.06

    def test_blob_separation_shows_in_first_coordinate(self):
        tc = replace(SMALL_TRAIN, data_per_device=4000, blob_separation=6.0)
        dev = build_devices(resolve(small_cfg(train=tc, k_devices=1)))[0]
        gap = np.mean(dev.features[dev.labels == 1.0, 0]) - np.mean(
            dev.features[dev.labels == 0.0, 0]
        )
        assert abs(gap - 6.0) < 0.3

    def test_test_set_is_exactly_balanced(self):
        test = build_test_set(resolve(small_cfg()))
        assert test.labels.shape == (200,)
        assert np.mean(test.labels) == 0.5


class TestPrimitives:
    def test_ideal_aggregate_is_the_mean(self):
        grads = [np.array([1.0, 2.0]), np.array([3.0, 6.0])]
        assert np.array_equal(ideal_aggregate(grads), [2.0, 4.0])
        with pytest.raises(ValueError):
            ideal_aggregate([])

    def test_global_update(self):
        w = np.array([1.0, 1.0])
        assert np.array_equal(global_update(w, np.array([10.0, -10.0]), 0.1), [0.0, 2.0])
        with pytest.raises(ValueError):
            global_update(w, np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            global_update(w, np.zeros(3), 0.1)

    def test_evaluate_ties_predict_class_zero(self):
        cfg = resolve(small_cfg())
        test = build_test_set(cfg)
        task = LogisticTask(5)
        loss, accuracy = evaluate(task, np.zeros(5), build_devices(cfg)[0], test)
        assert accuracy == 0.5
        assert loss == math.log(2.0)


class TestTraining:
    def test_ideal_run_is_deterministic(self):
        a = train(small_cfg(), mode="ideal")
        b = train(small_cfg(), mode="ideal")
        assert np.array_equal(a.final, b.final)
        assert a.records == b.records

    def test_ideal_trace_has_no_channel_fields(self):
        trace = train(small_cfg(), mode="ideal")
        assert trace.mode == "ideal"
        assert trace.gamma_th is None
        assert trace.g_bound is None
        assert trace.skipped_rounds == 0
        assert all(r.divergence_sq == 0.0 for r in trace.records)
        assert all(r.active_count == 3 for r in trace.records)

    def test_unity_override_reproduces_ideal(self, monkeypatch):
        # every coefficient forced to 1 and the noise dropped: the aggregate
        # is the exact mean and no round is skipped, so aircomp mode must
        # replay the ideal run
        real_kernel = airfl.fltrain.aggregate_batch

        def unity_kernel(grads, *args):
            xi, active, sent, _ = real_kernel(grads, *args)
            return xi, active, np.ones_like(sent), ideal_aggregate(grads.swapaxes(0, 1))

        cfg = small_cfg(rho=1.0)
        ideal = train(cfg, mode="ideal")
        monkeypatch.setattr(airfl.fltrain, "aggregate_batch", unity_kernel)
        faked = train(cfg, mode="aircomp")
        assert np.array_equal(ideal.final, faked.final)
        assert [r.loss for r in faked.records] == [r.loss for r in ideal.records]
        assert faked.mean_divergence_sq == 0.0

    def test_nonfinite_weights_are_rejected(self, monkeypatch):
        monkeypatch.setattr(
            airfl.fltrain, "global_update", lambda w, g_hat, eta: np.full_like(w, math.nan)
        )
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="model parameters must be finite"):
            train(small_cfg(), mode="ideal")

    def test_aircomp_noise_shows_up_in_divergence(self):
        trace = train(small_cfg(sigma2_dbm=-20.0), mode="aircomp")
        assert trace.mode == "aircomp"
        assert trace.gamma_th == 0.5
        assert trace.g_bound is not None and trace.g_bound > 0.0
        assert trace.mean_divergence_sq > 0.0

    def test_trace_properties(self):
        trace = train(small_cfg(), mode="aircomp")
        assert trace.final_accuracy == trace.records[-1].accuracy

    def test_final_accuracy_read_first_equals_the_last_record(self, monkeypatch):
        evaluated = []
        real = airfl.fltrain.evaluate

        def counted(task, w, *data):
            evaluated.append(w.copy())
            return real(task, w, *data)

        monkeypatch.setattr(airfl.fltrain, "evaluate", counted)
        trace = train(small_cfg(sigma2_dbm=-20.0), mode="aircomp")
        assert evaluated == []
        first = trace.final_accuracy
        assert len(evaluated) == 1 and np.array_equal(evaluated[0], trace.final)
        assert trace.records[-1].accuracy == first
        assert len(evaluated) == 1 + 4
        assert trace.final_accuracy == first and len(evaluated) == 5

    def test_records_cost_one_loss_per_round(self, monkeypatch):
        # the loss on the training union only; the test set gives the accuracy
        calls = []
        real = airfl.fltrain._bce_loss

        def counted(scores, y):
            calls.append(len(y))
            return real(scores, y)

        monkeypatch.setattr(airfl.fltrain, "_bce_loss", counted)
        trace = train(small_cfg(), mode="aircomp")
        trace.records
        trace.records
        assert calls == [3 * 40] * 4

    def test_huge_threshold_skips_every_round(self):
        trace = train(small_cfg(k_devices=2, gamma_th=12.0), mode="aircomp")
        assert trace.skipped_rounds == len(trace.records) == 4
        assert all(r.active_count == 0 for r in trace.records)
        # logistic init is the zero vector and no update ever fires
        assert np.all(trace.final == 0.0)

    def test_genie_mode_runs(self):
        trace = train(small_cfg(g_bound="genie"), mode="aircomp")
        assert len(trace.records) == 4

    def test_genie_reports_the_largest_g_it_used(self):
        # genie power control sizes zeta from each round's largest gradient
        # norm; the trace reports the largest of those, not the calibrated bound
        cfg = small_cfg(g_bound="genie", train=replace(SMALL_TRAIN, rounds_m=12))
        draws = SeedDraws(cfg)
        (trace,) = train_cells(draws, [draws.cfg.gamma_th])
        w0 = draws.task.init_params(substream(cfg.seed, STREAM_INIT))
        used = [max(float(np.linalg.norm(g)) for g in round_gradients(w, draws, m))
                for m, w in enumerate([w0, *trace.weights[:-1]])]
        assert trace.g_bound == max(used)
        assert trace.g_bound != draws.calibrated_g_bound()

    def test_genie_calibrates_nothing(self, monkeypatch):
        # genie power control sets G every round, so no warm-up pass runs
        calls = []
        real = airfl.fltrain.calibrate_g_bound
        monkeypatch.setattr(airfl.fltrain, "calibrate_g_bound", lambda *a, **k: calls.append(a) or real(*a, **k))
        train(small_cfg(g_bound="genie"), mode="aircomp")
        assert calls == []

    def test_one_g_rule(self):
        # genie: the round's largest gradient norm; a number: that G;
        # calibrate: the calibrated bound
        draws = SeedDraws(small_cfg())
        grads = round_gradients(draws.task.init_params(substream(11, STREAM_INIT)), draws, 0)
        assert gradient_bound(SeedDraws(small_cfg(g_bound="genie")), grads, 0) == max_grad_norm(grads)
        assert gradient_bound(SeedDraws(small_cfg(g_bound=5.0)), grads, 0) == 5.0
        assert gradient_bound(draws, grads, 0) == draws.calibrated_g_bound() == warmup_bound(draws.cfg, 10)
        with pytest.raises(RuntimeError, match="no G in round 4"):
            gradient_bound(SeedDraws(small_cfg(g_bound="genie")), np.zeros_like(grads), 4)

    def test_fixed_mode_requires_bound(self):
        # a pinned G is the number itself; the word 'fixed' is no G rule
        with pytest.raises(ValueError, match="g_bound"):
            train(small_cfg(g_bound="fixed"), mode="aircomp")
        trace = train(small_cfg(g_bound=2.0), mode="aircomp")
        assert trace.g_bound == 2.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            train(small_cfg(), mode="perfect")

    @pytest.mark.parametrize("mode", ["aircomp", "ideal"])
    def test_a_resolved_config_trains_as_its_symbolic_one(self, mode):
        cfg = small_cfg(gamma_th="optimize")
        a = train(resolve(cfg), mode=mode)
        b = train(cfg, mode=mode)
        assert a.draws.cfg == b.draws.cfg == resolve(cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.records == b.records

    def test_calibration_is_margin_times_peak_warmup_norm(self):
        cfg = resolve(small_cfg())
        got = calibrate_g_bound(SeedDraws(cfg), rounds=3)
        assert got == warmup_bound(cfg, 3)

    def test_run_shorter_than_the_warmup_still_calibrates(self):
        # 4 rounds of training, 10 of warm-up: the draws cover both
        cfg = resolve(small_cfg())
        assert cfg.train.rounds_m < 10
        trace = train(cfg, mode="aircomp")
        assert trace.g_bound == warmup_bound(cfg, 10)

    def test_ideal_learns_the_synthetic_task(self):
        tc = replace(SMALL_TRAIN, rounds_m=150)
        trace = train(small_cfg(train=tc, eta=0.05), mode="ideal")
        assert trace.final_accuracy > 0.8

    def test_mlp_training_round_runs(self):
        tc = TrainConfig(
            task="small_mlp",
            batch_size=8,
            rounds_m=2,
            data_per_device=40,
            n_features=5,
            test_size=100,
            hidden_units=4,
        )
        trace = train(small_cfg(train=tc), mode="aircomp")
        assert len(trace.records) == 2
        assert trace.final.size == 4 * 5 + 4 + 4 + 1


class TestSeedDraws:
    def test_batches_are_drawn_once_and_gathered_fresh(self, monkeypatch):
        draws = SeedDraws(small_cfg())
        first = draws.batches(2)
        # a second read must not draw again, and a caller writing into its
        # arrays must not change what the next run sees
        monkeypatch.setattr(airfl.fltrain, "substream", None)
        first[0][0][0, 0] = 1e9
        assert draws.batches(2)[0][0][0, 0] != 1e9

    def test_draws_come_from_the_round_streams(self, monkeypatch):
        # round m reads one stream per purpose: the generator its receiver
        # noise is drawn from starts where substream(seed, STREAM_NOISE, m)
        # starts, and the K batches and K channels are read in device order
        # from substream(seed, STREAM_BATCH | STREAM_CHANNEL, m)
        noise_states = []
        real_noise = SeedDraws.noise

        def recording_noise(self, round_index):
            gen = real_noise(self, round_index)
            noise_states.append(gen.bit_generator.state)
            return gen

        monkeypatch.setattr(SeedDraws, "noise", recording_noise)
        draws = SeedDraws(small_cfg())
        cfg = draws.cfg
        train_cells(draws, [cfg.gamma_th])
        assert len(noise_states) == cfg.train.rounds_m
        for m in range(cfg.train.rounds_m):
            assert noise_states[m] == substream(cfg.seed, STREAM_NOISE, m).bit_generator.state
            xs, ys = draws.batches(m)
            assert xs.shape == (cfg.k_devices, cfg.train.batch_size, cfg.train.n_features)
            batch_gen = substream(cfg.seed, STREAM_BATCH, m)
            channel_gen = substream(cfg.seed, STREAM_CHANNEL, m)
            for k, (features, labels) in enumerate(zip(draws.features, draws.labels)):
                idx = batch_gen.choice(len(labels), size=cfg.train.batch_size, replace=False)
                assert np.array_equal(xs[k], features[idx]) and np.array_equal(ys[k], labels[idx])
                draw = draw_channel(estimation_model(cfg), cfg.distances[k], channel_gen)
                assert_channel_row(draws.channels(m), k, draw)

    @pytest.mark.parametrize("task", ["synthetic_logistic", "small_mlp"])
    def test_round_gradients_are_the_local_gradient_rows(self, task):
        tc = replace(SMALL_TRAIN, task=task, batch_size=32, data_per_device=64, n_features=10, hidden_units=16)
        draws = SeedDraws(small_cfg(train=tc, k_devices=5))
        gen = np.random.default_rng(3)
        for m in range(tc.rounds_m):
            w = gen.standard_normal(draws.task.dim)
            got = round_gradients(w, draws, m)
            rows = [local_gradient(draws.task, w, x, y) for x, y in zip(*draws.batches(m))]
            assert np.array_equal(got, np.array(rows))

    @pytest.mark.parametrize("task", ["synthetic_logistic", "small_mlp"])
    def test_cell_gradients_are_each_cells_rows(self, task):
        # weights of C cells in one call: entry [c] is what w[c] alone gives
        tc = replace(SMALL_TRAIN, task=task, batch_size=32, data_per_device=64, n_features=10, hidden_units=16)
        draws = SeedDraws(small_cfg(train=tc, k_devices=5))
        gen = np.random.default_rng(4)
        for m in range(tc.rounds_m):
            weights = gen.standard_normal((11, draws.task.dim))
            got = round_gradients(weights, draws, m)
            assert got.shape == (11, 5, draws.task.dim)
            for c, w in enumerate(weights):
                assert np.array_equal(got[c], round_gradients(w, draws, m))
                rows = [local_gradient(draws.task, w, x, y) for x, y in zip(*draws.batches(m))]
                assert np.array_equal(got[c], np.array(rows))

    @pytest.mark.parametrize("rho", [0.3, 0.8, 1.0])
    def test_channel_arrays_are_the_scalar_draws(self, rho):
        cfg = resolve(small_cfg(rho=rho, k_devices=6, train=replace(SMALL_TRAIN, rounds_m=12)))
        draws = SeedDraws(cfg)
        for m in range(12):
            got = draws.channels(m)
            gen = substream(cfg.seed, STREAM_CHANNEL, m)
            want = [draw_channel(estimation_model(cfg), cfg.distances[k], gen) for k in range(cfg.k_devices)]
            for name in ("h", "h_hat"):
                assert np.array_equal(getattr(got, name), [getattr(dr, name) for dr in want])
            assert np.array_equal(got.d_alpha, [d ** cfg.alpha for d in cfg.distances])
            if rho == 1.0:
                assert np.array_equal(got.h, got.h_hat)
            assert draws.channels(m) is got

    def test_any_round_reads_its_own_streams(self):
        # no round bound and no order: round m of a 4-round config, read
        # first, is the round's own streams, as in a longer run
        short, long = (SeedDraws(small_cfg(train=replace(SMALL_TRAIN, rounds_m=r))) for r in (4, 60))
        for m in (57, 3, 0):
            assert np.array_equal(short.batches(m)[0], long.batches(m)[0])
            assert np.array_equal(short.channels(m).h, long.channels(m).h)
            assert short.noise(m).bit_generator.state == substream(11, STREAM_NOISE, m).bit_generator.state

    def test_runs_differing_in_gamma_th_share_one_draw(self, monkeypatch):
        calls = {"calibrate": 0, "channel": 0}
        real_calibrate, real_channel = airfl.fltrain.calibrate_g_bound, airfl.fltrain.channel_from_normals

        def count(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(airfl.fltrain, "calibrate_g_bound", count("calibrate", real_calibrate))
        monkeypatch.setattr(airfl.fltrain, "channel_from_normals", count("channel", real_channel))
        draws = SeedDraws(small_cfg())
        for gamma in (0.1, 0.5, resolve(small_cfg(gamma_th="optimize")).gamma_th):
            train_cells(draws, [gamma])
        # one block of K channels per round, for all three runs
        assert calls == {"calibrate": 1, "channel": 4}

    @pytest.mark.parametrize("mode", ["aircomp", "ideal"])
    def test_cells_in_lock_step_equal_private_runs(self, mode):
        cfgs = [resolve(small_cfg(gamma_th=g, g_bound="genie")) for g in (0.1, 3.0, "optimize")]
        traces = train_cells(SeedDraws(cfgs[0]), [cfg.gamma_th for cfg in cfgs], mode)
        for cfg, trace in zip(cfgs, traces):
            private = train(cfg, mode=mode)
            assert np.array_equal(trace.weights, private.weights)
            assert trace.records == private.records
            assert (trace.gamma_th, trace.g_bound) == (private.gamma_th, private.g_bound)

    def test_train_cells_validates_the_group(self):
        draws = SeedDraws(small_cfg())
        with pytest.raises(ValueError, match="no thresholds"):
            train_cells(draws, [])
        with pytest.raises(ValueError, match="mode"):
            train_cells(draws, [0.5], "perfect")

    def test_ideal_run_on_shared_draws_equals_a_private_one(self):
        draws = SeedDraws(small_cfg())
        train_cells(draws, [3.0], "aircomp")
        (shared,) = train_cells(draws, [0.7], "ideal")
        private = train(small_cfg(), mode="ideal")
        assert np.array_equal(shared.final, private.final)
        assert shared.records == private.records


class TestPowerCheck:
    """_assert_power_feasible checks every active (cell, device) pair at once."""

    K, GAMMA, RHO, ALPHA, D_MAX, G = 3, 0.7, 0.8, 2.2, 120.0, 0.9

    def power(self):
        return PowerConfig(p_max=0.1, sigma2=1e-8, g_bound=self.G, d_max_alpha=self.D_MAX**self.ALPHA)

    def cell(self, gamma_th, power, k_devices):
        return _Cells(np.array([[gamma_th]]), np.array([[compensation_lambda(gamma_th, self.RHO)]]),
                      np.array([[scaling_zeta(k_devices, self.RHO, power, gamma_th)]]), power.g_bound)

    def worst_case(self, g_scale=1.0):
        # device 1 sits exactly at the design corner: |h_hat|^2 = gamma_th,
        # d = d_max, ||g|| = G; the others are close and strong.  Returned as
        # one cell: grads (1, K, d), the channel arrays, the (1, K) activity
        # and the cell's constants
        h_hat = np.array([2.0 + 0.5j, complex(math.sqrt(self.GAMMA)), -1.5 + 1.5j])
        channels = ChannelArrays(h_hat, h_hat, np.array([30.0, self.D_MAX, 50.0]) ** self.ALPHA)
        grads = np.zeros((self.K, 4))
        grads[:, 0] = 0.1
        grads[1, 0] = self.G * g_scale
        active = _gain(h_hat) >= self.GAMMA
        assert active.all()
        return grads[None], channels, active[None], self.cell(self.GAMMA, self.power(), self.K)

    def test_sent_power_is_the_physical_oracles_beta_squared(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            k_devices = int(gen.integers(1, 12))
            distances = gen.uniform(10.0, 200.0, k_devices)
            normals = gen.standard_normal((k_devices, 4))
            grads = gen.standard_normal((k_devices, 7)) * gen.uniform(0.1, 3.0)
            power = replace(self.power(), d_max_alpha=max(distances) ** self.ALPHA)
            channels = ChannelArrays(*channel_from_normals(normals, self.RHO), distances**self.ALPHA)
            _, beta, active = oracles.physical_round_ref(grads, normals, np.zeros((7, 2)), distances, self.ALPHA,
                                                         self.RHO, 0.3, power.p_max, self.G, power.sigma2)
            assert np.array_equal(active, _gain(channels.h_hat) >= 0.3)
            cell = self.cell(0.3, power, k_devices)
            sent, g_norm_sq = (a[0, active] for a in _sent_power(grads[None], channels, cell))
            want_norm_sq = np.einsum("kd,kd->k", grads[active], grads[active])
            assert g_norm_sq == pytest.approx(want_norm_sq, rel=1e-12)
            assert sent == pytest.approx(np.abs(beta[active]) ** 2 * want_norm_sq, rel=1e-12)

    def test_worst_case_device_fits_the_designed_zeta_only(self):
        grads, channels, active, cells = self.worst_case()
        (sent,), _ = _sent_power(grads, channels, cells)
        assert sent[1] == pytest.approx(self.power().p_max, rel=1e-12)
        _assert_power_feasible(grads, channels, active, cells, self.power().p_max)
        louder = cells._replace(zeta=cells.zeta * 1.001)
        with pytest.raises(AssertionError, match="device 1 exceeded the power budget"):
            _assert_power_feasible(grads, channels, active, louder, self.power().p_max)

    def test_device_above_the_norm_bound_is_not_checked(self):
        grads, channels, active, cells = self.worst_case(g_scale=2.0)
        (sent,), _ = _sent_power(grads, channels, cells)
        assert sent[1] > 3.9 * self.power().p_max
        _assert_power_feasible(grads, channels, active, cells, self.power().p_max)

    def test_message_names_the_device_and_the_cells_threshold(self):
        # two cells on one channel block: only the second one's zeta is too
        # loud, so the failure must point at that cell's gamma_th
        grads, channels, active, cells = self.worst_case()
        two = _Cells(np.array([[self.GAMMA], [0.5]]), np.repeat(cells.lam, 2, axis=0),
                     cells.zeta * np.array([[1.0], [1.001]]), self.G)
        with pytest.raises(AssertionError, match=r"^device 1 exceeded the power budget at gamma_th=0\.5: "):
            _assert_power_feasible(np.repeat(grads, 2, axis=0), channels, np.repeat(active, 2, axis=0),
                                   two, self.power().p_max)
        _assert_power_feasible(np.repeat(grads, 2, axis=0), channels, np.repeat(active, 2, axis=0),
                               two._replace(zeta=np.repeat(cells.zeta, 2, axis=0)), self.power().p_max)


def record_kernel(monkeypatch):
    """Wrap the training loop's aggregate_batch; each call appends
    (grads, noise, xi, active, sent, g_hat), copied."""
    calls = []
    real = airfl.fltrain.aggregate_batch

    def recording(grads, h, h_hat, gamma_th, lam, noise=None):
        out = real(grads, h, h_hat, gamma_th, lam, noise)
        calls.append((grads.copy(), None if noise is None else noise.copy(), *(a.copy() for a in out)))
        return out

    monkeypatch.setattr(airfl.fltrain, "aggregate_batch", recording)
    return calls


MLP_TRAIN = replace(SMALL_TRAIN, task="small_mlp", hidden_units=4)


class TestKernelAgainstOracle:
    """Every cell of every round of train_cells against oracles.air_round_ref,
    fed from the streams themselves: bit for bit."""

    GRID = (0.05, 0.5, 3.0, "optimize")

    @pytest.mark.parametrize("case", ["calibrated", "genie", "fixed", "small_mlp", "all_skipped"])
    def test_every_cell_and_round_matches(self, monkeypatch, case):
        rounds = replace(SMALL_TRAIN, rounds_m=12)
        kw, grid = {"train": rounds}, self.GRID
        if case == "genie":
            kw["g_bound"] = "genie"
        elif case == "fixed":
            kw["g_bound"] = 2.0
        elif case == "small_mlp":
            kw["train"] = replace(MLP_TRAIN, rounds_m=12)
        elif case == "all_skipped":
            kw["k_devices"], grid = 2, (3.0, 4.0)
        cells = [resolve(small_cfg(gamma_th=g, **kw)) for g in grid]
        calls = record_kernel(monkeypatch)
        traces = train_cells(SeedDraws(cells[0]), [cell.gamma_th for cell in cells])
        cfg = cells[0]
        assert len(calls) == cfg.train.rounds_m
        w0 = build_task(cfg.train).init_params(substream(cfg.seed, STREAM_INIT))
        for m, (grads, noise, xi, active, sent, g_hat) in enumerate(calls):
            normals = substream(cfg.seed, STREAM_CHANNEL, m).standard_normal((cfg.k_devices, 4))
            noise_normals = substream(cfg.seed, STREAM_NOISE, m).standard_normal(grads.shape[2])
            for c, cell in enumerate(cells):
                g_bound = traces[c].g_bound
                if case == "genie":
                    g_bound = max(float(np.linalg.norm(g)) for g in grads[c])
                power = power_config(cell, g_bound)
                ref = oracles.air_round_ref(grads[c], normals, noise_normals, cell.rho, cell.gamma_th,
                                            power.p_max, g_bound, power.d_max_alpha, power.sigma2)
                ref_g_hat, ref_xi, ref_active, ref_noise = ref
                assert np.array_equal(g_hat[c], ref_g_hat)
                assert np.array_equal(xi[c], ref_xi)
                assert np.array_equal(active[c], ref_active)
                assert sent[c] == ref_active.any()
                if sent[c]:
                    assert np.array_equal(noise[c], ref_noise)
                assert traces[c].active_count[m] == ref_active.sum()
                assert traces[c].skipped[m] == (not ref_active.any())
                # the update and the divergence, from the oracle's g_hat
                w_prev = traces[c].weights[m - 1] if m else w0
                w_ref = w_prev - cell.eta * ref_g_hat if ref_active.any() else w_prev
                assert np.array_equal(traces[c].weights[m], w_ref)
                g_ideal = np.zeros(grads.shape[2])
                for g in grads[c]:
                    g_ideal += g
                diff = ref_g_hat - g_ideal / cfg.k_devices
                assert traces[c].divergence_sq[m] == float(diff @ diff)
        if case == "all_skipped":
            assert any(not s.any() for *_, s, _ in calls)
