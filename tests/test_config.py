"""Config dataclasses, key=value files, and symbolic-field resolution."""

import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from airfl.config import (
    _RULES,
    _SCHEMAS,
    STREAM_DISTANCES,
    RunConfig,
    SweepConfig,
    SystemConfig,
    TrainConfig,
    VerifyDivergenceConfig,
    VerifyPdfConfig,
    VerifyXiConfig,
    bin_centers,
    config_from_kv,
    config_to_kv,
    load_config,
    objective_coefficients,
    parse_kv_text,
    power_config,
    resolve,
)
from airfl.aircomp import dbm_to_watts
from airfl.harness import cdf_pdf_consistency


def kv_text(pairs):
    return "\n".join(f"{k} = {v}" for k, v in pairs)


class TestTrainConfigValidation:
    def test_defaults_are_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"task": "logistic"},
            {"blob_separation": math.nan},
            {"label_skew": math.nan},
            {"batch_size": 0},
            {"rounds_m": 0},
            {"data_per_device": 8, "batch_size": 32},
            {"n_features": 0},
            {"test_size": 3},
            {"test_size": 0},
            {"blob_separation": 0.0},
            {"blob_separation": 1e300},  # its square overflows a double
            {"label_skew": 1.0},
            {"label_skew": -0.1},
            {"hidden_units": 0},
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestSystemConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SystemConfig()
        assert cfg.k_devices == 10
        assert cfg.distances == "uniform(0,500]"

    @pytest.mark.parametrize(
        "kw",
        [
            {"k_devices": 0},
            {"rho": 0.0},
            {"rho": 1.01},
            {"gamma_th": "auto"},
            {"gamma_th": 0.0},
            {"gamma_th": math.inf},
            {"alpha": 0.0},
            {"p_max": 0.0},
            {"sigma2_dbm": math.inf},
            {"eta": 0.0},
            {"distances": "normal(0,500]"},
            {"distances": (100.0, 200.0)},
            {"k_devices": 2, "distances": (100.0, -5.0)},
            {"g_bound": 0.0},
            {"g_bound": "adaptive"},
            {"trials": 0},
            {"gamma_th": 800.0},  # e^(2 gamma_th) overflows a double
            {"sigma2_dbm": 4000.0},  # the noise power in watts overflows
            {"alpha": 400.0},  # d_max**alpha overflows
            {"rho": 1e-200},  # 1/rho^2 overflows
            {"distances": "uniform(0,1e-3]", "alpha": 400.0},  # d_max**alpha underflows
            {"distances": "uniform(5,5]"},  # empty range
            {"sigma2_dbm": 3100.0},  # sigma2 * d_max**alpha / (2 p_max rho^2) overflows
            {"g_bound": "fixed"},  # a pinned G is the number itself
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            SystemConfig(**kw)

    @pytest.mark.parametrize(
        "section, kw, key",
        [
            (SweepConfig, {"gammas": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)}, "sweep.gammas"),
            (SweepConfig, {"gammas": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, -0.1)}, "sweep.gammas"),
            (SweepConfig, {"seeds": 2}, "sweep.seeds"),
            (SweepConfig, {"modes": ("greedy",)}, "sweep.modes"),
            (SweepConfig, {"modes": ()}, "sweep.modes"),  # None, not (), means every mode that applies
            (VerifyDivergenceConfig, {"scan_trials": 10}, "verify_divergence.scan_trials"),
            (VerifyDivergenceConfig, {"scan_ks": (5,)}, "verify_divergence.scan_ks"),
            (VerifyXiConfig, {"rhos": ()}, "verify_xi.rhos"),  # an empty grid checks nothing
            (VerifyXiConfig, {"gammas": ()}, "verify_xi.gammas"),
            # the histogram's scale bins / (hi - lo), or the width itself, leaves the doubles
            (VerifyPdfConfig, {"t_range": (0.0, 1e-320)}, "verify_pdf.t_range"),
            (VerifyPdfConfig, {"gamma_range": (-1e-320, 0.0)}, "verify_pdf.gamma_range"),
            (VerifyPdfConfig, {"t_range": (0.0, 1e-306), "bins": 1000}, "verify_pdf.t_range"),
            (VerifyPdfConfig, {"t_range": (-1e308, 1e308)}, "verify_pdf.t_range"),
            # the CDF/density stencil steps 1e-4 past the last gamma bin centre
            (VerifyPdfConfig, {"gamma_range": (-1e-3, 0.0)}, "verify_pdf.gamma_range"),
            (VerifyPdfConfig, {"gamma_range": (-1e-300, 0.0)}, "verify_pdf.gamma_range"),
            # a grid entry given twice runs, prints or writes its cell twice
            (VerifyXiConfig, {"rhos": (0.5, 0.5)}, "verify_xi.rhos"),
            (VerifyXiConfig, {"gammas": (0.5, 1.0, 0.5)}, "verify_xi.gammas"),
            (VerifyDivergenceConfig, {"scan_ks": (5, 5, 10)}, "verify_divergence.scan_ks"),
            (SweepConfig, {"gammas": (0.5,) * 8}, "sweep.gammas"),
            (SweepConfig, {"modes": ("fixed", "joint", "fixed")}, "sweep.modes"),
        ],
        ids=["seven_point_grid", "negative_threshold", "two_seeds", "unknown_mode", "no_modes",
             "ten_scan_trials", "one_fleet_size", "no_xi_rhos", "no_xi_gammas",
             "subnormal_t_width", "subnormal_gamma_width", "bins_past_the_scale", "infinite_t_width",
             "stencil_past_zero", "tiny_window_at_zero", "repeated_xi_rho", "repeated_xi_gamma",
             "repeated_fleet_size", "one_threshold_eight_times", "repeated_mode"],
    )
    def test_rejects_command_settings(self, section, kw, key):
        # the commands read these settings from their sections, whose rules
        # are the only range checks they get
        name = key.split(".")[0]
        with pytest.raises(ValueError, match=re.escape(f"config key {key!r}")):
            SystemConfig(**{name: section(**kw)})

    @pytest.mark.parametrize("seed", [-1, -3, 1 << 64, (1 << 65) - 1])
    def test_rejects_a_seed_that_aliases_another(self, seed):
        # substream keeps a seed's low 64 bits: -1 and 2^65 - 1 would draw
        # as 2^64 - 1 does, and 2^64 as 0
        with pytest.raises(ValueError, match=re.escape("config key 'seed'")):
            SystemConfig(seed=seed)

    @pytest.mark.parametrize(
        "seed, seeds, accepted",
        [((1 << 64) - 3, 3, True), ((1 << 64) - 2, 3, False), ((1 << 64) - 1, 3, False),
         ((1 << 64) - 4, 4, True), ((1 << 64) - 4, 5, False)],
    )
    def test_sweep_seeds_stay_below_two_to_the_64(self, seed, seeds, accepted):
        # a sweep runs seeds seed, ..., seed + sweep.seeds - 1
        if accepted:
            SystemConfig(seed=seed, sweep=SweepConfig(seeds=seeds))
        else:
            with pytest.raises(ValueError, match=re.escape("config keys 'seed' and 'sweep.seeds'")):
                SystemConfig(seed=seed, sweep=SweepConfig(seeds=seeds))

    def test_every_key_has_a_rule(self):
        # a key without a _RULES entry is checked only against other keys, in
        # a __post_init__ (distances, data_per_device), or is a bool
        # (verify_divergence.k_scan); every other key needs a rule
        keys = {f"{section}.{name}" if section else name for section, schema in _SCHEMAS.items() for name in schema}
        assert set(_RULES) <= keys
        assert keys - set(_RULES) == {"distances", "train.data_per_device", "verify_divergence.k_scan"}

    @pytest.mark.parametrize("modes", [("computation_oriented", "fixed"), ("computation_oriented",)])
    def test_sweep_modes_need_a_threshold_at_rho(self, modes):
        # under perfect CSI the computation term is monotone: no threshold
        with pytest.raises(ValueError, match=re.escape("config key 'sweep.modes'")):
            SystemConfig(rho=1.0, sweep=SweepConfig(modes=modes))
        SystemConfig(rho=0.99, sweep=SweepConfig(modes=modes))
        SystemConfig(rho=1.0, sweep=SweepConfig(modes=("joint", "communication_oriented", "fixed")))

    @pytest.mark.parametrize(
        "gamma_range, accepted",
        [((-4.0, -0.1), True), ((-2.0, -1e-4), True), ((-0.0082, 0.0), True), ((-0.0078, 0.0), False),
         ((-1e-3, 0.0), False), ((-1e-300, 0.0), False)],
    )
    def test_gamma_window_rule_is_the_stencils(self, gamma_range, accepted):
        # the config refuses a window exactly where the CLI's CDF/density
        # check, at the same bin centres, would refuse its last one
        centres = bin_centers(*gamma_range, 40)
        if accepted:
            VerifyPdfConfig(gamma_range=gamma_range)
            cdf_pdf_consistency([0.0], centres)
        else:
            with pytest.raises(ValueError, match=re.escape("config key 'verify_pdf.gamma_range'")):
                VerifyPdfConfig(gamma_range=gamma_range)
            with pytest.raises(ValueError, match="too close to 0"):
                cdf_pdf_consistency([0.0], centres)

    def test_no_train_field_shadows_a_system_field(self):
        shared = {f.name for f in fields(TrainConfig)} & {f.name for f in fields(SystemConfig)}
        assert not shared

    def test_symbolic_and_explicit_forms_accepted(self):
        SystemConfig(verify_pdf=VerifyPdfConfig(t_range=(0.0, 1e-306), bins=40))
        SystemConfig(gamma_th="optimize")
        SystemConfig(k_devices=2, distances=(10.0, 500.0))
        SystemConfig(g_bound=1.5)
        SystemConfig(g_bound="genie")
        SystemConfig(gamma_th=354.0)


class TestResolve:
    def test_distances_drawn_in_half_open_range(self):
        cfg = resolve(SystemConfig(k_devices=200))
        assert len(cfg.distances) == 200
        assert all(0.0 < d <= 500.0 for d in cfg.distances)

    def test_distance_draw_is_seed_deterministic(self):
        a = resolve(SystemConfig(seed=7)).distances
        b = resolve(SystemConfig(seed=7)).distances
        c = resolve(SystemConfig(seed=8)).distances
        assert a == b
        assert a != c

    def test_geometry_independent_of_trial_count(self):
        a = resolve(SystemConfig(seed=7, trials=100))
        b = resolve(SystemConfig(seed=7, trials=100000))
        assert a.distances == b.distances

    def test_explicit_distances_pass_through(self):
        cfg = resolve(SystemConfig(k_devices=3, distances=(10.0, 250.0, 499.0)))
        assert cfg.distances == (10.0, 250.0, 499.0)
        assert power_config(cfg, 1.0).d_max_alpha == 499.0 ** 2.2

    def test_noise_power_in_watts(self):
        cfg = resolve(SystemConfig(sigma2_dbm=-40.0))
        assert abs(power_config(cfg, 1.0).sigma2 - 1e-7) < 1e-22

    def test_fixed_policy(self):
        cfg = resolve(SystemConfig(gamma_th=0.7))
        assert cfg.gamma_th == 0.7

    def test_optimize_policy_matches_solver(self):
        from airfl.optimizer import coefficients_from_system, optimal_threshold

        cfg = resolve(SystemConfig(gamma_th="optimize"))
        probe = power_config(cfg, 1.0)
        want = optimal_threshold(coefficients_from_system(cfg.rho, probe)).gamma_star
        assert cfg.gamma_th == want
        assert cfg.gamma_th > 0.0

    @pytest.mark.parametrize(
        "kw",
        [{"gamma_th": "optimize", "k_devices": 4}, {"gamma_th": 1, "k_devices": 2, "distances": (10, 500)}, {}],
        ids=["symbolic", "int_valued", "defaults"],
    )
    def test_resolved_config_is_concrete_and_resolves_to_itself(self, kw):
        cfg = resolve(SystemConfig(**kw))
        assert type(cfg) is SystemConfig
        assert type(cfg.gamma_th) is float
        assert type(cfg.distances) is tuple and all(type(d) is float for d in cfg.distances)
        assert resolve(cfg) == cfg

    def test_objective_coefficients_are_the_systems_at_any_g(self):
        from airfl.optimizer import coefficients_from_system

        cfg = resolve(SystemConfig(seed=5, rho=0.6))
        assert objective_coefficients(cfg) == coefficients_from_system(cfg.rho, power_config(cfg, 3.0))
        assert objective_coefficients(cfg).k1 == (1.0 - 0.36) / (2.0 * 0.36)

    def test_power_config(self):
        cfg = resolve(SystemConfig(k_devices=4, rho=0.9, seed=99, p_max=0.2, sigma2_dbm=-50.0))
        power = power_config(cfg, 2.0)
        assert power.g_bound == 2.0
        assert power.p_max == 0.2
        assert power.sigma2 == dbm_to_watts(-50.0)
        assert power.d_max_alpha == max(cfg.distances) ** 2.2

    def test_resolved_is_frozen(self):
        cfg = resolve(SystemConfig())
        with pytest.raises(AttributeError):
            cfg.gamma_th = 1.0


class TestKvParsing:
    def test_basic_lines(self):
        text = "a = 1\n\n# comment\nb=two  # trailing\n  c.d = 3,4 \n"
        assert parse_kv_text(text) == {"a": "1", "b": "two", "c.d": "3,4"}

    def test_value_may_contain_equals(self):
        assert parse_kv_text("k = a=b") == {"k": "a=b"}

    def test_rejects_missing_equals(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_kv_text("a = 1\nbare-line\n")

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError, match="empty key"):
            parse_kv_text("= 5")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_kv_text("a = 1\na = 2")


class TestConfigFromKv:
    def test_typed_fields(self):
        cfg = config_from_kv(
            {
                "k_devices": "4",
                "rho": "0.95",
                "gamma_th": "optimize",
                "distances": "10.0,20.0,30.0,40.0",
                "g_bound": "genie",
                "train.rounds_m": "50",
                "train.task": "small_mlp",
                "verify_xi.rhos": "1.0",
                "verify_divergence.k_scan": "0",
                "sweep.modes": "joint, fixed",
            }
        )
        assert cfg.k_devices == 4
        assert cfg.rho == 0.95
        assert cfg.gamma_th == "optimize"
        assert cfg.distances == (10.0, 20.0, 30.0, 40.0)
        assert cfg.g_bound == "genie"
        assert cfg.train.rounds_m == 50
        assert cfg.train.task == "small_mlp"
        assert cfg.verify_xi == VerifyXiConfig(rhos=(1.0,))
        assert cfg.verify_divergence.k_scan is False
        assert cfg.sweep.modes == ("joint", "fixed")

    def test_numeric_gamma_and_g_bound(self):
        cfg = config_from_kv({"gamma_th": "0.25", "g_bound": "1.5"})
        assert cfg.gamma_th == 0.25
        assert cfg.g_bound == 1.5

    def test_rejects_unknown_bare_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_kv({"kdevices": "4"})

    def test_rejects_unknown_train_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_kv({"train.momentum": "0.9"})

    @pytest.mark.parametrize("key", ["train.eta", "train.seed"])
    def test_rejects_shadowed_train_keys(self, key):
        with pytest.raises(ValueError, match="top-level"):
            config_from_kv({key: "1"})

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="expected a number"):
            config_from_kv({"rho": "high"})
        with pytest.raises(ValueError, match="expected an integer"):
            config_from_kv({"k_devices": "ten"})


class TestRoundTrip:
    def test_default_config_round_trips(self):
        cfg = SystemConfig()
        text = kv_text(config_to_kv(cfg))
        assert config_from_kv(parse_kv_text(text)) == cfg

    def test_resolved_config_round_trips_bit_exactly(self):
        cfg = resolve(SystemConfig(gamma_th="optimize", seed=11))
        pinned = replace(cfg, g_bound=0.9294011408364471)  # the calibrated G at the defaults
        text = kv_text(config_to_kv(pinned, "run"))
        assert "run.mode = aircomp" in text
        back = config_from_kv(parse_kv_text(text))
        assert back == pinned
        assert back.distances == cfg.distances
        assert back.gamma_th == cfg.gamma_th

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_every_field_round_trips_at_a_non_default_value(self, symbolic):
        train = TrainConfig(task="small_mlp", batch_size=8, rounds_m=7, data_per_device=40, n_features=3,
                            test_size=20, blob_separation=1.5, label_skew=0.25, hidden_units=5)
        sections = {
            "verify_xi": VerifyXiConfig(rhos=(0.3, 1 / 3), gammas=(2.5,)),
            "verify_pdf": VerifyPdfConfig(t_range=(-2.0, 1.5), gamma_range=(-3.0, -0.2), bins=8, tail_gamma=0.1),
            "verify_divergence": VerifyDivergenceConfig(k_scan=False, scan_trials=1000, scan_ks=(2, 3)),
            "sweep": SweepConfig(gammas=(0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.9, 1 / 3), modes=("fixed", "joint"), seeds=4),
            "run": RunConfig(mode="ideal"),
        }
        cfg = SystemConfig(k_devices=3, rho=0.9, gamma_th=0.7, alpha=3.1, p_max=0.2, sigma2_dbm=-50.5,
                           eta=0.01, distances=(10.0, 20.5, 1 / 3), g_bound=1.5, seed=5,
                           trials=1234, train=train, **sections)
        if symbolic:
            cfg = replace(cfg, gamma_th="optimize", distances="uniform(5,100]", g_bound="genie")
        defaults = SystemConfig()
        nested = [f.name for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))]
        for obj, default in [(cfg, defaults)] + [(getattr(cfg, n), getattr(defaults, n)) for n in nested]:
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(default, f.name), f.name
        # the bare and train.* keys, plus one command section per pass
        for section in sections:
            back = config_from_kv(parse_kv_text(kv_text(config_to_kv(cfg, section))))
            assert back == replace(defaults, **{f.name: getattr(cfg, f.name) for f in fields(cfg)
                                                if f.name not in sections or f.name == section})

    def test_trials_omitted_when_unset(self):
        keys = [k for k, _ in config_to_kv(SystemConfig())]
        assert "trials" not in keys
        keys = [k for k, _ in config_to_kv(SystemConfig(trials=500))]
        assert "trials" in keys

    def test_g_bound_serializes_as_calibrate(self):
        pairs = dict(config_to_kv(SystemConfig()))
        assert pairs["g_bound"] == "calibrate"

    @pytest.mark.parametrize("g_bound, text", [("genie", "genie"), ("calibrate", "calibrate"), (1.5, "1.5")])
    def test_every_g_rule_round_trips(self, g_bound, text):
        cfg = SystemConfig(g_bound=g_bound)
        pairs = config_to_kv(cfg)
        assert dict(pairs)["g_bound"] == text
        assert config_from_kv(dict(pairs)) == cfg

    def test_train_eta_and_seed_not_serialized(self):
        keys = [k for k, _ in config_to_kv(SystemConfig())]
        assert "train.eta" not in keys
        assert "train.seed" not in keys
        assert "train.task" in keys

    def test_extras_sorted_last(self):
        # only the named command's section is written: last, sorted by key
        pairs = config_to_kv(SystemConfig(), "verify_pdf")
        tail = [k for k, _ in pairs[-4:]]
        assert tail == ["verify_pdf.bins", "verify_pdf.gamma_range", "verify_pdf.t_range", "verify_pdf.tail_gamma"]
        assert [k for k, _ in pairs if "verify" in k] == tail
        assert not any(k.startswith("verify_") for k, _ in config_to_kv(SystemConfig()))

    def test_section_values_are_written_canonically(self):
        cfg = config_from_kv({"verify_xi.rhos": "1", "verify_divergence.k_scan": "0"})
        assert dict(config_to_kv(cfg, "verify_xi"))["verify_xi.rhos"] == "1.0"
        assert dict(config_to_kv(cfg, "verify_divergence"))["verify_divergence.k_scan"] == "0"
        # unset modes (every mode that applies) are left out
        assert not any(k.startswith("sweep.modes") for k, _ in config_to_kv(cfg, "sweep"))

    @pytest.mark.parametrize(
        "key, value",
        [("sweep.gammas", "0.1,,0.2"), ("verify_divergence.scan_ks", "5,10.5"),
         ("verify_divergence.k_scan", "true"), ("run", "ideal"), ("verify_xi.rhos.x", "1")],
    )
    def test_rejects_bad_section_keys(self, key, value):
        # more cases of tests/test_cli.py::TestParsing::test_bad_section_key_is_a_config_error
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            config_from_kv({key: value})


class TestLoadAndReplay:
    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(kv_text(config_to_kv(SystemConfig(k_devices=3, seed=5))))
        assert load_config(str(path)) == SystemConfig(k_devices=3, seed=5)

    def test_readme_config_block_is_the_default(self):
        # the documented defaults are the schema's: the README's config block
        # (every bare, train.* and command key) loads as SystemConfig()
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = text.split("### Configuration", 1)[1].split("```\n", 2)[1]
        kv = parse_kv_text(block)
        assert config_from_kv(kv) == SystemConfig()
        sections = {f.name for f in fields(SystemConfig) if is_dataclass(getattr(SystemConfig(), f.name))}
        assert {k.split(".")[0] for k in kv if "." in k} == sections

    def test_replay_reproduces_the_resolution(self):
        cfg = resolve(SystemConfig(gamma_th="optimize", seed=42))
        again = resolve(resolve(SystemConfig(gamma_th="optimize", seed=42)))
        assert again.distances == cfg.distances
        assert again.gamma_th == cfg.gamma_th
        assert again == cfg

    def test_stream_constants_are_distinct(self):
        import airfl.config as cfg_mod

        # the stream purposes; STREAM_LAYOUT is the layout's version, not a purpose
        ids = [
            getattr(cfg_mod, name)
            for name in dir(cfg_mod)
            if name.startswith("STREAM_") and name != "STREAM_LAYOUT"
        ]
        assert len(ids) == 10
        assert len(set(ids)) == 10
        assert STREAM_DISTANCES in ids
