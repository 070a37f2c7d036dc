"""Configuration parsing, defaults, validation, and round-trip tests."""

import configparser
import math
from dataclasses import fields

import numpy as np
import pytest

from fedwireless import cli
from fedwireless.config import (
    _ALIASES,
    _KEYS,
    ConfigError,
    ExperimentConfig,
    load_config,
    loads_config,
    serialize_config,
)
from fedwireless.harness import place_users
from fedwireless.phy import NOISE_DENSITY_W_PER_HZ, FadingExpectation, NetworkParams

from util import REFERENCE


# Every key, each set to a value other than its default.
ALL_KEYS = """
[network]
rb_count = 5
rb_bandwidth_hz = 2e6
downlink_bandwidth_hz = 10e6
noise_density_w_per_hz = 1e-20
bs_power_w = 2.0
max_user_power_w = 0.02
waterfall_threshold = 0.05
uplink_interference_w = 1e-9 2e-9 3e-9 4e-9 5e-9
downlink_interference_w = 1e-12
delay_budget_s = 0.25
energy_budget_j = 0.004
pathloss_exponent = 3.0

[users]
count = 9
cell_radius_m = 300.0
sample_count_cycle = 5 3
fading_scale = 2.0
payload_bits = 6e4
cpu_cycles_per_bit = 20.0
cpu_freq_hz = 2e9
energy_coeff = 2e-27

[task]
slope = 1.5
intercept = -0.5
noise_std = 0.1

[training]
learning_rate = 0.125
rounds = 42
initial_model = 0.5 -0.25

[experiment]
algorithms = proposed baseline_b
seeds = 11 12 13

[fading]
method = monte_carlo
count = 32
seed = 5
"""


def _value(config, owner, name):
    return getattr(config if owner is None else getattr(config, owner), name)


class TestDefaults:
    def test_empty_file_gives_standard_parameters(self):
        config = loads_config("")
        net = config.network
        assert net.rb_count == 12
        assert net.rb_bandwidth_hz == 1e6
        assert net.downlink_bandwidth_hz == 20e6
        assert net.max_user_power_w == 0.01
        assert net.bs_power_w == 1.0
        assert net.waterfall_threshold == 0.023
        assert net.noise_density_w_per_hz == NOISE_DENSITY_W_PER_HZ
        assert net.delay_budget_s == 0.5
        assert net.energy_budget_j == 0.003
        assert net.pathloss_exponent == 2.0
        assert net.uplink_interference_w == (0.0,) * 12
        assert config.user_count == 15
        assert config.cell_radius_m == 500.0
        assert config.sample_count_cycle == (12, 10, 8, 4, 2)
        assert config.payload_bits == 5e4
        assert config.learning_rate == "one_over_L"
        assert config.fading.method == "quadrature"
        assert config.fading.node_or_sample_count == 64

    def test_sample_counts_cycle(self):
        config = loads_config("")
        counts = config.sample_counts()
        assert len(counts) == 15
        assert sum(counts) == 108


class TestValidation:
    def test_negative_bandwidth_names_the_key(self):
        with pytest.raises(ConfigError, match="rb_bandwidth_hz"):
            loads_config("[network]\nrb_bandwidth_hz = -5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key network.bandwidth"):
            loads_config("[network]\nbandwidth = 5\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[channel\]"):
            loads_config("[channel]\nx = 1\n")

    def test_non_numeric_value_names_the_key(self):
        with pytest.raises(ConfigError, match="network.bs_power_w"):
            loads_config("[network]\nbs_power_w = loud\n")

    def test_bad_algorithm_named(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            loads_config("[experiment]\nalgorithms = proposed baseline_z\n")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            loads_config("[experiment]\nseeds =\n")

    def test_empty_algorithms_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="experiment.algorithms"):
            loads_config("[experiment]\nalgorithms =\n")
        path = tmp_path / "empty.cfg"
        path.write_text("[experiment]\nalgorithms =\n")
        code = cli.main(["simulate", str(path), "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "experiment.algorithms" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_noise_keys_mutually_exclusive(self):
        text = "[network]\nnoise_density_w_per_hz = 1e-20\nnoise_density_dbm_per_hz = -174\n"
        with pytest.raises(ConfigError, match="mutually exclusive"):
            loads_config(text)

    def test_bad_learning_rate(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            loads_config("[training]\nlearning_rate = fast\n")

    @pytest.mark.parametrize("section, key", [
        ("network", "rb_count"),
        ("users", "count"),
        ("training", "rounds"),
        ("fading", "count"),
        ("fading", "seed"),
    ])
    @pytest.mark.parametrize("raw", ["12.7", "0.5", "nan", "inf"])
    def test_integer_key_rejects_non_integral_value(self, section, key, raw):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: not an integer: '{raw}'"):
            loads_config(f"[{section}]\n{key} = {raw}\n")

    def test_integral_float_text_still_reads_as_integer(self):
        config = loads_config("[network]\nrb_count = 6.0\n[users]\ncount = 1e1\n")
        assert config.network.rb_count == 6 and isinstance(config.network.rb_count, int)
        assert config.user_count == 10

    @pytest.mark.parametrize("section, key, raw, message", [
        ("users", "cell_radius_m", "nan", "users.cell_radius_m must be positive"),
        ("users", "fading_scale", "0", "users: fading_scale must be strictly positive"),
        ("users", "payload_bits", "-1", "users: payload_bits must be >= 0"),
        ("users", "payload_bits", "nan", "users: payload_bits must be >= 0"),
        ("network", "downlink_interference_w", "nan",
         "network: downlink_interference_w must be >= 0"),
        ("network", "uplink_interference_w", "nan",
         "network: uplink_interference_w entries must be >= 0"),
        ("network", "uplink_interference_w", "1e-9 " * 11 + "nan",
         "network: uplink_interference_w entries must be >= 0"),
        ("network", "downlink_interference_w", "inf",
         "network: downlink_interference_w must be >= 0 and finite, got inf"),
        ("network", "uplink_interference_w", "inf",
         "network: uplink_interference_w must have a finite entry"),
        ("network", "uplink_interference_w", "inf " * 12,
         "network: uplink_interference_w must have a finite entry"),
        ("users", "payload_bits_per_param", "-1", "users: payload_bits must be >= 0"),
        ("users", "cpu_cycles_per_bit", "nan", "users: cpu_cycles_per_bit must be strictly"),
        ("users", "cpu_freq_hz", "-1", "users: cpu_freq_hz must be strictly positive"),
        ("users", "energy_coeff", "0", "users: energy_coeff must be strictly positive"),
        ("task", "slope", "nan", "task.slope must be finite"),
        ("task", "intercept", "inf", "task.intercept must be finite"),
        ("task", "noise_std", "nan", "task.noise_std must be finite and >= 0"),
        ("task", "noise_std", "inf", "task.noise_std must be finite and >= 0"),
        ("experiment", "seeds", "3 -1", "experiment.seeds must be >= 0"),
        ("experiment", "seeds", "7 8 7", "experiment.seeds lists 7 more than once"),
        ("experiment", "algorithms", "proposed baseline_a proposed",
         "experiment.algorithms lists 'proposed' more than once"),
        ("training", "initial_model", "nan 0",
         "training.initial_model entries must be finite, got nan 0.0"),
        ("training", "initial_model", "0 inf",
         "training.initial_model entries must be finite, got 0.0 inf"),
    ])
    def test_bad_value_fails_at_load(self, section, key, raw, message):
        with pytest.raises(ConfigError, match=message):
            loads_config(f"[{section}]\n{key} = {raw}\n")

    @pytest.mark.parametrize("section, key", [
        ("network", "rb_bandwidth_hz"),
        ("network", "downlink_bandwidth_hz"),
        ("network", "noise_density_w_per_hz"),
        ("network", "bs_power_w"),
        ("network", "max_user_power_w"),
        ("network", "waterfall_threshold"),
        ("network", "pathloss_exponent"),
        ("users", "cell_radius_m"),
        ("users", "fading_scale"),
        ("users", "payload_bits"),
        ("users", "cpu_cycles_per_bit"),
        ("users", "cpu_freq_hz"),
        ("users", "energy_coeff"),
    ])
    def test_infinite_constant_names_its_key(self, section, key):
        with pytest.raises(ConfigError, match=rf"\b{key} must be .*finite, got inf"):
            loads_config(f"[{section}]\n{key} = inf\n")

    def test_infinite_budgets_mean_no_budget(self, tmp_path):
        path = tmp_path / "unbudgeted.cfg"
        path.write_text(
            "[network]\ndelay_budget_s = inf\nenergy_budget_j = inf\n"
            "[users]\ncount = 4\n[training]\nrounds = 3\n[experiment]\nseeds = 1\n"
        )
        network = load_config(path).network
        assert network.delay_budget_s == network.energy_budget_j == math.inf
        assert cli.main(["simulate", str(path), "--outdir", str(tmp_path / "out")]) == 0

    def test_negative_fading_seed_rejected_with_monte_carlo(self):
        with pytest.raises(ConfigError, match="fading: seed must be >= 0 with method"):
            loads_config("[fading]\nmethod = monte_carlo\nseed = -1\n")

    def test_negative_fading_seed_runs_with_quadrature(self, tmp_path):
        path = tmp_path / "quadrature.cfg"
        path.write_text(
            "[users]\ncount = 4\n[training]\nrounds = 3\n"
            "[experiment]\nseeds = 1\n[fading]\nmethod = quadrature\nseed = -1\n"
        )
        assert load_config(path).fading.seed == -1
        assert cli.main(["simulate", str(path), "--outdir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "runs.csv").is_file()

    # Every text is a string, so fading.method is checked by FadingExpectation.
    @pytest.mark.parametrize("section, key", [
        (section, key) for section, key, *_ in _KEYS if key != "method"
    ])
    def test_unparsable_value_names_its_key(self, section, key):
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            loads_config(f"[{section}]\n{key} = 1 x\n")

    def test_interpolation_error_names_the_key(self):
        with pytest.raises(ConfigError, match="users.count: '%' must be followed"):
            loads_config("[users]\ncount = 5%\n")

    def test_simulate_exits_with_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[users]\ncpu_freq_hz = -1\n")
        code = cli.main(["simulate", str(path), "--outdir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert "users: cpu_freq_hz must be strictly positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestParsing:
    def test_noise_dbm_converted(self):
        config = loads_config("[network]\nnoise_density_dbm_per_hz = -174\n")
        assert config.network.noise_density_w_per_hz == pytest.approx(10**-20.4, rel=1e-12)

    def test_interference_scalar_broadcasts(self):
        config = loads_config("[network]\nrb_count = 5\nuplink_interference_w = 1e-9\n")
        assert config.network.uplink_interference_w == (1e-9,) * 5

    def test_one_infinite_rb_loads(self):
        # An inf entry blocks its RB; only an all-inf list is rejected.
        config = loads_config("[network]\nrb_count = 3\nuplink_interference_w = 1e-9 inf 3e-9\n")
        assert config.network.uplink_interference_w == (1e-9, float("inf"), 3e-9)

    def test_interference_vector(self):
        config = loads_config(
            "[network]\nrb_count = 3\nuplink_interference_w = 1e-9 2e-9 3e-9\n"
        )
        assert config.network.uplink_interference_w == (1e-9, 2e-9, 3e-9)

    def test_payload_from_bits_per_param(self):
        config = loads_config("[users]\npayload_bits_per_param = 32\n")
        assert config.payload_bits == 64.0

    def test_fixed_learning_rate(self):
        config = loads_config("[training]\nlearning_rate = 0.25\n")
        assert config.learning_rate == 0.25

    def test_comments_ignored(self):
        config = loads_config("# a comment\n[network]\nrb_count = 6  # inline\n")
        assert config.network.rb_count == 6


class TestRoundTrip:
    def test_serialize_reparses_equal(self, tmp_path):
        text = """
[network]
rb_count = 7
uplink_interference_w = 1e-9 2e-9 3e-9 4e-9 5e-9 6e-9 7e-9
energy_budget_j = 0.004

[users]
count = 9
sample_count_cycle = 5 3

[training]
learning_rate = 0.125
rounds = 42

[experiment]
algorithms = proposed baseline_b
seeds = 11 12 13
"""
        config = loads_config(text)
        again = loads_config(serialize_config(config))
        assert again == config
        thrice = loads_config(serialize_config(again))
        assert thrice == again

    def test_default_config_round_trips(self):
        config = loads_config("")
        assert loads_config(serialize_config(config)) == config

    def test_reference_config_round_trips(self):
        config = load_config(REFERENCE)
        assert loads_config(serialize_config(config)) == config
        assert config.user_count == 15
        assert config.network.rb_count == 12

    def test_all_keys_config_round_trips_with_every_field_changed(self):
        config = loads_config(ALL_KEYS)
        assert loads_config(serialize_config(config)) == config
        default = ExperimentConfig()
        for section, key, owner, name, _ in _KEYS:
            assert _value(config, owner, name) != _value(default, owner, name), f"{section}.{key}"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.cfg")


class TestKeyTable:
    def test_every_field_is_reached_by_exactly_one_key(self):
        reached = [(owner, name) for _, _, owner, name, _ in _KEYS]
        expected = (
            [("network", f.name) for f in fields(NetworkParams)]
            + [("fading", f.name) for f in fields(FadingExpectation) if f.name != "point_mass"]
            + [(None, f.name) for f in fields(ExperimentConfig)
               if f.name not in ("network", "fading")]
        )
        assert sorted(reached, key=str) == sorted(expected, key=str)

    def test_each_key_is_declared_once(self):
        spellings = [(section, key) for section, key, *_ in _KEYS]
        spellings += [(section, alias) for section, alias, *_ in _ALIASES]
        assert len(set(spellings)) == len(spellings)

    def test_reference_config_sets_every_key(self):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(REFERENCE.read_text())
        aliases = {(section, key): alias for section, alias, key, _ in _ALIASES}
        for section, key, *_ in _KEYS:
            assert parser.has_option(section, key) or parser.has_option(
                section, aliases.get((section, key), key)
            ), f"{section}.{key}"


class TestPlaceUsers:
    def test_mean_distance_matches_disc_formula(self):
        rng = np.random.default_rng(42)
        distances = place_users(rng, 10**6, 500.0)
        assert abs(float(distances.mean()) - 2 * 500.0 / 3) < 1.0

    def test_distances_in_half_open_ball(self):
        rng = np.random.default_rng(1)
        distances = place_users(rng, 10**4, 100.0)
        assert np.all(distances > 0)
        assert np.all(distances <= 100.0)

    def test_tiny_radius_shrinks_distances(self):
        rng = np.random.default_rng(2)
        distances = place_users(rng, 100, 1e-9)
        assert np.all(distances <= 1e-9)

    def test_seed_determinism(self):
        a = place_users(np.random.default_rng(9), 50, 500.0)
        b = place_users(np.random.default_rng(9), 50, 500.0)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            place_users(np.random.default_rng(0), 0, 500.0)
        with pytest.raises(ValueError):
            place_users(np.random.default_rng(0), 5, 0.0)
