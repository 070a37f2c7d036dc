"""Experiment configuration: a documented INI-style key-value file.

Every key has a default matching the standard system parameters, so an empty
file is a valid configuration.  Parsing and validation errors always name the
offending ``section.key``.

``_KEYS`` is the one declaration of the keys: each entry names the key, the
dataclass field it sets and how its text parses, and the table drives
parsing, the unknown-key check and ``serialize_config``.  A key that is
absent is not passed on, so it takes its field's dataclass default.
"""

from __future__ import annotations

import configparser
import math
from collections import Counter
from dataclasses import dataclass, field

from .phy import FadingExpectation, NetworkParams, UserProfile

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "loads_config",
           "serialize_config"]

KNOWN_ALGORITHMS = ("proposed", "baseline_a", "baseline_b", "baseline_c")

MODEL_DIMENSION = 2  # slope and intercept


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment from a seed list."""

    network: NetworkParams = field(default_factory=NetworkParams)
    user_count: int = 15
    cell_radius_m: float = 500.0
    sample_count_cycle: tuple = (12, 10, 8, 4, 2)
    fading_scale: float = UserProfile.fading_scale
    payload_bits: float = UserProfile.payload_bits
    cpu_cycles_per_bit: float = UserProfile.cpu_cycles_per_bit
    cpu_freq_hz: float = UserProfile.cpu_freq_hz
    energy_coeff: float = UserProfile.energy_coeff
    slope: float = -2.0
    intercept: float = 1.0
    noise_std: float = 0.4
    learning_rate: object = "one_over_L"   # float or the literal "one_over_L"
    rounds: int = 200
    initial_model: tuple = (0.0,) * MODEL_DIMENSION
    algorithms: tuple = KNOWN_ALGORITHMS
    seeds: tuple = (1, 2, 3)
    fading: FadingExpectation = field(default_factory=FadingExpectation)

    def __post_init__(self):
        if self.user_count < 1:
            raise ConfigError(f"users.count must be >= 1, got {self.user_count}")
        if not 0 < self.cell_radius_m < math.inf:
            raise ConfigError(
                f"users.cell_radius_m must be positive and finite, got {self.cell_radius_m}"
            )
        if not self.sample_count_cycle or any(k < 1 for k in self.sample_count_cycle):
            raise ConfigError("users.sample_count_cycle entries must be >= 1")
        # One user at the cell edge checks the device constants with the
        # same rules every built user is held to.
        try:
            self.user_profile(self.cell_radius_m, self.sample_count_cycle[0])
        except ValueError as exc:
            raise ConfigError(f"users: {exc}") from exc
        if self.rounds < 1:
            raise ConfigError(f"training.rounds must be >= 1, got {self.rounds}")
        if not self.seeds:
            raise ConfigError("experiment.seeds must list at least one seed")
        if min(self.seeds) < 0:
            raise ConfigError(f"experiment.seeds must be >= 0, got {min(self.seeds)}")
        for name in ("slope", "intercept"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"task.{name} must be finite, got {getattr(self, name)}")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"task.noise_std must be finite and >= 0, got {self.noise_std}")
        if not self.algorithms:
            raise ConfigError("experiment.algorithms must list at least one algorithm")
        for name in self.algorithms:
            if name not in KNOWN_ALGORITHMS:
                raise ConfigError(
                    f"experiment.algorithms: unknown algorithm {name!r} "
                    f"(known: {', '.join(KNOWN_ALGORITHMS)})"
                )
        # Each (algorithm, seed) is one record, and one key of runs.csv.
        for key in ("seeds", "algorithms"):
            repeated = [entry for entry, n in Counter(getattr(self, key)).items() if n > 1]
            if repeated:
                raise ConfigError(f"experiment.{key} lists {repeated[0]!r} more than once")
        if self.learning_rate != "one_over_L" and not (
            isinstance(self.learning_rate, (int, float)) and self.learning_rate > 0
        ):
            raise ConfigError(
                "training.learning_rate must be a positive number or 'one_over_L', "
                f"got {self.learning_rate!r}"
            )
        if len(self.initial_model) != MODEL_DIMENSION:
            raise ConfigError(
                f"training.initial_model must have {MODEL_DIMENSION} entries"
            )
        if not all(math.isfinite(v) for v in self.initial_model):
            raise ConfigError(
                f"training.initial_model entries must be finite, got {_fmt(self.initial_model)}"
            )

    def user_profile(self, distance_m, sample_count) -> UserProfile:
        """A user at ``distance_m`` holding ``sample_count`` samples, with the
        configured device constants."""
        return UserProfile(
            distance_m, sample_count, fading_scale=self.fading_scale,
            payload_bits=self.payload_bits, cpu_cycles_per_bit=self.cpu_cycles_per_bit,
            cpu_freq_hz=self.cpu_freq_hz, energy_coeff=self.energy_coeff,
        )

    def sample_counts(self):
        """Per-user data sizes: the configured cycle repeated across users."""
        cycle = self.sample_count_cycle
        return [int(cycle[i % len(cycle)]) for i in range(self.user_count)]


def _int(raw):
    value = float(raw)
    if not value.is_integer():
        raise ValueError(f"not an integer: {raw!r}")
    return int(value)


def _list(parse):
    return lambda raw: tuple(parse(token) for token in raw.split())


def _learning_rate(raw):
    if raw == "one_over_L":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"not a number or 'one_over_L': {raw!r}") from None


#: (section, key, owner, field, parse) per key, in the order
#: ``serialize_config`` writes them.  The owner is the ``ExperimentConfig``
#: attribute holding the field, or None for the config itself.
_KEYS = (
    ("network", "rb_count", "network", "rb_count", _int),
    ("network", "rb_bandwidth_hz", "network", "rb_bandwidth_hz", float),
    ("network", "downlink_bandwidth_hz", "network", "downlink_bandwidth_hz", float),
    ("network", "noise_density_w_per_hz", "network", "noise_density_w_per_hz", float),
    ("network", "bs_power_w", "network", "bs_power_w", float),
    ("network", "max_user_power_w", "network", "max_user_power_w", float),
    ("network", "waterfall_threshold", "network", "waterfall_threshold", float),
    ("network", "uplink_interference_w", "network", "uplink_interference_w", _list(float)),
    ("network", "downlink_interference_w", "network", "downlink_interference_w", float),
    ("network", "delay_budget_s", "network", "delay_budget_s", float),
    ("network", "energy_budget_j", "network", "energy_budget_j", float),
    ("network", "pathloss_exponent", "network", "pathloss_exponent", float),
    ("users", "count", None, "user_count", _int),
    ("users", "cell_radius_m", None, "cell_radius_m", float),
    ("users", "sample_count_cycle", None, "sample_count_cycle", _list(int)),
    ("users", "fading_scale", None, "fading_scale", float),
    ("users", "payload_bits", None, "payload_bits", float),
    ("users", "cpu_cycles_per_bit", None, "cpu_cycles_per_bit", float),
    ("users", "cpu_freq_hz", None, "cpu_freq_hz", float),
    ("users", "energy_coeff", None, "energy_coeff", float),
    ("task", "slope", None, "slope", float),
    ("task", "intercept", None, "intercept", float),
    ("task", "noise_std", None, "noise_std", float),
    ("training", "learning_rate", None, "learning_rate", _learning_rate),
    ("training", "rounds", None, "rounds", _int),
    ("training", "initial_model", None, "initial_model", _list(float)),
    ("experiment", "algorithms", None, "algorithms", _list(str)),
    ("experiment", "seeds", None, "seeds", _list(int)),
    ("fading", "method", "fading", "method", str),
    ("fading", "count", "fading", "node_or_sample_count", _int),
    ("fading", "seed", "fading", "seed", _int),
)

#: (section, alias, key, parse): another unit for a key, exclusive with it.
_ALIASES = (
    ("network", "noise_density_dbm_per_hz", "noise_density_w_per_hz",
     lambda raw: 10.0 ** ((float(raw) - 30.0) / 10.0)),
    ("users", "payload_bits_per_param", "payload_bits",
     lambda raw: MODEL_DIMENSION * float(raw)),
)

#: (section, key or alias) -> (owner, field, parse)
_ACCEPTED = {(section, key): rest for section, key, *rest in _KEYS}
_ACCEPTED.update(
    ((section, alias), [*_ACCEPTED[section, key][:2], parse])
    for section, alias, key, parse in _ALIASES
)
_SECTIONS = {section for section, *_ in _KEYS}


def loads_config(text: str) -> ExperimentConfig:
    """Parse configuration text; absent keys fall back to defaults."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc

    kwargs = {"network": {}, "fading": {}, None: {}}
    errors: list[str] = []
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in _ACCEPTED:
                raise ConfigError(f"unknown key {section}.{key}")
            owner, name, parse = _ACCEPTED[section, key]
            try:
                kwargs[owner][name] = parse(parser.get(section, key))
            except (ValueError, TypeError, configparser.Error) as exc:
                errors.append(f"{section}.{key}: {exc}")
    for section, alias, key, _ in _ALIASES:
        if parser.has_option(section, key) and parser.has_option(section, alias):
            errors.append(f"{section}.{key} and {section}.{alias} are mutually exclusive")
    if errors:
        raise ConfigError("; ".join(errors))

    parts = {}
    for owner, cls in (("network", NetworkParams), ("fading", FadingExpectation)):
        try:
            parts[owner] = cls(**kwargs[owner])
        except ValueError as exc:
            raise ConfigError(f"{owner}: {exc}") from exc
    return ExperimentConfig(**parts, **kwargs[None])


def load_config(path) -> ExperimentConfig:
    """Load and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Render a configuration as text that reparses to an equal configuration."""
    lines, current = [], None
    for section, key, owner, name, _ in _KEYS:
        if section != current:
            lines += ["", f"[{section}]"]
            current = section
        value = getattr(config if owner is None else getattr(config, owner), name)
        lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines[1:] + [""])
