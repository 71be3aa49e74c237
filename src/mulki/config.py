"""Experiment configuration: the model and hyper sections, JSON files,
environment overrides, variants.

A config file has up to six top-level keys:

    {
      "stream": { ... StreamConfig fields ... },
      "model":  { ... ModelConfig fields ... },
      "hyper":  { ... HyperParams fields ... },
      "seeds":  [0, 1, 2, 3, 4],
      "variant": "full",
      "out_dir": "runs/exp"
    }

Every key is optional and defaults are documented on the dataclasses.
Unknown keys are rejected by name, and every section value must have the
type of its field's default: a JSON bool for flags, an integer for
counts, a number for real-valued knobs, a string for modes; anything
else is a ConfigError naming the key. Environment variables prefixed with
MULKI_ override file values: MULKI_<SECTION>__<KEY> for section fields
(e.g. MULKI_HYPER__LR=0.002, MULKI_STREAM__N_TASKS=3) and MULKI_<KEY>
for top-level fields (e.g. MULKI_SEEDS=[1,2], MULKI_VARIANT=only_fd).
Values are parsed as JSON, falling back to plain strings.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

from . import losses
from .errors import ConfigError
from .taskgen import StreamConfig

ENV_PREFIX = "MULKI_"

TOP_LEVEL_KEYS = ("stream", "model", "hyper", "seeds", "variant", "out_dir")
SECTIONS = ("stream", "model", "hyper")

# Ablation arms: named overrides applied on top of the configured hyper.
# "full" is the complete method; the component arms keep only what they
# name; the weighting arms change only how the two teachers are mixed.
VARIANTS: dict[str, dict] = {
    "full": {},
    "continual_ft": dict(
        enable_csa=False,
        enable_fd=False,
        enable_ird=False,
        enable_idd=False,
        enable_wc=False,
        enable_we=False,
        enable_ewe=False,
        lambda1=0.0,
        lambda2=0.0,
    ),
    "wo_we_wc": dict(enable_we=False, enable_ewe=False, enable_wc=False),
    "wo_we": dict(enable_we=False, enable_ewe=False),
    "only_fd": dict(enable_csa=False, enable_ird=False, enable_idd=False, enable_wc=False, enable_we=False, enable_ewe=False),
    "only_ird": dict(enable_csa=False, enable_fd=False, enable_idd=False, enable_wc=False, enable_we=False, enable_ewe=False),
    "only_idd": dict(enable_csa=False, enable_fd=False, enable_ird=False, enable_wc=False, enable_we=False, enable_ewe=False),
    "only_mdd": dict(enable_csa=False, enable_wc=False, enable_we=False, enable_ewe=False),
    "only_c0": dict(weighting_mode="only_c0"),
    "only_prev": dict(weighting_mode="only_prev"),
    "average": dict(weighting_mode="average"),
}

_TYPE_NAMES = {bool: "a JSON bool", int: "an integer", float: "a number", str: "a string"}


@dataclass
class ModelConfig:
    """Encoder dimensions; input width and vocabulary come from the stream."""

    d_tok: int = 16
    hidden: int = 64
    embed_dim: int = 16

    def validate(self) -> None:
        for name in ("d_tok", "hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1")


@dataclass
class HyperParams:
    """Every knob of a run, with the package defaults.

    enable_wc is honored only on multi-domain streams; run_stream drops
    the drift penalty in class-incremental mode regardless of the flag.
    """

    tau: float = 2.0            # distillation temperature
    tau_ce: float = 0.07        # supervised / contrastive logit temperature
    alpha: float = 1.0          # weight of the relation-distance channel
    beta: float = 1.0           # weight of the distribution channels
    lambda1: float = 1.0        # weight of prototype-text alignment
    lambda2: float = 1.0        # weight of the dual-teacher distillation block
    lambda_wc: float = 0.1      # weight of the parameter drift penalty
    gamma0: float = 0.0         # prototype EMA schedule start
    gamma_step: float = 0.04    # prototype EMA schedule increment per iteration
    gamma_max: float = 0.98     # prototype EMA schedule cap
    iterations_per_task: int = 300
    pretrain_iterations: int = 500
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    we_interval: int = 50       # iterations between ensemble averagings
    ewe_eta: int = 5            # averagings between live-parameter overwrites
    weighting_mode: str = "similarity"
    enable_csa: bool = True
    enable_fd: bool = True
    enable_ird: bool = True
    enable_idd: bool = True
    enable_wc: bool = True
    enable_we: bool = True
    enable_ewe: bool = False

    def validate(self) -> None:
        if self.weighting_mode not in losses.WEIGHTING_MODES:
            raise ConfigError(
                f"hyper.weighting_mode must be one of {losses.WEIGHTING_MODES}, got {self.weighting_mode!r}"
            )
        for name in ("tau", "tau_ce", "lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"hyper.{name} must be > 0")
        for name in ("iterations_per_task", "batch_size", "we_interval", "ewe_eta"):
            if getattr(self, name) < 1:
                raise ConfigError(f"hyper.{name} must be >= 1")
        if self.pretrain_iterations < 0:
            raise ConfigError("hyper.pretrain_iterations must be >= 0")
        if not 0.0 <= self.gamma0 <= self.gamma_max <= 1.0:
            raise ConfigError("hyper gamma schedule must satisfy 0 <= gamma0 <= gamma_max <= 1")

    def ensemble_mode(self) -> str | None:
        """The ensemble a run keeps: "ewe", "we", or None for none."""
        if self.enable_ewe:
            return "ewe"
        if self.enable_we:
            return "we"
        return None


@dataclass
class ExperimentConfig:
    stream: StreamConfig = field(default_factory=StreamConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    hyper: HyperParams = field(default_factory=HyperParams)
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    variant: str = "full"
    out_dir: str | None = None

    def echo(self) -> dict:
        """Fully resolved config as plain JSON-serializable data."""
        return {
            "stream": asdict(self.stream),
            "model": asdict(self.model),
            "hyper": asdict(self.hyper),
            "seeds": list(self.seeds),
            "variant": self.variant,
            "out_dir": self.out_dir,
        }


def apply_variant(hyper: HyperParams, variant: str) -> HyperParams:
    """A copy of `hyper` with the named ablation arm's overrides applied."""
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {sorted(VARIANTS)}")
    merged = asdict(hyper)
    merged.update(VARIANTS[variant])
    return HyperParams(**merged)


def _section(cls, raw, name: str):
    """Build and validate section dataclass `cls` from its raw JSON object.

    Each value must have the type of its field's default; a float field
    also takes an integer, kept as given so the echo keeps its bytes.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    types = {f.name: type(f.default) for f in fields(cls)}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ConfigError(f"unknown {name} config key {unknown[0]!r}")
    for key, value in raw.items():
        kind = types[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ConfigError(f"{name}.{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    section = cls(**raw)
    section.validate()
    return section


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")

    seeds = raw.get("seeds", [0, 1, 2, 3, 4])
    if not isinstance(seeds, list) or not seeds or not all(type(s) is int and s >= 0 for s in seeds):
        raise ConfigError(f"config key 'seeds' must be a non-empty list of non-negative integers, got {seeds!r}")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("config key 'out_dir' must be a string")
    cfg = ExperimentConfig(
        stream=_section(StreamConfig, raw.get("stream", {}), "stream"),
        model=_section(ModelConfig, raw.get("model", {}), "model"),
        hyper=_section(HyperParams, raw.get("hyper", {}), "hyper"),
        seeds=list(seeds),
        variant=raw.get("variant", "full"),
        out_dir=out_dir,
    )
    apply_variant(cfg.hyper, cfg.variant)  # rejects an unknown variant by name
    return cfg


def apply_env_overrides(raw: dict, environ=None) -> dict:
    """Merge MULKI_-prefixed environment variables into a raw config dict."""
    environ = os.environ if environ is None else environ
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    merged = {k: (dict(v) if isinstance(v, dict) else v) for k, v in raw.items()}
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX) :].lower()
        text = environ[name]
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        if "__" in path:
            section, key = path.split("__", 1)
            if section not in SECTIONS:
                raise ConfigError(f"environment override {name}: unknown section {section!r}")
            if not isinstance(merged.setdefault(section, {}), dict):
                raise ConfigError(f"config section {section!r} must be an object")
            merged[section][key] = value
        else:
            if path not in TOP_LEVEL_KEYS or path in SECTIONS:
                raise ConfigError(f"environment override {name}: unknown config key {path!r}")
            merged[path] = value
    return merged


def load_config(path, environ=None) -> ExperimentConfig:
    """Read a JSON config file and apply environment overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    return config_from_dict(apply_env_overrides(raw, environ))
