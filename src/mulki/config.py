"""Experiment configuration: the stream, model and hyper sections, JSON
files, environment overrides, variants.

A config file has up to six top-level keys:

    {
      "stream": { ... StreamConfig fields ... },
      "model":  { ... ModelConfig fields ... },
      "hyper":  { ... HyperParams fields ... },
      "seeds":  [0, 1, 2, 3, 4],
      "variant": "full",
      "out_dir": "runs/exp"
    }

Every key is optional. Unknown keys are rejected by name. Each section
field declares its bound beside its default (`knob`), and building a
section checks every field's type and bound in one loop (`_check`), so no
section object holds a value outside its bound; a bad value is a
ConfigError naming `section.key`. Rules that span fields sit beside the
loop: gamma0 <= gamma_max, the stream's byte budget, and the run's
(`ExperimentConfig.check_run_bytes`, checked by the commands that train).
Environment variables prefixed with MULKI_ override file values:
MULKI_<SECTION>__<KEY> for section fields (e.g. MULKI_HYPER__LR=0.002,
MULKI_STREAM__N_TASKS=3) and MULKI_<KEY> for top-level fields (e.g.
MULKI_SEEDS=[1,2], MULKI_VARIANT=only_fd).
Values are parsed as JSON, falling back to plain strings.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError
from .jsonutil import is_count, is_number

ENV_PREFIX = "MULKI_"

TOP_LEVEL_KEYS = ("stream", "model", "hyper", "seeds", "variant", "out_dir")
SECTIONS = ("stream", "model", "hyper")
MODES = ("multi_domain", "class_incremental")  # stream.mode
ENSEMBLES = ("we", "ewe", "off")  # hyper.ensemble: running mean, running mean that re-centres training, none
MAX_ITERATIONS = 10**6  # per task and for pretraining: hours of training, far past any config in use
MAX_WIDTH = 2**16  # model widths and batch size: far past any config in use, and refused before any allocation
# The most bytes the arrays a stream config implies may take: every sample's
# float64 features and int64 label, and the d_in x d_in frame of each domain.
MAX_STREAM_BYTES = 2**30
# The most bytes a run's models and batches may take: per seed, the parameters and, for the
# most rows one call encodes (a batch, a task's train or test set), a row of the widest array.
MAX_RUN_BYTES = 2**30

# Ablation arms: named overrides applied on top of the configured hyper.
# "full" is the complete method; the component arms keep only what they
# name; the weighting arms fix the teacher weight on c0 (c_prev gets the rest).
VARIANTS: dict[str, dict] = {
    "full": {},
    "continual_ft": dict(
        enable_csa=False, enable_fd=False, enable_ird=False, enable_idd=False, enable_wc=False, ensemble="off"
    ),
    "wo_we_wc": dict(ensemble="off", enable_wc=False),
    "wo_we": dict(ensemble="off"),
    "only_fd": dict(enable_csa=False, enable_ird=False, enable_idd=False, enable_wc=False, ensemble="off"),
    "only_ird": dict(enable_csa=False, enable_fd=False, enable_idd=False, enable_wc=False, ensemble="off"),
    "only_idd": dict(enable_csa=False, enable_fd=False, enable_ird=False, enable_wc=False, ensemble="off"),
    "only_mdd": dict(enable_csa=False, enable_wc=False, ensemble="off"),
    "only_c0": dict(teacher_weight=1.0),
    "only_prev": dict(teacher_weight=0.0),
    "average": dict(teacher_weight=0.5),
}

_TYPE_NAMES = {bool: "a JSON bool", int: "an integer", float: "a finite number", str: "a string", type(None): "null or a finite number"}
_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt, "one of": lambda value, choices: value in choices}


def knob(default, *, lo=None, above=None, hi=None, below=None, choices=None):
    """A section field: its default and its bound, value >= lo, > above, <= hi, < below and one of `choices`."""
    limits = tuple((sign, limit) for sign, limit in zip(_COMPARE, (lo, above, hi, below, choices)) if limit is not None)
    return field(default=default, metadata={"limits": limits})


def _check(section, name: str) -> None:
    """ConfigError naming `<section>.<name>` unless that field's value has its default's type and lies within its bound.

    Each type is one of `_TYPE_NAMES`; a float field takes an integer too, kept as given so the echo keeps its bytes.
    """
    spec, value = section.__dataclass_fields__[name], getattr(section, name)
    kind, key = type(spec.default), f"{section.KEY}.{name}"
    if kind is float or kind is type(None):
        typed = is_number(value) or (value is None and kind is not float)
    else:
        typed = isinstance(value, kind) and isinstance(value, bool) == (kind is bool)
    if not typed:
        raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    limits = spec.metadata.get("limits", ())  # none for a flag
    if value is not None and not all(_COMPARE[sign](value, limit) for sign, limit in limits):
        raise ConfigError(f"{key} must be " + " and ".join(f"{sign} {limit}" for sign, limit in limits) + f", got {value!r}")


@dataclass(frozen=True)
class StreamConfig:
    """The synthetic task stream `taskgen.generate_stream` draws."""
    KEY = "stream"  # the section's name in a config file and in its errors

    mode: str = knob("multi_domain", choices=MODES)
    n_tasks: int = knob(5, lo=2)
    classes_per_task: int = knob(5, lo=2)
    d_in: int = knob(32, lo=1)
    train_per_class: int = knob(200, lo=1)
    test_per_class: int = knob(100, lo=1)
    noise_scale: float = knob(0.3, lo=0)
    mean_scale: float = knob(1.0, above=0)
    pretrain_per_class: int = knob(20, lo=1)
    pretrain_label_noise: float = knob(0.3, lo=0, hi=1)
    domain_spread: float = knob(1.0, lo=0)
    min_domain_separation: float = knob(0.8, lo=0)
    seed: int = knob(7, lo=0, below=2**63)

    def __post_init__(self):
        for spec in fields(self):
            _check(self, spec.name)
        rows = self.n_tasks * self.classes_per_task * (self.train_per_class + self.test_per_class + self.pretrain_per_class)
        frames = self.n_tasks if self.mode == "multi_domain" else 1
        nbytes = 8 * (rows * (self.d_in + 1) + frames * self.d_in * self.d_in)
        if nbytes > MAX_STREAM_BYTES:
            counts = ("n_tasks", "classes_per_task", "d_in", "train_per_class", "test_per_class", "pretrain_per_class")
            key = max(counts, key=lambda name: getattr(self, name) // getattr(StreamConfig, name))  # furthest above its default
            raise ConfigError(
                f"stream.{key} is {getattr(self, key)}: the stream's arrays would take {nbytes} bytes, over the {MAX_STREAM_BYTES}-byte budget"
            )


@dataclass(frozen=True)
class ModelConfig:
    """Encoder dimensions; input width and vocabulary come from the stream."""
    KEY = "model"

    d_tok: int = knob(16, lo=1, hi=MAX_WIDTH)
    hidden: int = knob(64, lo=1, hi=MAX_WIDTH)
    embed_dim: int = knob(16, lo=1, hi=MAX_WIDTH)

    def __post_init__(self):
        for spec in fields(self):
            _check(self, spec.name)


@dataclass(frozen=True)
class HyperParams:
    """Every knob of a run, with the package defaults.

    enable_wc is honored only on multi-domain streams; run_stream drops
    the drift penalty in class-incremental mode regardless of the flag.
    """
    KEY = "hyper"

    tau: float = knob(2.0, above=0)        # distillation temperature
    tau_ce: float = knob(0.07, above=0)    # supervised / contrastive logit temperature
    alpha: float = knob(1.0, lo=0)         # weight of the relation-distance channel
    beta: float = knob(1.0, lo=0)          # weight of the distribution channels
    lambda1: float = knob(1.0, lo=0)       # weight of prototype-text alignment
    lambda2: float = knob(1.0, lo=0)       # weight of the dual-teacher distillation block
    lambda_wc: float = knob(0.1, lo=0)     # weight of the parameter drift penalty
    gamma0: float = knob(0.0, lo=0, hi=1)  # prototype EMA schedule start, at most gamma_max
    gamma_step: float = knob(0.04, lo=0)   # prototype EMA schedule increment per iteration: gamma never falls
    gamma_max: float = knob(0.98, lo=0, hi=1)  # prototype EMA schedule cap
    iterations_per_task: int = knob(300, lo=1, hi=MAX_ITERATIONS)
    pretrain_iterations: int = knob(500, lo=0, hi=MAX_ITERATIONS)
    batch_size: int = knob(32, lo=1, hi=MAX_WIDTH)
    lr: float = knob(1e-3, above=0)
    weight_decay: float = knob(1e-4, lo=0)  # decay never grows weights
    adam_beta1: float = knob(0.9, lo=0, below=1)
    adam_beta2: float = knob(0.999, lo=0, below=1)
    adam_eps: float = knob(1e-8, above=0)   # no zero denominator at the first step
    we_interval: int = knob(50, lo=1)       # iterations between ensemble averagings
    ewe_eta: int = knob(5, lo=1)            # averagings between live-parameter overwrites ("ewe")
    ensemble: str = knob("we", choices=ENSEMBLES)
    teacher_weight: float | None = knob(None, lo=0, hi=1)  # fixed weight on c0 (1 - it on c_prev); None: per-sample similarity
    enable_csa: bool = True
    enable_fd: bool = True
    enable_ird: bool = True
    enable_idd: bool = True
    enable_wc: bool = True

    def __post_init__(self):
        for spec in fields(self):
            _check(self, spec.name)
        if self.gamma0 > self.gamma_max:
            raise ConfigError(f"hyper.gamma0 must be <= hyper.gamma_max, got {self.gamma0} > {self.gamma_max}")

    @property
    def distills(self) -> bool:
        """Some distillation channel is on, so the trainer builds teacher bundles."""
        return self.enable_fd or self.enable_ird or self.enable_idd

    @property
    def uses_prototypes(self) -> bool:
        """Some enabled term reads the prototypes, so the trainer keeps a prototype store."""
        return self.enable_csa or self.distills


@dataclass
class ExperimentConfig:
    stream: StreamConfig = field(default_factory=StreamConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    hyper: HyperParams = field(default_factory=HyperParams)
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    variant: str = "full"
    out_dir: str | None = None

    def check_run_bytes(self, arms: int = 1) -> None:
        """ConfigError naming the count furthest above its default if a run's models and batches pass MAX_RUN_BYTES;
        `arms` is the most arms one stack trains (`runner.stacks`), each holding every seed's."""
        stream, model, hyper = self.stream, self.model, self.hyper
        vocab = stream.n_tasks * stream.classes_per_task + 1
        params = model.hidden * (stream.d_in + 2 * model.embed_dim + model.d_tok + 2) + vocab * model.d_tok + 2 * model.embed_dim
        rows = max(hyper.batch_size, stream.classes_per_task * max(stream.train_per_class, stream.test_per_class))
        width = max(stream.d_in, model.d_tok, model.hidden, model.embed_dim, vocab, hyper.batch_size)  # a batch's B x B similarities too
        nbytes = 8 * arms * len(self.seeds) * (params + rows * width)
        if nbytes > MAX_RUN_BYTES:
            named = {model: ("d_tok", "hidden", "embed_dim"), hyper: ("batch_size",), stream: ("n_tasks", "classes_per_task", "train_per_class", "test_per_class")}
            counts = [(f"{section.KEY}.{name}", getattr(section, name), getattr(type(section), name)) for section in named for name in named[section]]
            counts += [("seeds", len(self.seeds), 5), ("--variant", arms, 1)]
            key, value, _ = max(counts, key=lambda count: count[1] // count[2])  # furthest above its default
            value = {"seeds": f"a list of {value}", "--variant": f"{value} arms in one stack"}.get(key, value)
            raise ConfigError(f"{key} is {value}: a run's models and batches would take {nbytes} bytes, over the {MAX_RUN_BYTES}-byte budget")

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
    return replace(hyper, **VARIANTS[variant])


def _section(cls, raw, name: str):
    """Section dataclass `cls` built from its raw JSON object, which checks every value."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {name} config key {unknown[0]!r}")
    return cls(**raw)


def check_seeds(seeds, source: str) -> list:
    """A copy of `seeds`; a ConfigError naming `source` unless it is a non-empty list of distinct integers in [0, 2**63)."""
    if not isinstance(seeds, list) or not seeds or not all(map(is_count, seeds)):
        raise ConfigError(f"{source} must be a non-empty list of integers in [0, 2**63), got {seeds!r}")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{source} must not repeat a seed, got {seeds!r}")
    return list(seeds)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")

    seeds = check_seeds(raw.get("seeds", [0, 1, 2, 3, 4]), "config key 'seeds'")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("config key 'out_dir' must be a string")
    cfg = ExperimentConfig(
        stream=_section(StreamConfig, raw.get("stream", {}), "stream"),
        model=_section(ModelConfig, raw.get("model", {}), "model"),
        hyper=_section(HyperParams, raw.get("hyper", {}), "hyper"),
        seeds=seeds,
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
        except ValueError:  # not JSON (or an integer too long to parse): the plain string
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
        except ValueError as exc:  # not UTF-8, or an integer too long to parse
            raise ConfigError(f"{path}: unreadable JSON ({exc})") from exc
    return config_from_dict(apply_env_overrides(raw, environ))
