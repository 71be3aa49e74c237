"""Config files, environment overrides, ablation variants, the bound table."""

import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from mulki.config import (
    MAX_RUN_BYTES,
    VARIANTS,
    ExperimentConfig,
    HyperParams,
    ModelConfig,
    StreamConfig,
    apply_env_overrides,
    apply_variant,
    config_from_dict,
    load_config,
)
from mulki.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_defaults():
    cfg = config_from_dict({})
    assert cfg.seeds == [0, 1, 2, 3, 4]
    assert cfg.variant == "full"
    assert cfg.out_dir is None
    assert cfg.stream.n_tasks == 5
    assert cfg.hyper.tau == 2.0
    assert cfg.model.hidden == 64


def test_load_round_trip(tmp_path):
    doc = {
        "stream": {"n_tasks": 2, "classes_per_task": 3, "d_in": 8},
        "model": {"hidden": 16},
        "hyper": {"lr": 0.002, "iterations_per_task": 10},
        "seeds": [7],
        "variant": "only_fd",
        "out_dir": "runs/x",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path, environ={})
    assert cfg.stream.n_tasks == 2
    assert cfg.model.hidden == 16
    assert cfg.hyper.lr == 0.002
    assert cfg.seeds == [7]
    assert cfg.variant == "only_fd"
    assert cfg.out_dir == "runs/x"


def test_unknown_keys_named():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"streem": {}})
    assert "streem" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"hyper": {"lamda1": 1.0}})
    assert "lamda1" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"stream": {"tasks": 3}})
    assert "tasks" in str(err.value)
    with pytest.raises(ConfigError) as err:
        config_from_dict({"model": {"width": 3}})
    assert "width" in str(err.value)


WRONG_TYPES = [
    ({"hyper": {"lr": "x"}}, "lr"),
    ({"model": {"hidden": "x"}}, "hidden"),
    ({"stream": {"n_tasks": "x"}}, "n_tasks"),
    ({"hyper": {"batch_size": 2.5}}, "batch_size"),
    ({"hyper": {"enable_fd": "no"}}, "enable_fd"),
    ({"hyper": {"enable_we": 1}}, "enable_we"),  # an unknown key (one of the two flags ensemble replaced)
    ({"hyper": {"iterations_per_task": True}}, "iterations_per_task"),
    ({"hyper": {"tau": False}}, "tau"),
    ({"hyper": {"weighting_mode": 2}}, "weighting_mode"),  # an unknown key (the one teacher_weight replaced) is named too
]

# teacher_weight is null or a finite number in [0, 1]
BAD_TEACHER_WEIGHTS = [1.5, -0.1, "similarity", True, float("nan")]


@pytest.mark.parametrize("raw, key", WRONG_TYPES, ids=[key for _, key in WRONG_TYPES])
def test_wrongly_typed_value_named(raw, key):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert key in str(err.value)


# values past their bound: the stream's arrays over the byte budget, too many iterations,
# or a hyper value outside the range its meaning allows
OVERSIZED = [
    ({"stream": {"n_tasks": 10**20}}, "stream.n_tasks"),
    ({"stream": {"pretrain_per_class": 10**400}}, "stream.pretrain_per_class"),  # past any float
    ({"stream": {"train_per_class": 10**12}}, "stream.train_per_class"),
    ({"stream": {"d_in": 20000}}, "stream.d_in"),  # the domain frames alone take 16 GB
    ({"stream": {"mode": "class_incremental", "classes_per_task": 10**7}}, "stream.classes_per_task"),
    ({"hyper": {"iterations_per_task": 10**20}}, "hyper.iterations_per_task"),
    ({"hyper": {"pretrain_iterations": 10**6 + 1}}, "hyper.pretrain_iterations"),
    ({"hyper": {"gamma_step": -0.5}}, "hyper.gamma_step"),  # the EMA schedule would fall
    ({"hyper": {"weight_decay": -5000}}, "hyper.weight_decay"),
    ({"hyper": {"adam_eps": 0}}, "hyper.adam_eps"),  # a zero denominator at the first step
    ({"hyper": {"lambda1": -3}}, "hyper.lambda1"),  # the run would maximise the alignment loss
    ({"hyper": {"lr": -0.1}}, "hyper.lr"),
    ({"hyper": {"adam_beta1": 1.0}}, "hyper.adam_beta1"),
    ({"hyper": {"adam_beta2": -0.1}}, "hyper.adam_beta2"),
    ({"hyper": {"gamma0": 0.99, "gamma_max": 0.98}}, "hyper.gamma0"),  # the schedule would start above its cap
    ({"hyper": {"gamma0": -0.1}}, "hyper.gamma0"),
    ({"hyper": {"we_interval": 0}}, "hyper.we_interval"),
    ({"hyper": {"batch_size": 0}}, "hyper.batch_size"),
    ({"hyper": {"batch_size": 400000000}}, "hyper.batch_size"),  # would fail to allocate its first batch
    ({"model": {"hidden": 200000000}}, "model.hidden"),  # would fail to allocate the image tower
    ({"stream": {"mode": "class_incremental", "min_domain_separation": -1.0}}, "stream.min_domain_separation"),
]


@pytest.mark.parametrize("raw, key", OVERSIZED, ids=[key for _, key in OVERSIZED])
def test_counts_past_their_bound_named(raw, key):
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert key in str(err.value)


# a run's models and batches over their byte budget; each row stays within every single bound
RUN_OVERSIZED = [
    ({"model": {"d_tok": 65536, "hidden": 65536}}, "model.d_tok"),  # a 32 GiB text-tower matrix
    ({"hyper": {"batch_size": 65536}}, "hyper.batch_size"),  # a 32 GiB batch similarity matrix
    ({"model": {"hidden": 4096}, "seeds": list(range(1000))}, "seeds"),  # a stack holds every seed's arrays
    ({"stream": {"classes_per_task": 20000, "d_in": 2, "train_per_class": 1, "test_per_class": 1, "pretrain_per_class": 1}}, "stream.classes_per_task"),
]


@pytest.mark.parametrize("raw, key", RUN_OVERSIZED, ids=[key for _, key in RUN_OVERSIZED])
def test_run_bytes_past_their_budget_named(raw, key):
    cfg = config_from_dict(raw)  # each value within its own bound
    with pytest.raises(ConfigError, match=f"^{key} is .*over the {MAX_RUN_BYTES}-byte budget"):
        cfg.check_run_bytes()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_within_the_run_budget(path):
    load_config(path, environ={}).check_run_bytes()


def test_counts_within_their_bound_accepted():
    config_from_dict({"stream": {"train_per_class": 20000}, "hyper": {"iterations_per_task": 10**6, "pretrain_iterations": 10**6}})


@pytest.mark.parametrize("value", BAD_TEACHER_WEIGHTS, ids=repr)
def test_bad_teacher_weight_named(value):
    with pytest.raises(ConfigError) as err:
        config_from_dict({"hyper": {"teacher_weight": value}})
    assert "hyper.teacher_weight" in str(err.value)


@pytest.mark.parametrize("text, value", [("null", None), ("0.25", 0.25), ("0", 0), ("1.0", 1.0)])
def test_teacher_weight_env_override_parses(text, value):
    hyper = config_from_dict(apply_env_overrides({}, environ={"MULKI_HYPER__TEACHER_WEIGHT": text})).hyper
    assert hyper.teacher_weight == value and type(hyper.teacher_weight) is type(value)


def test_stale_weighting_mode_key_named(tmp_path):
    """The key teacher_weight replaced is refused by name, from a file and from the environment."""
    stale, empty = tmp_path / "stale.json", tmp_path / "empty.json"
    stale.write_text(json.dumps({"hyper": {"weighting_mode": "similarity"}}))
    empty.write_text("{}")
    for path, environ in ((stale, {}), (empty, {"MULKI_HYPER__WEIGHTING_MODE": "average"})):
        with pytest.raises(ConfigError, match="weighting_mode"):
            load_config(path, environ=environ)


def test_wrongly_typed_env_override_named(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}")
    with pytest.raises(ConfigError) as err:
        load_config(path, environ={"MULKI_HYPER__LR": "abc"})
    assert "lr" in str(err.value)


def test_float_fields_keep_integers_as_given():
    cfg = config_from_dict({"hyper": {"lr": 1, "tau": 3}})
    assert type(cfg.hyper.lr) is int and type(cfg.hyper.tau) is int  # so the echo keeps "1", not "1.0"


def test_seeds_validation():
    for bad in ([], "0,1", [0, "1"], [True], 5):
        with pytest.raises(ConfigError):
            config_from_dict({"seeds": bad})


def test_variant_validation():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"variant": "fancy"})
    assert "fancy" in str(err.value)
    with pytest.raises(ConfigError):
        config_from_dict({"variant": ["full"]})
    with pytest.raises(ConfigError):
        config_from_dict({"out_dir": 3})
    with pytest.raises(ConfigError):
        config_from_dict({"hyper": []})


def test_malformed_json_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seeds": [0,\n}\n')
    with pytest.raises(ConfigError) as err:
        load_config(path, environ={})
    assert "line 3" in str(err.value)


def test_env_overrides():
    merged = apply_env_overrides(
        {"hyper": {"lr": 0.001}},
        environ={
            "MULKI_HYPER__LR": "0.002",
            "MULKI_STREAM__N_TASKS": "3",
            "MULKI_SEEDS": "[1, 2]",
            "MULKI_VARIANT": "only_fd",
            "UNRELATED": "zzz",
        },
    )
    cfg = config_from_dict(merged)
    assert cfg.hyper.lr == 0.002  # env beats file
    assert cfg.stream.n_tasks == 3
    assert cfg.seeds == [1, 2]
    assert cfg.variant == "only_fd"  # non-JSON payload falls back to string


def test_env_override_errors():
    with pytest.raises(ConfigError) as err:
        apply_env_overrides({}, environ={"MULKI_OPTIM__LR": "1"})
    assert "OPTIM" in str(err.value).upper()
    with pytest.raises(ConfigError):
        apply_env_overrides({}, environ={"MULKI_HYPER": "{}"})  # bare section key
    with pytest.raises(ConfigError):
        apply_env_overrides({}, environ={"MULKI_COLOR": "red"})
    with pytest.raises(ConfigError):
        apply_env_overrides({"hyper": []}, environ={"MULKI_HYPER__LR": "1"})
    with pytest.raises(ConfigError):
        apply_env_overrides([1, 2], environ={})


def test_env_overrides_do_not_mutate_input():
    raw = {"hyper": {"lr": 0.001}}
    apply_env_overrides(raw, environ={"MULKI_HYPER__LR": "0.005"})
    assert raw["hyper"]["lr"] == 0.001


def test_every_variant_produces_valid_hyper():
    """Building the arm's section checks its values, so every variant's overrides lie within their bounds."""
    base = HyperParams()
    for name in VARIANTS:
        hyper = apply_variant(base, name)
        assert isinstance(hyper, HyperParams)
        assert hyper.tau == base.tau  # untouched knobs survive


def test_continual_ft_variant_disables_everything():
    hyper = apply_variant(HyperParams(), "continual_ft")
    assert not any((hyper.enable_csa, hyper.enable_fd, hyper.enable_ird, hyper.enable_idd, hyper.enable_wc))
    assert hyper.ensemble == "off"
    assert not hyper.uses_prototypes  # so no term reads lambda1 or lambda2


def test_weighting_variants_change_only_the_mode():
    base = HyperParams()
    assert base.teacher_weight is None  # per-sample similarity weighting
    for name, weight in (("only_c0", 1.0), ("only_prev", 0.0), ("average", 0.5)):
        hyper = apply_variant(base, name)
        assert hyper.teacher_weight == weight
        assert {k: v for k, v in vars(hyper).items() if k != "teacher_weight"} == {
            k: v for k, v in vars(base).items() if k != "teacher_weight"
        }


def test_apply_variant_unknown():
    with pytest.raises(ConfigError):
        apply_variant(HyperParams(), "fancy")


def test_echo_is_complete_and_serializable():
    cfg = ExperimentConfig()
    echo = cfg.echo()
    assert set(echo) == {"stream", "model", "hyper", "seeds", "variant", "out_dir"}
    text = json.dumps(echo)
    assert "iterations_per_task" in text
    assert "n_tasks" in text


# ---------------------------------------------------------------------------
# the bound table: every section field declares its bound beside its default


SECTION_FIELDS = [(cls, spec) for cls in (StreamConfig, ModelConfig, HyperParams) for spec in fields(cls)]
# values a field needs beside it to be accepted: gamma0 reaches 1 only under a cap of 1
COMPANIONS = {"gamma0": {"gamma_max": 1.0}}


def around(sign, limit, kind):
    """(just outside, just inside) the limit `value <sign> limit` sets, for a field of type `kind`."""
    if sign == "one of":
        return [(choice + "!", choice) for choice in limit]
    if kind is int:
        down, up = limit - 1, limit + 1
    else:
        limit = float(limit)
        down, up = math.nextafter(limit, -math.inf), math.nextafter(limit, math.inf)
    return {">=": [(down, limit)], ">": [(limit, up)], "<=": [(up, limit)], "<": [(limit, down)]}[sign]


@pytest.mark.parametrize("cls, spec", SECTION_FIELDS, ids=[f"{cls.KEY}.{spec.name}" for cls, spec in SECTION_FIELDS])
def test_every_bound_holds_at_its_edge(cls, spec):
    """Just past each side of a field's bound is a ConfigError naming the key; just inside is accepted.

    A number or mode field without a declared bound fails here, so no new field can skip the table.
    """
    kind, key = type(spec.default), f"{cls.KEY}.{spec.name}"
    limits = spec.metadata.get("limits", ())
    if kind is bool:
        assert limits == ()
        return
    assert limits, f"{key} declares no bound"
    for sign, limit in limits:
        for outside, inside in around(sign, limit, kind):
            with pytest.raises(ConfigError, match=f"^{key} must be"):
                cls(**COMPANIONS.get(spec.name, {}), **{spec.name: outside})
            assert getattr(cls(**COMPANIONS.get(spec.name, {}), **{spec.name: inside}), spec.name) == inside


def test_sections_are_frozen():
    hyper = HyperParams()
    with pytest.raises(AttributeError):
        hyper.lambda1 = -3.0


def test_run_bytes_count_each_arm_of_the_widest_stack():
    """`ablate` stacks the teacher-weight arms, so the budget counts each seed once per arm of the widest stack."""
    cfg = config_from_dict({"stream": {"n_tasks": 15, "classes_per_task": 15, "train_per_class": 600}, "seeds": list(range(19))})
    for arms in (1, 2, 3):
        cfg.check_run_bytes(arms)
    with pytest.raises(ConfigError, match=f"^--variant is 4 arms in one stack: .*over the {MAX_RUN_BYTES}-byte budget"):
        cfg.check_run_bytes(4)
