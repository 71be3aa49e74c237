"""The trainer reads every training knob from the config: a value off the default moves a byte.

The tiny config of conftest trains twice per knob, once at the default and
once at an in-bound value off it (both under the arm in `ARMS` where the
default arm never reads the knob), and losses.csv or a task checkpoint must
differ. The unit tests hand the loss kernels, the prototype store and the
optimizer their values directly, so a trainer that passes a knob's default
literal instead of the config's value passes them all; it fails here.
"""

from pathlib import Path

import pytest

from mulki import losses
from mulki.config import HyperParams, ModelConfig
from mulki.runner import pretrain, run_stream, save_run_record

from conftest import TINY_MODEL, fast_hyper

OFF_DEFAULT = {
    "alpha": 0.5, "beta": 0.5, "tau": 1.0, "lambda1": 0.5, "lambda2": 0.5, "lambda_wc": 0.5, "teacher_weight": 0.25,
    "gamma0": 0.5, "gamma_max": 0.1, "gamma_step": 0.2, "lr": 3e-3, "weight_decay": 0.05, "adam_beta1": 0.5,
    "adam_beta2": 0.9, "adam_eps": 1e-3, "we_interval": 2, "ewe_eta": 1,
}
ARMS = {"ewe_eta": dict(ensemble="ewe")}  # the setting a knob needs to be read at all, on both runs


def _artifacts(stream, c0, hyper, out: Path) -> dict:
    """losses.csv and every task checkpoint of one seed's run, by name."""
    (record,) = run_stream(stream, hyper, [0], [c0])
    save_run_record(record, out)
    return {path.name: path.read_bytes() for path in [out / "losses.csv", *sorted(out.glob("task_*.ckpt"))]}


@pytest.fixture(scope="module")
def default_run(tiny_stream, tmp_path_factory):
    c0 = pretrain(tiny_stream, fast_hyper(), 0, ModelConfig(**TINY_MODEL))
    return c0, _artifacts(tiny_stream, c0, fast_hyper(), tmp_path_factory.mktemp("default"))


def test_off_default_values_are_in_bounds_and_off_the_default():
    defaults = HyperParams()
    for name, value in OFF_DEFAULT.items():
        HyperParams(**{name: value})  # a ConfigError if out of bounds
        assert getattr(defaults, name) != value, name


@pytest.mark.parametrize("name", OFF_DEFAULT)
def test_a_knob_off_its_default_moves_the_run(name, tiny_stream, default_run, tmp_path):
    c0, default = default_run
    arm = ARMS.get(name, {})
    if arm:
        default = _artifacts(tiny_stream, c0, fast_hyper(**arm), tmp_path / "default")
    moved = _artifacts(tiny_stream, c0, fast_hyper(**arm, **{name: OFF_DEFAULT[name]}), tmp_path / "moved")
    assert moved.keys() == default.keys()
    assert moved != default, f"{name}={OFF_DEFAULT[name]} wrote the bytes of the default run"


def test_every_temperature_the_trainer_uses_is_a_configured_one(tiny_stream, default_run, monkeypatch):
    """tau and tau_ce are read in several places, so a run can move while one of them reads a literal: each
    distribution and the alignment term must use one of the two configured temperatures, and both must be used."""
    c0, _ = default_run
    seen = []

    def spy(real, at):
        def call(*args):
            seen.append(args[at])
            return real(*args)
        return call

    monkeypatch.setattr(losses, "image_text_dist", spy(losses.image_text_dist, 2))
    monkeypatch.setattr(losses, "csa_loss", spy(losses.csa_loss, 2))
    hyper = fast_hyper(tau=1.0, tau_ce=0.05)
    run_stream(tiny_stream, hyper, [0], [c0])
    assert set(seen) == {hyper.tau, hyper.tau_ce}
