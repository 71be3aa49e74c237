"""Weight-space averaging: state machine and exact means."""

import numpy as np
import pytest

from mulki.errors import ContractError
from mulki.weightspace import WEState, ewe_step, final_params, we_init, we_step


def test_init_copies_start(rng):
    start = rng.normal(size=12)
    state = we_init(start, interval=3)
    assert np.array_equal(state.theta_hat, start)
    assert state.m == 0
    state.theta_hat[0] = 99.0
    assert start[0] != 99.0  # never aliased


def test_step_only_fires_on_interval(rng):
    start = rng.normal(size=4)
    state = we_init(start, interval=5)
    for k in range(1, 5):
        assert not we_step(state, rng.normal(size=4), k)
    assert state.m == 0
    assert we_step(state, rng.normal(size=4), 5)
    assert state.m == 1


def test_mean_of_explicit_sequence():
    # start 0, checkpoints 3 and 6: the running average visits 0, 1.5, 3
    state = we_init(np.array([0.0]), interval=1)
    we_step(state, np.array([3.0]), 1)
    assert state.theta_hat[0] == 1.5
    we_step(state, np.array([6.0]), 2)
    assert state.theta_hat[0] == 3.0
    assert state.m == 2


def test_uniform_mean_on_random_streams(rng):
    for trial in range(5):
        start = rng.normal(size=9)
        state = we_init(start, interval=1)
        seen = [start.copy()]
        for k in range(1, 11):
            theta = rng.normal(size=9)
            we_step(state, theta, k)
            seen.append(theta)
        expected = np.mean(seen, axis=0)
        assert np.max(np.abs(state.theta_hat - expected)) <= 1e-12
        assert state.m == 10


def test_interval_subsampling(rng):
    start = rng.normal(size=6)
    state = we_init(start, interval=3)
    sampled = [start.copy()]
    for k in range(1, 13):
        theta = rng.normal(size=6)
        fired = we_step(state, theta, k)
        assert fired == (k % 3 == 0)
        if fired:
            sampled.append(theta)
    assert state.m == 4
    assert np.max(np.abs(state.theta_hat - np.mean(sampled, axis=0))) <= 1e-12


def test_constant_stream_is_bitwise_fixed_point(rng):
    theta = rng.normal(size=20)
    state = we_init(theta, interval=1)
    for k in range(1, 200):
        we_step(state, theta, k)
    assert np.array_equal(state.theta_hat, theta)


def test_step_errors(rng):
    state = we_init(rng.normal(size=4), interval=2)
    with pytest.raises(ContractError):
        we_step(state, rng.normal(size=4), 0)
    with pytest.raises(ContractError):
        we_step(state, rng.normal(size=5), 2)


def test_ewe_overwrite_schedule(rng):
    state = we_init(rng.normal(size=4), interval=2, eta=3, mode="ewe")
    # before any averaging has happened, never fire
    assert not ewe_step(state, 6)
    we_step(state, rng.normal(size=4), 2)
    fired = [k for k in range(1, 25) if ewe_step(state, k)]
    assert fired == [6, 12, 18, 24]  # every eta * interval iterations


def test_ewe_inactive_in_we_mode(rng):
    state = we_init(rng.normal(size=4), interval=2, eta=3, mode="we")
    we_step(state, rng.normal(size=4), 2)
    assert not ewe_step(state, 6)


def test_final_params(rng):
    raw = rng.normal(size=7)
    got = final_params(None, raw)
    assert np.array_equal(got, raw)
    got[0] = 42.0
    assert raw[0] != 42.0

    state = we_init(rng.normal(size=7), interval=1)
    we_step(state, rng.normal(size=7), 1)
    final = final_params(state, raw)
    assert np.array_equal(final, state.theta_hat)
    final[0] = 42.0
    assert state.theta_hat[0] != 42.0


def test_state_validation(rng):
    with pytest.raises(ContractError):
        WEState(theta_hat=rng.normal(size=3), m=0, interval=0, eta=5, mode="we")
    with pytest.raises(ContractError):
        WEState(theta_hat=rng.normal(size=3), m=0, interval=1, eta=0, mode="we")
    for mode in ("cyclic", "off"):  # no ensemble is a None state, not a mode
        with pytest.raises(ContractError):
            WEState(theta_hat=rng.normal(size=3), m=0, interval=1, eta=5, mode=mode)
    with pytest.raises(ContractError):
        WEState(theta_hat=rng.normal(size=3), m=-1, interval=1, eta=5, mode="we")

