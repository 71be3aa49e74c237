"""Weight-space averaging: state machine and exact means."""

import numpy as np
import pytest

from mulki.errors import ContractError
from mulki.weightspace import WEState, we_init, we_step


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


def test_state_validation(rng):
    """A negative averaging count is refused; the interval's bound is hyper.we_interval's (tests/test_config.py)."""
    with pytest.raises(ContractError):
        WEState(theta_hat=rng.normal(size=3), m=-1, interval=1)
