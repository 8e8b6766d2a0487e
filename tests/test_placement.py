"""The CPU placement of the package's thread pools (``_placement.cpu_placement``).

While a pool thread exists, the calling thread runs on the first CPU of its
affinity mask and each pool thread on another CPU of that mask; the caller's
mask is restored when the pool closes, by return or by raise. With one CPU
in the mask nothing is pinned, and a run that starts no pool thread pins
nothing. The expectations follow the host's mask, so the tests hold on any
number of CPUs; CI runs them again under ``taskset -c 0``.
"""
import os
import threading
from dataclasses import replace

import pytest

from chirpvote import learn, studies
from chirpvote.errors import ConfigError, InfeasibleError
from chirpvote.learn import run_training

from test_learn import _tiny_cfg

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="the OS has no sched_setaffinity"
)


@pytest.fixture
def one_cpu():
    """The calling thread's mask narrowed to its first CPU, for the test."""
    mask = os.sched_getaffinity(0)
    setaffinity = os.sched_setaffinity
    setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        setaffinity(0, mask)


@pytest.fixture
def pins(monkeypatch):
    """Every ``os.sched_setaffinity`` call from now on, as (pid, mask); pid 0
    is the calling thread."""
    calls = []
    setaffinity = os.sched_setaffinity

    def recording(pid, mask):
        calls.append((pid, set(mask)))
        setaffinity(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    return calls


def _placed(mask):
    """The caller's CPU and the pool threads' CPUs under the rule, or None
    when the rule pins nothing."""
    if len(mask) < 2:
        return None
    first, *others = sorted(mask)
    return first, set(others)


def _pool_masks(caller):
    """From a pool thread: its own mask and the caller's."""
    return os.sched_getaffinity(0), os.sched_getaffinity(caller)


@pytest.mark.parametrize("workers", [2, 3])  # 3 is more workers than 2 CPUs
def test_map_gives_each_pool_thread_another_cpu(monkeypatch, pins, workers):
    monkeypatch.setattr(studies, "_cpus", lambda: workers)
    mask = os.sched_getaffinity(0)
    caller = threading.get_native_id()
    seen = []

    def fn(item):
        if threading.get_native_id() != caller:
            seen.append(_pool_masks(caller))
        return item * item

    assert studies._map(fn, list(range(12))) == [i * i for i in range(12)]
    assert os.sched_getaffinity(0) == mask
    assert seen  # the pool threads took their share of the items
    placed = _placed(mask)
    if placed is None:
        assert pins == []
        assert all(own == mask and theirs == mask for own, theirs in seen)
        return
    first, others = placed
    for own, theirs in seen:
        assert theirs == {first}
        assert len(own) == 1 and own <= others
    assert pins[0] == (caller, {first})
    assert pins[-1] == (caller, mask)


@pytest.mark.parametrize("failing", [0, 1])  # the caller's item, a pool thread's
def test_map_restores_the_mask_after_a_task_raises(monkeypatch, pins, failing):
    monkeypatch.setattr(studies, "_cpus", lambda: 2)
    mask = os.sched_getaffinity(0)
    started = threading.Event()

    def fn(item):
        if item % 2:
            started.set()
        elif not started.wait(timeout=30):
            raise AssertionError("no pool thread started")
        if item == failing:
            raise ConfigError(f"task {item} failed")
        return item

    with pytest.raises(ConfigError, match=f"task {failing} failed"):
        studies._map(fn, list(range(6)))
    assert os.sched_getaffinity(0) == mask
    if _placed(mask) is None:
        assert pins == []
    else:
        assert pins[-1] == (threading.get_native_id(), mask)


def test_chirp_run_gives_its_draw_worker_another_cpu(monkeypatch, pins):
    mask = os.sched_getaffinity(0)
    caller = threading.get_native_id()
    draw = learn._receiver_noise
    seen = []

    def recording(*args):
        if threading.get_native_id() != caller:
            seen.append(_pool_masks(caller))
        return draw(*args)

    monkeypatch.setattr(learn, "_receiver_noise", recording)
    run_training(studies.training_setup(_tiny_cfg(rounds=4), 0), "csc_mv_2", 20.0)
    assert os.sched_getaffinity(0) == mask
    assert len(seen) == 3  # rounds 1-3 are drawn on the worker
    placed = _placed(mask)
    if placed is None:
        assert pins == []
        assert all(own == mask and theirs == mask for own, theirs in seen)
        return
    first, others = placed
    assert seen == [({min(others)}, {first})] * 3
    assert pins == [(caller, {first}), (0, {min(others)}), (caller, mask)]


def test_chirp_run_restores_the_mask_when_its_worker_raises(monkeypatch, pins):
    mask = os.sched_getaffinity(0)
    draw = learn._receiver_noise

    def failing(setup, round_index, *args):
        if round_index == 2:
            raise InfeasibleError("noise draw failed")
        return draw(setup, round_index, *args)

    monkeypatch.setattr(learn, "_receiver_noise", failing)
    with pytest.raises(InfeasibleError, match="noise draw failed"):
        run_training(studies.training_setup(_tiny_cfg(rounds=4), 0), "csc_mv_2", 20.0)
    assert os.sched_getaffinity(0) == mask
    if _placed(mask) is None:
        assert pins == []
    else:
        assert pins[-1] == (threading.get_native_id(), mask)


def test_inexact_vote_count_pins_nothing(pins):
    mask = os.sched_getaffinity(0)
    cfg = _tiny_cfg()
    # in 30 bins no guard carries exactly 4 vote pairs
    wave = replace(cfg.wave, num_bins=30, sweep_cycles=26.0)
    setup = studies.training_setup(replace(cfg, wave=wave), 0)
    with pytest.raises(InfeasibleError, match="exactly 4 vote pairs"):
        run_training(setup, "csc_mv_4", 20.0)
    assert os.sched_getaffinity(0) == mask
    assert pins == []


@pytest.mark.parametrize("scheme", ["obda", "ideal"])
def test_run_without_a_worker_pins_nothing(pins, scheme):
    mask = os.sched_getaffinity(0)
    run_training(studies.training_setup(_tiny_cfg(rounds=3), 0), scheme, 20.0)
    assert os.sched_getaffinity(0) == mask
    assert pins == []


def test_one_cpu_mask_pins_nothing(one_cpu, pins, monkeypatch):
    monkeypatch.setattr(studies, "_cpus", lambda: 3)
    mask = os.sched_getaffinity(0)
    assert len(mask) == 1
    seen = []

    def fn(item):
        seen.append(os.sched_getaffinity(0))
        return item

    assert studies._map(fn, list(range(6))) == list(range(6))
    run_training(studies.training_setup(_tiny_cfg(rounds=3), 0), "csc_mv_2", 20.0)
    assert pins == []
    assert seen == [mask] * 6
    assert os.sched_getaffinity(0) == mask
