"""The one worker-count policy: every pool sizes through these knobs.

What ships here is the unification contract: ``default_workers`` (sweep
and build pools), ``serve_compute_workers`` (the service's compute
pool) and ``kernel_threads`` (threads inside one drain task) all bow to
``REPRO_MAX_WORKERS``, while an explicit operator request resolved
through ``resolve_workers`` is never capped.
"""

from __future__ import annotations

import os

import pytest

from repro.runtime import (
    MAX_WORKERS_ENV,
    default_workers,
    kernel_threads,
    resolve_workers,
    serve_compute_workers,
    worker_cap,
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)


def _cpus(monkeypatch, count):
    monkeypatch.setattr("repro.runtime.policy.os.cpu_count", lambda: count)


class TestWorkerCap:
    def test_unset_means_no_cap(self):
        assert worker_cap() is None

    def test_blank_means_no_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "   ")
        assert worker_cap() is None

    def test_integer_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "8")
        assert worker_cap() == 8

    def test_cap_clamped_to_at_least_one(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "0")
        assert worker_cap() == 1
        monkeypatch.setenv(MAX_WORKERS_ENV, "-3")
        assert worker_cap() == 1

    def test_garbage_names_the_env_var(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=MAX_WORKERS_ENV):
            worker_cap()
        with pytest.raises(ValueError, match=MAX_WORKERS_ENV):
            default_workers()


class TestDefaultWorkers:
    def test_scales_with_the_machine(self, monkeypatch):
        _cpus(monkeypatch, 64)
        assert default_workers() == 64

    def test_floor_of_two(self, monkeypatch):
        _cpus(monkeypatch, 1)
        assert default_workers() == 2
        _cpus(monkeypatch, None)
        assert default_workers() == 2

    def test_env_caps_but_never_raises(self, monkeypatch):
        _cpus(monkeypatch, 64)
        monkeypatch.setenv(MAX_WORKERS_ENV, "8")
        assert default_workers() == 8
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert default_workers() == 1
        _cpus(monkeypatch, 2)
        monkeypatch.setenv(MAX_WORKERS_ENV, "128")
        assert default_workers() == 2


class TestServeComputeWorkers:
    def test_small_and_cpu_derived(self, monkeypatch):
        _cpus(monkeypatch, 64)
        assert serve_compute_workers() == 4
        _cpus(monkeypatch, 3)
        assert serve_compute_workers() == 3
        _cpus(monkeypatch, 1)
        assert serve_compute_workers() == 2

    def test_env_cap_now_bounds_the_serve_pool(self, monkeypatch):
        """The unification headline: serve obeys REPRO_MAX_WORKERS too."""
        _cpus(monkeypatch, 64)
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert serve_compute_workers() == 1


class TestResolveWorkers:
    def test_explicit_positive_wins_verbatim(self, monkeypatch):
        _cpus(monkeypatch, 2)
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        # Operator overrides are never silently capped.
        assert resolve_workers(8) == 8

    def test_none_falls_back_to_policy(self, monkeypatch):
        _cpus(monkeypatch, 6)
        assert resolve_workers(None) == 6
        assert resolve_workers(None, fallback=serve_compute_workers) == 4

    def test_non_positive_falls_back_to_policy(self, monkeypatch):
        _cpus(monkeypatch, 6)
        assert resolve_workers(0) == 6
        assert resolve_workers(-2) == 6


def _affinity(monkeypatch, count):
    """This process may run on ``count`` CPUs (of a larger machine)."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )
    _cpus(monkeypatch, 2 * count)


class TestKernelThreads:
    def test_width_one_gets_every_cpu(self, monkeypatch):
        _affinity(monkeypatch, 6)
        assert kernel_threads(1) == 6

    def test_cpus_split_across_the_width(self, monkeypatch):
        _affinity(monkeypatch, 6)
        assert kernel_threads(2) == 3
        assert kernel_threads(4) == 1

    def test_width_at_or_past_the_cpus_gets_one(self, monkeypatch):
        _affinity(monkeypatch, 2)
        assert kernel_threads(2) == 1
        assert kernel_threads(5) == 1

    def test_cpu_count_without_an_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        _cpus(monkeypatch, 4)
        assert kernel_threads(1) == 4
        _cpus(monkeypatch, None)
        assert kernel_threads(1) == 1

    def test_env_cap_of_one_restores_single_threaded_kernels(
        self, monkeypatch
    ):
        _affinity(monkeypatch, 8)
        monkeypatch.setenv(MAX_WORKERS_ENV, "1")
        assert kernel_threads(1) == 1
        monkeypatch.setenv(MAX_WORKERS_ENV, "3")
        assert kernel_threads(1) == 3

    def test_garbage_cap_names_the_env_var(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=MAX_WORKERS_ENV):
            kernel_threads(1)
