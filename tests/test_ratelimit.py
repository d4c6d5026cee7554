"""The bandwidth limit of ``ThrottledTransport``: its token bucket's
arithmetic on a simulated clock, and its byte count and charges under
threads."""
import random
import sys
import threading

import pytest

from blogwatch.clock import SimClock
from blogwatch.transport import ThrottledTransport

from conftest import ZeroBodies


def _fetch(transport, size):
    transport.fetch("http://x.example/", size, 1.0)


def test_unlimited_adds_no_delay():
    clock = SimClock()
    transport = ThrottledTransport(ZeroBodies(), None, clock)
    for size in (10, 10_000, 10_000_000):
        _fetch(transport, size)
    assert clock.now() == 0.0
    assert transport.bytes_fetched == 10_010_010


def test_burst_budget_arithmetic():
    # 10 KiB/s, 100 KiB requested in bursts: the bucket starts empty, so
    # the whole transfer costs >= 10 simulated seconds
    clock = SimClock()
    transport = ThrottledTransport(ZeroBodies(), 10 * 1024, clock)
    for _ in range(10):
        _fetch(transport, 10 * 1024)
    assert clock.now() >= 10.0 - 1e-9


def test_long_run_throughput_within_ten_percent():
    rng = random.Random(6)
    clock = SimClock()
    rate = 10 * 1024
    transport = ThrottledTransport(ZeroBodies(), rate, clock)
    granted = 0
    while clock.now() < 30.0:
        size = rng.randint(200, 30_000)
        _fetch(transport, size)
        granted += size
    elapsed = clock.now()
    throughput = granted / elapsed
    assert abs(throughput - rate) / rate <= 0.10


def test_idle_burst_capped_at_two_seconds_of_budget():
    clock = SimClock()
    rate = 1000
    transport = ThrottledTransport(ZeroBodies(), rate, clock)
    clock.sleep(60.0)  # long idle must not bank unlimited credit
    _fetch(transport, 2000)  # exactly the 2 s cap: free
    assert clock.now() == 60.0
    _fetch(transport, 1000)  # next request pays
    assert clock.now() > 60.0


def test_rate_validation():
    with pytest.raises(ValueError):
        ThrottledTransport(ZeroBodies(), 0, SimClock())
    with pytest.raises(ValueError):
        ThrottledTransport(ZeroBodies(), -5, SimClock())


class _FrozenClock:
    """Time stands still, so the bucket never refills and every charge
    stays in the balance. Keeps each requested sleep."""

    def __init__(self):
        self.sleeps = []

    def now(self) -> float:
        return 0.0

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)


def test_concurrent_fetches_account_every_byte():
    """Four threads share one throttled transport, with thread switches
    forced every microsecond: no byte and no bucket charge may be lost."""
    threads_n, fetches = 4, 5_000
    clock = _FrozenClock()
    transport = ThrottledTransport(ZeroBodies(), 1, clock)   # 1 byte/s: a wait equals the deficit

    def worker():
        for _ in range(fetches):
            _fetch(transport, 10)

    threads = [threading.Thread(target=worker) for _ in range(threads_n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    total = threads_n * fetches * 10
    assert transport.bytes_fetched == total
    # each charge deepened the one deficit by its 10 bytes, none was lost
    assert sorted(clock.sleeps) == [10.0 * k for k in range(1, threads_n * fetches + 1)]
    _fetch(transport, 1)
    assert clock.sleeps[-1] == total + 1


class _BlockingClock:
    """Frozen time whose ``sleep`` blocks until ``release`` is set."""

    def __init__(self):
        self.sleeping = threading.Event()
        self.release = threading.Event()

    def now(self) -> float:
        return 0.0

    def sleep(self, seconds: float) -> None:
        self.sleeping.set()
        self.release.wait(10)


def test_a_fetch_paying_off_a_deficit_holds_no_lock():
    """While one fetch sleeps off its deficit, another thread's fetch of
    an empty body (which costs no tokens) returns at once; once the first
    is released, the byte count is exact."""
    clock = _BlockingClock()
    transport = ThrottledTransport(ZeroBodies(), 1, clock)
    paying = threading.Thread(target=_fetch, args=(transport, 10))
    paying.start()
    try:
        assert clock.sleeping.wait(10)
        free = threading.Thread(target=_fetch, args=(transport, 0))
        free.start()
        free.join(timeout=5)
        assert not free.is_alive()
    finally:
        clock.release.set()
        paying.join(timeout=10)
    assert not paying.is_alive()
    assert transport.bytes_fetched == 10
