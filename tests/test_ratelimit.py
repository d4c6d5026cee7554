import random
import sys
import threading

import pytest

from blogwatch.clock import SimClock
from blogwatch.ratelimit import TokenBucket
from blogwatch.transport import ThrottledTransport


def test_unlimited_adds_no_delay():
    clock = SimClock()
    bucket = TokenBucket(None, clock)
    for size in (10, 10_000, 10_000_000):
        assert bucket.acquire(size) == 0.0
    assert clock.now() == 0.0


def test_burst_budget_arithmetic():
    # 10 KiB/s, 100 KiB requested in bursts: the bucket starts empty, so
    # the whole transfer costs >= 10 simulated seconds
    clock = SimClock()
    bucket = TokenBucket(10 * 1024, clock)
    for _ in range(10):
        bucket.acquire(10 * 1024)
    assert clock.now() >= 10.0 - 1e-9


def test_long_run_throughput_within_ten_percent():
    rng = random.Random(6)
    clock = SimClock()
    rate = 10 * 1024
    bucket = TokenBucket(rate, clock)
    granted = 0
    while clock.now() < 30.0:
        size = rng.randint(200, 30_000)
        bucket.acquire(size)
        granted += size
    elapsed = clock.now()
    throughput = granted / elapsed
    assert abs(throughput - rate) / rate <= 0.10


def test_idle_burst_capped_at_two_seconds_of_budget():
    clock = SimClock()
    rate = 1000
    bucket = TokenBucket(rate, clock)
    clock.sleep(60.0)  # long idle must not bank unlimited credit
    delay = bucket.acquire(2000)  # exactly the 2 s cap: free
    assert delay == 0.0
    assert bucket.acquire(1000) > 0.0  # next request pays


def test_rate_validation():
    with pytest.raises(ValueError):
        TokenBucket(0, SimClock())
    with pytest.raises(ValueError):
        TokenBucket(-5, SimClock())


class _FrozenClock:
    """Time stands still, so the bucket never refills and every charge
    stays in the balance."""

    def now(self) -> float:
        return 0.0

    def sleep(self, seconds: float) -> None:
        pass


class _FixedBody:
    def fetch(self, url, max_bytes, timeout):
        return 200, "text/html", b"x" * 10


def test_concurrent_fetches_account_every_byte():
    """Four threads share one throttled transport, with thread switches
    forced every microsecond: no byte and no bucket charge may be lost."""
    threads_n, fetches = 4, 5_000
    bucket = TokenBucket(1, _FrozenClock())   # 1 byte/s: a wait equals the deficit
    transport = ThrottledTransport(_FixedBody(), bucket)

    def worker():
        for _ in range(fetches):
            transport.fetch("http://x.example/", 100, 1.0)

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
    assert bucket.acquire(1) == total + 1
