"""Tests for the timed trace replayer (fake clock — no real sleeping)."""

import pytest

from repro.errors import ConfigurationError
from repro.dataplane.replay import TraceReplayer
from repro.dataplane.trace import Trace


class FakeClock:
    """A clock advanced only by sleep() calls."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestValidation:
    def test_negative_speedup_rejected(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            TraceReplayer(tiny_trace, speedup=-1)

    def test_chunk_seconds_validated(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            TraceReplayer(tiny_trace, chunk_seconds=0)


class TestReplay:
    def test_fast_replay_delivers_everything(self, tiny_trace):
        chunks = []
        replayer = TraceReplayer(tiny_trace, chunk_seconds=0.5)
        delivered = replayer.run(chunks.append)
        assert delivered == len(tiny_trace)
        assert sum(len(c) for c in chunks) == len(tiny_trace)

    def test_empty_trace(self):
        replayer = TraceReplayer(Trace.empty())
        assert replayer.run(lambda c: None) == 0

    def test_paced_replay_sleeps_to_schedule(self, tiny_trace):
        fake = FakeClock()
        replayer = TraceReplayer(tiny_trace, speedup=1.0,
                                 chunk_seconds=0.5, clock=fake.clock,
                                 sleep=fake.sleep)
        replayer.run(lambda c: None)
        # The trace spans ~2s; wall time consumed by sleeps must be close.
        assert sum(fake.sleeps) == pytest.approx(tiny_trace.duration,
                                                 abs=0.51)
        assert replayer.max_lag == 0.0

    def test_speedup_divides_wall_time(self, tiny_trace):
        fake = FakeClock()
        replayer = TraceReplayer(tiny_trace, speedup=4.0,
                                 chunk_seconds=0.5, clock=fake.clock,
                                 sleep=fake.sleep)
        replayer.run(lambda c: None)
        assert sum(fake.sleeps) == pytest.approx(tiny_trace.duration / 4,
                                                 abs=0.2)

    def test_lag_recorded_when_consumer_is_slow(self, tiny_trace):
        fake = FakeClock()
        replayer = TraceReplayer(tiny_trace, speedup=1.0,
                                 chunk_seconds=0.5, clock=fake.clock,
                                 sleep=fake.sleep)

        def slow_consume(chunk):
            fake.now += 2.0  # consumer takes 2s per 0.5s chunk

        replayer.run(slow_consume)
        assert replayer.max_lag > 0.0

    def test_stop_callback_halts_replay(self, tiny_trace):
        seen = []

        def stop():
            return len(seen) >= 1

        replayer = TraceReplayer(tiny_trace, chunk_seconds=0.5)
        delivered = replayer.run(seen.append, stop=stop)
        assert delivered == len(seen[0])
        assert delivered < len(tiny_trace)

    def test_zero_speedup_means_unpaced(self, tiny_trace):
        fake = FakeClock()
        replayer = TraceReplayer(tiny_trace, speedup=0,
                                 clock=fake.clock, sleep=fake.sleep)
        replayer.run(lambda c: None)
        assert fake.sleeps == []
