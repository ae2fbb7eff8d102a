"""IngestLoop: timer sealing, bounded runs, drain-on-stop, errors."""

import time

import pytest

from repro.errors import ConfigurationError
from repro.controlplane.controller import Controller
from repro.dataplane.replay import LoopingChunkSource
from repro.service.ingest import IngestLoop

from tests.service.conftest import small_sketch_factory


def make_controller():
    return Controller(sketch_factory=small_sketch_factory,
                      epoch_seconds=1.0)


class TestIngestLoop:
    def test_parameters_validated(self):
        controller = make_controller()
        with pytest.raises(ConfigurationError):
            IngestLoop(controller, [], epoch_seconds=0.0,
                       on_epoch=lambda *a: None)
        with pytest.raises(ConfigurationError):
            IngestLoop(controller, [], epoch_seconds=1.0,
                       on_epoch=lambda *a: None, max_epochs=0)

    def test_finite_source_seals_remainder(self, small_trace):
        sealed = []
        loop = IngestLoop(
            make_controller(),
            small_trace.epochs(1.0),         # finite chunk list
            epoch_seconds=3600.0,            # timer never fires
            on_epoch=lambda sk, rep: sealed.append((sk, rep)))
        loop.start()
        loop.join(timeout=30)
        assert not loop.is_alive()
        assert loop.error is None
        assert len(sealed) == 1              # one epoch at exhaustion
        _, report = sealed[0]
        assert report.packets == len(small_trace)
        assert loop.packets_ingested == len(small_trace)

    def test_max_epochs_bounds_endless_source(self, small_trace):
        sealed = []
        loop = IngestLoop(
            make_controller(),
            LoopingChunkSource(small_trace, chunk_size=1000),
            epoch_seconds=0.05,
            on_epoch=lambda sk, rep: sealed.append(rep),
            max_epochs=3)
        loop.start()
        loop.join(timeout=30)
        assert not loop.is_alive()
        assert loop.epochs_sealed == 3
        assert len(sealed) == 3
        assert [r.epoch_index for r in sealed] == [0, 1, 2]

    def test_stop_drains_partial_epoch(self, small_trace):
        sealed = []
        loop = IngestLoop(
            make_controller(),
            LoopingChunkSource(small_trace, chunk_size=500),
            epoch_seconds=3600.0,            # only the drain can seal
            on_epoch=lambda sk, rep: sealed.append(rep))
        loop.start()
        deadline = time.monotonic() + 20
        while loop.packets_ingested == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        loop.stop()
        loop.join(timeout=30)
        assert not loop.is_alive()
        assert len(sealed) == 1
        assert sealed[0].packets == loop.packets_ingested > 0

    def test_memory_does_not_grow_with_chunks_per_epoch(self, small_trace):
        """The loop holds no chunk past its ingest: the allocation peak
        of one epoch of 250 chunks stays close to that of 50 chunks.
        An epoch buffer concatenated at the seal read 10.6 against
        52.6 MiB."""
        import itertools
        import tracemalloc

        pieces = list(itertools.islice(
            LoopingChunkSource(small_trace, chunk_size=4096), 5))

        def peak(n):
            chunks = [pieces[i % len(pieces)] for i in range(n)]
            loop = IngestLoop(make_controller(), chunks,
                              epoch_seconds=3600.0,    # only the drain seals
                              on_epoch=lambda *args: None)
            tracemalloc.start()
            try:
                loop.run()              # on this thread: traced
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert loop.error is None
                assert loop.epochs_sealed == 1

        assert peak(250) <= peak(50) + (1 << 20)

    def test_callback_error_is_captured(self, small_trace, registry):
        def boom(*args):
            raise RuntimeError("publication failed")

        loop = IngestLoop(
            make_controller(),
            LoopingChunkSource(small_trace, chunk_size=1000),
            epoch_seconds=0.01, on_epoch=boom)
        loop.start()
        loop.join(timeout=30)
        assert not loop.is_alive()
        assert isinstance(loop.error, RuntimeError)
        assert registry.counter(
            "univmon_service_ingest_errors_total").value == 1


class TestLoopingChunkSource:
    def test_validation(self, small_trace):
        from repro.dataplane.trace import Trace
        with pytest.raises(ConfigurationError):
            LoopingChunkSource(Trace.empty())
        with pytest.raises(ConfigurationError):
            LoopingChunkSource(small_trace, chunk_size=0)

    def test_chunks_cover_trace_then_wrap(self, tiny_trace):
        source = LoopingChunkSource(tiny_trace, chunk_size=128)
        chunks = []
        for chunk in source:
            chunks.append(chunk)
            if source.wraps >= 2:
                break
        per_pass = -(-len(tiny_trace) // 128)  # ceil division
        first_pass = chunks[:per_pass]
        assert sum(len(c) for c in first_pass) == len(tiny_trace)
        # Timestamps advance monotonically across the wrap boundary.
        last_of_pass1 = float(first_pass[-1].timestamps[-1])
        first_of_pass2 = float(chunks[per_pass].timestamps[0])
        assert first_of_pass2 > last_of_pass1
