"""Conservation of the stream pool's ragged scatter.

``StreamPool.extend_streams`` writes any mix of chunks (several per
stream, empty ones, chunks longer than the ring, non-finite samples) in
one scatter.  Its oracle is ``StreamPool.append``, one sample at a time
in the same order, on a twin pool: after every batch and every tick both
pools must hold the same ring bytes and the same counters.  Whatever
happens, the books balance per stream:

- offered = accepted + rejected + dropped;
- windows formed = windows emitted + windows skipped, once a tick has
  emitted everything due.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.stream import BACKPRESSURE_POLICIES, MomentsBackend, StreamPool, StreamSpec

COUNTERS = ("written", "emitted", "accepted_samples", "rejected_samples",
            "dropped_samples", "skipped_windows")


@st.composite
def _runs(draw):
    """A pool layout and a script of ragged batches and ticks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 4))
    windows = rng.integers(1, 7, n)
    capacity = int(windows.max()) + draw(st.integers(0, 8))
    # Hops beyond the ring depth leave gaps the writer may overwrite.
    hops = rng.integers(1, capacity + 6, n)
    policy = draw(st.sampled_from(BACKPRESSURE_POLICIES))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        if rng.random() < 0.3:
            steps.append(None)  # a tick
            continue
        k = int(rng.integers(0, 6))
        streams = rng.integers(0, n, k)  # repeats allowed
        counts = rng.integers(0, 2 * capacity + 3, k)  # some >= capacity
        values = rng.normal(size=int(counts.sum()))
        bad = rng.random(values.size) < 0.1
        values[bad] = rng.choice([np.nan, np.inf, -np.inf], int(bad.sum()))
        steps.append((streams, counts, values))
    spec = StreamSpec(windows=windows, hops=hops, capacity=capacity)
    return spec, policy, steps


def _assert_same(pool, twin):
    assert pool._ring.tobytes() == twin._ring.tobytes()
    for name in COUNTERS:
        assert np.array_equal(getattr(pool, name), getattr(twin, name)), name


@given(_runs())
@settings(max_examples=200, deadline=None)
def test_ragged_scatter_matches_per_sample_append(run):
    spec, policy, steps = run
    pool = StreamPool(spec, MomentsBackend(), policy=policy)
    twin = StreamPool(spec, MomentsBackend(), policy=policy)
    offered = np.zeros(spec.n_streams, dtype=np.int64)
    scored = np.zeros(spec.n_streams, dtype=np.int64)
    for step in steps + [None]:
        if step is None:
            got, want = pool.tick(), twin.tick()
            assert np.array_equal(got.streams, want.streams)
            assert np.array_equal(got.indices, want.indices)
            assert got.scores.tobytes() == want.scores.tobytes()
            scored += np.bincount(got.streams, minlength=spec.n_streams)
        else:
            streams, counts, values = step
            taken = pool.extend_streams(streams, counts, values)
            before = twin.accepted_samples.copy()
            for s, v in zip(np.repeat(streams, counts), values):
                twin.append(int(s), v)
            assert np.array_equal(taken, twin.accepted_samples - before)
            offered += np.bincount(
                np.repeat(streams, counts), minlength=spec.n_streams
            )
        _assert_same(pool, twin)
        assert np.array_equal(
            offered,
            pool.accepted_samples + pool.rejected_samples + pool.dropped_samples,
        )
    # The last step ticked, so nothing formed is still due.
    formed = np.where(
        pool.written >= spec.windows, (pool.written - spec.windows) // spec.hops + 1, 0
    )
    assert np.array_equal(formed, scored + pool.skipped_windows)


def test_extend_and_extend_block_are_its_cases():
    spec = StreamSpec.homogeneous(3, window=4, hop=2, capacity=6)
    block = np.arange(15, dtype=float).reshape(3, 5)
    a = StreamPool(spec, MomentsBackend())
    b = StreamPool(spec, MomentsBackend())
    c = StreamPool(spec, MomentsBackend())
    assert a.extend_block(block) == 15
    for s in range(3):
        assert b.extend(s, block[s]) == 5
    taken = c.extend_streams([2, 0, 1], [5, 5, 5], block[[2, 0, 1]].ravel())
    assert taken.tolist() == [5, 5, 5]
    _assert_same(a, b)
    _assert_same(a, c)


def test_extend_streams_refuses_inconsistent_chunks():
    pool = StreamPool(StreamSpec.homogeneous(2, window=4, hop=2), MomentsBackend())
    bad_calls = [
        ([0, 2], [1, 1], np.zeros(2)),    # stream out of range
        ([-1], [1], np.zeros(1)),         # negative stream
        ([0], [-1], np.zeros(0)),         # negative count
        ([0, 1], [2, 2], np.zeros(3)),    # counts do not cover values
        ([0, 1], [1], np.zeros(1)),       # ragged header
        ([0], [4], np.zeros((2, 2))),     # values not flat
    ]
    for streams, counts, values in bad_calls:
        try:
            pool.extend_streams(streams, counts, values)
        except ConfigurationError:
            pass
        else:
            raise AssertionError(f"accepted {streams}, {counts}, {values.shape}")
    assert not pool.written.any() and not pool.rejected_samples.any()
