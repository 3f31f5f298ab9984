import pytest
from hypothesis import given
from hypothesis import strategies as st

from autorbit import _kernels_py, kernels

compiled = pytest.importorskip("autorbit._speedups") if kernels.compiled_available() else None
needs_compiled = pytest.mark.skipif(
    not kernels.compiled_available(), reason="compiled kernels not built"
)

pair_lists = st.lists(
    st.integers(1, 12).flatmap(lambda e: st.tuples(st.integers(0, e), st.just(e))),
    max_size=12,
)

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.tuples(
            st.just(r),
            st.just(c),
            st.lists(st.integers(-100, 100), min_size=r * c, max_size=r * c),
        )
    )
)


@needs_compiled
@given(pair_lists)
def test_sweep_backends_agree(pairs):
    fs = [f for f, _ in pairs]
    es = [e for _, e in pairs]
    assert compiled.pgroup_sweep(fs, es) == _kernels_py.pgroup_sweep(fs, es)


@needs_compiled
def test_sweep_tie_handling_matches_stable_sort():
    fs = [1, 1, 1, 0, 0]
    es = [3, 2, 5, 4, 1]
    assert compiled.pgroup_sweep(fs, es) == _kernels_py.pgroup_sweep(fs, es)


@needs_compiled
@given(matrices)
def test_snf_backends_agree(mat):
    rows, cols, entries = mat
    assert compiled.snf_diagonal(rows, cols, entries) == _kernels_py.snf_diagonal(
        rows, cols, entries
    )


@needs_compiled
def test_compiled_snf_raises_on_wide_entries():
    with pytest.raises(OverflowError):
        compiled.snf_diagonal(1, 1, [2**70])


def test_dispatcher_falls_back_on_wide_entries():
    # entries beyond 64 bits must silently take the pure path
    big = 2**70
    assert kernels.snf_diagonal(2, 2, [big, 0, 0, big]) == [big, big]


def test_dispatcher_sweep_falls_back_on_wide_values():
    fs = [0, 2**70]
    es = [2**70, 2**70 + 1]
    assert kernels.pgroup_sweep(fs, es) == _kernels_py.pgroup_sweep(fs, es)


def test_forced_backend_context():
    original = kernels.active_backend()
    with kernels.forced("pure"):
        assert kernels.active_backend() == "pure"
        assert kernels.snf_diagonal(2, 2, [2, 0, 0, 3]) == [1, 6]
    assert kernels.active_backend() == original
    with pytest.raises(ValueError):
        with kernels.forced("turbo"):
            pass


def test_sweep_empty():
    assert kernels.pgroup_sweep([], []) == []


@pytest.mark.parametrize("fs, es", [([0, 1], [2]), ([0], [2, 3]), ([], [1])])
def test_pure_sweep_rejects_length_mismatch(fs, es):
    # a short es used to raise IndexError and a long one was truncated
    with pytest.raises(ValueError):
        _kernels_py.pgroup_sweep(fs, es)


def test_snf_zero_matrix():
    assert kernels.snf_diagonal(2, 3, [0] * 6) == [0, 0]
