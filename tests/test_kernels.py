import pytest

from autorbit import kernels


def test_snf_wide_entries():
    # entries beyond 64 bits stay exact
    big = 2**70
    assert kernels.snf_diagonal(2, 2, [big, 0, 0, big]) == [big, big]


def test_sweep_wide_values():
    fs = [0, 2**70]
    es = [2**70, 2**70 + 1]
    assert kernels.pgroup_sweep(fs, es) == [0, 2**70 + 1]


def test_sweep_tie_handling_matches_stable_sort():
    # the pairs with f = 1 keep their input order: e = 3, 2, 5
    assert kernels.pgroup_sweep([1, 1, 1, 0, 0], [3, 2, 5, 4, 1]) == [0, 1, 3, 2, 5]


def test_sweep_empty():
    assert kernels.pgroup_sweep([], []) == []


@pytest.mark.parametrize("fs, es", [([0, 1], [2]), ([0], [2, 3]), ([], [1])])
def test_pure_sweep_rejects_length_mismatch(fs, es):
    # a short es used to raise IndexError and a long one was truncated
    with pytest.raises(ValueError):
        kernels.pgroup_sweep(fs, es)


def test_snf_zero_matrix():
    assert kernels.snf_diagonal(2, 3, [0] * 6) == [0, 0]
    with pytest.raises(ValueError):
        kernels.snf_diagonal(2, 3, [0] * 5)
