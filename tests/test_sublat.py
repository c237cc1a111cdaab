import pytest

from starklab.grpring import InputError
from starklab.sublat import (CapacityError, brute_force_index_p_subgroups,
                             count_avoiding, enumerate_omega_star,
                             norm_sum_identity)


def test_omega_star_counts():
    assert enumerate_omega_star(2, 2).count_proper() == 3
    assert len(enumerate_omega_star(2, 2).all_subgroups()) == 4
    assert enumerate_omega_star(3, 2).count_proper() == 4
    assert enumerate_omega_star(2, 1).count_proper() == 1
    assert len(enumerate_omega_star(2, 1).all_subgroups()) == 2
    for p, m in [(2, 3), (3, 3), (5, 2)]:
        hs = enumerate_omega_star(p, m)
        assert hs.count_proper() == (p ** m - 1) // (p - 1)


def test_input_validation():
    with pytest.raises(InputError):
        enumerate_omega_star(4, 2)
    with pytest.raises(CapacityError):
        enumerate_omega_star(3, 7)
    with pytest.raises(InputError):
        count_avoiding(2, 2, (0, 0))
    with pytest.raises(InputError):
        count_avoiding(4, 2, (1, 0))
    with pytest.raises(CapacityError):
        count_avoiding(3, 7, (1,) + (0,) * 6)


def test_count_avoiding():
    assert count_avoiding(2, 2, (1, 0)) == (2, 1)
    assert count_avoiding(3, 2, (1, 2)) == (3, 1)
    assert count_avoiding(2, 3, (1, 1, 0)) == (4, 3)
    # every nonzero element avoids exactly p^{m-1} hyperplanes
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        hs = enumerate_omega_star(p, m)
        for el in hs.group.elements:
            if not any(el):
                continue
            av, cont = count_avoiding(p, m, el)
            assert av == p ** (m - 1)
            assert cont == (p ** (m - 1) - 1) // (p - 1)


def test_norm_sum_identity_small():
    x = norm_sum_identity(2, 2)
    assert x.coefficient((0, 0)) == 2 and x.aug() == 2
    assert norm_sum_identity(2, 1).coefficient((0,)) == 1
    assert norm_sum_identity(3, 2).coefficient((0, 0)) == 3


def test_brute_force_oracle_agreement():
    for p, m in [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1)]:
        oracle = {s.mask for s in brute_force_index_p_subgroups(p, m)}
        fast = {s.mask for s in enumerate_omega_star(p, m).all_subgroups()}
        assert oracle == fast
