"""The NamedTuple records against reference copies of the dataclasses they replace.

The references below are the frozen, ordered dataclasses that Character,
TorsionPoint and Permutation used to be.  Equality, ordering, hashing, repr,
normalised fields and validation errors must all agree with them.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from paramod import lattice, orbits


@dataclass(frozen=True, order=True)
class TorsionPoint:
    n: int
    coords: tuple

    def __post_init__(self) -> None:
        if self.n not in (2, 4):
            raise ValueError(f"order bound must be 2 or 4, got {self.n}")
        object.__setattr__(self, "coords", tuple(c % self.n for c in self.coords))


@dataclass(frozen=True, order=True)
class Character:
    n: int
    exponents: tuple

    def __post_init__(self) -> None:
        if self.n not in (2, 4):
            raise ValueError(f"order bound must be 2 or 4, got {self.n}")
        object.__setattr__(self, "exponents", tuple(e % self.n for e in self.exponents))


@dataclass(frozen=True, order=True)
class Permutation:
    images: tuple

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection: {self.images}")


PAIRS = [(lattice.Character, Character), (lattice.TorsionPoint, TorsionPoint)]

vectors = st.tuples(*[st.integers(-9, 9)] * 4)
orders = st.sampled_from((2, 4))


def _agree(new, ref, new_other, ref_other):
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    assert (new == new_other) == (ref == ref_other)
    assert (new < new_other) == (ref < ref_other)
    assert (new_other < new) == (ref_other < ref)


@pytest.mark.parametrize("new_cls, ref_cls", PAIRS)
@given(n=orders, v=vectors, n_other=orders, v_other=vectors)
def test_vector_records_match_reference(new_cls, ref_cls, n, v, n_other, v_other):
    new, ref = new_cls(n, v), ref_cls(n, v)
    assert tuple(new) == tuple(getattr(ref, f) for f in new._fields)
    _agree(new, ref, new_cls(n_other, v_other), ref_cls(n_other, v_other))


@pytest.mark.parametrize("new_cls, ref_cls", PAIRS)
@given(n=st.integers(-5, 9).filter(lambda n: n not in (2, 4)), v=vectors)
def test_vector_records_reject_bad_order_like_reference(new_cls, ref_cls, n, v):
    with pytest.raises(ValueError) as new_err:
        new_cls(n, v)
    with pytest.raises(ValueError) as ref_err:
        ref_cls(n, v)
    assert str(new_err.value) == str(ref_err.value)


permutations = st.integers(0, 6).flatmap(
    lambda k: st.permutations(range(k)).map(tuple))


@given(p=permutations, q=permutations)
def test_permutation_matches_reference(p, q):
    new, ref = orbits.Permutation(p), Permutation(p)
    assert new.images == ref.images
    _agree(new, ref, orbits.Permutation(q), Permutation(q))
    if len(p) == len(q):
        composed = new.compose(orbits.Permutation(q))
        assert type(composed) is orbits.Permutation
        assert repr(composed) == repr(Permutation(tuple(p[i] for i in q)))


@given(images=st.lists(st.integers(-2, 6), max_size=6).map(tuple).filter(
    lambda t: sorted(t) != list(range(len(t)))))
def test_permutation_rejects_non_bijection_like_reference(images):
    with pytest.raises(ValueError) as new_err:
        orbits.Permutation(images)
    with pytest.raises(ValueError) as ref_err:
        Permutation(images)
    assert str(new_err.value) == str(ref_err.value)
