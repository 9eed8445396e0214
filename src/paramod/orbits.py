"""Orbit enumeration over finite group actions, and the standard reports.

One breadth-first engine, :func:`orbit`, serves every orbit computation here:
the orbit partition of a labeled set, the point orbits of a permutation
group and the enumeration of the group itself: the orbit of the identity
image tuple under right multiplication, each generator applied as one
``operator.itemgetter``.  States are opaque orderable values, generators are
opaque, and the action takes the generator first, ``action(gen, state)``:
the argument order of ``act``, ``act_pair`` and ``Permutation.compose``.
Determinism is part of the contract: each BFS layer is sorted by state, so
orbit listings, witness words and serialized reports are byte-stable across
runs.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, NamedTuple, Sequence

from paramod.errors import ConsistencyError
from paramod.lattice import (
    CharacterTable,
    character_table,
    make_lattice,
    square_roots,
)
from paramod.paramodular import ParamodularMatrix, act, act_pair, special_generators

DEFAULT_CLOSURE_CAP = 10**6


class _LabeledSetFields(NamedTuple):
    elements: tuple
    labels: tuple[str, ...]


class LabeledSet(_LabeledSetFields):
    """Ordered state set with display labels aligned index-by-index."""

    __slots__ = ()

    def __new__(cls, elements: tuple, labels: tuple[str, ...]) -> "LabeledSet":
        if len(elements) != len(labels):
            raise ValueError("elements and labels must have equal length")
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate states in labeled set")
        return super().__new__(cls, elements, labels)


class _PermutationFields(NamedTuple):
    images: tuple[int, ...]


class Permutation(_PermutationFields):
    """Permutation of 0..deg-1 as an image array."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]) -> "Permutation":
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection: {images}")
        return super().__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i)).

        A product of two bijections is a bijection, so the result is built
        without the check in __new__.
        """
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return tuple.__new__(Permutation, (tuple(map(self.images.__getitem__, other.images)),))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles of length >= 2, each starting at its least point."""
        seen: set[int] = set()
        out = []
        for start in range(self.degree):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            k = self.images[start]
            while k != start:
                cyc.append(k)
                seen.add(k)
                k = self.images[k]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self, labels: Sequence[str]) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(labels[i] for i in cyc) + ")" for cyc in cycs)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))


class OrbitPartition(NamedTuple):
    """Orbit blocks as index lists plus a replayable witness word per element.

    Words are tuples of generator indices; applying them left to right to the
    block representative (the first index of the block) reproduces the element.
    """

    blocks: tuple[tuple[int, ...], ...]
    generator_words: tuple[tuple[int, ...], ...]

    def sizes(self) -> list[int]:
        return sorted(len(b) for b in self.blocks)


def orbit(seed, generators: Sequence, action: Callable, cap: float = math.inf):
    """Breadth-first orbit of seed under action(gen, state).

    Returns (words, truncated).  words maps every state reached to its witness
    word, the generator indices that carry seed to it applied left to right,
    in BFS order with each layer sorted by state.  The search stops, with
    truncated True, as soon as more than cap states have been reached.
    """
    words = {seed: ()}
    frontier = [seed]
    while frontier:
        layer = {}
        for s in frontier:
            for gi, g in enumerate(generators):
                t = action(g, s)
                if t not in words and t not in layer:
                    layer[t] = words[s] + (gi,)
                    if len(words) + len(layer) > cap:
                        words.update(sorted(layer.items()))
                        return words, True
        frontier = sorted(layer)
        words.update((t, layer[t]) for t in frontier)
    return words, False


def _partition(degree: int, tables: Sequence[Sequence[int]]) -> OrbitPartition:
    """Orbits of 0..degree-1 under image tables, each block led by its least point."""
    words: list = [None] * degree
    blocks = []
    for start in range(degree):
        if words[start] is None:
            block, _ = orbit(start, tables, operator.getitem)
            blocks.append(tuple(block))
            for i, word in block.items():
                words[i] = word
    return OrbitPartition(tuple(blocks), tuple(words))


def _tables(lset: LabeledSet, generators: Sequence, action: Callable) -> list[tuple[int, ...]]:
    """Index of action(gen, s) for each s in the set, per generator; errors name any escapee."""
    index = {s: i for i, s in enumerate(lset.elements)}
    tables = []
    for g in generators:
        images = []
        for s, label in zip(lset.elements, lset.labels):
            t = action(g, s)
            if t not in index:
                raise ValueError(f"set is not stable: {label} is sent to {t!r}")
            images.append(index[t])
        tables.append(tuple(images))
    return tables


def orbits_all(lset: LabeledSet, generators: Sequence, action: Callable) -> OrbitPartition:
    """Partition the labeled set into orbits, recording witness words."""
    return _partition(len(lset.elements), _tables(lset, generators, action))


def permutation_of(m: ParamodularMatrix, lset: LabeledSet) -> Permutation:
    """Permutation m induces on a stable set of characters; errors name any escapee."""
    return Permutation(_tables(lset, [m], act)[0])


class ClosureReport(NamedTuple):
    order: int
    truncated: bool
    transitive: bool
    orbit_sizes: tuple[int, ...]


def _apply(step: Callable, state):
    return step(state)


def group_closure(
    perms: Sequence[Permutation], degree: int, cap: int = DEFAULT_CLOSURE_CAP
) -> ClosureReport:
    """Enumerate the generated permutation group, up to a safety cap.

    Elements are image tuples.  Each generator g is one itemgetter that maps
    s to s∘g in a single call, so the search walks the right Cayley graph from
    the identity; it reaches the same group, and a truncated run holds exactly
    cap + 1 elements as with any orbit.  Transitivity and point-orbit sizes
    only need the generators, so they are reported even when the closure
    itself is truncated.
    """
    for p in perms:
        if p.degree != degree:
            raise ValueError(f"permutation of degree {p.degree}, expected {degree}")

    sizes = _partition(degree, [p.images for p in perms]).sizes()
    # itemgetter returns a tuple only for two or more indices; on fewer
    # points every permutation is the identity and the group is trivial
    steps = [operator.itemgetter(*p.images) for p in perms] if degree > 1 else []
    elements, truncated = orbit(tuple(range(degree)), steps, _apply, cap)
    return ClosureReport(len(elements), truncated, sizes == [degree], tuple(sizes))


# -- the standard sets and reports for d=2 ---------------------------------

def characters2_set(table: CharacterTable) -> LabeledSet:
    chars = table.all_characters()
    labels = tuple(table.label_of(c) for c in chars)
    return LabeledSet(chars, labels)


def psi_set(table: CharacterTable) -> LabeledSet:
    labels = tuple(f"psi{i + 1}" for i in range(12))
    return LabeledSet(table.psi, labels)


def pairs48_set(table: CharacterTable) -> LabeledSet:
    elements = []
    labels = []
    for i, q in enumerate(table.chi[1:], start=1):
        for r in square_roots(q):
            elements.append((q, r))
            labels.append(f"(chi{i}, {','.join(str(e) for e in r.exponents)})")
    return LabeledSet(tuple(elements), tuple(labels))


@functools.cache
def standard_set(name: str) -> tuple[LabeledSet, tuple[Permutation, ...], OrbitPartition]:
    """A named d=2 set, the six generators' permutations of it and its orbit partition.

    Built once per process; every call returns the same immutable objects.
    """
    table = character_table(make_lattice(2))
    if name == "characters2":
        lset, action = characters2_set(table), act
    elif name == "psi12":
        lset, action = psi_set(table), act
    elif name == "pairs48":
        lset, action = pairs48_set(table), act_pair
    else:
        raise ValueError(f"unknown set {name!r}; choose characters2, psi12 or pairs48")
    tables = _tables(lset, [g for _, g in special_generators()], action)
    return lset, tuple(map(Permutation, tables)), _partition(len(lset.elements), tables)


def standard_orbit_report(set_name: str) -> dict:
    """Orbit partition of one of the named sets under the six generators."""
    lset, _, part = standard_set(set_name)
    gens = special_generators()
    orbits_json = [
        {
            "size": len(block),
            "members": [lset.labels[i] for i in block],
            "witnesses": [
                {
                    "member": lset.labels[i],
                    "word": [gens[gi][0] for gi in part.generator_words[i]],
                }
                for i in block
            ],
        }
        for block in part.blocks
    ]
    return {
        "set": set_name,
        "generators": [name for name, _ in gens],
        "orbits": orbits_json,
        "orbit_sizes": part.sizes(),
        "transitive": len(part.blocks) == 1,
    }


def component_report() -> dict:
    """Connected-component and cover-degree summary for the decorated moduli.

    Each stated degree (12, 3 and 48 = 3 * 16) is compared with the size of
    the orbit the orbit engine computes for it; a mismatch raises
    ConsistencyError.  The 12- and 3-orbits being disjoint in 16 characters
    leaves the trivial character alone, so the sizes are exactly 1, 3, 12.
    """
    lset16, _, part16 = standard_set("characters2")
    orbit_size = {lset16.labels[i]: len(block) for block in part16.blocks for i in block}
    part48 = standard_set("pairs48")[2]

    def component(name, marking, cover_degree, orbit_size_check, **extra) -> dict:
        if orbit_size_check != cover_degree:
            raise ConsistencyError(
                f"component {name}: cover degree {cover_degree} but orbit size "
                f"{orbit_size_check}; if the pair orbit split, the six standard "
                "generators no longer suffice and the family must be augmented"
            )
        return {"name": name, "marking": marking, "cover_degree": cover_degree,
                "orbit_size_check": orbit_size_check, **extra}

    return {
        "marked_2torsion_space": {"components": [
            component("a", "2-torsion bundle outside the polarization image",
                      12, orbit_size["psi1"]),
            component("b", "2-torsion bundle in the polarization image",
                      3, orbit_size["chi1"]),
        ]},
        "marked_root_pair_space": {"components": [
            component("single", "(2-torsion bundle in the image, order-4 square root)",
                      48, len(part48.blocks[0]), factorization="3 * 16"),
        ]},
    }
