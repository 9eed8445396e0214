"""Orbit enumeration over finite group actions, and the standard reports.

One breadth-first engine, :func:`orbit`, serves every orbit computation here:
the orbit partition of a labeled set, the point orbits of a permutation
group and the enumeration of the group itself (the orbit of the identity).
States are opaque orderable values, generators are opaque, and the action
takes the generator first, ``action(gen, state)``: the argument order of
``act``, ``act_pair`` and ``Permutation.compose``.  Determinism is part of
the contract: each BFS layer is sorted by state, so orbit listings, witness
words and serialized reports are byte-stable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from paramod.errors import ConsistencyError
from paramod.lattice import (
    CharacterTable,
    character_table,
    make_lattice,
    square_roots,
)
from paramod.paramodular import ParamodularMatrix, act, act_pair, special_generators

DEFAULT_CLOSURE_CAP = 10**6


@dataclass(frozen=True)
class LabeledSet:
    """Ordered state set with display labels aligned index-by-index."""

    elements: tuple
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.elements) != len(self.labels):
            raise ValueError("elements and labels must have equal length")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate states in labeled set")


@dataclass(frozen=True, order=True)
class Permutation:
    """Permutation of 0..deg-1 as an image array."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i)).

        A product of two bijections is a bijection, so the result is built
        without the check in __post_init__.
        """
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = object.__new__(Permutation)
        object.__setattr__(out, "images", tuple(map(self.images.__getitem__, other.images)))
        return out

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


@dataclass(frozen=True)
class OrbitPartition:
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


def _partition(degree: int, generators: Sequence, action: Callable) -> OrbitPartition:
    """Orbits of the points 0..degree-1, each block led by its least point."""
    words: list = [None] * degree
    blocks = []
    for start in range(degree):
        if words[start] is None:
            block, _ = orbit(start, generators, action)
            blocks.append(tuple(block))
            for i, word in block.items():
                words[i] = word
    return OrbitPartition(tuple(blocks), tuple(words))


def orbits_all(lset: LabeledSet, generators: Sequence, action: Callable) -> OrbitPartition:
    """Partition the labeled set into orbits, recording witness words."""
    index = {s: i for i, s in enumerate(lset.elements)}

    def step(gi: int, i: int) -> int:
        t = action(generators[gi], lset.elements[i])
        if t not in index:
            raise ValueError(
                f"action leaves the set: generator {gi} sends {lset.labels[i]} to {t!r}"
            )
        return index[t]

    return _partition(len(lset.elements), range(len(generators)), step)


def permutation_of(m: ParamodularMatrix, lset: LabeledSet) -> Permutation:
    """Permutation m induces on a stable set of characters; errors name any escapee."""
    index = {s: i for i, s in enumerate(lset.elements)}
    images = []
    for i, s in enumerate(lset.elements):
        t = act(m, s)
        if t not in index:
            raise ValueError(f"set is not stable: {lset.labels[i]} is sent to {t!r}")
        images.append(index[t])
    return Permutation(tuple(images))


@dataclass(frozen=True)
class ClosureReport:
    order: int
    truncated: bool
    transitive: bool
    orbit_sizes: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "truncated": self.truncated,
            "transitive": self.transitive,
            "orbit_sizes": list(self.orbit_sizes),
        }


def group_closure(
    perms: Sequence[Permutation], degree: int, cap: int = DEFAULT_CLOSURE_CAP
) -> ClosureReport:
    """Enumerate the generated permutation group, up to a safety cap.

    Transitivity and point-orbit sizes only need the generators, so they are
    reported even when the closure itself is truncated.
    """
    for p in perms:
        if p.degree != degree:
            raise ValueError(f"permutation of degree {p.degree}, expected {degree}")

    sizes = _partition(degree, perms, lambda p, i: p.images[i]).sizes()
    elements, truncated = orbit(Permutation.identity(degree), perms, Permutation.compose, cap)
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


def standard_orbit_report(set_name: str) -> dict:
    """Orbit partition of one of the named sets under the six generators."""
    table = character_table(make_lattice(2))
    gens = special_generators()
    matrices = [g for _, g in gens]
    if set_name == "characters2":
        lset, action = characters2_set(table), act
    elif set_name == "psi12":
        lset, action = psi_set(table), act
    elif set_name == "pairs48":
        lset, action = pairs48_set(table), act_pair
    else:
        raise ValueError(f"unknown set {set_name!r}; choose characters2, psi12 or pairs48")
    part = orbits_all(lset, matrices, action)
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
    table = character_table(make_lattice(2))
    matrices = [g for _, g in special_generators()]
    lset16 = characters2_set(table)
    part16 = orbits_all(lset16, matrices, act)
    orbit_size = {lset16.labels[i]: len(block) for block in part16.blocks for i in block}
    part48 = orbits_all(pairs48_set(table), matrices, act_pair)

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
