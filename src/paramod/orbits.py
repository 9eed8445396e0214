"""Orbit enumeration over finite group actions, and the standard reports.

One breadth-first engine, :func:`orbit`, finds the orbit partition of a
labeled set and the point orbits of a permutation group, with a replayable
witness word per element.  It runs on index tables: ``_tables`` applies
``act`` or ``act_pair`` once per generator and element, and the engine reads
``table[point]``, so the generators of a word apply left to right.
Determinism is part of the contract: each BFS layer is sorted by point, so
orbit listings, witness words and serialized reports are byte-stable across
runs.  :func:`group_closure` counts the group in its own loop, which reads
no words: it enumerates the group by whole cosets (Dimino's algorithm) over
byte strings of at most 256 points, each product one ``bytes.translate``,
and takes the closure's point orbits from the engine.  The standard sets and
the CLI's psi12 closure are constants of the six generators: each is built
once per process, the first time it is asked for, and never at import.
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

from paramod.classifier import FAMILIES, SurfaceType
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
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(map(self.images.__getitem__, other.images)))

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


def orbit(seed: int, tables: Sequence[Sequence[int]]) -> dict:
    """Breadth-first orbit of the point seed under image tables, one per generator.

    Returns a dict that maps every point reached to its witness word, the
    indices of the tables that carry seed to it applied left to right, in BFS
    order with each layer sorted.
    """
    words = {seed: ()}
    frontier = [seed]
    indexed = tuple(enumerate(tables))
    while frontier:
        layer = {}
        for s in frontier:
            word = words[s]
            for gi, table in indexed:
                t = table[s]
                if t not in words and t not in layer:
                    layer[t] = word + (gi,)
        frontier = sorted(layer)
        words.update(zip(frontier, map(layer.__getitem__, frontier)))
    return words


def _partition(degree: int, tables: Sequence[Sequence[int]]) -> OrbitPartition:
    """Orbits of 0..degree-1 under image tables, each block led by its least point."""
    words: list = [None] * degree
    blocks = []
    for start in range(degree):
        if words[start] is None:
            block = orbit(start, tables)
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


def group_closure(
    perms: Sequence[Permutation], degree: int, cap: int = DEFAULT_CLOSURE_CAP
) -> ClosureReport:
    """Enumerate the generated permutation group, up to a safety cap.

    An element is the byte string of its images, so with a 256-byte table t
    of an element e, ``s.translate(t)`` is e∘s in a single C call.  The
    group is built by Dimino's algorithm (G. Butler, *Fundamental Algorithms
    for Permutation Groups*, LNCS 559, 1991): H, the group of the generators
    kept so far, starts as the identity, and a generator already in H is
    skipped.  A new generator g is kept, and the group of H and g is built
    from whole left cosets r∘H: starting from the rep r = identity, for each
    rep r and each kept generator s, an e = s∘r outside the elements found
    adds its coset e∘H, filled in one C-level ``map``, and becomes a rep.
    The union U of these cosets is the whole new group: it contains H, and
    since every s∘r lies in some coset r'∘H, s∘(r∘H) = r'∘H lies in U, so U
    is closed under left multiplication by each kept generator; a finite set
    holding the identity and closed under the generators is the group they
    generate, and U holds nothing outside it.

    The cap is checked after each coset, so a truncated run holds at most
    cap + |H| elements; it reports truncated true and order cap + 1, or 2
    for a cap below 1, since the identity alone is never checked against
    the cap.  A byte holds a value below 256, so degrees above 256 raise
    ValueError.  Transitivity and point-orbit sizes only need the
    generators, so they are reported even when the closure is truncated.
    """
    if degree > 256:
        raise ValueError(f"degree {degree} exceeds the 256 points a closure can hold")
    for p in perms:
        if p.degree != degree:
            raise ValueError(f"permutation of degree {p.degree}, expected {degree}")

    sizes = tuple(_partition(degree, [p.images for p in perms]).sizes())
    transitive = sizes == (degree,)
    pad = bytes(256 - degree)
    identity = bytes(range(degree))
    elements = {identity}
    kept = []
    for p in perms:
        g = bytes(p.images)
        if g in elements:
            continue
        kept.append(g + pad)
        subgroup = list(elements)
        reps = [identity]
        for r in reps:  # the list grows while it is read
            for table in kept:
                e = r.translate(table)
                if e not in elements:
                    elements.update(map(bytes.translate, subgroup, repeat(e + pad)))
                    if len(elements) > cap:
                        return ClosureReport(max(cap + 1, 2), True, transitive, sizes)
                    reps.append(e)
    return ClosureReport(len(elements), False, transitive, sizes)


# -- the standard sets and reports for d=2 ---------------------------------

def characters2_set(table: CharacterTable) -> LabeledSet:
    chars = table.all_characters()
    labels = tuple(table.label_of(c) for c in chars)
    return LabeledSet(chars, labels)


def psi_set(table: CharacterTable) -> LabeledSet:
    return LabeledSet(table.psi, tuple(map(table.label_of, table.psi)))


def pairs48_set(table: CharacterTable) -> LabeledSet:
    elements = []
    labels = []
    for q in table.chi[1:]:
        base = table.label_of(q)
        for r in square_roots(q):
            elements.append((q, r))
            labels.append(f"({base}, {','.join(str(e) for e in r.exponents)})")
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


@functools.cache
def psi12_closure() -> tuple[ClosureReport, tuple[str, ...]]:
    """The group the six generators induce on psi12, and each generator's cycles.

    Built once per process, the first time ``paramod orbits --closure`` asks
    for it; every call returns the same immutable objects.
    """
    lset, perms, _ = standard_set("psi12")
    return (group_closure(perms, len(lset.elements)),
            tuple(p.cycle_string(lset.labels) for p in perms))


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

    Each family's cover degree in ``classifier.FAMILIES`` is compared with
    the size of the orbit the orbit engine computes for it; a mismatch
    raises ConsistencyError.  The Ia and Ib orbits are disjoint in the 16
    characters, and the trivial character is left alone as the third orbit.
    """
    lset16, _, part16 = standard_set("characters2")
    orbit_size = {lset16.labels[i]: len(block) for block in part16.blocks for i in block}
    lset48, _, part48 = standard_set("pairs48")
    bases = {q for q, _ in lset48.elements}
    factorization = f"{len(bases)} * {len(lset48.elements) // len(bases)}"

    def component(name, marking, family, orbit_size_check, **extra) -> dict:
        cover_degree = FAMILIES[family].cover_degree
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
                      SurfaceType.Ia, orbit_size["psi1"]),
            component("b", "2-torsion bundle in the polarization image",
                      SurfaceType.Ib, orbit_size["chi1"]),
        ]},
        "marked_root_pair_space": {"components": [
            component("single", "(2-torsion bundle in the image, order-4 square root)",
                      SurfaceType.II, len(part48.blocks[0]), factorization=factorization),
        ]},
    }
