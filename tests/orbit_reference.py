"""Reference copy of the orbit engine with the generator-first action.

This is `paramod.orbits.orbit` as it stood before the action took the state
first: action(gen, state), a slice of `words` per edge and two `len()` calls
per new state for the cap.  The equivalence tests compare the library's word
dict (keys, values and insertion order) and truncation flag with these.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence


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
