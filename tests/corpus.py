"""A generated corpus of Gowers spaces: seeded meet-closed palettes.

``corpus_space(seed)`` draws a universe of 3 to 6 points and a family of
3 to 10 random subsets of it, adds the full set, closes the family
under nonempty meets and builds it as an explicit ``mathias_silver``
palette with slack 0 to 2.  Everything is a function of the seed, so a
failing case is named by its seed alone.  The instance families of
``gowerslab.instances`` are very regular; these palettes are not, which
is what the differential tests want of them.
"""

from __future__ import annotations

import random

from gowerslab.instances import mathias_silver


def meet_closure(family) -> set:
    """The family with every nonempty intersection of its members."""
    closed = set(family)
    new = set(closed)
    while new:
        new = {a & b for a in new for b in closed if a & b} - closed
        closed |= new
    return closed


def corpus_palette(seed: int) -> tuple:
    """``(points, slack, subsets)`` of the corpus space ``seed``, the
    subsets sorted."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    family = {frozenset(range(n))}
    for _ in range(rng.randint(3, 10)):
        family.add(frozenset(rng.sample(range(n), rng.randint(1, n))))
    family = meet_closure(family)
    return n, rng.randint(0, 2), sorted(tuple(sorted(s)) for s in family)


def corpus_space(seed: int):
    n, slack, subsets = corpus_palette(seed)
    return mathias_silver(n, 1, slack, explicit_palette=subsets, name=f"corpus-{seed}")


def corpus(count: int, start: int = 0) -> list:
    """``(label, space)`` for the corpus seeds ``start`` to ``start + count - 1``."""
    return [(f"corpus-{seed}", corpus_space(seed)) for seed in range(start, start + count)]
