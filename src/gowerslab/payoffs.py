"""Clopen payoffs: decision predicates on fixed-length outcome prefixes.

A payoff's ``accepts`` always receives the finished outcome in canonical
form: a tuple of point ids for the point games, a tuple of frozensets of
point ids for the strong asymptotic game.  Named payoffs are built
against a concrete instance so the predicate can interpret point labels;
the registry is extensible (instance builders register constructions of
their own).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .space import SpaceInstance
from .util import stable_fraction_hash


@dataclass(frozen=True)
class Payoff:
    horizon: int
    accepts: Callable[[tuple], bool]
    name: str = "custom"


def negate(payoff: Payoff) -> Payoff:
    base = payoff.accepts
    return Payoff(payoff.horizon, lambda seq: not base(seq), f"not({payoff.name})")


def _canonical_outcome(outcome) -> str:
    parts = []
    for entry in outcome:
        if isinstance(entry, frozenset):
            parts.append("{" + ",".join(map(str, sorted(entry))) + "}")
        else:
            parts.append(str(entry))
    return "(" + ";".join(parts) + ")"


def seeded_payoff(horizon: int, seed: int, density: float = 0.5) -> Payoff:
    """Deterministic pseudo-random clopen payoff.

    Membership is decided by a stable hash of the outcome, so the same
    seed always yields the same set, across runs and platforms.
    """
    threshold = int(density * 1_000_000)

    def accepts(outcome) -> bool:
        return stable_fraction_hash(seed, _canonical_outcome(outcome)) < threshold

    return Payoff(horizon, accepts, f"seeded({seed},{density})")


# -- named payoff registry ---------------------------------------------------

REGISTRY: dict = {}


def register(name: str):
    def deco(builder):
        REGISTRY[name] = builder
        return builder

    return deco


def build_payoff(space: SpaceInstance, name: str, horizon: int, params=None) -> Payoff:
    if name not in REGISTRY:
        raise KeyError(f"unknown payoff {name!r}")
    return REGISTRY[name](space, horizon, params or {})


@register("everything")
def _everything(space, horizon, params):
    return Payoff(horizon, lambda seq: True, "everything")


@register("nothing")
def _nothing(space, horizon, params):
    return Payoff(horizon, lambda seq: False, "nothing")


@register("seeded")
def _seeded(space, horizon, params):
    return seeded_payoff(horizon, params["seed"], params.get("density", 0.5))


def _label(space, x):
    return space.points[x]


@register("point_even")
def _point_even(space, horizon, params):
    idx = params.get("index", 0)
    return Payoff(
        horizon, lambda seq: _label(space, seq[idx]) % 2 == 0, f"point_even[{idx}]"
    )


@register("point_odd")
def _point_odd(space, horizon, params):
    idx = params.get("index", 0)
    return Payoff(
        horizon, lambda seq: _label(space, seq[idx]) % 2 == 1, f"point_odd[{idx}]"
    )


@register("all_even")
def _all_even(space, horizon, params):
    return Payoff(
        horizon, lambda seq: all(_label(space, x) % 2 == 0 for x in seq), "all_even"
    )


@register("increasing")
def _increasing(space, horizon, params):
    def accepts(seq):
        labels = [_label(space, x) for x in seq]
        return all(a < b for a, b in zip(labels, labels[1:]))

    return Payoff(horizon, accepts, "increasing")


@register("equal_pair")
def _equal_pair(space, horizon, params):
    return Payoff(horizon, lambda seq: seq[0] == seq[1], "equal_pair")


@register("first_in")
def _first_in(space, horizon, params):
    wanted = set(tuple(v) if isinstance(v, list) else v for v in params["labels"])
    idx = params.get("index", 0)

    def accepts(seq):
        label = _label(space, seq[idx])
        key = tuple(label) if isinstance(label, tuple) else label
        return key in wanted

    return Payoff(horizon, accepts, f"first_in[{idx}]")


@register("coord_eq")
def _coord_eq(space, horizon, params):
    idx = params.get("index", 0)
    coord = params["coord"]
    value = params["value"]

    def accepts(seq):
        return _label(space, seq[idx])[coord] == value

    return Payoff(horizon, accepts, f"coord_eq[{idx},{coord}]")
