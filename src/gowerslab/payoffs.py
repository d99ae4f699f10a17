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

from .errors import SpecInvalid
from .space import SpaceInstance
from .util import json_int, stable_fraction_hash


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
    seed always yields the same set, across runs and platforms.  Each
    outcome is hashed once: the verdicts are kept, so a verify reads
    the solve's.
    """
    threshold = int(density * 1_000_000)
    verdicts: dict = {}

    def accepts(outcome) -> bool:
        verdict = verdicts.get(outcome)
        if verdict is None:
            verdict = verdicts[outcome] = (
                stable_fraction_hash(seed, _canonical_outcome(outcome)) < threshold
            )
        return verdict

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


def vector_length(space: SpaceInstance, what: str) -> int:
    """The length of the point labels, which must all be vectors (tuples)
    of one length; otherwise SpecInvalid, since a payoff reading
    coordinates of an integer label fails at the first outcome."""
    lengths = {len(label) if isinstance(label, tuple) else None for label in space.points}
    if len(lengths) != 1 or None in lengths:
        raise SpecInvalid(f"{what} reads coordinates of vector point labels of one length, "
                          f"which {space.name} does not have")
    return lengths.pop()


def integer_labels(space: SpaceInstance, what: str) -> None:
    """SpecInvalid unless every point label is an integer, since a payoff
    reading the parity of a vector label fails at the first outcome."""
    if not all(isinstance(label, int) for label in space.points):
        raise SpecInvalid(f"{what} reads the parity of integer point labels, "
                          f"which {space.name} does not have")


def outcome_index(params, horizon: int) -> int:
    """The ``index`` parameter (default 0): a position in an outcome of
    ``horizon`` entries, negative counting from the end."""
    idx = json_int(params.get("index", 0), "payoff: index")
    if not -horizon <= idx < horizon:
        raise SpecInvalid(f"payoff: index {idx} is outside an outcome of length {horizon}")
    return idx


@register("point_even")
def _point_even(space, horizon, params):
    idx = outcome_index(params, horizon)
    integer_labels(space, "payoff point_even")
    return Payoff(
        horizon, lambda seq: _label(space, seq[idx]) % 2 == 0, f"point_even[{idx}]"
    )


@register("point_odd")
def _point_odd(space, horizon, params):
    idx = outcome_index(params, horizon)
    integer_labels(space, "payoff point_odd")
    return Payoff(
        horizon, lambda seq: _label(space, seq[idx]) % 2 == 1, f"point_odd[{idx}]"
    )


@register("all_even")
def _all_even(space, horizon, params):
    integer_labels(space, "payoff all_even")
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
    idx = outcome_index(params, horizon)

    def accepts(seq):
        label = _label(space, seq[idx])
        key = tuple(label) if isinstance(label, tuple) else label
        return key in wanted

    return Payoff(horizon, accepts, f"first_in[{idx}]")


@register("coord_eq")
def _coord_eq(space, horizon, params):
    idx = outcome_index(params, horizon)
    length = vector_length(space, "payoff coord_eq")
    coord = json_int(params["coord"], "payoff: coord")
    if not -length <= coord < length:
        raise SpecInvalid(f"payoff: coord {coord} is outside labels of length {length}")
    value = params["value"]

    def accepts(seq):
        return _label(space, seq[idx])[coord] == value

    return Payoff(horizon, accepts, f"coord_eq[{idx},{coord}]")
