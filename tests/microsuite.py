"""The curated micro-suite: small seeded games across all six kinds, and
the transformation input cases the reduction tests and the acceptance
suite share, and a strategy with memory.  Everything here is deterministic."""

from __future__ import annotations

from dataclasses import dataclass

from gowerslab import GameKind, Move, Player, Strategy, seeded_payoff, with_system
from gowerslab.approx import ms_singleton_system, field_subspace_system
from gowerslab.instances import (
    mathias_silver,
    rosendal,
    single_subspace,
    top_subspace,
)
from gowerslab.games import initial_position
from gowerslab.payoffs import Payoff
from gowerslab.solver import expand


@dataclass
class MicroGame:
    label: str
    space: object
    kind: GameKind
    root: int
    payoff: Payoff
    goal: Player


def _seeds(base, count):
    return [base + i for i in range(count)]


def micro_games() -> list:
    """At least fifty seeded games covering all six kinds at outcome
    lengths one and two (two and four for the interleaved games)."""
    games = []
    ms3 = mathias_silver(3, 2, 1)
    ms4 = mathias_silver(4, 2, 1)
    ms5 = mathias_silver(5, 3, 1)
    f2 = rosendal(2, 3, 1)
    deg = single_subspace(2)
    ms4_sf = with_system(ms4, ms_singleton_system(ms4))
    f2_sf = with_system(f2, field_subspace_system(f2))

    def add(label, space, kind, horizon, seed, goal, density=0.5):
        games.append(
            MicroGame(
                f"{label}/{kind.value}/h{horizon}/s{seed}",
                space,
                kind,
                top_subspace(space),
                seeded_payoff(horizon, seed, density),
                goal,
            )
        )

    for seed in _seeds(100, 5):
        add("ms4", ms4, GameKind.ASYMPTOTIC_F, 1, seed, Player.I)
        add("ms4", ms4, GameKind.GOWERS_G, 1, seed, Player.II)
    for seed in _seeds(200, 4):
        add("ms4", ms4, GameKind.ASYMPTOTIC_F, 2, seed, Player.I, 0.6)
        add("ms5", ms5, GameKind.GOWERS_G, 2, seed, Player.II, 0.6)
    for seed in _seeds(300, 4):
        add("ms4", ms4, GameKind.KASTANAS, 2, seed, Player.II)
        add("ms4", ms4, GameKind.ADVERSARIAL_A, 2, seed, Player.I)
        add("ms4", ms4, GameKind.ADVERSARIAL_B, 2, seed, Player.II)
    for seed in _seeds(400, 2):
        add("ms3", ms3, GameKind.KASTANAS, 4, seed, Player.I)
        add("ms3", ms3, GameKind.ADVERSARIAL_A, 4, seed, Player.II)
        add("ms3", ms3, GameKind.ADVERSARIAL_B, 4, seed, Player.I)
    for seed in _seeds(500, 3):
        add("f2d3", f2, GameKind.ASYMPTOTIC_F, 2, seed, Player.I)
        add("f2d3", f2, GameKind.GOWERS_G, 1, seed, Player.II)
    for seed in _seeds(600, 3):
        add("deg", deg, GameKind.KASTANAS, 2, seed, Player.II)
        add("deg", deg, GameKind.GOWERS_G, 2, seed, Player.I)
    for seed in _seeds(700, 3):
        add("ms4sf", ms4_sf, GameKind.STRONG_ASYMPTOTIC_SF, 1, seed, Player.I)
        add("ms4sf", ms4_sf, GameKind.STRONG_ASYMPTOTIC_SF, 2, seed, Player.II, 0.7)
    for seed in _seeds(800, 2):
        add("f2sf", f2_sf, GameKind.STRONG_ASYMPTOTIC_SF, 1, seed, Player.II, 0.7)
    return games


def remembering_strategy(space, horizon) -> tuple:
    """Her chooser-game strategy with memory: her answers after the
    first read his first subspace, which the state forgets once he has
    moved again.  ``expand`` keeps it as the memory.  Returns the
    strategy and its rule."""
    top = top_subspace(space)

    def rule(pos, first):
        his = pos.moves[-1].subspace
        first = his if first is None else first
        admitted = space.admitted_points(pos.point_prefix, his)
        return Move(Player.II, point=admitted[first % len(admitted)]), first

    strat = Strategy(Player.II, GameKind.GOWERS_G, top, horizon, name="remembers")
    pos0 = initial_position(GameKind.GOWERS_G, top, horizon)
    expand(space, pos0, Player.II, rule, table=strat.table)
    return strat, rule
