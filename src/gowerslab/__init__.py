"""Finite-horizon laboratory for Gowers-style spaces: six games, a clopen
determinacy solver, and executable strategy transformations, all checked
by exhaustive replay on finite instances."""

from .errors import (
    Budget,
    ExhaustionBudget,
    FiniteExhaustion,
    GowersLabError,
    IllegalMove,
    IllegalPosition,
    KindMismatch,
    NoMetric,
    NotDense,
    NotTerminal,
    PaletteNotClosedUnderMeet,
    PigeonholeUnavailable,
    SpecInvalid,
    StrategyIncomplete,
    StrategyRefused,
)
from .games import GameKind, GamePosition, Move, Player
from .payoffs import Payoff, build_payoff, negate, seeded_payoff
from .solver import (
    SolveResult,
    Strategy,
    VerificationReport,
    solve,
    strategy_from_rule,
    verified,
    verify_strategy,
)
from .space import (
    AxiomReport,
    SpaceInstance,
    check_axioms,
    iterated_meet,
    with_system,
)

__all__ = [
    "AxiomReport",
    "Budget",
    "ExhaustionBudget",
    "FiniteExhaustion",
    "GameKind",
    "GamePosition",
    "GowersLabError",
    "IllegalMove",
    "IllegalPosition",
    "KindMismatch",
    "Move",
    "NoMetric",
    "NotDense",
    "NotTerminal",
    "PaletteNotClosedUnderMeet",
    "Payoff",
    "PigeonholeUnavailable",
    "Player",
    "SolveResult",
    "SpaceInstance",
    "SpecInvalid",
    "Strategy",
    "StrategyIncomplete",
    "StrategyRefused",
    "VerificationReport",
    "build_payoff",
    "check_axioms",
    "iterated_meet",
    "negate",
    "seeded_payoff",
    "solve",
    "strategy_from_rule",
    "verified",
    "verify_strategy",
    "with_system",
]
