import random
from fractions import Fraction

import pytest

from rankcomp.game import EmphasisVector, RankingGame, SinglePeakFunction, StrategyProfile


def random_fraction(rng: random.Random, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(0, den)
    return Fraction(num, den)


def random_strategy(rng: random.Random, m: int, zero_prob: float = 0.3) -> EmphasisVector:
    vals = []
    for _ in range(m):
        if rng.random() < zero_prob:
            vals.append(Fraction(0))
        else:
            vals.append(random_fraction(rng))
    total = sum(vals)
    if total > 1:
        vals = [v / total for v in vals]
    return EmphasisVector(vals)


def random_instance(rng: random.Random, max_n: int = 5, max_m: int = 8):
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    peak = random_fraction(rng, 10)
    game = RankingGame.tent(n, m, peak)
    profile = StrategyProfile([random_strategy(rng, m) for _ in range(n)])
    return game, profile


@pytest.fixture
def rng():
    return random.Random(20240801)


def tie_heavy_instance(rng: random.Random, max_n: int = 5, max_m: int = 8):
    """Mostly-symmetric tent profile on the levels {0, peak/2, peak}.

    Players copy one base strategy with probability 0.6, so most queries
    end in multi-way ties and many are pinned at the peak.
    """
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    peak = Fraction(1, rng.randint(1, 2 * m))
    levels = [Fraction(0), peak / 2, peak]
    base = [rng.choice(levels) for _ in range(m)]
    rows = []
    for _ in range(n):
        row = list(base) if rng.random() < 0.6 else [rng.choice(levels) for _ in range(m)]
        while sum(row) > 1:
            row[rng.randrange(m)] = Fraction(0)
        rows.append(row)
    return RankingGame.tent(n, m, peak), StrategyProfile(rows)


# skewed shape: steep rise, slow early fall, nonzero tail
SKEWED_F = SinglePeakFunction(
    knots=(
        (Fraction(0), Fraction(0)),
        (Fraction(1, 5), Fraction(7, 10)),
        (Fraction(2, 5), Fraction(1)),
        (Fraction(7, 10), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 10)),
    ),
    peak=Fraction(2, 5),
)

# f(0) > 0: an opponent far down the decreasing tail scores below f(0),
# so zero emphasis already wins outright
FLOOR_F = SinglePeakFunction(
    knots=((Fraction(0), Fraction(2, 5)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))),
    peak=Fraction(1, 2),
)


def non_tent_instance(rng: random.Random, f: SinglePeakFunction, max_n: int = 4, max_m: int = 6):
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_m)
    game = RankingGame(n=n, m=m, f=f)
    return game, StrategyProfile([random_strategy(rng, m) for _ in range(n)])


def float_instance(rng: random.Random, max_n: int = 5, max_m: int = 8):
    """random_instance converted to float emphases and a float-peak tent."""
    game, profile = random_instance(rng, max_n, max_m)
    rows = [[float(e) for e in v.emphases] for v in profile.strategies]
    return RankingGame.tent(game.n, game.m, float(game.peak)), StrategyProfile(rows)
