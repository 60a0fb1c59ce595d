"""The compound limit law for monochromatic r-star counts.

The limit is a sum of independent components: for each degree atom theta_v a
term C(T_v, r) with T_v ~ Poisson(theta_v), plus k * Z_k for k = 1..r+1 with
Z_k Poisson. The coefficient-1 rate is lambda_1 - (1/r!) * sum(theta^r): the
class-1 subset density minus the star mass already carried by the atoms.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .errors import BudgetExceededError, InvalidParamsError
from .graphs import Graph, degree_sequence
from .pmf import Pmf
from .stars import StarClassCounts, class_counts

__all__ = [
    "LimitLawParams",
    "params_from_graph",
    "sample_limit_batch",
    "limit_pmf",
    "limit_moments",
    "figure2_params",
    "DEFAULT_THETA_CUT",
    "DEFAULT_TAIL_EPS",
]

DEFAULT_THETA_CUT = 8
DEFAULT_THETA_THRESHOLD = 0.05
DEFAULT_TAIL_EPS = 1e-9
_Z1_SLACK = 1e-9
_DENSE_LIMIT = 1 << 24  # values in limit_pmf's dense array (128 MiB of float64)
# largest rate numpy's Poisson sampler accepts: INT64_MAX - 10 * sqrt(INT64_MAX)
_POISSON_RATE_MAX = float(2**63 - 1) - 10 * math.sqrt(2**63 - 1)


def _star_mass(thetas, r: int) -> float:
    """sum(theta^r) / r!, divided as integers: r! has no float form from
    r = 171 on, though the quotient is tiny there."""
    num, den = float(sum(t**r for t in thetas)).as_integer_ratio()
    return num / (den * factorial(r))


@dataclass(frozen=True)
class LimitLawParams:
    """Parameters of the limit law, checked for representability when built.

    thetas: non-increasing degree atoms (top degrees over the color count).
    lambdas: class-count densities lambda_1..lambda_{r+1}.
    z1_rate: the coefficient-1 rate lambda_1 - sum(theta^r) / r!, derived.
    flags: provenance notes surfaced as report warnings; not serialized.

    A lambda_1 short of the atoms' star mass by more than a small slack is
    rejected: no graph family realizes such a limit. Plug-in extraction from
    finite graphs passes ``clamp_z1=True``: there the shortfall is finite-size
    bias, clamped to zero and flagged instead of rejected. Lambda_r is 0 for
    every graph, since r full-degree vertices of an (r+1)-subset make the
    last one full-degree too, so lambda_r > 0 is accepted here but no graph
    family realizes it.
    """

    r: int
    thetas: tuple[float, ...]
    lambdas: tuple[float, ...]
    flags: tuple[str, ...] = ()
    clamp_z1: InitVar[bool] = False
    z1_rate: float = field(init=False)

    def __post_init__(self, clamp_z1: bool):
        if self.r < 1:
            raise InvalidParamsError("r must be >= 1")
        if len(self.lambdas) != self.r + 1:
            raise InvalidParamsError(
                f"need exactly r+1 = {self.r + 1} lambda entries, got {len(self.lambdas)}")
        if not all(x >= 0 for x in self.lambdas):
            raise InvalidParamsError("lambda rates must be non-negative")
        if not all(t >= 0 for t in self.thetas):
            raise InvalidParamsError("theta atoms must be non-negative")
        if any(a < b for a, b in zip(self.thetas, self.thetas[1:])):
            raise InvalidParamsError("theta atoms must be non-increasing")
        try:
            star_mass = _star_mass(self.thetas, self.r)
        except OverflowError:
            raise InvalidParamsError(
                f"the atom star mass sum(theta^r) / r! at r = {self.r} overflows float arithmetic"
            ) from None
        z1 = self.lambdas[0] - star_mass
        if z1 < -_Z1_SLACK:
            if not clamp_z1:
                raise InvalidParamsError(
                    f"lambda_1 = {self.lambdas[0]} is below the atom star mass {star_mass}; "
                    "no coefficient-1 Poisson rate exists for these parameters"
                )
            object.__setattr__(self, "flags", self.flags + (
                f"finite-size bias: raw coefficient-1 rate {z1!r} clamped to 0",))
        if not math.isfinite(self.mean):
            raise InvalidParamsError("mean is not finite")
        object.__setattr__(self, "z1_rate", max(z1, 0.0))

    @property
    def mean(self) -> float:
        """sum(k * lambda_k): the law's mean unless a clamp flag is set, in
        which case the law's mean exceeds it by the clamped shortfall."""
        return float(sum(k * lam for k, lam in enumerate(self.lambdas, start=1)))

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "thetas": [float(t) for t in self.thetas],
            "lambdas": [float(x) for x in self.lambdas],
            "z1_rate": float(self.z1_rate),
        }


def params_from_graph(g: Graph, c: int, r: int, theta_cut: int = DEFAULT_THETA_CUT, *,
                      stats: StarClassCounts | None = None) -> LimitLawParams:
    """Finite-size plug-in parameters: lambda_k = Lambda_k / c^r and theta
    atoms from the top ``theta_cut`` degrees over c.

    Candidate atoms below ``DEFAULT_THETA_THRESHOLD`` are dropped (finite
    graphs have all degrees positive, but only Theta(c)-degree vertices act as
    atoms); the star mass of dropped candidates, when positive, is the first
    of the flags. ``stats``, when given, is ``class_counts(g, r)``
    already computed; else it is computed here.
    """
    if theta_cut < 0:
        raise ValueError("theta_cut must be >= 0")
    if c < 1:
        raise ValueError("c must be >= 1")
    if stats is None:
        stats = class_counts(g, r)
    lambdas = tuple(lam / c**r for lam in stats.class_counts)
    # at r = 1 both ends of every edge are full-degree, so lambda_2 already
    # carries all the star mass and no vertex acts as an atom
    candidates = [d / c for d in degree_sequence(g)[:theta_cut]] if r > 1 else []
    thetas = tuple(x for x in candidates if x >= DEFAULT_THETA_THRESHOLD)
    dropped = _star_mass([x for x in candidates if x < DEFAULT_THETA_THRESHOLD], r)
    flags = (f"theta tail dropped: star mass {dropped!r}",) if dropped > 0 else ()
    return LimitLawParams(r=r, thetas=thetas, lambdas=lambdas, flags=flags, clamp_z1=True)


def figure2_params(kappa: float) -> LimitLawParams:
    """Limit parameters of the three-part composite family at scale kappa.

    The hub gives theta = kappa, the clique contributes lambda_3 = kappa^2/6,
    and class-1 mass kappa^2 (path) + kappa^2/2 (hub pairs) gives lambda_1 =
    3 kappa^2 / 2, hence z1_rate = kappa^2 after removing the atom's star
    mass.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return LimitLawParams(r=2, thetas=(kappa,), lambdas=(1.5 * kappa**2, 0.0, kappa**2 / 6),
                          flags=("z1-convention: kappa^2, consistent with total mean 2k^2",))


# ----------------------------------------------------------------------------
# Sampling, pmf on one dense array, moments in closed form
# ----------------------------------------------------------------------------


def _parts(p: LimitLawParams) -> list[tuple[float, int, int]]:
    """The law's independent parts as (rate, s, k), each k * C(T, s) with
    T ~ Poisson(rate): the atoms first, then the linear part by coefficient."""
    rates = (p.z1_rate,) + p.lambdas[1:]
    return ([(float(theta), p.r, 1) for theta in p.thetas]
            + [(float(rate), 1, k) for k, rate in enumerate(rates, start=1)])


def sample_limit_batch(p: LimitLawParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws (component-major stream layout).

    A rate past numpy's Poisson limit is refused before any draw. C(t, s) is
    computed once per distinct draw t. The sum is int64 while the parts'
    largest values so far add up to less than 2^63, a bound on every sum;
    from the first part past that on, it is Python ints (object dtype), so
    large draws stay exact.
    """
    parts = _parts(p)
    rate = max(rate for rate, _, _ in parts)
    if rate > _POISSON_RATE_MAX:
        raise BudgetExceededError(f"Poisson rate {rate!r} exceeds numpy's limit "
                                  f"{_POISSON_RATE_MAX!r} for sampling")
    out = np.zeros(size, dtype=np.int64)
    bound = 0
    for rate, s, k in parts:
        t = rng.poisson(rate, size=size)
        top = int(t.max(initial=0))
        bound += k * comb(top, s)
        if bound >= 1 << 63:
            out = out.astype(object, copy=False)
        if s > 1:
            drawn, t = np.unique(t, return_inverse=True)
            t = np.array([comb(m, s) for m in drawn.tolist()], dtype=out.dtype)[t]
        out += k * t.astype(out.dtype, copy=False)
    return out


def _poisson_window(rate: float, share: float) -> tuple[int, np.ndarray]:
    """First value and masses of Poisson(rate) on a window around its mode.

    Weights run outward from the mode by the ratio recursion. Each side stops
    once its geometric tail bound w * q / (1 - q) is at most share/2 of the
    window sum so far. The masses are the weights over their sum, scaled by
    one minus the two bounds, so the cut mass never exceeds ``share``.
    """
    if 80 * math.sqrt(rate) > _DENSE_LIMIT:  # w underflows within about 39 sd of the mode
        raise BudgetExceededError(f"Poisson rate {rate} needs a window past {_DENSE_LIMIT} values")
    mode, total, bounds, sides = int(rate), 1.0, 0.0, []
    for up in (True, False):
        t, w, side = mode, 1.0, []
        while True:
            q = rate / (t + 1) if up else (t / rate if t else 0.0)
            tail = w * q / (1.0 - q) if q < 1.0 else math.inf
            if tail <= 0.5 * share * total:
                break
            t, w = t + (1 if up else -1), w * q
            side.append(w)
            total += w
        sides.append(side)
        bounds += tail
    masses = np.array(sides[1][::-1] + [1.0] + sides[0]) / total
    return t, masses * (1.0 - bounds / total)


def limit_pmf(p: LimitLawParams, tail_eps: float = DEFAULT_TAIL_EPS) -> Pmf:
    """Float pmf of the limit law; truncation_deficit < tail_eps.

    Each atom contributes the pushforward of Poisson(theta) under t -> C(t, r)
    (all mass with t < r lands on 0; the map is injective beyond); each linear
    coefficient contributes a Poisson supported on its multiples. Every
    component's truncation loses at most tail_eps / #components. The parts
    are added into one dense array, one shifted copy per support point.
    """
    if not 0 < tail_eps < 1:
        raise ValueError("tail_eps must lie in (0, 1)")
    share = tail_eps / (len(p.thetas) + p.r + 1)
    low, acc = 0, np.ones(1)
    for rate, s, k in _parts(p):
        start, masses = _poisson_window(rate, share)
        values = [k * comb(t, s) for t in range(start, start + masses.size)]
        size = acc.size + values[-1] - values[0]
        if size > _DENSE_LIMIT:
            raise BudgetExceededError(f"limit pmf needs a dense array of {size} values",
                                      cost=size, budget=_DENSE_LIMIT)
        out = np.zeros(size)
        for v, m in zip(values, masses.tolist()):
            out[v - values[0]:v - values[0] + acc.size] += m * acc
        low, acc = low + values[0], out
    nonzero = np.flatnonzero(acc)
    support = dict(zip((nonzero + low).tolist(), acc[nonzero].tolist()))
    return Pmf(support, deficit=max(1.0 - math.fsum(support.values()), 0.0))


def _binomial_power_moments(rate: float, s: int, order: int) -> list[Fraction]:
    """E[C(T, s)^j] for T ~ Poisson(rate) and j = 0..order, exact in rate.

    C(t, s)^j = (t)_s^j / s!^j, and (t)_s^j expands in falling factorials by
    (t)_a (t)_b = sum_k C(a, k) C(b, k) k! (t)_{a+b-k}; E[(T)_m] = rate^m.
    """
    poly, out = {0: 1}, [Fraction(1)]  # (t)_s^j as {m: coefficient of (t)_m}
    for j in range(1, order + 1):
        nxt: dict[int, int] = {}
        for a, coef in poly.items():
            for k in range(min(a, s) + 1):
                m = a + s - k
                nxt[m] = nxt.get(m, 0) + coef * comb(a, k) * comb(s, k) * factorial(k)
        poly = nxt
        out.append(sum(c * Fraction(rate) ** m for m, c in poly.items()) / factorial(s) ** j)
    return out


def limit_moments(p: LimitLawParams, order: int) -> list[float]:
    """Raw moments 1..order of the limit law in closed form, no truncation.

    Each part's moments are exact in the float parameters; independent parts
    combine by binomial convolution of raw moments, rounded once at the end.
    With a clamped coefficient-1 rate the mean exceeds ``p.mean``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    total = [Fraction(1)] + [Fraction(0)] * order
    for rate, s, k in _parts(p):
        part = [k**j * m for j, m in enumerate(_binomial_power_moments(rate, s, order))]
        total = [sum(comb(n, i) * total[i] * part[n - i] for i in range(n + 1))
                 for n in range(order + 1)]
    return [float(m) for m in total[1:]]
