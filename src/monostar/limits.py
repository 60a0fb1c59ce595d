"""The compound limit law for monochromatic r-star counts.

The limit is a sum of independent components: for each degree atom theta_v a
term C(T_v, r) with T_v ~ Poisson(theta_v), plus k * Z_k for k = 1..r+1 with
Z_k Poisson. The coefficient-1 rate is lambda_1 - (1/r!) * sum(theta^r): the
class-1 subset density minus the star mass already carried by the atoms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import comb, exp, factorial

import numpy as np

from .errors import InvalidParamsError, ToleranceError
from .graphs import Graph, degree_sequence
from .pmf import Pmf, pmf_moments
from .stars import DEFAULT_CLASS_BUDGET, StarClassCounts, class_counts

__all__ = [
    "LimitLawParams",
    "validate_params",
    "params_from_graph",
    "sample_limit_batch",
    "limit_pmf",
    "limit_moments",
    "pgf_linear",
    "figure2_params",
    "DEFAULT_THETA_THRESHOLD",
]

DEFAULT_THETA_THRESHOLD = 0.05
_Z1_SLACK = 1e-9


@dataclass(frozen=True)
class LimitLawParams:
    """Parameters of the limit law.

    thetas: non-increasing degree atoms (top degrees over the color count).
    lambdas: class-count densities lambda_1..lambda_{r+1}.
    z1_rate: materialized by validate_params.
    theta_dropped_tail: star mass of atoms dropped at extraction (report only).
    flags: provenance notes surfaced as report warnings; not serialized.
    """

    r: int
    thetas: tuple[float, ...]
    lambdas: tuple[float, ...]
    z1_rate: float | None = None
    theta_dropped_tail: float = 0.0
    flags: tuple[str, ...] = ()

    @property
    def mean(self) -> float:
        return float(sum(k * lam for k, lam in enumerate(self.lambdas, start=1)))

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "thetas": [float(t) for t in self.thetas],
            "lambdas": [float(x) for x in self.lambdas],
            "z1_rate": None if self.z1_rate is None else float(self.z1_rate),
        }


def validate_params(p: LimitLawParams, clip_negative_z1: bool = False) -> LimitLawParams:
    """Check representability and return params with z1_rate materialized.

    Rejects when lambda_1 falls short of the atoms' star mass by more than a
    small slack: no graph family realizes such a limit. Plug-in extraction
    from finite graphs passes ``clip_negative_z1=True``: there the shortfall
    is finite-size bias, clamped to zero and flagged instead of rejected.
    """
    if p.r < 1:
        raise InvalidParamsError("r must be >= 1")
    if len(p.lambdas) != p.r + 1:
        raise InvalidParamsError(f"need exactly r+1 = {p.r + 1} lambda entries, got {len(p.lambdas)}")
    if any(x < 0 for x in p.lambdas):
        raise InvalidParamsError("lambda rates must be non-negative")
    if any(t < 0 for t in p.thetas):
        raise InvalidParamsError("theta atoms must be non-negative")
    if any(a < b for a, b in zip(p.thetas, p.thetas[1:])):
        raise InvalidParamsError("theta atoms must be non-increasing")
    star_mass = sum(t**p.r for t in p.thetas) / factorial(p.r)
    z1 = p.lambdas[0] - star_mass
    flags = p.flags
    if z1 < -_Z1_SLACK:
        if not clip_negative_z1:
            raise InvalidParamsError(
                f"lambda_1 = {p.lambdas[0]} is below the atom star mass {star_mass}; "
                "no coefficient-1 Poisson rate exists for these parameters"
            )
        flags = flags + (f"finite-size bias: raw coefficient-1 rate {z1!r} clamped to 0",)
    if not math.isfinite(p.mean):
        raise InvalidParamsError("mean is not finite")
    return replace(p, z1_rate=max(z1, 0.0), flags=flags)


def _ensure_validated(p: LimitLawParams) -> LimitLawParams:
    return p if p.z1_rate is not None else validate_params(p)


def params_from_graph(g: Graph, c: int, r: int, theta_cut: int = 8,
                      theta_threshold: float = DEFAULT_THETA_THRESHOLD,
                      budget: int = DEFAULT_CLASS_BUDGET, *,
                      stats: StarClassCounts | None = None) -> LimitLawParams:
    """Finite-size plug-in parameters: lambda_k = Lambda_k / c^r and theta
    atoms from the top ``theta_cut`` degrees over c.

    Candidate atoms below ``theta_threshold`` are dropped (finite graphs have
    all degrees positive, but only Theta(c)-degree vertices act as atoms); the
    star mass of dropped candidates is recorded in theta_dropped_tail.
    ``stats``, when given, is ``class_counts(g, r)`` already computed; else it
    is computed here under ``budget``.
    """
    if theta_cut < 0:
        raise ValueError("theta_cut must be >= 0")
    if c < 1:
        raise ValueError("c must be >= 1")
    if stats is None:
        stats = class_counts(g, r, budget=budget)
    lambdas = tuple(lam / c**r for lam in stats.class_counts)
    candidates = [d / c for d in degree_sequence(g)[:theta_cut]]
    thetas = tuple(x for x in candidates if x >= theta_threshold)
    dropped = sum(x**r for x in candidates if x < theta_threshold) / factorial(r)
    return validate_params(
        LimitLawParams(r=r, thetas=thetas, lambdas=lambdas, theta_dropped_tail=dropped),
        clip_negative_z1=True,
    )


def figure2_params(kappa: float, r: int = 2, literal_z1: bool = False) -> LimitLawParams:
    """Limit parameters of the three-part composite family at scale kappa.

    The hub gives theta = kappa, the clique contributes lambda_3 = kappa^2/6,
    and class-1 mass kappa^2 (path) + kappa^2/2 (hub pairs) gives lambda_1 =
    3 kappa^2 / 2, hence z1_rate = kappa^2 after removing the atom's star
    mass. ``literal_z1=True`` instead pins the coefficient-1 rate to
    kappa^2/2; that convention underestimates the total mean (3 kappa^2 / 2
    instead of 2 kappa^2) and is provided for side-by-side comparison.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if r != 2:
        raise ValueError("the composite family is defined for r = 2")
    if literal_z1:
        lam1 = kappa**2  # z1 = lam1 - kappa^2/2 = kappa^2/2
        flags = ("z1-convention: literal kappa^2/2 variant; total mean 3k^2/2",)
    else:
        lam1 = 1.5 * kappa**2
        flags = ("z1-convention: kappa^2, consistent with total mean 2k^2",)
    return validate_params(
        LimitLawParams(r=2, thetas=(kappa,), lambdas=(lam1, 0.0, kappa**2 / 6), flags=flags)
    )


# ----------------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------------


def _component_rates(p: LimitLawParams) -> list[tuple[int, float]]:
    """(coefficient k, rate) for the linear part, coefficient-1 rate first."""
    rates = [(1, float(p.z1_rate))]
    rates.extend((k, float(lam)) for k, lam in enumerate(p.lambdas[1:], start=2))
    return rates


def sample_limit_batch(p: LimitLawParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws (component-major stream layout)."""
    p = _ensure_validated(p)
    out = np.zeros(size, dtype=np.int64)
    for theta in p.thetas:
        t = rng.poisson(theta, size=size)
        top = int(t.max(initial=0))
        lut = np.array([comb(m, p.r) for m in range(top + 1)], dtype=np.int64)
        out += lut[t]
    for k, rate in _component_rates(p):
        out += k * rng.poisson(rate, size=size)
    return out


# ----------------------------------------------------------------------------
# Exact-as-possible pmf by truncated convolution
# ----------------------------------------------------------------------------


def _poisson_probs(rate: float, tail_budget: float) -> list[float]:
    """Poisson masses 0..t_max by direct summation, upper tail < tail_budget."""
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if rate == 0.0:
        return [1.0]
    probs = [exp(-rate)]
    cum = probs[0]
    t = 0
    while 1.0 - cum > tail_budget:
        t += 1
        probs.append(probs[-1] * rate / t)
        cum += probs[-1]
        if t > 10_000_000:
            raise ToleranceError("Poisson truncation did not converge")
    return probs


def _convolve(a: dict[int, float], b: dict[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for va, pa in sorted(a.items()):
        for vb, pb in sorted(b.items()):
            out[va + vb] = out.get(va + vb, 0.0) + pa * pb
    return out


def limit_pmf(p: LimitLawParams, tail_eps: float = 1e-9) -> Pmf:
    """Float pmf of the limit law; truncation_deficit < tail_eps.

    Each atom contributes the pushforward of Poisson(theta) under t -> C(t, r)
    (all mass with t < r lands on 0; the map is injective beyond); each linear
    coefficient contributes a Poisson supported on its multiples. Every
    component's truncation loses less than tail_eps / #components.
    """
    if not 0 < tail_eps < 1:
        raise ValueError("tail_eps must lie in (0, 1)")
    p = _ensure_validated(p)
    n_components = len(p.thetas) + p.r + 1
    share = tail_eps / max(n_components, 1)
    acc = {0: 1.0}
    for theta in p.thetas:
        probs = _poisson_probs(theta, share)
        component: dict[int, float] = {}
        for t, mass in enumerate(probs):
            v = comb(t, p.r)
            component[v] = component.get(v, 0.0) + mass
        acc = _convolve(acc, component)
    for k, rate in _component_rates(p):
        probs = _poisson_probs(rate, share)
        acc = _convolve(acc, {k * j: mass for j, mass in enumerate(probs)})
    mass = sum(prob for _, prob in sorted(acc.items()))
    return Pmf(acc, deficit=max(1.0 - mass, 0.0))


def limit_moments(p: LimitLawParams, order: int) -> list[float]:
    """Raw moments of the limit law, tightening the tail until they stabilize.

    The mean must land on sum(k * lambda_k): the atom pushforward means
    theta^r / r! cancel against the coefficient-1 reduction.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    p = _ensure_validated(p)
    previous = None
    for tail_eps in (1e-8, 1e-11, 1e-14, 1e-16):
        moments = [float(m) for m in pmf_moments(limit_pmf(p, tail_eps), order)]
        if previous is not None:
            rel = max(
                abs(a - b) / max(abs(b), 1.0) for a, b in zip(previous, moments)
            )
            if rel <= 1e-9:
                break
        previous = moments
    else:
        raise ToleranceError("limit moments did not stabilize to 1e-9")
    target = p.mean
    if abs(moments[0] - target) > 1e-8 * max(1.0, abs(target)):
        raise ToleranceError(
            f"limit mean {moments[0]} deviates from sum(k*lambda_k) = {target}"
        )
    return moments


def pgf_linear(p: LimitLawParams, s: float) -> float:
    """PGF of the linear part: prod over k of exp(rate_k * (s^k - 1))."""
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    p = _ensure_validated(p)
    exponent = sum(rate * (s**k - 1.0) for k, rate in _component_rates(p))
    return exp(exponent)
