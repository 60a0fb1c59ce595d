"""Finite probability mass functions with explicit truncation deficit, and
the one algebra that sums independent finite laws.

Two flavors share one container: exact (Fraction probabilities, deficit 0 for
enumeration output) and float (truncated convolutions). All iteration is in
sorted support order so float reductions are reproducible.

The algebra's laws are ``(values, probs, deficit)``: float probs for the
sampler's tree laws, counts of colorings as Python ints for the exact oracle,
which ``merge_law``'s cut never reaches, since a count is at least 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import fsum, lcm
from numbers import Rational

import numpy as np

__all__ = ["Pmf", "pmf_moments", "tv_distance", "CUT", "merge_law", "sum_laws", "add_laws",
           "power"]

_FLOAT_MASS_TOL = 1e-12


def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Pmf:
    support: dict[int, Fraction | float]
    deficit: Fraction | float = 0
    # every probability and the deficit are rationals; set once at construction
    is_exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "support", dict(sorted(self.support.items())))
        object.__setattr__(self, "is_exact", isinstance(self.deficit, Rational) and all(
            isinstance(p, Rational) for p in self.support.values()))
        for v, p in self.support.items():
            if p < 0:
                raise ValueError(f"negative probability at {v}")
        if self.deficit < 0:
            raise ValueError("negative truncation deficit")
        if self.is_exact:
            # one sum of ints over a common denominator, not a gcd per addition
            probs = [*self.support.values(), self.deficit]
            den = lcm(*(q.denominator for q in probs))
            mass = sum(q.numerator * (den // q.denominator) for q in probs)
            if mass != den:
                raise ValueError(f"exact pmf mass is {Fraction(mass, den)}, not 1")
            return
        # exactly rounded, so the check does not depend on summation order
        total = fsum([*self.support.values(), self.deficit])
        if abs(float(total) - 1.0) > _FLOAT_MASS_TOL:
            raise ValueError(f"pmf mass {total} deviates from 1 beyond {_FLOAT_MASS_TOL}")

    def prob(self, value: int) -> Fraction | float:
        return self.support.get(value, Fraction(0) if self.is_exact else 0.0)

    def to_json_dict(self) -> dict:
        if self.is_exact:
            return {
                "support": {str(v): _frac_str(p) for v, p in self.support.items()},
                "deficit": _frac_str(self.deficit),
            }
        return {
            "support": {str(v): float(p) for v, p in self.support.items()},
            "deficit": float(self.deficit),
        }

    def to_csv(self) -> str:
        lines = ["value,probability"]
        for v, p in self.support.items():
            lines.append(f"{v},{p}" if self.is_exact else f"{v},{float(p)!r}")
        return "\n".join(lines) + "\n"


def pmf_moments(p: Pmf, order: int) -> list:
    """Raw moments 1..order of the finite measure, as exact Fractions.

    A float probability counts as the binary fraction it stores, which
    ``Fraction`` converts exactly, so a float pmf gets the exact moments of
    its stored values.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # one sum of ints over a common denominator, not a gcd per addition
    probs = [Fraction(q) for q in p.support.values()]
    den = lcm(*(q.denominator for q in probs))
    weights = [(q.numerator * (den // q.denominator), v) for q, v in zip(probs, p.support)]
    return [Fraction(sum(w * v**j for w, v in weights), den) for j in range(1, order + 1)]


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Half L1 distance over the union support; deficits meet in a shared
    'unrepresented' atom."""
    values = sorted(set(p.support) | set(q.support))
    acc = 0.0
    for v in values:
        acc += abs(float(p.prob(v)) - float(q.prob(v)))
    acc += abs(float(p.deficit) - float(q.deficit))
    return 0.5 * acc


CUT = 2.0**-60
_OUTER_CELLS = 1 << 20


def merge_law(values: np.ndarray, probs: np.ndarray, deficit: float) -> tuple:
    """The law ``(values, probs, deficit)`` of outcomes drawn with ``probs``:
    equal values summed, then every outcome lighter than ``CUT`` over their
    number cut, so that at most ``CUT`` is cut, and that mass added to the
    deficit."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    first = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    values, probs = values[first], np.add.reduceat(probs[order], first)
    light = probs <= CUT / probs.size
    return values[~light], probs[~light], deficit + float(probs[light].sum())


def sum_laws(pairs: list, deficit: float) -> tuple:
    """The law of x + y, for x and y drawn independently from one of the
    ``pairs`` of laws (each law's mass being that pair's share). The outer
    sums are merged every ``_OUTER_CELLS`` or so, so memory stays bounded."""
    values, probs, size = [], [], 0
    for a, b in pairs:
        step = max(1, _OUTER_CELLS // max(b[0].size, 1))
        for i in range(0, a[0].size, step):
            values.append(np.add.outer(a[0][i:i + step], b[0]).ravel())
            probs.append(np.multiply.outer(a[1][i:i + step], b[1]).ravel())
            size += values[-1].size
            if size > _OUTER_CELLS:
                merged = merge_law(np.concatenate(values), np.concatenate(probs), deficit)
                values, probs, deficit = [merged[0]], [merged[1]], merged[2]
                size = merged[0].size
    return merge_law(np.concatenate(values), np.concatenate(probs), deficit)


def add_laws(a: tuple, b: tuple) -> tuple:
    """Law of the sum of independent draws from laws a and b."""
    return sum_laws([(a, b)], a[2] + b[2])


def power(base, count: int, times, out=None):
    """out * base^count under ``times``, by squaring; base^count, count >= 1, without out."""
    while count:
        if count & 1:
            out = base if out is None else times(out, base)
        count >>= 1
        if count:
            base = times(base, base)
    return out
