"""Expected values worked out apart from monostar.

Nothing here calls the function whose output it checks: closed-form sizes and
star counts of the generator families, brute-force enumeration of every
coloring of small graphs, the binomial law of the many-stars family, and limit
moments from Poisson cumulants.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from math import comb


# ----------------------------------------------------------------------------
# Closed forms of the generator families
# ----------------------------------------------------------------------------


def figure2_clique_size(n: int) -> int:
    """Smallest k with k**3 >= n**2: the clique of the figure-2 composite."""
    k = 1
    while k**3 < n * n:
        k += 1
    return k


def figure2_degrees(n: int) -> dict[int, int]:
    """Degree -> multiplicity of star K_{1,n}, clique K_m and path P_{n^2}
    chained by two bridges (leaf 1 to a clique vertex, a second clique vertex
    to the first path vertex)."""
    m = figure2_clique_size(n)
    degs: dict[int, int] = {}

    def add(d: int, k: int = 1):
        if k:
            degs[d] = degs.get(d, 0) + k

    add(n)                      # hub
    add(2)                      # bridged leaf
    add(1, n - 1)               # other leaves
    add(m, 2)                   # two bridged clique vertices
    add(m - 1, m - 2)           # rest of the clique
    add(2, n * n - 1)           # bridged path end and path interior
    add(1)                      # free path end
    return degs


def figure2_shape(n: int) -> dict:
    m = figure2_clique_size(n)
    degs = figure2_degrees(n)
    n_star = sum(comb(d, 2) * k for d, k in degs.items())
    lam3 = comb(m, 3)  # the clique holds the only triangles
    return {
        "vertex_count": 1 + n + m + n * n,
        "edge_count": n + comb(m, 2) + (n * n - 1) + 2,
        "max_degree": n,
        "n_star": n_star,
        "classes": (n_star - 3 * lam3, 0, lam3),
    }


def star_copies_shape(copies: int) -> dict:
    """``copies`` disjoint K_{1,3} at r = 3: one 3-star per copy."""
    return {
        "vertex_count": 4 * copies,
        "edge_count": 3 * copies,
        "max_degree": 3,
        "n_star": copies,
        "classes": (copies, 0, 0, 0),
    }


def complete_shape(n: int, r: int) -> dict:
    """K_n: every (r+1)-subset is a clique, so all r+1 vertices are centers."""
    return {
        "vertex_count": n,
        "edge_count": comb(n, 2),
        "max_degree": n - 1,
        "n_star": n * comb(n - 1, r),
        "classes": (0,) * r + (comb(n, r + 1),),
    }


def bipartite_shape(n: int) -> dict:
    """K_{n,n} at r = 2: triangle-free, so every 2-star is its own class-1 subset."""
    n_star = 2 * n * comb(n, 2)
    return {
        "vertex_count": 2 * n,
        "edge_count": n * n,
        "max_degree": n,
        "n_star": n_star,
        "classes": (n_star, 0, 0),
    }


def path_shape(n: int) -> dict:
    return {
        "vertex_count": n,
        "edge_count": n - 1,
        "max_degree": min(2, n - 1),
        "n_star": max(n - 2, 0),
        "classes": (max(n - 2, 0), 0, 0),
    }


def complete_colors(n: int) -> int:
    """Color count of the built-in complete family: E[T] close to 3."""
    return round(math.sqrt(n * comb(n - 1, 2) / 3.0))


def bipartite_colors(n: int) -> int:
    """Color count of the built-in bipartite family: E[T] close to 3.9936."""
    return round(math.sqrt(n * n * (n - 1) / 3.9936))


def star_copies_colors(copies: int) -> int:
    """Integer cube root: color count of the built-in many-stars family."""
    c = 1
    while (c + 1) ** 3 <= copies:
        c += 1
    return c


# Small graphs written out edge by edge (labels need not match the generator's:
# the law of T is invariant under relabelling).
TRIANGLE = (3, ((0, 1), (0, 2), (1, 2)))
PATH3 = (3, ((0, 1), (1, 2)))
TADPOLE31 = (4, ((0, 1), (1, 2), (0, 2), (2, 3)))


# ----------------------------------------------------------------------------
# Exact laws by brute force
# ----------------------------------------------------------------------------


def brute_pmf(graph: tuple[int, tuple], r: int, c: int) -> dict[int, Fraction]:
    """Law of T over all c**n colorings, one Python loop per coloring."""
    n, edges = graph
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    counts: dict[int, int] = {}
    for colors in product(range(c), repeat=n):
        t = sum(comb(sum(colors[w] == colors[v] for w in nbrs[v]), r) for v in range(n))
        counts[t] = counts.get(t, 0) + 1
    total = c**n
    return {t: Fraction(k, total) for t, k in sorted(counts.items())}


def convolve(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for va, pa in a.items():
        for vb, pb in b.items():
            out[va + vb] = out.get(va + vb, Fraction(0)) + pa * pb
    return dict(sorted(out.items()))


def binomial_pmf(trials: int, p: float, tail: float = 1e-15) -> dict[int, float]:
    """Binomial masses in log space, up to an upper tail below ``tail``."""
    out: dict[int, float] = {}
    cum = 0.0
    for k in range(trials + 1):
        logp = (math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                + k * math.log(p) + (trials - k) * math.log1p(-p))
        out[k] = math.exp(logp)
        cum += out[k]
        if k > trials * p and 1.0 - cum < tail:
            break
    return out


# ----------------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------------


def histogram(counts: dict[str, int]) -> dict[int, int]:
    return {int(v): int(k) for v, k in counts.items()}


def raw_moments(hist: dict[int, int], order: int) -> list[Fraction]:
    total = sum(hist.values())
    return [Fraction(sum(k * v**j for v, k in hist.items()), total)
            for j in range(1, order + 1)]


def mean_and_stderr(hist: dict[int, int]) -> tuple[float, float]:
    total = sum(hist.values())
    m1, m2 = raw_moments(hist, 2)
    return float(m1), math.sqrt(float(m2 - m1 * m1) / total)


def tv(hist: dict[int, int], law: dict[int, float | Fraction]) -> float:
    total = sum(hist.values())
    support = sorted(set(hist) | set(law))
    return 0.5 * math.fsum(abs(hist.get(v, 0) / total - float(law.get(v, 0))) for v in support)


def tv_noise_bound(law: dict[int, float | Fraction], samples: int, z: float = 6.0) -> float:
    """TV an unbiased histogram stays under: every cell within z standard errors."""
    cells = math.fsum(math.sqrt(float(p) * (1 - float(p)) / samples) for p in law.values())
    tail = max(0.0, 1.0 - math.fsum(float(p) for p in law.values()))
    return 0.5 * z * cells + tail + z / samples


# ----------------------------------------------------------------------------
# Limit-law moments from cumulants
# ----------------------------------------------------------------------------


def _cumulants_from_raw(m: list[float]) -> list[float]:
    m = [1.0] + m
    kappa = [0.0]
    for n in range(1, len(m)):
        kappa.append(m[n] - math.fsum(comb(n - 1, k - 1) * kappa[k] * m[n - k]
                                      for k in range(1, n)))
    return kappa[1:]


def _raw_from_cumulants(kappa: list[float]) -> list[float]:
    kappa = [0.0] + kappa
    m = [1.0]
    for n in range(1, len(kappa)):
        m.append(math.fsum(comb(n - 1, k - 1) * kappa[k] * m[n - k] for k in range(1, n + 1)))
    return m[1:]


def atom_raw_moments(theta: float, r: int, order: int, terms: int = 400) -> list[float]:
    """E[C(X, r)**j] for X ~ Poisson(theta), by a long direct sum over X."""
    if theta == 0:
        return [0.0] * order
    weights = [math.exp(t * math.log(theta) - theta - math.lgamma(t + 1)) for t in range(terms)]
    return [math.fsum(w * comb(t, r) ** j for t, w in enumerate(weights))
            for j in range(1, order + 1)]


def limit_raw_moments(r: int, thetas: tuple[float, ...], lambdas: tuple[float, ...],
                      order: int) -> list[float]:
    """Raw moments of sum_v C(Pois(theta_v), r) + sum_k k * Pois(rate_k).

    Independent parts add cumulants; k * Pois(rate) has cumulants k**j * rate.
    The coefficient-1 rate is lambda_1 minus the atoms' star mass.
    """
    rates = [lambdas[0] - sum(t**r for t in thetas) / math.factorial(r)] + list(lambdas[1:])
    total = [0.0] * order
    for theta in thetas:
        for j, kap in enumerate(_cumulants_from_raw(atom_raw_moments(theta, r, order))):
            total[j] += kap
    for k, rate in enumerate(rates, start=1):
        for j in range(order):
            total[j] += k ** (j + 1) * rate
    return _raw_from_cumulants(total)
