"""Derive the coefficients of ``tosca.numerics.erf``.

The kernel approximates erf on clamped x by the odd rational form

    erf(x) ~ x * P(x^2) / Q(x^2),   |x| <= clamp,

with P of degree 6 and Q monic of degree 5 (the form Eigen and XLA use for
their float32 erf; no coefficient is taken from them).  The fit minimises
the largest relative error against ``math.erf`` on Chebyshev nodes in
t = x^2 over [0, 4.25^2]: a few Sanathanan-Koerner passes (a linear least
squares problem weighted by the last denominator) and then Lawson
reweighting toward the minimax solution.  The clamp is the first x at which
the fitted function reaches 1 - 2**-26: the rational increases up to there,
so it stays below 1, and a float32 result at or beyond the clamp rounds to
exactly +-1.

Run it with ``python3 tools/erf_fit.py``; it prints the constants as
``numerics.py`` writes them and the fit's largest relative error.
``tests/test_erf_fit.py`` checks that it reproduces the committed ones.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev, polynomial

DEG_P, DEG_Q = 6, 5
FIT_TOP = 4.25  # the fit covers |x| <= FIT_TOP
NODES = 20_000
SK_PASSES, LAWSON_PASSES = 20, 200
FLAT = 1.0 - 2.0 ** -26  # rounds to float32 1.0 with room to spare


def fit():
    """(P, Q, relative error): monomial coefficients in t = x^2, lowest
    degree first, with Q monic."""
    top = FIT_TOP * FIT_TOP
    u = np.cos(np.pi * (np.arange(NODES) + 0.5) / NODES)  # nodes in [-1, 1]
    t = (u + 1.0) * top / 2.0
    g = np.array([math.erf(math.sqrt(s)) / math.sqrt(s) if s > 0.0
                  else 2.0 / math.sqrt(math.pi) for s in t])  # erf(x) / x
    vp = chebyshev.chebvander(u, DEG_P)
    vq = chebyshev.chebvander(u, DEG_Q)
    q_last = np.ones_like(t)
    w = np.ones_like(t)
    best = (np.inf, None, None)
    for k in range(SK_PASSES + LAWSON_PASSES):
        # P - g Q = 0 with Q's first Chebyshev coefficient fixed at 1,
        # scaled to relative error of P / Q
        s = np.sqrt(w) / (g * np.abs(q_last))
        a = np.hstack([vp, -g[:, None] * vq[:, 1:]]) * s[:, None]
        coef = np.linalg.lstsq(a, g * vq[:, 0] * s, rcond=None)[0]
        cp = coef[:DEG_P + 1]
        cq = np.concatenate([[1.0], coef[DEG_P + 1:]])
        q = chebyshev.chebval(u, cq)
        err = np.abs(chebyshev.chebval(u, cp) / q - g) / g
        if err.max() < best[0] and (q > 0.0).all():
            best = (err.max(), cp, cq)
        if k < SK_PASSES:
            q_last = q
        else:
            w = w * np.sqrt(err / err.max()) + 1e-300
            w /= w.mean()
    rel, cp, cq = best
    to_t = polynomial.Polynomial([-1.0, 2.0 / top])  # u as a function of t

    def monomial(c):
        return polynomial.Polynomial(chebyshev.cheb2poly(c))(to_t).coef

    P, Q = monomial(cp), monomial(cq)
    return P / Q[-1], Q / Q[-1], rel


def rational(x, P, Q):
    t = x * x
    return x * np.polyval(P[::-1], t) / np.polyval(Q[::-1], t)


def clamp(P, Q) -> float:
    """The first x where the rational reaches ``FLAT``, by bisection; the
    rational must increase on [0, x]."""
    grid = np.linspace(0.0, FIT_TOP, 400_001)
    r = rational(grid, P, Q)
    if not (np.diff(r) > 0.0).all() or r[-1] < FLAT:
        raise SystemExit("the fit does not rise to 1 within its range")
    lo, hi = 0.0, FIT_TOP
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if rational(mid, P, Q) < FLAT else (lo, mid)
    return hi


def main() -> None:
    P, Q, rel = fit()
    c = clamp(P, Q)
    print(f"# largest relative error of the fit: {rel:.3e}")
    print(f"_ERF_CLAMP = {c!r}")
    print("_ERF_P =", tuple(float(v) for v in P[::-1]))
    print("_ERF_Q =", tuple(float(v) for v in Q[::-1][1:]))


if __name__ == "__main__":
    main()
