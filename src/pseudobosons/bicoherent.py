"""Weak bi-coherent states and the general growth-profile utilities.

A weak bi-coherent state is a linear functional acting on compactly
supported smooth test functions through a coherent series over one of the
two families:

    <Phi(z), g> = exp(-|z|^2/2) sum_n conj(z)^n / sqrt(n!) <phi_n, g>
    <Psi(z), g> = exp(-|z|^2/2) sum_n conj(z)^n / sqrt(n!) <psi_n, g>

Each is the complex conjugate of the ket series of g,
<g, Phi(z)> = exp(-|z|^2/2) sum_n z^n / sqrt(n!) <g, phi_n>, which is
what is computed and kept (:class:`PairingSeries`); the eigen relations
read the ket series themselves.

All model-bound operations here use the pseudo-bosonic ladder sequence
alpha_n = sqrt(n); the :class:`GrowthProfile` utilities keep the general
increasing-sequence theory available on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import quad
from .jets import Jet, sqrt_factorial
from .model import ModelError, PBModel, apply_ladder
from .quad import TestFunction, integrate_line

__all__ = [
    "GrowthProfile",
    "coherent_norm",
    "convergence_radius",
    "moment_check",
    "WeakStateQuery",
    "TransformedTestFunction",
    "PairingSeries",
    "pairing_series",
    "weak_pairing",
    "EigenRelationResult",
    "eigen_relation_residual",
    "ResolutionResult",
    "resolution_of_identity",
]


# ----------------------------------------------------------------------
# Growth profiles (general increasing ladder sequences)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthProfile:
    """Data controlling convergence of generalized coherent series.

    ``alpha`` maps n to the ladder coefficient alpha_n with
    0 = alpha_0 < alpha_1 < ...; ``alpha_bar`` is its limit (may be
    inf).  The norm-growth constants bound the two families as
    ||state_n|| <= A r^n M_n with lim M_n / M_{n+1} given by ``m_phi`` /
    ``m_psi``.
    """

    alpha: Callable[[int], float]
    alpha_bar: float = math.inf
    a_phi: float = 1.0
    a_psi: float = 1.0
    r_phi: float = 1.0
    r_psi: float = 1.0
    m_phi: float = 1.0
    m_psi: float = 1.0
    m_seq_phi: Optional[Callable[[int], float]] = None
    m_seq_psi: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.alpha(0) != 0.0:
            raise ValueError("alpha_0 must be 0")
        probe = [self.alpha(k) for k in range(min(40, 1000))]
        if any(b <= a for a, b in zip(probe, probe[1:])):
            raise ValueError("alpha_n must be strictly increasing")
        for name in ("a_phi", "a_psi", "r_phi", "r_psi"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    def alpha_factorial_sq(self, k: int) -> float:
        """(alpha_k!)^2 = (alpha_1 ... alpha_k)^2, computed in log space."""
        if k == 0:
            return 1.0
        return math.exp(2.0 * sum(math.log(self.alpha(j))
                                  for j in range(1, k + 1)))

    @classmethod
    def pseudo_bosonic(cls, **overrides) -> "GrowthProfile":
        """alpha_n = sqrt(n); (alpha_k!)^2 = k! and the radius is
        infinite whenever both norm-ratio limits are nonzero."""
        return cls(alpha=math.sqrt, alpha_bar=math.inf, **overrides)

    @classmethod
    def linear(cls, **overrides) -> "GrowthProfile":
        """alpha_n = n, so (alpha_k!)^2 = (k!)^2."""
        return cls(alpha=float, alpha_bar=math.inf, **overrides)


def convergence_radius(profile: GrowthProfile) -> float:
    """alpha_bar * min(1, m_phi / r_phi, m_psi / r_psi); infinite exactly
    when alpha_bar is infinite and both ratios are positive."""
    ratio = min(1.0, profile.m_phi / profile.r_phi,
                profile.m_psi / profile.r_psi)
    if math.isinf(profile.alpha_bar):
        return math.inf if ratio > 0 else 0.0
    return profile.alpha_bar * ratio


def coherent_norm(z_abs: float, profile: GrowthProfile,
                  *, tol: float = 1e-16, max_terms: int = 100_000) -> float:
    """N(|z|) = (sum_k |z|^{2k} / (alpha_k!)^2)^(-1/2).

    For alpha_k = sqrt(k) the sum is exp(|z|^2) and N = exp(-|z|^2/2).
    """
    z_abs = abs(float(z_abs))
    radius = convergence_radius(profile)
    if z_abs >= radius:
        raise ValueError(
            f"|z| = {z_abs} outside the convergence disc (radius {radius})"
        )
    total = 1.0
    term = 1.0
    for k in range(1, max_terms):
        ak = profile.alpha(k)
        term *= (z_abs / ak) ** 2
        total += term
        if term < tol * total:
            break
    else:
        raise ValueError("coherent-norm series did not converge in budget")
    return total ** -0.5


def moment_check(radial_density: Callable[[np.ndarray], np.ndarray],
                 profile: GrowthProfile, k_max: int,
                 *, radius: Optional[float] = None,
                 tol: float = 1e-13) -> np.ndarray:
    """Deviations integral(r^{2k} dlambda(r)) - (alpha_k!)^2 / (2 pi) for
    k = 0..k_max, where dlambda(r) = radial_density(r) dr on [0, radius)."""
    if radius is None:
        radius = convergence_radius(profile)
    upper = None if math.isinf(radius) else radius
    ks = np.arange(k_max + 1)
    moments = integrate_line(
        lambda r: np.asarray(radial_density(r))[..., None]
        * r[:, None] ** (2 * ks),
        0.0, upper, tol=tol, rtol=tol,
    ).value
    return moments.real - np.array(
        [profile.alpha_factorial_sq(k) for k in ks]) / (2.0 * math.pi)


# ----------------------------------------------------------------------
# Weak pairings
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WeakStateQuery:
    """A single weak-state evaluation request: which side at which z,
    under which truncation budget."""

    z: complex
    side: str  # 'Phi' | 'Psi'
    model: PBModel
    max_terms: int = 60
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.side not in ("Phi", "Psi"):
            raise ModelError(f"side must be 'Phi' or 'Psi', not {self.side!r}")


class TransformedTestFunction:
    """a^dag g or b g for a bump g: still smooth and compactly supported,
    so it remains an admissible test function."""

    def __init__(self, m: PBModel, which: str, g: TestFunction):
        if which not in ("a_dag", "b"):
            raise ModelError("which must be 'a_dag' or 'b'")
        self.model = m
        self.which = which
        self.g = g
        self.support = g.support

    def values(self, xs) -> np.ndarray:
        # the order-1 jet of g from its value and derivative routines,
        # which are cheaper on quadrature nodes than TestFunction.jet; it
        # is real for a real amplitude, and so is the result on a real
        # model
        xs = np.asarray(xs, dtype=float)
        gj = Jet(xs, np.array([self.g.values(xs), self.g.deriv_values(xs)]))
        return apply_ladder(self.model, self.which, lambda *_: gj, xs,
                            0).value

    __call__ = values


def _overlap_bound(m: PBModel, hs: Sequence, side: str) -> list:
    """|<state_n, h>| <= |K| c^(-+n/2) ||h_(+-)|| as a function of n for
    every test function h of ``hs``, by Cauchy-Schwarz in the transform
    identities: plus for phi, minus for psi.  A list of bounds, each None
    where rho is not real.

    One integral of |h_(+-)|^2 over the hull of their transform supports,
    first cut at edges graded toward every support's ends (see
    :func:`quad.hull_edges`), gives every bound: the inversion of rho and
    the vacuum ratio run once per node, and only h(x) differs between
    rows.  Each norm adds its integral's own error estimate, so the
    certificate stays an upper bound.  A norm whose integrand is not
    finite at some node is a QuadratureError naming such an s nearest 0.
    A QuadratureError flags in ``failed`` the functions it is about, one
    entry per function.
    """
    hs = list(hs)
    sign, power = ("plus", -0.5) if side == "phi" else ("minus", 0.5)

    def integrand(s):
        # far from 0 the transform factor leaves double range; such a norm
        # is refused where it is first seen, not refined to the budget
        with np.errstate(over="ignore", invalid="ignore"):
            x, r = quad.transform_factor(m, sign, s)
            hx = np.stack([f.values(x) for f in hs], axis=-1)
            vals = np.abs(hx * r[:, None]) ** 2
        not_finite = ~np.isfinite(vals)
        bad = not_finite.any(axis=1)
        if bad.any():
            # a row fails where its own h is nonzero, not where 0 meets
            # the overflowing factor outside its support
            raise quad.QuadratureError(
                f"|h_{sign}|^2 is not finite at s = "
                f"{s[bad][np.argmin(np.abs(s[bad]))]:.6g}",
                failed=(not_finite & (hx != 0)).any(axis=0))
        return vals

    try:
        k_phi, k_psi, c = quad.transform_identity_factors(m)
        edges = quad.hull_edges([quad.transform_support(m, f) for f in hs])
        norm_sq = integrate_line(integrand, edges[0], edges[-1],
                                 _first_edges=edges)
    except quad.RhoError:
        return [None] * len(hs)
    scales = abs(k_phi if side == "phi" else k_psi) * np.sqrt(
        norm_sq.value.real + norm_sq.abs_error_estimate)
    return [lambda n, scale=float(scale): scale * c ** (power * n)
            for scale in scales]


def _series_tail(term: float, q: float, n0: int) -> float:
    """sum_{n >= n0} t_n of the terms t_n0 = ``term`` >= 0 and
    t_{n+1} = t_n r_n, r_n = q / sqrt(n + 1), whose ratios fall with n.
    The sum stops at the first term t_{n+1} that is negligible while
    r_n < 1, and adds the geometric remainder t_{n+1} / (1 - r_n), which
    bounds it and every later term; it is inf where 400 terms end before
    that: while the terms still grow the sum is not finished, however
    small they are."""
    total = 0.0
    for n in range(n0, n0 + 400):
        total += term
        r = q / math.sqrt(n + 1)
        term *= r
        if term < 1e-18 * (1.0 + total) and r < 1.0:
            return total + term / (1.0 - r)
    return math.inf


class PairingSeries:
    """The ket series of one test function h on one side: the
    coefficients <h, state_n>, n = 0..max_terms, summed lazily at any z as

        <h, Phi(z)> = exp(-|z|^2/2) sum_n z^n / sqrt(n!) <h, phi_n>

    (Psi on the psi side).  :func:`pairing_series` builds it.  The weak
    state acts on h as the complex conjugate, <Phi(z), h> =
    ``eval(z).conjugate()`` (:meth:`bra`), and the bra coefficients
    <state_n, h> are ``np.conj(coeffs)``.

    ``bound`` maps n to a bound on |<h, state_n>| where rho is real (see
    :func:`_overlap_bound`), and is None elsewhere.  The truncation
    budget must absorb the tail: the bound certifies it where there is
    one; otherwise (swanson, complex shifts or alphas) the coefficients
    are extrapolated geometrically.
    """

    def __init__(self, coeffs: np.ndarray,
                 bound: Optional[Callable[[int], float]]):
        self.coeffs = coeffs
        self._bound = bound
        self.max_terms = len(coeffs) - 1
        self._scaled = coeffs / np.array(
            [sqrt_factorial(n) for n in range(self.max_terms + 1)])

    def _tail_bound(self, z_abs: float) -> float:
        """A bound on exp(-|z|^2/2) sum_{n > max_terms} |z|^n / sqrt(n!)
        |<h, state_n>|, from the transform-identity bounds where rho is
        real, else from the coefficients extrapolated geometrically; inf
        where 400 terms do not finish the sum (see :func:`_series_tail`)."""
        n0 = self.max_terms + 1
        first = z_abs ** n0 / sqrt_factorial(n0)
        if self._bound is not None:
            # the bounds are geometric in n: |K| c^(-+n/2) ||h_(+-)||
            at = self._bound(n0)
            q = z_abs * self._bound(n0 + 1) / at if at else 0.0
            total = _series_tail(first * at, q, n0)
        else:
            # geometric extrapolation of the computed coefficients
            mags = np.abs(self.coeffs[-9:])
            nz = mags[mags > 0]
            growth = 4.0
            if nz.size >= 2:
                growth = min(4.0, float(np.max(nz[1:] / nz[:-1])) + 0.5)
            last = float(np.max(mags)) if mags.size else 0.0
            total = _series_tail(first * last * growth, growth * z_abs, n0)
        return total * math.exp(-0.5 * z_abs * z_abs)

    def eval(self, z: complex, *, tail_tol: float = 1e-12) -> complex:
        """<h, Phi(z)> (or Psi); a ModelError where ``max_terms`` terms do
        not certify the tail at z to ``tail_tol``."""
        z = complex(z)
        tail = self._tail_bound(abs(z))
        if not tail < tail_tol * (1.0 + float(np.max(np.abs(self.coeffs)))):
            raise ModelError(
                f"non-convergent pairing tail within {self.max_terms} terms "
                f"at |z| = {abs(z):.3g} (bound {tail:.3g})"
            )
        powers = z ** np.arange(self.max_terms + 1)
        return complex(math.exp(-0.5 * abs(z) ** 2)
                       * np.dot(powers, self._scaled))

    def bra(self, z: complex, *, tail_tol: float = 1e-12) -> complex:
        """<Phi(z), h> (or Psi): the conjugate of :meth:`eval`, a zero part
        reading +0.0 (conjugating a real value leaves -0.0)."""
        return self.eval(z, tail_tol=tail_tol).conjugate() + 0j


def weak_pairing(q: WeakStateQuery, g) -> complex:
    """<Phi(z), g> or <Psi(z), g> for a test function g in D(R): the
    complex conjugate of g's ket series at z."""
    side = "phi" if q.side == "Phi" else "psi"
    series = pairing_series(q.model, [g], side, max_terms=q.max_terms)[0]
    return series.bra(q.z, tail_tol=q.tail_tol)


def pairing_series(m: PBModel, hs: Sequence, side: str, *,
                   max_terms: int = 60, tol: float = 1e-12) -> list:
    """The ket series <h, state_n> of every test function in ``hs``, from
    one :func:`quad.state_overlaps` integral and one tail-bound integral
    shared by all of them."""
    coeffs = quad.state_overlaps(m, hs, side, max_terms, state_in_bra=False,
                                 tol=tol)
    return [PairingSeries(row, bound)
            for row, bound in zip(coeffs, _overlap_bound(m, hs, side))]


# ----------------------------------------------------------------------
# Eigen-relations in the weak sense
# ----------------------------------------------------------------------

@dataclass
class EigenRelationResult:
    """Residuals of <a^dag g, Phi(z)> = z <g, Phi(z)> and
    <b g, Psi(z)> = z <g, Psi(z)>; a relative residual is nan where its
    right-hand side is exactly 0, as at z = 0, and both residuals of a
    side are nan where its pairing tails cannot be certified at z."""

    z: complex
    residual_phi: complex
    residual_psi: complex
    relative_phi: float
    relative_psi: float


def _check_series(name: str, series, max_terms: int):
    """A ValueError unless every prebuilt series has ``max_terms`` terms."""
    if any(s.max_terms != max_terms for s in series):
        raise ValueError(f"{name} must have max_terms terms")


def eigen_relation_residual(m: PBModel, z, g: TestFunction,
                            *, max_terms: int = 60,
                            series: Optional[tuple] = None):
    """Residuals at one z, or a list of them for a sequence of z.  The
    ket series <g, state_n> and <g', state_n>, with g' = a^dag g on the
    phi side and b g on the psi side, are built once per call, one
    batched integral per side, unless ``series`` passes them prebuilt as
    ((g, a^dag g) on phi, (g, b g) on psi).  Each z and each side stands
    on its own: a side whose pairing tails ``max_terms`` terms cannot
    certify at z reads nan there, and the other entries are
    unaffected."""
    if series is None:
        series = [pairing_series(m, [g, TransformedTestFunction(m, op, g)],
                                 side, max_terms=max_terms)
                  for side, op in (("phi", "a_dag"), ("psi", "b"))]
    _check_series("series", [s for pair in series for s in pair], max_terms)

    def at(z: complex) -> EigenRelationResult:
        z = complex(z)
        res = []
        for plain, moved in series:
            # <h, Phi(z)> = exp(-|z|^2/2) sum z^n / sqrt(n!) <h, phi_n>
            try:
                lhs = moved.eval(z)
                rhs = z * plain.eval(z)
            except ModelError:  # the tail of this side is not certified
                res.append((complex(math.nan, math.nan), math.nan))
                continue
            res.append((lhs - rhs,
                        abs(lhs - rhs) / abs(rhs) if rhs != 0 else math.nan))
        (r_phi, rel_phi), (r_psi, rel_psi) = res
        return EigenRelationResult(z, r_phi, r_psi, rel_phi, rel_psi)

    return at(z) if np.ndim(z) == 0 else [at(zz) for zz in z]


# ----------------------------------------------------------------------
# Resolution of the identity
# ----------------------------------------------------------------------

@dataclass
class ResolutionResult:
    value_phi_psi: complex
    value_psi_phi: complex
    reference: complex
    deviation_phi_psi: float
    deviation_psi_phi: float
    radius: float
    n_radial: int
    n_angular: int
    trace: list  # rows (R, value_phi_psi, value_psi_phi)
    tail_estimate: float = 0.0  # mass outside |z| <= R, worse ordering


def _upper_gamma_q(n_max: int, x: float) -> np.ndarray:
    """Q(n+1, x) for n = 0..n_max: the regularized upper incomplete gamma
    function at integer order, e^{-x} sum_{k<=n} x^k / k!, summed
    cumulatively in log space so that no term overflows or underflows
    before the sum is formed."""
    if x == 0.0:
        return np.ones(n_max + 1)
    ks = np.arange(n_max + 1)
    log_terms = ks * math.log(x) - x - np.array(
        [math.lgamma(k + 1.0) for k in range(n_max + 1)])
    return np.exp(np.logaddexp.accumulate(log_terms))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of n points on [-1, 1]: the
    eigenvalues of the symmetric Jacobi matrix (Golub and Welsch, Math.
    Comp. 23 (1969)), polished by one Newton step on the three-term
    recurrence, and the weights 2 / ((1 - x^2) P_n'(x)^2)."""
    j = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), 1),
                           UPLO="U")
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    slope = n * (p_prev - x * p) / (1.0 - x * x)  # P_n'(x)
    x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def _disc_rule(radii: list, n_r: int, n_theta: int, max_terms: int,
               pairs: list) -> np.ndarray:
    """The disc rule at every radius of ``radii`` for each (a, b) of
    ``pairs`` (bra and ket coefficients): a (len(radii), len(pairs))
    array.  One Gauss-Legendre rule and one cumprod over every radius's
    nodes give p_m(r) = e^{-r^2/2} r^m / sqrt(m!) at all of them; where
    n_theta > max_terms only the diagonal survives the angular sum, and
    radius i reads W[i] @ (a b) from the table
    W[i, m] = 2 sum_j w_ij r_ij p_m(r_ij)^2.  A smaller n_theta folds the
    terms of each residue class mod n_theta with a 0/1 matrix before the
    product, as the aliased angular sum does."""
    nodes, weights = _gauss_legendre(n_r)
    half = 0.5 * np.asarray(radii, dtype=float)[:, None]
    r = half * (nodes + 1.0)
    wr = half * weights
    steps = np.sqrt(np.arange(1, max_terms + 1))
    # e^{-r^2/2} r^m / sqrt(m!), (radii, n_r, max_terms + 1)
    powers = np.cumprod(np.concatenate(
        [np.exp(-0.5 * r * r)[..., None], r[..., None] / steps], axis=-1),
        axis=-1)
    wrr = 2.0 * (wr * r)
    if n_theta > max_terms:
        table = (wrr[:, None, :] @ (powers * powers))[:, 0, :]
        return table @ np.stack([a * b for a, b in pairs], axis=-1)
    fold = (np.arange(max_terms + 1)[:, None] % n_theta
            == np.arange(n_theta)).astype(float)
    return np.stack(
        [np.einsum("ij,ij->i", wrr,
                   (((powers * a) @ fold) * ((powers * b) @ fold)).sum(-1))
         for a, b in pairs], axis=-1)


def resolution_of_identity(m: PBModel, f: TestFunction, g: TestFunction,
                           R: float = 6.0, n_r: int = 96,
                           n_theta: Optional[int] = None,
                           *, max_terms: int = 60,
                           trace_radii: Optional[Sequence[float]] = None,
                           g_series: Optional[tuple] = None,
                           f_series: Optional[tuple] = None,
                           ) -> ResolutionResult:
    """(1/pi) * integral over |z| <= R of <f, Phi(z)><Psi(z), g> (and the
    swapped ordering) against the Lebesgue area measure, compared with
    <f, g>.

    ``f_series`` and ``g_series`` optionally pass prebuilt ket series of
    ``max_terms`` terms to reuse (see :func:`pairing_series`), each as
    (phi side, psi side): <f, phi_n> and <f, psi_n>, and <g, phi_n> and
    <g, psi_n>, the same series the eigen relations read.  <Psi(z), g>
    and <Phi(z), g> are the conjugates of g's, so the rule reads the bra
    coefficients <state_n, g> as their conjugates.

    Measure bookkeeping: for alpha_n = sqrt(n) the norm factor is
    N(r)^2 = exp(-r^2), and the radial measure dlambda(r) =
    (1/pi) r exp(-r^2) dr reproduces the required moments
    (alpha_k!)^2 / (2 pi) = k! / (2 pi).  The weighted measure
    N(r)^{-2} dlambda(r) dtheta therefore collapses to the flat
    (1/pi) r dr dtheta used here: each pairing already carries one factor
    exp(-r^2/2), and the two of them together supply exactly the
    N(r)^2 that the weighted measure divides out.

    The disc rule is ``n_r`` Gauss-Legendre radii times the ``n_theta``
    equispaced angles, and its angular sum is done exactly (discrete
    Parseval).  The pairings are sum_m a_m z^m and sum_n b_n conj(z)^n,
    and the equispaced sum of e^{i(m-n)theta} is n_theta where
    m = n (mod n_theta) and 0 elsewhere.  So with A_k(r) and B_k(r) the
    sums of a_m r^m and b_n r^n over each residue class k mod n_theta,
    each radius contributes 2 sum_j w_j r_j e^{-r_j^2} sum_k A_k B_k:
    the same rule as on the r x theta grid, aliased terms included, and
    for the default n_theta = 2 max_terms + 3 only the diagonal m = n
    remains.  The 1/sqrt(m!) of a_m and a factor e^{-r^2/2} per pairing
    go into the powers, e^{-r^2/2} r^m / sqrt(m!), none of which exceeds
    1.  Every radius of the trace, and R, is read from one radial weight
    table over all their nodes (see :func:`_disc_rule`).
    """
    if n_theta is None:
        n_theta = 2 * max_terms + 3
    if n_r < 1 or n_theta < 1:
        raise ValueError(f"the disc rule needs n_r >= 1 and n_theta >= 1, "
                         f"not {n_r} and {n_theta}")
    f_phi, f_psi = f_series or [
        pairing_series(m, [f], side, max_terms=max_terms)[0]
        for side in ("phi", "psi")]
    g_phi, g_psi = g_series or [
        pairing_series(m, [g], side, max_terms=max_terms)[0]
        for side in ("phi", "psi")]
    _check_series("f_series", (f_phi, f_psi), max_terms)
    _check_series("g_series", (g_phi, g_psi), max_terms)
    reference = quad.compatibility_form(m, f, g).value
    radii = list(trace_radii) if trace_radii is not None else \
        [R * (i + 1) / 6.0 for i in range(6)]
    # the last row of the table is R: the trace's own last row when the
    # trace ends there (the same rule at the same radius), else one more
    table_radii = radii if radii and radii[-1] == R else radii + [R]
    pairs = {"phi_psi": (f_phi, g_psi), "psi_phi": (f_psi, g_phi)}
    values = _disc_rule(table_radii, n_r, n_theta, max_terms,
                        [(fs.coeffs, np.conj(gs.coeffs)) for fs, gs in
                         pairs.values()])
    trace = [(rr, complex(v_pp), complex(v_pf))
             for rr, (v_pp, v_pf) in zip(radii, values)]
    v_pp, v_pf = (complex(v) for v in values[-1])

    # diagonal-term mass outside |z| <= R: the angular integral kills all
    # cross terms, so the truncated disc misses sum_n a_n b_n Q(n+1, R^2)
    # with Q the regularized upper incomplete gamma; the worse ordering
    # bounds both
    outside = _upper_gamma_q(max_terms, R * R) / np.array(
        [sqrt_factorial(n) ** 2 for n in range(max_terms + 1)])
    tail = max(float(np.dot(np.abs(fs.coeffs) * np.abs(gs.coeffs), outside))
               for fs, gs in pairs.values())
    if tail > 0.01 * (1.0 + abs(reference)):
        import warnings

        warnings.warn(
            f"resolution radius R = {R} may be too small: estimated "
            f"missing mass {tail:.2e}", stacklevel=2)
    return ResolutionResult(
        value_phi_psi=v_pp,
        value_psi_phi=v_pf,
        reference=complex(reference),
        deviation_phi_psi=float(abs(v_pp - reference)),
        deviation_psi_phi=float(abs(v_pf - reference)),
        radius=R,
        n_radial=n_r,
        n_angular=n_theta,
        trace=trace,
        tail_estimate=tail,
    )
