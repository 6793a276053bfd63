"""Integral machinery.

Everything that integrates lives here: an adaptive Gauss-Kronrod line
integrator over finite or truncated-infinite intervals, compactly
supported bump test functions, harmonic-oscillator eigenfunctions, rho
and its monotone inverse, the compatibility form <f, g> = integral of
conj(f) g, biorthonormality matrices (on Gauss-Hermite rules in the
oscillator variable where that is certified), the plus/minus transforms
that map test functions to the oscillator picture, and quasi-basis
partial sums.

rho is derived, not registered: rho = c u, with u the lead of the pi
recursion and c = 1/kappa_pi, so rho' = 1/alpha_b and rho/sqrt(2c) is the
Hermite argument of both families.  Where c or rho is not real (swanson,
complex shifts or alphas) there are no transforms, and RhoError says so.

The integrator uses a 15-point Kronrod rule nested over 7-point Gauss
panels.  Infinite domains are truncated where the supplied decay envelope
(or, failing that, the sampled integrand) falls below tol/10 and the
estimated tail mass is negligible; dyadic seed panels keep wide windows
cheap.  A caller that has already cut the line into short segments (the
vector integral of ``Antideriv``) starts each segment as one panel
instead, and an integral over bump supports starts from edges graded
toward every support end (:func:`hull_edges`).  An integrand may be
given by its factors (A, B) of conj(A_i) B_j, so that a matrix of
pairings forms no (npts, P*Q) array.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .jets import Jet, hermite_coeffs, jet_exp, jet_powi

__all__ = [
    "IntegralResult",
    "QuadratureError",
    "RhoError",
    "TestFunction",
    "integrate_line",
    "oscillator_en",
    "hermite_value",
    "rho_eval",
    "rho_invert",
    "compatibility_form",
    "biorthonormality_matrix",
    "GaussHermiteResult",
    "transform_pm",
    "transform_identity_factors",
    "quasi_basis_sum",
    "QuasiBasisResult",
    "state_overlaps",
    "real_if_exact",
]


def real_if_exact(a):
    """The real part of ``a`` where every imaginary part is exactly 0 (of
    either sign), else ``a`` unchanged: a value that is exactly real is
    carried, and computed on, in float64."""
    a = np.asarray(a)
    if a.dtype.kind == "c" and not np.count_nonzero(a.imag):
        return a.real
    return a


class QuadratureError(Exception):
    """Non-convergent or divergent integral; carries the best estimate.

    ``failed`` flags, per component of the integrand (a bool array of the
    value's shape), the components the error is about; it is None where
    no pass ran, or where the raiser does not know."""

    def __init__(self, message, best_value=None, error_estimate=None,
                 failed=None):
        super().__init__(message)
        self.best_value = best_value
        self.error_estimate = error_estimate
        self.failed = failed


class RhoError(Exception):
    """rho is unavailable, non-monotonic, or failed to invert."""


@dataclass
class IntegralResult:
    """Scalar value and error, or (M,) arrays for an (npts, M) integrand.
    ``abs_mass`` is the accepted integral of |f| (per component), the
    mass whose roundoff floor :func:`integrate_line` allows for."""

    value: complex
    abs_error_estimate: float
    panels_used: int
    truncation_bounds: tuple[float, float]
    abs_mass: Optional[float] = None


# ----------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule (QUADPACK abscissae and weights)
# ----------------------------------------------------------------------

_XGK = np.array([
    -0.991455371120812639207, -0.949107912342758524526,
    -0.864864423359769072789, -0.741531185599394439864,
    -0.586087235467691130294, -0.405845151377397166907,
    -0.207784955007898467601, 0.0,
    0.207784955007898467601, 0.405845151377397166907,
    0.586087235467691130294, 0.741531185599394439864,
    0.864864423359769072789, 0.949107912342758524526,
    0.991455371120812639207,
])
_WGK = np.array([
    0.022935322010529224964, 0.063092092629978553291,
    0.104790010322250183840, 0.140653259715525918745,
    0.169004726639267902827, 0.190350578064785409913,
    0.204432940075298892414, 0.209482141084727828013,
    0.204432940075298892414, 0.190350578064785409913,
    0.169004726639267902827, 0.140653259715525918745,
    0.104790010322250183840, 0.063092092629978553291,
    0.022935322010529224964,
])
_WG = np.array([
    0.129484966168869693271, 0.279705391489276667901,
    0.381830050505118944950, 0.417959183673469387755,
    0.381830050505118944950, 0.279705391489276667901,
    0.129484966168869693271,
])
_GAUSS_IDX = np.arange(1, 15, 2)  # Gauss nodes sit at the odd Kronrod slots


def _panel_sums(f, lo: np.ndarray, hi: np.ndarray):
    """Kronrod and Gauss sums, error estimates, and the Kronrod sum of |f|
    (the roundoff witness) for a batch of panels: shape (panels,) for a
    scalar integrand, (panels, M) for one returning (npts, M), and
    (panels, P*Q) for one returning the factors (A, B) of conj(A_i) B_j
    (see :func:`integrate_line`).  The sums are taken in the integrand's
    own dtype, so a real integrand is summed in float64."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = f(xs.ravel())
    if isinstance(vals, tuple):
        kron, gauss, kabs = _factored_sums(xs, half[:, None], *vals)
    else:
        vals = np.asarray(vals)
        if vals.ndim == 1:  # the fast path of scalar integrands
            vals = vals.reshape(xs.shape)

            def weigh(w, v):
                return v @ w
        else:  # (npts, M): sum along the node axis
            vals = vals.reshape(xs.shape + vals.shape[1:])
            half = half[:, None]

            def weigh(w, v):
                return w @ v
        # the sum of |f| first: it is finite only where every value is,
        # and only finite values reach the signed sums (inf * 0 is nan)
        kabs = weigh(_WGK, np.abs(vals)) * half
        if not np.isfinite(kabs).all():
            _refuse_non_finite(xs, vals, kabs)
        kron = weigh(_WGK, vals) * half
        gauss = weigh(_WG, vals[:, _GAUSS_IDX]) * half
    diff = np.abs(kron - gauss)
    # QUADPACK-style sharpened estimate once the rule starts converging;
    # the clip keeps the unused branch of a huge difference finite
    err = np.where(diff < 5e-3, (200.0 * np.minimum(diff, 5e-3)) ** 1.5, diff)
    err = np.minimum(err, diff + 1e-300)
    return kron, err, kabs


def _factored_sums(xs: np.ndarray, half: np.ndarray, a, b):
    """Kronrod, Gauss and |f| sums, each (panels, P*Q), of the integrand
    conj(A_i) B_j given by its factors a (npts, P) and b (npts, Q): per
    panel A^H diag(w) B and |A|^T diag(w_K) |B|, with no (npts, P*Q)
    array formed.  The |f| sums come first, as in :func:`_panel_sums`
    (0 * inf there is nan, not a warning), and a node is named as not
    finite where max|a| max|b| is not, as some conj(a_i) b_j is not.
    Each factor keeps its own dtype: real factors are summed in float64,
    and a complex one makes the products complex."""
    a, b = (np.asarray(v).reshape(xs.shape + (-1,)) for v in (a, b))

    def weigh(w, x, y):
        out = ((np.swapaxes(x, 1, 2) * w) @ y).reshape(len(xs), -1)
        return np.multiply(out, half, out=out)  # one (panels, P*Q) array

    abs_a, abs_b = np.abs(a), np.abs(b)
    with np.errstate(over="ignore", invalid="ignore"):
        kabs = weigh(_WGK, abs_a, abs_b)
        if not np.isfinite(kabs).all():
            _refuse_non_finite(xs, abs_a.max(axis=-1) * abs_b.max(axis=-1),
                               kabs)
    conj_a = np.conj(a)
    return (weigh(_WGK, conj_a, b), weigh(_WG, conj_a[:, _GAUSS_IDX],
                                          b[:, _GAUSS_IDX]), kabs)


def _refuse_non_finite(xs: np.ndarray, vals: np.ndarray, kabs: np.ndarray):
    """QuadratureError for a batch of panels whose sum of |f| is not
    finite.  A panel holding such a value is never accepted, so bisection
    would only spend memory until the budget ran out; the integral stops
    at the first pass that meets one instead.  The message names the node
    nearest 0 among those whose value is not finite (or, where only the
    sum overflowed, among the nodes of its panels), and the error
    estimate is inf for every component that met one, as
    ``Antideriv.value_at`` reads it."""
    bad = ~np.isfinite(vals.reshape(xs.shape + (-1,))).all(axis=-1)
    if not bad.any():
        bad[:] = ~np.isfinite(kabs.reshape(len(xs), -1)).all(axis=1)[:, None]
    nodes = xs[bad]
    failed = ~np.isfinite(kabs).all(axis=0)
    raise QuadratureError(
        f"integrand is not finite at x = "
        f"{nodes[np.argmin(np.abs(nodes))]:.6g}",
        error_estimate=np.where(failed, np.inf, 0.0), failed=failed)


# A pass whose worst error estimate stays within _STALL_FACTOR of its
# acceptance level, without halving, for _STALL_PASSES passes in a row is
# limited by the rounding noise of the integrand's own values: bisection
# cannot lower it (truncation error falls by far more than half per pass,
# and even a jump halves it), so refinement stops there.
_STALL_PASSES = 4
_STALL_FACTOR = 4.0

# the roundoff floor of integrate_line: no component is accepted below
# this times its integral of |f|, the mass whose rounding it carries
ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps


def _stalled(excess: list) -> bool:
    """Whether the last passes' worst error / acceptance level ratios
    (each above 1) show refinement stalled at the noise floor."""
    window = excess[-_STALL_PASSES - 1:]
    return (len(window) > _STALL_PASSES and max(window) <= _STALL_FACTOR
            and window[-1] > 0.5 * window[0])


def _failed_components(ratios: list) -> np.ndarray:
    """Per component, from each pass's error / acceptance level ratios,
    whether a failed integral failed on it: its last ratio is above 1 and
    did not halve over the last passes (the worst component of a stalled
    integral always qualifies).  Where none qualifies, as when the budget
    runs out while every component still converges, every component
    above its level is flagged."""
    window = np.array(ratios[-_STALL_PASSES - 1:])
    above = window[-1] > 1.0
    stuck = above & (window[-1] > 0.5 * window[0])
    return stuck if len(window) > _STALL_PASSES and stuck.any() else above


def _budget_message(max_panels: int, excess: list) -> str:
    """The panel-budget error, with the pass count and the worst error /
    acceptance level ratios of the last passes, so that a refinement
    stuck just above the stall rule's factor reads as stalled."""
    if not excess:
        return f"panel budget {max_panels} exhausted before the first pass"
    window = excess[-_STALL_PASSES - 1:]
    return (f"panel budget {max_panels} exhausted after {len(excess)} "
            f"passes: the worst error estimate stayed "
            f"{min(window):.3g}-{max(window):.3g}x its acceptance level "
            f"over the last {len(window)} passes")


def _seed_breakpoints(a: float, b: float) -> np.ndarray:
    a, b = float(a), float(b)
    pts = {a, b}
    if a < 0.0 < b:
        pts.add(0.0)
    mag = max(abs(a), abs(b))
    v = 1.0
    while v < mag:
        for s in (v, -v):
            if a < s < b:
                pts.add(s)
        v *= 2.0
    pts = np.array(sorted(pts))
    lo, hi = pts[:-1], pts[1:]
    # split any short central span so the first pass sees some structure:
    # the first edges of np.linspace(lo, hi, chunks + 1), by its own
    # arithmetic k * ((hi - lo) / chunks) + lo, for all spans at once
    chunks = np.where(hi - lo <= 16.0, 4, 1)
    k = np.arange(4.0)
    edges = k * ((hi - lo) / chunks)[:, None] + lo[:, None]
    return np.append(edges[k < chunks[:, None]], pts[-1])


def _truncate(probe, tol: float, signs: tuple) -> dict:
    """For each open side (sign -1 or +1), the smallest dyadic L with
    probe < tol/10 at sign*L and sign*1.31L and negligible estimated tail
    mass probe * L; returns {sign: sign*L}.  ``probe`` maps an array of
    points to an array of magnitudes.  One call probes a block of four
    doublings, L = 1..8, 16..128 and so on up to 2^59, on every side still
    open.  A block whose call raises or warns is probed again one doubling
    per call, so that the cut or the error is that of such a search."""
    cuts, last = {}, {}

    def take(open_signs, Ls):
        pts = np.multiply.outer(np.multiply.outer(open_signs, Ls), (1, 1.31))
        vals = np.reshape(probe(pts.ravel()), pts.shape)
        at_l, at_far = vals[..., 0], vals[..., 1]
        # the larger of the two, read as Python's max(at_l, at_far)
        worst = np.where(at_far > at_l, at_far, at_l)
        ok = (worst < tol / 10.0) & (worst * Ls < tol / 3.0)
        for s, row, hit in zip(open_signs, worst, ok):
            last[s] = row[-1]
            if hit.any():
                cuts[s] = float(s * Ls[np.argmax(hit)])

    for first in range(0, 60, 4):
        open_signs = [s for s in signs if s not in cuts]
        if not open_signs:
            return cuts
        Ls = 2.0 ** np.arange(first, first + 4)
        try:
            # a point that a one-doubling search never reaches must neither
            # fail the search nor warn on its behalf
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                take(open_signs, Ls)
        except Exception:
            for L in Ls[:, None]:
                if len(cuts) < len(signs):
                    take([s for s in signs if s not in cuts], L)
    if len(cuts) < len(signs):
        ends = [f"the {'-' if s < 0 else '+'}inf side (probe {last[s]:.3g}, "
                f"probe * L {last[s] * 2.0**59:.3g} at L = 2^59)"
                for s in signs if s not in cuts]
        raise QuadratureError("envelope non-integrable: no admissible "
                              "truncation point found on " + " or ".join(ends))
    return cuts


def _result(value, err, panels: int, bounds, mass) -> IntegralResult:
    if np.ndim(value):  # already complex / float arrays
        return IntegralResult(value, err, panels, bounds, mass)
    return IntegralResult(complex(value), float(err), panels, bounds,
                          float(mass))


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    a: Optional[float] = None,
    b: Optional[float] = None,
    *,
    tol: float = 1e-12,
    rtol: float = 0.0,
    envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    max_panels: int = 10_000,
    _first_edges: Optional[tuple] = None,
) -> IntegralResult:
    """Adaptive line integral of a vectorized integrand.

    ``f`` maps npts points to npts values, or to an (npts, M) array of M
    integrands that share one set of panels (vector-valued quadrature,
    Shampine, J. Comput. Appl. Math. 211 (2008)); ``value`` and
    ``abs_error_estimate`` then have shape (M,).  ``f`` may also return a
    tuple of factors (A, B), A of shape (npts, P) and B (npts, Q), for
    the P*Q integrands conj(A_i) B_j, component i*Q + j of the (P*Q,)
    results.  A panel's Kronrod sum is then A^H diag(w_K) B, its Gauss
    sum likewise, and its |f| mass |A|^T diag(w_K) |B|, which is exact as
    |conj(a) b| = |a||b|: no (npts, P*Q) array is formed.

    ``a``/``b`` may be None or infinite; such ends are truncated using
    ``envelope``, which maps an array of points to a nonnegative decay
    bound on |f| at each, or, if no envelope is given, the largest
    magnitude of the components of ``f`` at each sampled point.  Both open
    ends are probed together, one call per block of four doublings of the
    cut (see :func:`_truncate`).  Component j is
    accepted once its error estimate is below
    max(tol, rtol * |I_j|, 50 eps * integral of |f_j|), apportioned to
    panels by width.  A panel is kept only when every component meets its
    share, so no component is integrated more loosely than on its own.
    Refinement that has stalled at the rounding noise of the integrand's
    values (see :func:`_stalled`) raises QuadratureError at once instead
    of spending the panel budget, like QUADPACK's roundoff detection, and
    so does a pass that meets an integrand value that is not finite (see
    :func:`_refuse_non_finite`), which no bisection can mend.  Every
    QuadratureError of a vector integral says in ``failed`` which
    components it is about (see :func:`_failed_components`), and a
    spent panel budget names the pass count and the worst error /
    acceptance level ratios of the last passes.  A real integrand, or
    real factors, are summed in float64 (see :func:`_panel_sums`), but
    ``value`` is complex whatever the integrand's dtype.

    The first pass splits the interval at dyadic seeds (see
    :func:`_seed_breakpoints`).  ``_first_edges``, an internal keyword for
    callers that have already cut the line themselves, replaces those
    seeds with the given ascending panel edges of a finite interval:
    ``Antideriv`` passes ``(0, 1)``, so each of its segments starts as one
    Kronrod panel, as QUADPACK's QAG does, and integrals over bump
    supports pass :func:`hull_edges`.  Refinement and acceptance are the
    same either way, but an integrand over bump supports must start on
    :func:`hull_edges`: from the default seeds, the flat ends of a bump
    can make the Gauss and Kronrod sums of a panel agree by accident, and
    a bump at center 0.0403, width 0.4 then accepts an error of 3.5e-11
    at tol 1e-12.
    """
    def probe(xs: np.ndarray) -> np.ndarray:
        if envelope is not None:
            return np.abs(envelope(xs))
        vals = f(xs)
        if isinstance(vals, tuple):  # max |conj(a_i) b_j| = max|a| max|b|
            a, b = (np.abs(v).reshape(xs.size, -1).max(axis=1) for v in vals)
            return a * b
        return np.abs(vals).reshape(xs.size, -1).max(axis=1)

    lo_inf = a is None or math.isinf(a)
    hi_inf = b is None or math.isinf(b)
    cuts = _truncate(probe, tol, (-1,) * lo_inf + (+1,) * hi_inf)
    a_eff = cuts[-1] if lo_inf else float(a)
    b_eff = cuts[+1] if hi_inf else float(b)
    if a_eff == b_eff:
        vals = f(np.array([a_eff]))
        shape = (np.size(vals[0]) * np.size(vals[1]),) \
            if isinstance(vals, tuple) else np.shape(vals)[1:]
        return _result(np.zeros(shape, dtype=np.complex128), np.zeros(shape),
                       0, (a_eff, b_eff), np.zeros(shape))
    if a_eff > b_eff:
        res = integrate_line(f, b_eff, a_eff, tol=tol, rtol=rtol,
                             envelope=envelope, max_panels=max_panels,
                             _first_edges=_first_edges)
        return IntegralResult(-res.value, res.abs_error_estimate,
                              res.panels_used, (a_eff, b_eff), res.abs_mass)

    edges = (_seed_breakpoints(a_eff, b_eff) if _first_edges is None
             else np.asarray(_first_edges, dtype=float))
    lo, hi = edges[:-1], edges[1:]
    width_total = b_eff - a_eff

    total_panels = 0
    done_val = 0.0 + 0.0j
    done_err = done_abs = 0.0
    ratios = []  # error estimate / acceptance level of each pass
    excess = []  # the worst of them
    for _ in range(64):
        total_panels += lo.size
        if total_panels > max_panels:
            raise QuadratureError(
                _budget_message(max_panels, excess),
                best_value=done_val, error_estimate=done_err,
                failed=_failed_components(ratios) if ratios else None,
            )
        kron = err = kabs = None  # the last pass's sums go before the next
        kron, err, kabs = _panel_sums(f, lo, hi)
        val = done_val + kron.sum(axis=0)
        val_err = done_err + err.sum(axis=0)
        # acceptance level per component: requested tolerances, but never
        # below the roundoff floor of the absolute-value mass in play; the
        # builtin max keeps the scalar path as fast as it was
        vmax = max if kron.ndim == 1 else np.maximum
        mass = done_abs + kabs.sum(axis=0)
        scale = vmax(vmax(tol, rtol * abs(val)), ROUNDOFF_FLOOR * mass)
        if (val_err <= scale).all():  # global budget already met
            return _result(val, val_err, total_panels, (a_eff, b_eff), mass)
        # with tol = 0 a component of zero mass has a zero level: 0/0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios.append(val_err / scale)
        excess.append(float(np.max(ratios[-1])))
        if _stalled(excess):
            raise QuadratureError(
                f"refinement stalled at the integrand's rounding noise: the "
                f"error estimate stayed {excess[-1]:.3g}x its acceptance "
                f"level after {len(excess)} passes",
                best_value=val, error_estimate=val_err,
                failed=_failed_components(ratios))
        ok = (err.reshape(lo.size, -1)
              <= scale * (hi - lo)[:, None] / width_total).all(axis=1)
        done_val = done_val + kron[ok].sum(axis=0)
        done_err = done_err + err[ok].sum(axis=0)
        done_abs = done_abs + kabs[ok].sum(axis=0)
        if ok.all():
            return _result(done_val, done_err, total_panels, (a_eff, b_eff),
                           done_abs)
        lo_bad, hi_bad = lo[~ok], hi[~ok]
        mid = 0.5 * (lo_bad + hi_bad)
        lo = np.concatenate([lo_bad, mid])
        hi = np.concatenate([mid, hi_bad])
    best = _result(done_val + kron[~ok].sum(axis=0),
                   done_err + err[~ok].sum(axis=0), total_panels, None,
                   done_abs + kabs[~ok].sum(axis=0))
    raise QuadratureError(
        "adaptive refinement failed to converge",
        best_value=best.value, error_estimate=best.abs_error_estimate,
        failed=_failed_components(ratios),
    )


# ----------------------------------------------------------------------
# Test functions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported bump, a member of D(R).

    h(x) = amplitude * exp(-1 / (1 - t^2)) for t = (x - center)/width
    inside |t| < 1 and exactly 0 outside.
    """

    __test__ = False  # not a pytest item despite the name

    center: float = 0.0
    width: float = 1.0
    amplitude: complex = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)

    @property
    def _dtype(self):
        """complex128 for a complex amplitude, float64 for a real one."""
        return complex if isinstance(self.amplitude, complex) else float

    def values(self, xs) -> np.ndarray:
        """h at the points xs: float64 for a real amplitude, complex128
        for a complex one."""
        xs = np.asarray(xs, dtype=float)
        t = (xs - self.center) / self.width
        inside = np.abs(t) < 1.0
        out = np.zeros(xs.shape, dtype=self._dtype)
        ti = t[inside]
        out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - ti * ti))
        return out

    __call__ = values

    def deriv_values(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        t = (xs - self.center) / self.width
        inside = np.abs(t) < 1.0
        out = np.zeros(xs.shape, dtype=self._dtype)
        ti = t[inside]
        u = 1.0 - ti * ti
        out[inside] = (self.amplitude * np.exp(-1.0 / u)
                       * (-2.0 * ti / (u * u)) / self.width)
        return out

    def jet(self, x, order: int) -> Jet:
        """Jet at a point or at every point of an array; the coefficients
        are exactly 0 outside the open support."""
        xs = np.asarray(x, dtype=float)
        inside = np.abs((xs - self.center) / self.width) < 1.0 - 1e-14
        # evaluate outside points at the center, then zero them
        safe = np.where(inside, xs, self.center)
        t = (Jet.variable(safe, order) - self.center) * (1.0 / self.width)
        u = 1.0 - jet_powi(t, 2)
        g = jet_exp(-(1.0 / u)) * self.amplitude
        return Jet(x, np.where(inside, g.coeffs, 0.0))

    def l2_norm(self) -> float:
        edges = hull_edges([self.support])
        val = integrate_line(lambda s: np.abs(self.values(s)) ** 2,
                             edges[0], edges[-1], _first_edges=edges).value
        return math.sqrt(val.real)

    def normalized(self) -> "TestFunction":
        return TestFunction(self.center, self.width,
                            self.amplitude / self.l2_norm())


# ----------------------------------------------------------------------
# Hermite helpers and oscillator eigenfunctions
# ----------------------------------------------------------------------

def hermite_value(n, y):
    """h_n(y) = H_n(y) / sqrt(2^n n!) for scalar or array y: the order-0
    rows of ``jets.hermite_coeffs``, the one Hermite recurrence, in y's
    own dtype (float64 for a real y, whose rows then equal the real parts
    of those of y + 0j, and complex128 for a complex one).

    ``n`` is one level, or a 1-D sequence of levels whose values are
    stacked along a new first axis; each row is bitwise the single-level
    result, and no two results share memory.
    """
    y = np.asarray(y)
    y = y.astype(np.complex128 if np.iscomplexobj(y) else float, copy=False)
    single = np.ndim(n) == 0
    rows = hermite_coeffs([n] if single else n, y[None])[0]
    return rows[0] if single else rows


def oscillator_en(n: int, s):
    """n-th harmonic-oscillator eigenstate
    e_n(s) = (2^n n! sqrt(pi))^(-1/2) H_n(s) exp(-s^2/2) = h_n(s) e_0(s),
    with h_n from :func:`hermite_value`, stable far beyond n = 200.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = np.asarray(s, dtype=float)
    return hermite_value(n, s) * (np.pi ** -0.25 * np.exp(-0.5 * s * s))


# ----------------------------------------------------------------------
# rho and its inverse
# ----------------------------------------------------------------------

def _rho_scale(m) -> float:
    """c = 1/kappa_pi = alpha_a/alpha_b, which must be real and positive
    for rho to be real."""
    kappa = m.kappa["pi"]
    if not (cmath.isfinite(kappa) and kappa.real > 0.0
            and abs(kappa.imag) <= 1e-12 * kappa.real):
        raise RhoError(
            f"model {m.name!r} has no real rho: c = 1/kappa_pi needs "
            f"kappa_pi = {kappa} real and positive")
    return 1.0 / kappa.real


def _real_rho(m, xs: np.ndarray) -> np.ndarray:
    """rho = c u at the points xs, u the lead of the pi recursion."""
    v = _rho_scale(m) * m.lead_jet("pi", xs, 0).value
    if np.any(np.abs(v.imag) > 1e-10 * (1.0 + np.abs(v.real))):
        raise RhoError(f"model {m.name!r}: rho evaluated to a non-real value")
    return v.real


def rho_eval(m, x: float) -> float:
    """rho(x) = c u(x), the scaled lead of the pi recursion."""
    return float(_real_rho(m, np.array([float(x)]))[0])


def _rho_slope(m, xs: np.ndarray) -> np.ndarray:
    # rho' = 1/alpha_b; also the monotonicity witness
    ab = m.alpha_b.eval_values(xs)
    bad = (np.abs(ab.imag) > 1e-12 * (1 + np.abs(ab))) | (ab.real <= 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise RhoError(
            f"non-monotonic rho: alpha_b({xs[i]}) = {ab[i]} is not real positive"
        )
    return 1.0 / ab.real


def _solve_rho(m, s: np.ndarray, tol_scale: float) -> np.ndarray:
    """Solve rho(x) = s for every entry of the 1-D array s at once to
    |rho(x) - s| <= tol_scale * (1 + |s|): Newton steps with one batched
    evaluation of rho each, from the registered inverse when there is one,
    else from 0 inside a dyadic bracket [-L, L] of every target, with
    bisection whenever a step would leave a point's bracket."""
    tol = tol_scale * (1.0 + np.abs(s))
    lo = np.full(s.shape, -np.inf)
    hi = np.full(s.shape, np.inf)
    if m.rho_inverse is not None:
        x = np.asarray(m.rho_inverse(s), dtype=float)
    else:
        ends = np.array([-1.0, 1.0])
        for _ in range(80):
            r = _real_rho(m, ends)
            if np.all(r[0] <= s) and np.all(s <= r[1]):
                break
            ends *= 2.0
        else:
            raise RhoError(f"could not bracket rho(x) = s for s in "
                           f"[{s.min()}, {s.max()}]")
        _rho_slope(m, ends)  # monotonicity witnesses at both bracket ends
        lo[:], hi[:] = ends
        x = np.zeros(s.shape)
    for _ in range(100):
        r = _real_rho(m, x) - s
        done = np.abs(r) <= tol
        if done.all():
            return x
        lo = np.where(r < 0.0, x, lo)
        hi = np.where(r > 0.0, x, hi)
        step = x - r / _rho_slope(m, x)
        inside = (lo < step) & (step < hi)
        x = np.where(done, x, np.where(inside, step, 0.5 * (lo + hi)))
    bad = s[np.argmax(~done)]
    raise RhoError(f"rho inversion did not reach tolerance at s = {bad}")


def rho_invert(m, s: float, *, tol_scale: float = 1e-12) -> float:
    """Solve rho(x) = s to |rho(x) - s| <= tol_scale * (1 + |s|)."""
    return float(_solve_rho(m, np.array([float(s)]), tol_scale)[0])


def rho_invert_values(m, ss) -> np.ndarray:
    """rho^-1 on an array: the registered inverse, else every point solved
    at once to the tolerance of :func:`rho_invert`."""
    ss = np.asarray(ss, dtype=float)
    if m.rho_inverse is not None:
        return np.asarray(m.rho_inverse(ss), dtype=float)
    return _solve_rho(m, ss.ravel(), 1e-12).reshape(ss.shape)


# ----------------------------------------------------------------------
# Compatibility form and biorthonormality
# ----------------------------------------------------------------------

def _as_values_fn(f):
    if hasattr(f, "values"):
        return f.values
    return f


def _support_of(f):
    return getattr(f, "support", None)


def compatibility_form(m, f, g, *, envelope=None,
                       tol: float = 1e-12) -> IntegralResult:
    """<f, g> = integral of conj(f(x)) g(x) dx, conjugation on the first
    slot.

    Bounds are taken from compact supports carried by ``f``/``g``, else
    from the decay envelope (or the sampled integrand when no envelope is
    available).  Over supports the first pass is cut at their
    :func:`hull_edges` inside the intersection.  ``g`` may be None where
    ``f`` maps points to both value lists (f(x), g(x)) at once, as the
    two vacua of a model are evaluated together.
    """
    if g is None:
        def integrand(xs):
            fx, gx = f(xs)
            return np.conj(fx) * gx
    else:
        fv = _as_values_fn(f)
        gv = _as_values_fn(g)

        def integrand(xs):
            return np.conj(fv(xs)) * gv(xs)

    a = b = edges = None
    supports = [s for s in (_support_of(f), _support_of(g)) if s is not None]
    if supports:
        a = max(s[0] for s in supports)
        b = min(s[1] for s in supports)
        if a >= b:
            return IntegralResult(0.0 + 0.0j, 0.0, 0, (a, a), 0.0)
        edges = _edges_within(supports, a, b)
    return integrate_line(integrand, a, b, tol=tol, envelope=envelope,
                          _first_edges=edges)


def state_overlaps(m, h, side: str, n_max: int, *, state_in_bra: bool,
                   tol: float = 1e-12) -> np.ndarray:
    """Vector of compatibility forms between a compactly supported test
    function and the first n_max+1 family members, computed as one
    vector-valued integral over all levels; each level keeps the absolute
    tolerance ``tol`` of its own integral.

    ``h`` is one test function, giving shape (n_max+1,), or a sequence of
    them, giving one row per function.  A sequence is one integral over
    the hull of the supports, first cut at the edges of every support
    (see :func:`hull_edges`): one ``StateFamily.values_all`` per node
    batch serves every row, and each row's integrand is exactly 0 on the
    panels outside its own function's support (the states are finite on
    the hull).  The integrand is given by its factors, the test
    functions' values and the state rows, so no (npts, rows * levels)
    product is formed.

    state_in_bra=False gives <h, state_n>, the integral; True gives
    <state_n, h>, its complex conjugate.  A QuadratureError flags in
    ``failed`` the functions it is about, one entry per function.
    """
    from .states import StateFamily  # deferred to avoid an import cycle

    single = hasattr(h, "values")
    hs = [h] if single else list(h)
    fam = StateFamily(m, side, max_n=n_max)

    def integrand(xs):
        return (np.stack([f.values(xs) for f in hs], axis=-1),
                fam.values_all(xs).T)

    edges = hull_edges([f.support for f in hs])
    try:
        value = integrate_line(integrand, edges[0], edges[-1], tol=tol,
                               _first_edges=edges).value
    except QuadratureError as exc:  # flag functions, not (function, level)
        if exc.failed is not None:
            exc.failed = exc.failed.reshape(len(hs), -1).any(axis=1)
        raise
    value = value.reshape(len(hs), n_max + 1)
    if state_in_bra:
        value = np.conj(value)
    return value[0] if single else value


def hull_edges(supports) -> np.ndarray:
    """First-pass panel edges of one integral over the hull of bump
    supports (lo, hi), graded toward every support's ends.

    For each support the edges hold its own dyadic seeds
    (:func:`_seed_breakpoints`), so a batched row never starts coarser
    than it would alone and a narrow support nested in a wider one is a
    union of whole panels, and the points lo + (hi-lo) 2^-k and
    hi - (hi-lo) 2^-k for k = 2..7, that is t = +-(1 - 2^-j), j = 1..6,
    in the bump's coordinate t.  The bump exp(-1/(1-t^2)) is smooth but
    not analytic at |t| = 1, so bisection would otherwise spend several
    passes, each evaluating every row, walking toward the ends.  Past
    j = 6 the bump is below 1e-13 of its peak e^-1 (it is e^-32.3 at
    t = 1 - 2^-6), so the depth is a property of the bump, not of any
    one integral.  A support given more than once is cut once."""
    ends = np.array(sorted(set(map(
        tuple, np.asarray(supports, dtype=float).tolist()))))
    steps = 2.0 ** -np.arange(2, 8)
    widths = (ends[:, 1] - ends[:, 0])[:, None] * steps
    return np.unique(np.concatenate(
        [_seed_breakpoints(lo, hi) for lo, hi in ends]
        + [(ends[:, :1] + widths).ravel(), (ends[:, 1:] - widths).ravel()]))


def _edges_within(supports, lo: float, hi: float) -> np.ndarray:
    """The :func:`hull_edges` of ``supports`` inside [lo, hi], with its
    ends: the first edges of an integral over the intersection of
    supports, where a product of bumps lives."""
    edges = hull_edges(supports)
    return np.union1d(edges[(lo < edges) & (edges < hi)], [lo, hi])


def biorthonormality_matrix(m, N: int, *, tol: float = 1e-12,
                            return_integral: bool = False):
    """(N+1) x (N+1) Gram matrix G[m, n] = <psi_m, phi_n> and its maximum
    deviation from the identity, each entry to the absolute tolerance
    ``tol``; ``return_integral`` appends the result of the route that
    computed it.  The psi side carries the model's normalization product.

    Where rho is real, t = rho / sqrt(2c) turns every pair integrand into
    a polynomial of degree m + n <= 2N times e^{-t^2}, which a Gauss-
    Hermite rule of more than N nodes integrates exactly: the first route
    (see :func:`_gauss_hermite_gram`) evaluates the model's own families
    on two such rules, and its result is a :class:`GaussHermiteResult`.
    It runs only where it is certified: a real rho, a vacuum density that
    is e^{-t^2} at every node, finite values, and every entry's rule
    difference and roundoff floor within ``tol``.  Everywhere else the
    Gram is one adaptive vector-valued integral over the line (see
    :func:`_adaptive_gram`), and the result is its IntegralResult."""
    res = _gauss_hermite_gram(m, N, tol)
    if res is None:
        res = _adaptive_gram(m, N, tol)
    G = res.value.reshape(N + 1, N + 1)
    dev = float(np.max(np.abs(G - np.eye(N + 1))))
    return (G, dev, res) if return_integral else (G, dev)


def _adaptive_gram(m, N: int, tol: float = 1e-12) -> IntegralResult:
    """The Gram entries <psi_m, phi_n>, component m (N+1) + n, as one
    vector-valued integral whose entries each keep the absolute tolerance
    ``tol``.  The integrand is given by its factors, the psi and phi
    rows, so no (npts, (N+1)^2) product is formed, and the vacua of both
    families are one evaluation per node batch.  The line is truncated by
    pair_envelope(m, 2N), searched from L = 1 like any other integral:
    one probe call covers every cut up to L = 8."""
    from .states import pair_envelope, shared_families

    def integrand(xs):
        # where a level leaves double range the integral is refused at
        # the first such node (see integrate_line), so no warning is due
        with np.errstate(over="ignore", invalid="ignore"):
            vacua = m.joint_vacuum_jets(xs, 0)
            phi, psi = shared_families(m, N, lambda: vacua)
            return psi.values_all(xs).T, phi.values_all(xs).T

    return integrate_line(integrand, None, None, tol=tol,
                          envelope=pair_envelope(m, 2 * N))


@dataclass
class GaussHermiteResult:
    """The Gram entries on the larger of two Gauss-Hermite rules, as
    (entries,) arrays in the layout of an IntegralResult: ``value``,
    ``abs_error_estimate`` (per entry, the larger of the two rules'
    difference and the roundoff floor of its mass) and ``abs_mass`` (the
    larger rule's sum of |integrand|).  ``nodes`` gives both rule sizes
    and ``rule_difference`` the largest difference of an entry."""

    value: np.ndarray
    abs_error_estimate: np.ndarray
    abs_mass: np.ndarray
    nodes: tuple[int, int]
    rule_difference: float


# the Gram's two Gauss-Hermite rules have N + 9 and N + 33 nodes: each is
# exact to degree 2N + 17 or more, so on a certified model they differ
# only by rounding
_GRAM_RULE_EXTRA = (9, 33)

# log|conj(psi_0) phi_0 alpha_b| + t^2 may spread over the nodes by this
# many eps of its size, the sum of the magnitudes of its terms
_DENSITY_EPS = 16


def _gauss_hermite(*sizes) -> list:
    """(t, w e^{t^2}) of the Gauss-Hermite rule of weight e^{-t^2} with K
    nodes, for each K of ``sizes``.  The nodes are the eigenvalues of the
    symmetric Jacobi matrix, whose off-diagonal is sqrt(k/2) (Golub and
    Welsch, Math. Comp. 23 (1969) 221), each polished by one Newton step
    on the normalized recurrence h_k = H_k / sqrt(2^k k!), with
    h_K' = sqrt(2K) h_{K-1}.  The weights are w = sqrt(pi) / (K h_{K-1}^2),
    carried as w e^{t^2} = sqrt(pi) / (K (h_{K-1} e^{-t^2/2})^2), which
    stays in double range where w does not; h_{K-1} at the polished node
    is its first-order Taylor value from the unpolished one.  One
    recurrence (:func:`hermite_value`) over every rule's nodes gives the
    levels K-2, K-1 and K that all of this reads."""
    guesses = [np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1.0, k)),
                                          1), UPLO="U") for k in sizes]
    out, start = [], 0
    # past K of about 700, h_{K-1} leaves double range at the outer nodes,
    # which then read inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        rows = hermite_value([k + d for k in sizes for d in (-2, -1, 0)],
                             np.concatenate(guesses))
        for i, (k, t) in enumerate(zip(sizes, guesses)):
            below, prev, top = rows[3 * i:3 * i + 3, start:start + k]
            start += k
            step = -top / (math.sqrt(2.0 * k) * prev)
            t = t + step
            prev = prev + step * math.sqrt(2.0 * (k - 1)) * below
            out.append((t, math.sqrt(math.pi)
                        / (k * (prev * np.exp(-0.5 * t * t)) ** 2)))
    return out


def _has_real_rho(m) -> bool:
    """Whether the flavor of m makes rho = c u real: a proportional model,
    or constant real alphas and a real k."""
    flavor = m.flavor
    if flavor.kind == "constant_alpha":
        return not any(complex(v).imag for v in
                       (flavor.alpha_a, flavor.alpha_b, flavor.k))
    return flavor.kind in ("equal_alpha", "proportional")


def _density_is_gaussian(m, x: np.ndarray, t: np.ndarray,
                         alpha_b: np.ndarray) -> bool:
    """Whether conj(psi_0) phi_0 alpha_b at the points x, where
    rho / sqrt(2c) = t, is a constant times e^{-t^2}: its log plus t^2
    spreads by no more than :data:`_DENSITY_EPS` eps of its size."""
    with np.errstate(divide="ignore"):
        terms = [*m.log_abs_vacua(x), np.log(np.abs(alpha_b)), t * t]
    size = np.max(sum(np.abs(v) for v in terms))
    log_density = sum(terms)
    return bool(np.ptp(log_density)
                <= _DENSITY_EPS * np.finfo(float).eps * size)


def _gauss_hermite_gram(m, N: int, tol: float):
    """The :class:`GaussHermiteResult` of the Gram entries, or None where
    this route is not certified.

    With sigma = sqrt(2c) and x = rho^-1(sigma t), dx = sigma alpha_b dt,
    so <psi_m, phi_n> = sum_i w_i e^{t_i^2} sigma alpha_b(x_i)
    conj(psi_m(x_i)) phi_n(x_i) on a Gauss-Hermite rule (t_i, w_i), exact
    once it has more than N nodes.  The families are the model's own,
    evaluated at the x_i; nothing here is a closed-form Hermite Gram.
    The route is certified where rho is real and inverts (see
    :func:`_has_real_rho`), alpha_b is real and positive at every node,
    the vacuum density is e^{-t^2} there (see
    :func:`_density_is_gaussian`), every value is finite, and every
    entry's max(|G_K1 - G_K2|, ROUNDOFF_FLOOR * mass) is at most
    ``tol``."""
    from .states import shared_families

    if not _has_real_rho(m):
        return None
    sizes = tuple(N + extra for extra in _GRAM_RULE_EXTRA)
    rules = _gauss_hermite(*sizes)
    t = np.concatenate([r[0] for r in rules])
    if not np.isfinite(t).all():
        return None
    try:
        sigma = math.sqrt(2.0 * _rho_scale(m))
        x = rho_invert_values(m, sigma * t)
    except RhoError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_b = m.alpha_b.eval_values(x)
        # certified first, so a model whose density fails evaluates no family
        if not (np.isrealobj(alpha_b) and np.all(alpha_b > 0.0)
                and _density_is_gaussian(m, x, t, alpha_b)):
            return None
        vacua = m.joint_vacuum_jets(x, 0)
        phi, psi = shared_families(m, N, lambda: vacua)
        a, b = psi.values_all(x).T, phi.values_all(x).T
        w = np.concatenate([r[1] for r in rules]) * sigma * alpha_b
    if not (np.isfinite(w).all() and np.isfinite(a).all()
            and np.isfinite(b).all()):
        return None
    first, second = slice(0, sizes[0]), slice(sizes[0], None)
    g1, g2 = ((np.conj(a[part]).T * w[part]) @ b[part]
              for part in (first, second))
    mass = (np.abs(a[second]).T * w[second]) @ np.abs(b[second])
    diff = np.abs(g1 - g2)
    err = np.maximum(diff, ROUNDOFF_FLOOR * mass)
    if not np.all(err <= tol):
        return None
    return GaussHermiteResult(g2.ravel().astype(complex), err.ravel(),
                              mass.ravel(), sizes, float(np.max(diff)))


# ----------------------------------------------------------------------
# Transforms to the oscillator picture
# ----------------------------------------------------------------------

# the vacuum each transform's factor carries: phi_0 for plus, psi_0 for minus
_SIGN_SIDE = {"plus": "phi", "minus": "psi"}


def _vacuum_ratio(m, sign: str, x: np.ndarray, s: np.ndarray, c: float,
                  vacuum: np.ndarray) -> np.ndarray:
    """R_phi e^{-s^2/2} (plus) or R_psi e^{+s^2/2} (minus) at the points x,
    not yet normalized, from the values ``vacuum`` of phi_0 (plus) or
    psi_0 (minus) there: R_phi = phi_0 e^{y^2}, y = rho/sqrt(2c), and
    R_psi = conj(psi_0) alpha_b.  The plus side takes one exp, so that an
    underflowing phi_0 never meets an overflowing e^{y^2}."""
    if sign == "minus":
        return (np.conj(vacuum) * m.alpha_b.eval_values(x)
                * np.exp(0.5 * s * s))
    y = _real_rho(m, x) / math.sqrt(2.0 * c)
    return vacuum * np.exp(y * y - 0.5 * s * s)


def transform_factors(m, signs, s) -> tuple[np.ndarray, list]:
    """The points x = x(s) and, for each sign of ``signs``, the factor r(s)
    of its transform, h_(sign)(s) = h(x) r(s) (see :func:`transform_pm`):
    one inversion of rho and one :meth:`PBModel.vacuum_jets` call serve
    every sign and every test function, and each factor is bitwise the
    one of its sign alone."""
    if not set(signs) <= _SIGN_SIDE.keys():
        raise ValueError("sign must be 'plus' or 'minus'")
    c = _rho_scale(m)
    s = np.asarray(s, dtype=float)
    x = rho_invert_values(m, math.sqrt(2.0 * c) * s)
    # one batch with the anchor x = 0, where s = 0 leaves the bare ratio
    xa, sa = np.append(x, 0.0), np.append(s, 0.0)
    vacua = m.vacuum_jets(xa, 0, [_SIGN_SIDE[sign] for sign in signs])
    factors = []
    for sign, vac in zip(signs, vacua):
        r = _vacuum_ratio(m, sign, xa, sa, c, vac.value)
        r = (r[:-1] / r[-1]).reshape(x.shape)
        if sign == "plus":
            r = np.conj(m.alpha_a.eval_values(x) * r)
        factors.append(r)
    return x, factors


def transform_pm(m, h, sign: str, s) -> np.ndarray:
    """The minus/plus transforms of a test function.

    With y = rho/sqrt(2c) the Hermite argument and x = x(s) the point
    where y = s:

        h_minus(s) = h(x) R_psi(x) exp(+s^2/2)
        h_plus(s)  = h(x) conj(alpha_a(x) R_phi(x)) exp(-s^2/2)

    The vacuum ratios R_phi = phi_0 e^{y^2} and R_psi = conj(psi_0) alpha_b,
    each divided by its value at x = 0, carry the gauge of the vacua.  Both
    are 1 on the proportional builtins, where these are the standard
    transforms (for the sinh model, c = 2, alpha_a(x) = 1/sqrt(1+s^2)).
    """
    x, (r,) = transform_factors(m, (sign,), s)
    return _as_values_fn(h)(x) * r


def transform_support(m, h) -> tuple[float, float]:
    """Support of the transformed test function on the s axis."""
    lo, hi = _real_rho(m, np.array(h.support))
    scale = 1.0 / math.sqrt(2.0 * _rho_scale(m))
    return (lo * scale, hi * scale)


def transform_identity_factors(m) -> tuple[complex, complex, float]:
    """Constants linking direct compatibility forms with oscillator
    inner products:

        <f, phi_n> = K_phi * c^(-n/2) * <f_plus, e_n>
        <psi_n, g> = K_psi * c^(+n/2) * <e_n, g_minus>
        <f_plus, g_minus> = sqrt(c/2) * <f, g>

    Returns (K_phi, K_psi, c); each K carries a normalization constant and
    a vacuum ratio at x = 0 (1/e for phi on the sinh model).  The third
    identity holds as R_phi R_psi = 1: the conditions make the
    log-derivative of phi_0 conj(psi_0) alpha_b e^{y^2} vanish.
    """
    c = _rho_scale(m)
    x0 = np.zeros(1)
    _rho_slope(m, x0)  # RhoError unless rho is real and increasing at 0
    # both vacua from one evaluation at x = 0
    r_phi0, r_psi0 = (complex(_vacuum_ratio(m, sign, x0, x0, c, vac.value)[0])
                      for sign, vac in zip(("plus", "minus"),
                                           m.vacuum_jets(x0, 0)))
    # N_phi = 1 and conj(N_psi) = norm_product
    k_phi = r_phi0 * math.pi ** 0.25 * math.sqrt(2.0 / c)
    k_psi = m.norm_product * r_psi0 * math.pi ** 0.25 * math.sqrt(2.0 * c)
    return complex(k_phi), complex(k_psi), c


@dataclass
class QuasiBasisResult:
    ordering: str
    partial_sums: np.ndarray
    total: complex
    reference: complex
    deviation: float
    transform_pair_value: Optional[complex] = None
    transform_pair_expected: Optional[complex] = None


def quasi_basis_sum(m, f, g, N: int, ordering: str = "phi_psi",
                    *, tol: float = 1e-12) -> QuasiBasisResult:
    """Partial sums S_N of the quasi-basis expansion of <f, g> along with
    the final deviation |S_N - <f, g>|.

    ordering 'phi_psi' sums <f, phi_n><psi_n, g>; 'psi_phi' swaps the
    roles.  Wherever rho is real the transform-identity cross-check
    <f_plus, g_minus> = sqrt(c/2) <f, g> is evaluated too.
    """
    if ordering == "phi_psi":
        an = state_overlaps(m, f, "phi", N, state_in_bra=False, tol=tol)
        bn = state_overlaps(m, g, "psi", N, state_in_bra=True, tol=tol)
    elif ordering == "psi_phi":
        an = state_overlaps(m, f, "psi", N, state_in_bra=False, tol=tol)
        bn = state_overlaps(m, g, "phi", N, state_in_bra=True, tol=tol)
    else:
        raise ValueError("ordering must be 'phi_psi' or 'psi_phi'")
    terms = an * bn
    partial = np.cumsum(terms)
    reference = compatibility_form(m, f, g, tol=tol).value
    result = QuasiBasisResult(
        ordering=ordering,
        partial_sums=partial,
        total=complex(partial[-1]),
        reference=complex(reference),
        deviation=float(abs(partial[-1] - reference)),
    )
    try:
        c = _rho_scale(m)
        lo_f, hi_f = transform_support(m, f)
        lo_g, hi_g = transform_support(m, g)
        lo, hi = max(lo_f, lo_g), min(hi_f, hi_g)
        pair = integrate_line(
            lambda s: np.conj(transform_pm(m, f, "plus", s))
            * transform_pm(m, g, "minus", s),
            lo, hi, tol=tol, _first_edges=_edges_within(
                [(lo_f, hi_f), (lo_g, hi_g)], lo, hi),
        ).value if lo < hi else 0.0
    except RhoError:  # no real, monotone rho: the cross-check does not apply
        return result
    result.transform_pair_value = complex(pair)
    result.transform_pair_expected = complex(math.sqrt(c / 2.0) * reference)
    return result
