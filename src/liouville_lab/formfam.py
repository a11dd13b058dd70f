"""Parameter-dependent contact-form families and grid certificates.

Forms here live on a coframe (dp1[, dp2], static closed directions, algebra
coframe) with coefficients built from a small profile library.  A profile
is a plain pair of a function and its analytic derivative; the tests check
each derivative against central finite differences, since every profile is
built here and none comes from input.  Evaluation at parameter values hands
everything to the exterior engine, so a grid verdict is a statement about
sampled top coefficients in a declared coframe order, nothing more; reports
label such verdicts "grid-certified", in contrast to the exact Sturm
certificates of the algebra layer.

Grid verdicts are evaluated in one batched pass: the profiles take float64
arrays, `ParamForm.at` takes arrays of sample points, and the float64 ring
of the exterior engine carries one array per blade, so `wedge` and `power`
run once per grid.  That ring drops no blade, so each sample keeps the
value, to the bit, that its own scalar evaluation gives (see `_grid_tops`).
Within one `_libm_scope` every profile node, its function and its
derivative, runs at most once per sample array: the blades of a form wrap
shared profiles in their own products and sums, a derivative reads the
nodes of the profiles it is built from, and each reuses the shared node's
array instead of evaluating it again.  `ParamForm.at` opens the scope, and
a grid check opens one around all its forms, so lambda and d lambda share
their profiles.

The cutoff search (`min_c_search`) bisects on c, and most of its probes are
known in advance: on every pair tried, c = 0 fails and every c > 0 passes,
so the walk always goes left.  Those probes (c = 0, the cap and each next
midpoint) run as one batch: their grids are the rows of one sample array,
the cutoff form takes the constants as a column beside them, and one pass
of `ParamForm.at` and `_grid_tops` gives every probe's verdict.  The
bisection walk then reads its verdicts from the batch; a probe outside it,
once the walk turns right, runs alone, and if the batch raises, the walk
runs every probe alone, so that the same probe raises the same error.  A
one-probe check (`cutoff_positive_on_grid`) is a batch of one.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import repeat

import numpy as np

from . import _poly
from .exterior import (FLOAT64, Coframe, Form, VectorElem,
                       blade_mask, interior_product, mask_blade)
from .liealg import LieAlgebra, Preset, liouville_pair_check

Q = Fraction


class CapExceededError(RuntimeError):
    """A bounded search hit its cap."""


_LUTZ_EPS = 1.0  # the Lutz family lives on s in (-eps, eps)
_SOL_S_MAX = 2.0  # the weak-filling fixture samples s in [-max, max]
BISECTION_TOL = 1e-3  # the width at which min_c_search stops bisecting


# the array results of the profile nodes in the open `_libm_scope`; None
# outside one
_libm_memo = ContextVar("libm_memo", default=None)


@contextmanager
def _libm_scope():
    """Share the array results of profile nodes until the outermost scope
    closes.

    The composite profiles of one form apply the same profile to the same
    sample array many times (each blade of a pair form has its own
    wrapper, the product rule evaluates both factors, and d lambda reuses
    the profiles of lambda); within the scope each profile node runs once
    per sample array (`_node`).  A value used twice is shared only when it
    is read from one node.  A nested scope shares the table of the outer
    one.
    """
    if _libm_memo.get() is not None:
        yield
        return
    token = _libm_memo.set({})
    try:
        yield
    finally:
        _libm_memo.reset(token)


def _libm(fn, x, *args):
    """fn(x, *args), applied element by element when x is an array.

    Each element goes through the same scalar call (libm exp/sin/cos, float
    pow), so a batched sample carries exactly the bits of the scalar path;
    numpy's vectorized exp and power round differently on a few percent of
    inputs.  It keeps no table: the profile node that calls it is shared.
    """
    if not isinstance(x, np.ndarray):
        return fn(x, *args)
    vals = map(fn, x.ravel().tolist(), *(repeat(a) for a in args))
    return np.fromiter(vals, float, x.size).reshape(x.shape)


def _node(fn):
    """fn, with its array results shared inside `_libm_scope`: the one memo
    of the grid evaluator.

    The table is keyed on fn and the identity of the sample array, not its
    bytes (no array is written while the scope is open), and the entry
    holds that array, so its id names no other array meanwhile.  The
    result is stored read-only; a result that is the argument itself is
    stored as a read-only view, so the caller's array stays writable.  A
    scalar argument, or a call outside any scope, runs fn as it is.
    """
    def node(s):
        if not isinstance(s, np.ndarray):
            return fn(s)
        memo = _libm_memo.get()
        if memo is None:
            return fn(s)
        key = (fn, id(s))
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
        out = fn(s)
        if isinstance(out, np.ndarray):
            if out is s:
                out = s.view()
            out.flags.writeable = False
        memo[key] = (s, out)
        return out

    return node


def _split(s, at, left, right):
    """left(s) where s < at, right(s) elsewhere."""
    if isinstance(s, np.ndarray):
        return np.where(s < at, left(s), right(s))
    return left(s) if s < at else right(s)


def _unit_step(s, inside, high):
    """0 for s <= 0, high for s >= 1 and inside(s) in between; an array
    runs inside only on the samples in between, NaN among them."""
    if isinstance(s, np.ndarray):
        out = np.where(s <= 0.0, 0.0, high)
        mid = ~((s <= 0.0) | (s >= 1.0))
        out[mid] = inside(s[mid])
        return out
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return high
    return inside(s)


class ProfileFn:
    """Scalar profile fn with its analytic derivative dfn, closed under
    arithmetic.

    It takes a float or, element by element, a float64 array of samples
    (a constant may come back as a scalar); fn and dfn run through `_node`,
    so inside `_libm_scope` each runs once per sample array, and a dfn
    that reads fn's node (or, for sine and cosine, the other profile's)
    evaluates no libm leaf of its own.  `constant` marks the profiles of
    `const`, whose derivative ParamCoeff leaves out.
    """

    constant = False

    def __init__(self, fn, dfn, label="f"):
        self.fn = _node(fn)
        self.dfn = _node(dfn)
        self.label = label

    def __call__(self, s):
        return self.fn(s)

    def deriv(self, s):
        return self.dfn(s)

    def derivative(self) -> "ProfileFn":
        """The profile f', which has no derivative of its own: dp ^ dp = 0,
        so ParamForm.d().d() differentiates each factor at most once."""
        label = f"{self.label}'"

        def no_second(s):
            raise NotImplementedError(f"{label} is a derivative profile; "
                                      "its derivative is not taken")

        return ProfileFn(self.dfn, no_second, label)

    def __add__(self, other):
        other = as_profile(other)
        return ProfileFn(
            lambda s: self.fn(s) + other.fn(s),
            lambda s: self.dfn(s) + other.dfn(s),
            f"({self.label}+{other.label})")

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-as_profile(other))

    def __neg__(self):
        return ProfileFn(lambda s: -self.fn(s), lambda s: -self.dfn(s),
                         f"(-{self.label})")

    def __mul__(self, other):
        other = as_profile(other)
        return ProfileFn(
            lambda s: self.fn(s) * other.fn(s),
            lambda s: self.dfn(s) * other.fn(s) + self.fn(s) * other.dfn(s),
            f"({self.label}*{other.label})")

    __rmul__ = __mul__

    def precompose_affine(self, a, b) -> "ProfileFn":
        """The profile s -> f(a s + b).

        The offset b is a float or a float64 array that broadcasts
        against the sample arrays, such as a column of one offset per row
        of samples (the cutoff batch of `_cutoff_minima`); a s + b is
        element-wise either way.
        """
        a = float(a)
        if isinstance(b, np.ndarray):
            shown = "b"
        else:
            b = shown = float(b)
        return ProfileFn(
            lambda s: self.fn(a * s + b),
            lambda s: a * self.dfn(a * s + b),
            f"{self.label}({a}s+{shown})")


def as_profile(x) -> ProfileFn:
    if isinstance(x, ProfileFn):
        return x
    return const(float(x))


def const(c) -> ProfileFn:
    c = float(c)
    out = ProfileFn(lambda s: c, lambda s: 0.0, f"{c}")
    out.constant = True
    return out


def linear(a, b=0.0) -> ProfileFn:
    a, b = float(a), float(b)
    return ProfileFn(lambda s: a * s + b, lambda s: a, f"{a}s+{b}")


def exp_fn(a=1.0, b=0.0) -> ProfileFn:
    a, b = float(a), float(b)
    e = ProfileFn(lambda s: _libm(math.exp, a * s + b),
                  lambda s: a * e(s), f"exp({a}s+{b})")
    return e


def sin_cos(a=1.0, b=0.0) -> tuple[ProfileFn, ProfileFn]:
    """The profiles sin(a s + b) and cos(a s + b); each derivative reads
    the other's node."""
    a, b = float(a), float(b)
    sn = ProfileFn(lambda s: _libm(math.sin, a * s + b),
                   lambda s: a * cs(s), f"sin({a}s+{b})")
    cs = ProfileFn(lambda s: _libm(math.cos, a * s + b),
                   lambda s: -a * sn(s), f"cos({a}s+{b})")
    return sn, cs


def smoothstep5() -> ProfileFn:
    """Quintic smoothstep x^3 (10 - 15x + 6x^2) clamped to [0, 1]; C^2."""
    def fn(s):
        return _unit_step(
            s, lambda x: _libm(pow, x, 3) * (10 - 15 * x + 6 * x * x), 1.0)

    def dfn(s):
        return _unit_step(
            s, lambda x: 30 * x * x * _libm(pow, 1 - x, 2), 0.0)

    return ProfileFn(fn, dfn, "S5")


def smoothstep3() -> ProfileFn:
    """Cubic smoothstep 3x^2 - 2x^3 clamped; the second cutoff choice (C^1)."""
    def fn(s):
        return _unit_step(s, lambda x: x * x * (3 - 2 * x), 1.0)

    def dfn(s):
        return _unit_step(s, lambda x: 6 * x * (1 - x), 0.0)

    return ProfileFn(fn, dfn, "S3")


def cutoff_step(kind="quintic") -> ProfileFn:
    """A cutoff psi with psi = 0 on (-inf, 0] and psi = 1 on [1, inf)."""
    return smoothstep5() if kind == "quintic" else smoothstep3()


def plateau_bump(eps=1.0, kind="quintic") -> ProfileFn:
    """Bump that is 1 exactly on [eps/3, 2eps/3] and 0 outside [0, eps]."""
    step = cutoff_step(kind)
    up = step.precompose_affine(3.0 / eps, 0.0)
    down = step.precompose_affine(-3.0 / eps, 3.0)
    mid = eps / 2

    def fn(s):
        return _split(s, mid, up, down)

    def dfn(s):
        return _split(s, mid, up.deriv, down.deriv)

    return ProfileFn(fn, dfn, f"plateau[{kind}]")


def lutz_twist_profile(k: int, eps=1.0, kind="quintic") -> ProfileFn:
    """phi_k(s) = s + 2 pi k S((s - eps/3) / (eps/3)): slope one outside the
    window (eps/3, 2eps/3), climbing by 2 pi k across it."""
    step = cutoff_step(kind).precompose_affine(3.0 / eps, -1.0)
    return linear(1.0, 0.0) + (2 * math.pi * k) * step


# -- parameter-dependent forms ------------------------------------------------


class ParamCoeff:
    """Sum of separable products f(p1) g(p2), closed under d/dp1, d/dp2.

    A derivative leaves out each product whose differentiated factor is a
    `const`, so a coefficient that is zero by construction has no terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = list(terms)

    @classmethod
    def of(cls, f=None, g=None):
        return cls([(as_profile(f if f is not None else 1.0),
                     as_profile(g if g is not None else 1.0))])

    def __call__(self, u, v=0.0):
        return sum(f(u) * g(v) for f, g in self.terms)

    def d1_coeff(self) -> "ParamCoeff":
        return ParamCoeff([(f.derivative(), g) for f, g in self.terms
                           if not f.constant])

    def d2_coeff(self) -> "ParamCoeff":
        return ParamCoeff([(f, g.derivative()) for f, g in self.terms
                           if not g.constant])

    def plus(self, other) -> "ParamCoeff":
        return ParamCoeff(self.terms + other.terms)

    def scaled(self, c) -> "ParamCoeff":
        c = float(c)
        return ParamCoeff([(as_profile(c) * f, g) for f, g in self.terms])


class ParamForm:
    """Form with profile coefficients over (params, static, algebra) slots.

    Parameter and static covectors are closed; algebra covectors carry the
    Chevalley-Eilenberg differential.  d() = dp1 ^ d/dp1 (+ dp2 ^ d/dp2)
    plus the constant-coefficient differential of each blade, the latter
    taken exactly from the algebra's d-of-a-blade table.
    """

    def __init__(self, params, static, algebra, degree, terms):
        self.params = tuple(params)
        self.static = tuple(static)
        self.algebra = algebra
        alg_names = algebra.names if algebra is not None else ()
        self.coframe = Coframe(self.params + self.static + tuple(alg_names))
        self.degree = degree
        self.terms = dict(terms)

    @property
    def nparams(self) -> int:
        return len(self.params)

    @property
    def offset(self) -> int:
        return len(self.params) + len(self.static)

    def copy_with(self, degree, terms) -> "ParamForm":
        return ParamForm(self.params, self.static, self.algebra, degree, terms)

    def add_term(self, blade_names, coeff: ParamCoeff):
        mask = blade_mask(self.coframe.index(name) for name in blade_names)
        _merge(self.terms, mask, coeff)

    def add_form(self, form: Form, f: ProfileFn, g: ProfileFn | None = None):
        """Add f(p1) g(p2) form, the form's covectors in the algebra slots."""
        g = const(1.0) if g is None else g
        for m, c in form.terms.items():
            _merge(self.terms, m << self.offset,
                   ParamCoeff([(f * float(c), g)]))

    def at(self, u, v=0.0) -> Form:
        """The form at (u, v); for arrays of sample points, at all of them.

        With arrays every coefficient is a float64 array over the samples,
        element for element the value the scalar call gives; each profile
        node runs at most once per sample array (`_libm_scope`), also
        across the calls of a caller that holds one scope around them.  A
        coefficient without terms is left out.
        """
        with _libm_scope():
            vals = {m: c(u, v) for m, c in self.terms.items() if c.terms}
        shape = np.broadcast_shapes(np.shape(u), np.shape(v))
        if shape:
            vals = {m: np.broadcast_to(x, shape) for m, x in vals.items()}
        return Form(self.coframe, self.degree, vals, FLOAT64)

    def _dblade(self, mask):
        """Constant part of d(blade): dict mask -> float coefficient.

        Parameter and static covectors are closed and listed before the
        algebra, so d(P ^ A) = (-1)^|P| P ^ dA for the part P of the blade
        below the algebra slots and its algebra part A.
        """
        if self.algebra is None:
            return {}
        off = self.offset
        low = mask & ((1 << off) - 1)
        sign = -1 if low.bit_count() % 2 else 1
        return {m << off | low: float(sign * c) for m, c in
                self.algebra._d_terms({mask >> off: 1}).items()}

    def d(self) -> "ParamForm":
        if self.degree >= self.coframe.dim:
            return self.copy_with(self.coframe.dim, {})
        out = {}
        for mask, coeff in self.terms.items():
            if not mask & 1:
                # dp1 lands in slot 0: sign +
                _merge(out, mask | 1, coeff.d1_coeff())
            if self.nparams == 2 and not mask & 2:
                sign = -1.0 if mask & 1 else 1.0
                dc = coeff.d2_coeff()
                _merge(out, mask | 2, dc if sign > 0 else dc.scaled(-1.0))
            for m, c in self._dblade(mask).items():
                _merge(out, m, coeff.scaled(c))
        return self.copy_with(self.degree + 1, out)


def _merge(terms, mask, coeff: ParamCoeff):
    """Add coeff to terms[mask], after the terms already there."""
    terms[mask] = terms[mask].plus(coeff) if mask in terms else coeff


# -- profile triples and the Giroux-torsion family -------------------------------


@dataclass
class ProfileTriple:
    """lambda = f(s) a+ + g(s) a- + h(s) dt over (ds, dt, algebra)."""

    f: ProfileFn
    g: ProfileFn
    h: ProfileFn
    pair: Preset
    interval: tuple

    def __post_init__(self):
        s0, s1 = self.interval
        s = s0 + (s1 - s0) * np.arange(257.0) / 256
        with _libm_scope():
            fv = np.broadcast_to(self.f(s), s.shape)
            gv = np.broadcast_to(self.g(s), s.shape)
        bad = np.flatnonzero((fv < -1e-12) | (gv < -1e-12)
                             | ((abs(fv) < 1e-12) & (abs(gv) < 1e-12)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"profile triple invalid at s={float(s[i])}:"
                             f" f={float(fv[i])}, g={float(gv[i])}")

    @cached_property
    def form(self) -> ParamForm:
        """lambda as a ParamForm, built once; callers only read it."""
        pf = ParamForm(("ds", "dt"), (), self.pair.algebra, 1, {})
        pf.add_form(self.pair.alpha_plus, self.f)
        pf.add_form(self.pair.alpha_minus, self.g)
        pf.add_term(("dt",), ParamCoeff.of(self.h))
        return pf

    @cached_property
    def dform(self) -> ParamForm:
        """d lambda, built once from `form`."""
        return self.form.d()


def gt_form(pair: Preset, k: int) -> ProfileTriple:
    """The Giroux-torsion family (1+cos)/2 a+ + (1-cos)/2 a- + sin s dt.

    Domain [0, 2 k pi].  Emits a warning (not an error) when the input pair
    fails its exact certificate, so corrupted fixtures stay usable in tests.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    cert = liouville_pair_check(pair.algebra, pair.alpha_plus,
                                pair.alpha_minus)
    if cert.verdict != "positive":
        import warnings
        warnings.warn(
            f"input pair is not certified Liouville ({cert.verdict}); "
            "the torsion family may fail its grid check",
            stacklevel=2,
        )
    h, c = sin_cos()
    f = 0.5 * (c + 1.0)
    g = 0.5 * (const(1.0) - c)
    return ProfileTriple(f, g, h, pair, (0.0, 2 * math.pi * k))


@dataclass
class GridCheck:
    min_value: float
    argmin: float
    passed: bool
    samples: int
    orientation: str
    kind: str = "grid-certified"


def _grid_points(interval, grid_n):
    """The sorted distinct points s0 + (s1 - s0) i / grid_n, the endpoints
    and the multiples of pi/2 inside, as one float64 array.

    Of points that compare equal (0.0 and -0.0) the first listed is kept.
    """
    s0, s1 = interval
    pts = [s0 + (s1 - s0) * np.arange(grid_n + 1) / max(grid_n, 1), [s0, s1]]
    # all multiples of pi/2 inside: the critical angles of the trig profiles
    j = math.ceil(s0 / (math.pi / 2))
    while j * math.pi / 2 <= s1 + 1e-12:
        pts.append([j * math.pi / 2])
        j += 1
    pts = np.concatenate(pts)
    return pts[np.unique(pts, return_index=True)[1]]


def _grid_tops(build, forms, shape):
    """Top coefficients of build(*forms) at each sample of an array of the
    given shape (or length), in one pass.

    The forms carry float64 arrays over the samples.  The float ring keeps
    every blade, zero or not, so the engine runs the same sums in the same
    order at every sample: each element is the top coefficient of build at
    its sample alone, bit for bit (a zero as +0.0).
    """
    return np.broadcast_to(build(*forms).top_coefficient(), shape) + 0.0


def _grid_min(values, points):
    """(smallest value, first point attaining it) as a `<` scan finds it.

    NaN never wins, and (inf, None) means no value lies below inf.
    """
    masked = np.where(np.isnan(values), math.inf, values)
    if not masked.size or not masked.min() < math.inf:
        return math.inf, None
    i = int(np.argmin(masked))
    return float(values[i]), float(points[i])


def _grid_sup(values) -> float:
    """max(0, values) as a running max finds it (NaN never wins)."""
    return float(np.fmax.reduce(values, initial=0.0))


def _relative_error(a, b):
    """|a - b| / max(1, |a|, |b|), per sample."""
    return np.abs(a - b) / np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def contact_grid_check(triple: ProfileTriple,
                       grid_n: int = 1024) -> GridCheck:
    """Sampled positivity of lambda ^ dlambda^(n-1) over the triple's
    interval."""
    pf = triple.form
    dim = pf.coframe.dim
    if dim % 2 == 0:
        raise ValueError("contact check needs odd total dimension")
    npow = (dim - 1) // 2
    s = _grid_points(triple.interval, grid_n)
    with _libm_scope():
        forms = [pf.at(s), triple.dform.at(s)]
    values = _grid_tops(lambda lam, dlam: lam.wedge(dlam.power(npow)),
                        forms, len(s))
    min_value, argmin = _grid_min(values, s)
    return GridCheck(min_value, argmin, min_value > 0, len(s),
                     "volume = " + "∧".join(pf.coframe.names))


# -- Reeb fields -----------------------------------------------------------------


@dataclass
class ReebResult:
    X: VectorElem          # coordinates on the algebra
    u: float
    s: float
    residual_pairing: float    # |lambda(R) - 1|
    residual_closure: float    # sup norm of i_R dlambda
    branch: str


def reeb_field(triple: ProfileTriple, s: float, tol: float = 1e-8) -> ReebResult:
    """Solve for R = X_s + u(s) dt from the stacked linear system.

    One scalar equation (hf'-h'f) a+(X) + (hg'-h'g) a-(X) = -h' plus the
    closure equations i_X (f da+ + g da-) = 0, solved by least squares with
    a residual gate; u follows the h- or h'-branch.  s must be finite.
    """
    if not math.isfinite(s):
        raise ValueError(f"Reeb parameter s must be finite, got {s}")
    pair = triple.pair
    g = pair.algebra
    m = g.dim
    fv, gv, hv = triple.f(s), triple.g(s), triple.h(s)
    fp, gp, hp = triple.f.deriv(s), triple.g.deriv(s), triple.h.deriv(s)
    ap = pair.alpha_plus.to_float()
    am = pair.alpha_minus.to_float()
    dap = g.ce_differential(ap)
    dam = g.ce_differential(am)
    ap_vec = _covector_array(ap)
    am_vec = _covector_array(am)
    omega = fv * _skew_array(dap, m) + gv * _skew_array(dam, m)
    rows = [
        (hv * fp - hp * fv) * ap_vec + (hv * gp - hp * gv) * am_vec
    ]
    rhs = [-hp]
    for j in range(m):
        rows.append(-omega[j, :])  # i_X omega paired with e_j: omega(X, e_j)
        rhs.append(0.0)
    a = np.array(rows)
    bvec = np.array(rhs)
    x, *_ = np.linalg.lstsq(a, bvec, rcond=None)
    sys_residual = float(np.max(np.abs(a @ x - bvec)))
    if sys_residual > tol:
        raise ArithmeticError(
            f"Reeb system residual {sys_residual:.2e} at s={s}: "
            "form is not contact there"
        )
    ap_x = float(ap_vec @ x)
    am_x = float(am_vec @ x)
    if abs(hv) > 1e-8:
        u = (1.0 - fv * ap_x - gv * am_x) / hv
        branch = "h"
    elif abs(hp) > 1e-12:
        u = -(fp * ap_x + gp * am_x) / hp
        branch = "h-prime"
    else:
        raise ArithmeticError("h and h' both vanish: invalid profile triple")
    lam = triple.form.at(s)
    dlam = triple.dform.at(s)
    coords = (0.0, u) + tuple(float(v) for v in x)
    rvec = VectorElem(lam.coframe, coords)
    pairing = abs(sum(lam.terms.get(1 << i, 0.0) * coords[i]
                      for i in range(lam.coframe.dim)) - 1.0)
    closure = interior_product(rvec, dlam).sup_norm()
    if pairing > tol or closure > tol:
        raise ArithmeticError(
            f"Reeb verification failed at s={s}: "
            f"|lambda(R)-1|={pairing:.2e}, |i_R dlambda|={closure:.2e}"
        )
    return ReebResult(VectorElem(g.coframe(), tuple(float(v) for v in x)),
                      float(u), float(s), pairing, closure, branch)


def _covector_array(a: Form) -> np.ndarray:
    n = a.coframe.dim
    out = np.zeros(n)
    for m, c in a.terms.items():
        out[m.bit_length() - 1] = float(c)
    return out


def _skew_array(w: Form, n: int) -> np.ndarray:
    out = np.zeros((n, n))
    for m, c in w.terms.items():
        idx = mask_blade(m)
        out[idx[0], idx[1]] = float(c)
        out[idx[1], idx[0]] = -float(c)
    return out


# -- Lutz-Mori family identity ---------------------------------------------------


def lutz_lambda_k(pair: Preset, k: int, kind="quintic") -> ParamForm:
    """lambda_k with the twist profile phi_k substituted into the family."""
    phi = lutz_twist_profile(k, _LUTZ_EPS, kind)
    cphi = ProfileFn(lambda s: _libm(math.cos, phi(s)),
                     lambda s: -sphi(s) * phi.deriv(s), f"cos(phi_{k})")
    sphi = ProfileFn(lambda s: _libm(math.sin, phi(s)),
                     lambda s: cphi(s) * phi.deriv(s), f"sin(phi_{k})")
    f = 0.5 * (cphi + 1.0)
    g = 0.5 * (const(1.0) - cphi)
    return ProfileTriple(f, g, sphi, pair, (-_LUTZ_EPS, _LUTZ_EPS)).form


def lutz_family_check(pair: Preset, k: int, tau: float, grid_n: int = 512,
                      kind="quintic") -> float:
    """Pointwise identity for the almost-contact homotopy interpolation.

    Verifies lambda_{k,tau} ^ (d lambda_{k,tau})^{n-1}
    = (1 - tau psi)^n lambda_k ^ (d lambda_k)^{n-1} on the grid, psi the
    plateau bump of the twist window, and returns the worst relative error.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    psi = plateau_bump(_LUTZ_EPS, kind)
    lam_k = lutz_lambda_k(pair, k, kind)
    scale = ProfileFn(lambda s: 1.0 - tau * psi(s),
                      lambda s: -tau * psi.deriv(s),
                      f"(1-{tau}psi)")
    lam_tau = lam_k.copy_with(1, {
        m: ParamCoeff([(scale * f, g) for f, g in c.terms])
        for m, c in lam_k.terms.items()
    })
    lam_tau.add_term(("ds",), ParamCoeff.of(
        ProfileFn(lambda s: tau * psi(s), lambda s: tau * psi.deriv(s),
                  "tau psi")))
    dim = lam_k.coframe.dim
    npow = (dim + 1) // 2
    s = _grid_points((-_LUTZ_EPS, _LUTZ_EPS), grid_n)

    def top(lam):
        return _grid_tops(lambda a, da: a.wedge(da.power(npow - 1)),
                     [lam.at(s), lam.d().at(s)], len(s))

    with _libm_scope():
        lhs = top(lam_tau)
        rhs = _libm(pow, 1.0 - tau * psi(s), npow) * top(lam_k)
    return _grid_sup(_relative_error(lhs, rhs))


# -- the nondegenerate 2-form cone -------------------------------------------------


@dataclass
class XiResult:
    identity_error: float
    top_power_value: float
    nonzero: bool


def xi_nondegenerate(pair: Preset, c_plus: float, c_minus: float, b: float,
                     delta: float) -> XiResult:
    """Check w^p = p B dt ^ (C+ a+ - C- a-) ^ (C+ da+ + C- da-)^(p-1).

    Here p is the top power (half the dimension of the t-circle times the
    algebra), so for a (2n-3)-dimensional pair algebra p = n - 1 matches the
    coefficient in the displayed identity.
    """
    if c_plus < 0 or c_minus < 0 or (c_plus == 0 and c_minus == 0):
        raise ValueError("need C+ and C- nonnegative, not both zero")
    g = pair.algebra
    cf = Coframe(("dt",) + g.names)
    ap, am = pair.alpha_plus.to_float(), pair.alpha_minus.to_float()
    dap = g.ce_differential(ap).shifted(cf, 1)
    dam = g.ce_differential(am).shifted(cf, 1)
    ap, am = ap.shifted(cf, 1), am.shifted(cf, 1)
    dt = Form.covector(cf, 0, ring=FLOAT64)
    omega_bundle = c_plus * dap + c_minus * dam
    gamma = c_plus * ap + (-c_minus) * am
    omega = omega_bundle + delta * ap.wedge(am) + b * dt.wedge(gamma)
    p = cf.dim // 2
    lhs = omega.power(p).top_coefficient()
    rhs = (p * b) * dt.wedge(gamma).wedge(omega_bundle.power(p - 1)) \
        .top_coefficient()
    err = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return XiResult(err, lhs, lhs != 0.0)


# -- linear contact-product models --------------------------------------------------


@dataclass
class LinearModelResult:
    passed: bool
    min_top: float
    factor_error: float


def linear_model_pair_check(g: LieAlgebra, alpha: Form, mu: float, nu: float,
                            grid_n: int = 64) -> LinearModelResult:
    """Positivity and closed-form factorization of the product model volume.

    The model B = a(s) e^{nu t} alpha + b(s) e^{mu t} dtheta on
    (ds, dtheta, dt) x g, with a = e^s + e^-s and b = e^s - e^-s, must have
    dB^(q+2) = (q+1)(q+2) a^q e^{(mu + (q+1) nu) t} (nu a^2 - mu b^2)
    ds^dtheta^dt^alpha^dalpha^q.
    """
    if not nu > mu:
        raise ValueError("need nu > mu")
    from .liealg import contact_check
    if contact_check(g, alpha).verdict != "positive":
        raise ValueError("base form must be positive contact")
    q = (g.dim - 1) // 2
    e_plus, e_minus = exp_fn(1.0), exp_fn(-1.0)
    a_prof = e_plus + e_minus
    b_prof = e_plus - e_minus
    pf = ParamForm(("ds", "dt"), ("dθ",), g, 1, {})
    pf.add_form(alpha, a_prof, exp_fn(nu))
    pf.add_term(("dθ",), ParamCoeff.of(b_prof, exp_fn(mu)))
    dpf = pf.d()
    alpha_dalpha = alpha.to_float().wedge(
        g.ce_differential(alpha.to_float()).power(q)
    )
    base_vol = alpha_dalpha.top_coefficient()
    grid = np.linspace(-2.0, 2.0, grid_n)
    s, t = (x.ravel() for x in np.meshgrid(grid, grid, indexing="ij"))
    with _libm_scope():
        a_v, b_v = a_prof(s), b_prof(s)
        dbeta = dpf.at(s, t)
    # declared orientation is ds^dθ^dt^(algebra); storage order is
    # (ds, dt, dθ, algebra), one transposition away
    top = -_grid_tops(lambda w: w.power(q + 2), [dbeta], len(s))
    predicted = (
        (q + 1) * (q + 2) * _libm(pow, a_v, q)
        * _libm(math.exp, (mu + (q + 1) * nu) * t)
        * (nu * _libm(pow, a_v, 2) - mu * _libm(pow, b_v, 2)) * base_vol
    )
    worst_err = _grid_sup(_relative_error(top, predicted))
    min_top = _grid_min(top, s)[0]
    return LinearModelResult(min_top > 0 and worst_err <= 1e-8,
                             min_top, worst_err)


# -- weak domination --------------------------------------------------------------


@dataclass
class WeakFillingCertificate:
    verdict: str                  # positive | indefinite | negative
    symplectic_ok: bool           # alpha ^ Omega^(n-1) > 0
    ray_ok: bool                  # positivity for all tau > 0
    kind: str
    polynomial: list | None = None
    witness: tuple | None = None
    orientation: str = ""


def weak_domination_ray_check(alpha: Form, omega: Form,
                              dalpha: Form) -> WeakFillingCertificate:
    """Certify alpha ^ (Omega + tau dalpha)^(n-1) > 0 for all tau >= 0.

    Exact: Sturm on the tau-polynomial, so all three forms must be rational.
    Reports the two halves separately: Omega symplectic on the hyperplane
    (tau = 0) and the open-ray positivity.
    """
    if alpha.degree != 1 or omega.degree != 2 or dalpha.degree != 2:
        raise ValueError("need a 1-form and two 2-forms")
    if not (alpha.ring.exact and omega.ring.exact and dalpha.ring.exact):
        raise ValueError("weak_domination_ray_check requires exact forms")
    dim = alpha.coframe.dim
    if dim % 2 == 0:
        raise ValueError("weak domination lives on odd dimensions")
    npow = (dim - 1) // 2
    orientation = "volume = " + "∧".join(alpha.coframe.names)
    dpow = dalpha.powers(npow)
    opow = omega.powers(npow)
    p = _poly.trim([
        Q(math.comb(npow, j)) * alpha.wedge(dpow[j]).top_pairing(opow[npow - j])
        for j in range(npow + 1)
    ])
    symplectic_ok = _poly.evaluate(p, 0) > 0 if p else False
    ray_ok, witness = _poly.positive_on_open_ray(p)
    verdict = "positive" if (symplectic_ok and ray_ok) else "indefinite"
    return WeakFillingCertificate(
        verdict, symplectic_ok, ray_ok, "exact-sturm", p, witness,
        orientation,
    )


def sol_weak_filling_ray_fixture(eps) -> WeakFillingCertificate:
    """Boundary-face weak domination for the suspension model, at s0 = 0.

    alpha = dθ + a+ + a-,  Omega = eps (dθ ^ T* + X* ^ Y*) + ds ^ (a+ - a-)
    + da+ + da-, and dalpha carries the collar ds terms; with s0 = 0 all
    coefficients are rational so the ray certificate is exact.
    """
    eps = Q(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    from .liealg import sol_from_sl2
    preset = sol_from_sl2([[2, 1], [1, 1]])
    g = preset.algebra
    # boundary orientation of the face: dθ before ds makes the ray positive
    cf = Coframe(("dθ", "ds") + g.names)
    ap = preset.alpha_plus.shifted(cf, 2)
    am = preset.alpha_minus.shifted(cf, 2)
    dap = g.ce_differential(preset.alpha_plus).shifted(cf, 2)
    dam = g.ce_differential(preset.alpha_minus).shifted(cf, 2)
    ds = Form.covector(cf, 1)
    dtheta = Form.covector(cf, 0)
    tstar = Form.covector(cf, 2 + g.coframe().index("T*"))
    xstar = Form.covector(cf, 2 + g.coframe().index("X*"))
    ystar = Form.covector(cf, 2 + g.coframe().index("Y*"))
    alpha = dtheta + ap + am
    dalpha = ds.wedge(ap - am) + dap + dam
    omega_closed = dtheta.wedge(tstar) + xstar.wedge(ystar)
    omega = eps * omega_closed + dalpha
    return weak_domination_ray_check(alpha, omega, dalpha)


# -- the suspension weak-filling fixture --------------------------------------------


@dataclass
class SolFixtureResult:
    wedge_plus_zero: bool
    wedge_minus_zero: bool
    min_top: float
    passed: bool


def sol_weak_filling_fixture(eps: float,
                             grid_n: int = 128) -> SolFixtureResult:
    """Nondegeneracy of d[e^s a+ + e^-s a- + sigma dθ] + eps w on a grid.

    First verifies the wedge identities w ^ da± = 0 exactly in the
    invariant frame (the input that makes the perturbation harmless at
    every scale), then samples the top power of the perturbed product form
    over a (sigma, s) grid.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    from .liealg import sol_from_sl2
    preset = sol_from_sl2([[2, 1], [1, 1]])
    g = preset.algebra
    # exact check of w ^ da± = 0 on the theta-extended frame
    cf = Coframe(("dθ",) + g.names)
    dap = g.ce_differential(preset.alpha_plus).shifted(cf, 1)
    dam = g.ce_differential(preset.alpha_minus).shifted(cf, 1)
    dtheta = Form.covector(cf, 0)
    tstar = Form.covector(cf, 1 + g.coframe().index("T*"))
    xstar = Form.covector(cf, 1 + g.coframe().index("X*"))
    ystar = Form.covector(cf, 1 + g.coframe().index("Y*"))
    omega_closed = dtheta.wedge(tstar) + xstar.wedge(ystar)
    plus_zero = omega_closed.wedge(dap).is_zero()
    minus_zero = omega_closed.wedge(dam).is_zero()
    # beta = e^s a+ + e^-s a- + sigma dθ as a two-parameter form
    pf = ParamForm(("ds", "dσ"), ("dθ",), g, 1, {})
    pf.add_form(preset.alpha_plus, exp_fn(1.0))
    pf.add_form(preset.alpha_minus, exp_fn(-1.0))
    pf.add_term(("dθ",), ParamCoeff.of(1.0, linear(1.0)))  # sigma dθ
    dbeta = pf.d()
    omega_shift = omega_closed.shifted(dbeta.coframe, 2).to_float()
    p = dbeta.coframe.dim // 2
    s, sigma = (x.ravel() for x in np.meshgrid(
        np.linspace(-_SOL_S_MAX, _SOL_S_MAX, grid_n),
        np.linspace(-1.0, 1.0, grid_n), indexing="ij"))
    shift = float(eps) * omega_shift
    tops = _grid_tops(lambda w: (w + shift).power(p), [dbeta.at(s, sigma)],
                      len(s))
    min_top = _grid_min(tops, s)[0]
    return SolFixtureResult(plus_zero, minus_zero, min_top,
                            plus_zero and minus_zero and min_top > 0)


# -- cutoff Liouville forms ---------------------------------------------------------


def cutoff_liouville(pair: Preset, c, psi: ProfileFn) -> ParamForm:
    """beta = psi(c+s) e^s a+ + psi(c-s) e^-s a- over (ds, algebra).

    c is a float or a float64 array that broadcasts against the sample
    arrays, such as a column of one constant per row (`_cutoff_minima`).
    """
    if psi(0.0) != 0.0 or psi(1.0) != 1.0 or psi(-1.0) != 0.0 or psi(2.0) != 1.0:
        raise ValueError("psi must vanish on (-inf,0] and equal 1 on [1,inf)")
    g = pair.algebra
    pf = ParamForm(("ds",), (), g, 1, {})
    pf.add_form(pair.alpha_plus, psi.precompose_affine(1.0, c) * exp_fn(1.0))
    pf.add_form(pair.alpha_minus,
                psi.precompose_affine(-1.0, c) * exp_fn(-1.0))
    return pf


def cutoff_positive_on_grid(pair: Preset, c: float, psi: ProfileFn,
                            grid_n: int = 256):
    """(min top of dbeta^n, argmin) over s in [-c-1, c+1], for a finite c
    whose grid stays inside the float64 range."""
    return _cutoff_minima(pair, [c], psi, grid_n)[0]


def _cutoff_minima(pair: Preset, cs, psi: ProfileFn, grid_n: int):
    """[(min top of dbeta_c^n, argmin) for c in cs], each over the grid
    linspace(-c-1, c+1, grid_n+1), from one pass over all the grids.

    The grids are the rows of one sample array and the constants a column
    beside them, so one cutoff form serves every c.  Each step is
    element-wise (`_grid_tops`), so each c gets, bit for bit, the minimum
    and argmin of a pass over its grid alone.  A non-finite c raises
    ValueError, the first in cs; so does a grid that overflows float64,
    naming the c of largest magnitude.
    """
    for c in cs:
        if not math.isfinite(c):
            raise ValueError(f"cutoff constant must be finite, got {c}")
    pf = cutoff_liouville(pair, np.asarray(cs, float)[:, None], psi)
    p = pf.coframe.dim // 2
    try:
        with np.errstate(over="raise"):
            s = np.stack([np.linspace(-c - 1.0, c + 1.0, grid_n + 1)
                          for c in cs])
            tops = _grid_tops(lambda w: w.power(p), [pf.d().at(s)], s.shape)
    except (OverflowError, FloatingPointError) as err:
        raise ValueError(f"cutoff constant {max(cs, key=abs)} overflows "
                         f"float64 on the grid: {err}") from err
    return [_grid_min(row, pts) for row, pts in zip(tops, s)]


def _min_top_power(pf: ParamForm, s):
    """(min, argmin) over the samples s of the top of (d pf)^n."""
    p = pf.coframe.dim // 2
    tops = _grid_tops(lambda w: w.power(p), [pf.d().at(s)], len(s))
    return _grid_min(tops, s)


def min_c_search(pair: Preset, psi: ProfileFn, grid_n: int = 256,
                 cap: float = 64.0) -> float:
    """Smallest c (within BISECTION_TOL) whose cutoff form is positive on
    the grid, by bisection on [0, cap].

    The probes of the walk that passes at every c > 0 (c = 0, the cap and
    each next midpoint (0 + hi) / 2, down to the tolerance) run first, as
    one batch of `_cutoff_minima`; the walk then reads its verdicts there,
    and a probe outside the batch, once the walk turns right, runs alone.
    If the batch raises, the walk runs every probe alone, so that it
    raises the error of its own first failing probe, or none.
    """
    known = {}
    try:
        probes, lo, hi = [0.0, cap], 0.0, cap
        while math.isfinite(hi) and hi - lo > BISECTION_TOL:
            hi = (lo + hi) / 2
            probes.append(hi)
        known = {float(c).hex(): top > 0 for c, (top, _) in
                 zip(probes, _cutoff_minima(pair, probes, psi, grid_n))}
    except Exception:
        pass  # whatever the batch raised, the walk below meets it again

    def passes(c):
        verdict = known.get(float(c).hex())
        if verdict is None:
            verdict = cutoff_positive_on_grid(pair, c, psi, grid_n)[0] > 0
        return verdict

    if passes(0.0):
        return 0.0
    if not passes(cap):
        raise CapExceededError(f"no positive cutoff constant below {cap}")
    lo, hi = 0.0, cap
    while hi - lo > BISECTION_TOL:
        mid = (lo + hi) / 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


# -- the torsion family as a reparametrized form ----------------------------------


def gt_reparam_check(pair: Preset, grid_n: int = 512) -> float:
    """Substituting u = ln((1+cos s)/ sin s) reproduces the torsion form.

    Compares sin(s) [dt + (e^u a+ + e^-u a-)/2] with the family form
    coefficientwise on an interior grid of (0, pi).
    """
    triple = gt_form(pair, 1)
    s = np.pi * np.arange(1, grid_n) / grid_n
    sin_s = np.sin(s)
    u = np.log((1 + np.cos(s)) / sin_s)
    with _libm_scope():
        diffs = [sin_s * np.exp(u) / 2 - triple.f(s),
                 sin_s * np.exp(-u) / 2 - triple.g(s),
                 sin_s - triple.h(s)]
    return _grid_sup(np.abs(np.concatenate(diffs)))


# -- agreement between the exact pair certificate and the direct grid ---------------


def beta_grid_check(pair: Preset, s_range=(-10.0, 10.0), grid_n: int = 256):
    """(min, argmin) of the top of d(e^-s a- + e^s a+)^n over the s-grid."""
    g = pair.algebra
    pf = ParamForm(("ds",), (), g, 1, {})
    pf.add_form(pair.alpha_plus, exp_fn(1.0))
    pf.add_form(pair.alpha_minus, exp_fn(-1.0))
    return _min_top_power(pf, np.linspace(s_range[0], s_range[1], grid_n + 1))
