"""Standard normal CDF, its log and its quantile on ``math``, and ``erfc`` on numpy arrays.

``ndtr`` and ``ndtri`` port the Cephes Math Library (Stephen L. Moshier) as shipped in
``scipy.special``: ``ndtri.c``, and ``ndtr.c`` with its own ``erf``/``erfc`` (``math.erf``
differs in the last bits). The coefficient tables and the order of every operation are
Cephes's, so both are bit-identical to scipy.

``erfc`` evaluates the same Cephes ``erfc`` elementwise over an array, each branch's
elements at once. It takes ``np.exp`` for ``math.exp``, so it stays within 4 ulp of
``scipy.special.erfc`` rather than bit-identical to it.

``log_ndtr`` is not a port and not bit-identical: it evaluates scipy's formula on the
Cephes ``erfc`` tables here, where scipy takes ``erfc``/``erfcx`` from the Faddeeva
package, and stays within a few ulp of ``scipy.special.log_ndtr``.
"""

import math

import numpy as np

__all__ = ["erfc", "log_ndtr", "ndtr", "ndtri"]

_SQRT1_2 = 0.70710678118654752440
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
# |a| <= this exactly when a * a <= _MAXLOG, without squaring a (which overflows).
_SQRT_MAXLOG = math.sqrt(_MAXLOG)
# _erfc(a) == 2.0 for every a below: erfc(5.9) ~ 1.6e-17 is under half an ulp of 2.
_ERFC_IS_2_BELOW = -5.93

# Highest order first; a denominator's leading 1.0 stands for Cephes's p1evl (1.0 * x
# + c is exactly x + c). erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, R(x)/S(x) above;
# erf(x) = x T(x^2)/U(x^2) for |x| <= 1. ndtri: P0/Q0 for exp(-2) < p < 1 - exp(-2), and
# in the tails, z = sqrt(-2 log p), P1/Q1 for z < 8 and P2/Q2 above.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Horner's rule, ``ans * x + c`` per coefficient; in place on one new array for an array ``x``."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    y = math.exp(-a * a) * _polevl(x, p) / _polevl(x, q) if -a * a >= -_MAXLOG else 0.0
    return 2.0 - y if a < 0 else y


def erfc(a: np.ndarray) -> np.ndarray:
    """Overwrite the C-contiguous float64 array ``a`` with ``_erfc`` of each element; return ``a``.

    Any shape; NaN stays NaN. Each branch of ``_erfc`` (``|a| < 1``,
    ``1 <= |a| < 8``, above 8) gathers its elements and runs Horner in place
    on them. Below ``_ERFC_IS_2_BELOW`` the result is 2.0 and above
    ``_SQRT_MAXLOG`` 0.0, as in ``_erfc``, without evaluation, so no input up
    to +-inf warns.
    """
    flat = a.reshape(-1, copy=False)  # a view, so writes to flat land in a
    x = np.abs(flat)
    inner = x < 1.0
    mid = x < 8.0
    mid ^= inner
    mid &= flat >= _ERFC_IS_2_BELOW
    outer = flat >= 8.0
    outer &= flat <= _SQRT_MAXLOG
    del x
    # The branches are disjoint: each writes its results over its own inputs.
    # An empty branch is skipped, as its numpy calls cost more than most branches'
    # work. The scatter's index array is made after the branch's temporaries are
    # freed, so at most three branch-sized arrays are alive at once.
    z = np.compress(inner, flat)
    if z.size:
        zz = z * z
        y = _polevl(zz, _ERF_T)
        y *= z
        y /= _polevl(zz, _ERF_U)
        flat[np.flatnonzero(inner)] = np.subtract(1.0, y, out=y)
    for branch, num, den in ((mid, _ERFC_P, _ERFC_Q), (outer, _ERFC_R, _ERFC_S)):
        x = np.compress(branch, flat)
        if not x.size:
            continue
        neg = x < 0.0
        np.abs(x, out=x)
        q = _polevl(x, den)
        p = _polevl(x, num)
        np.exp(np.negative(np.square(x, out=x), out=x), out=x)  # exp(-a * a)
        x *= p
        x /= q
        np.subtract(2.0, x, out=x, where=neg)
        del p, q, neg
        flat[np.flatnonzero(branch)] = x
    # Every result so far is in [0, 2]; what is left is below or above the branches.
    flat[flat < _ERFC_IS_2_BELOW] = 2.0
    flat[flat > _SQRT_MAXLOG] = 0.0
    return a


def ndtr(a: float) -> float:
    """Standard normal CDF, ``scipy.special.ndtr``."""
    if math.isnan(a):
        return a
    x = a * _SQRT1_2
    if abs(x) < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(abs(x))
    return 1.0 - y if x > 0 else y


def _erfcx(y: float) -> float:
    """``exp(y^2) erfc(y)`` for ``y > 0``; the Cephes rationals above 1 are this already."""
    if y < 1.0:
        return math.exp(y * y) * _erfc(y)
    p, q = (_ERFC_P, _ERFC_Q) if y < 8.0 else (_ERFC_R, _ERFC_S)
    return _polevl(y, p) / _polevl(y, q)


def log_ndtr(a: float) -> float:
    """Log of the standard normal CDF, finite far into the lower tail where ``ndtr`` underflows.

    scipy's formula: ``log1p(-erfc(t)/2)`` for ``a >= -1``, else ``log(erfcx(-t)/2) - t^2``,
    with ``t = a/sqrt(2)``. NaN below about ``-1e61``, where the rational's powers overflow.
    """
    t = a * _SQRT1_2
    if a >= -1.0:
        return math.log1p(-0.5 * _erfc(t))
    return math.log(0.5 * _erfcx(-t)) - t * t


def ndtri(y0: float) -> float:
    """Standard normal quantile, ``scipy.special.ndtri``, for ``0 <= y0 <= 1``."""
    if y0 == 0.0 or y0 == 1.0:
        return math.copysign(math.inf, y0 - 0.5)
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)  # x < 8: y > exp(-32)
    x = x - math.log(x) / x - z * _polevl(z, p) / _polevl(z, q)
    return x if upper else -x
