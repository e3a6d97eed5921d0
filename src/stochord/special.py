"""Special functions of the normal law in numpy: ndtr, erf, erfc, ndtri
and Owen's T.

``ndtr``, ``erf``, ``erfc`` and ``ndtri`` port the Cephes algorithms
(S. L. Moshier) that ``scipy.special`` runs, and ``owens_t`` ports the
region-based method of Patefield and Tandy (2000, J. Stat. Softw. 5(5))
that ``scipy.special.owens_t`` runs.  They do scipy's arithmetic, so
they give its values up to the last bits of ``np.exp``, ``np.log`` and
``np.arctan`` (which may differ from the C library's), and of Owen's
T3 series, which takes Patefield and Tandy's double-precision
coefficients.  They do not import scipy, which costs more to load than
numpy.

``ndtr``, ``erf``, ``erfc`` and ``ndtri`` take a float64 array and
return a new array of its shape; ``owens_t`` takes two flat float64
arrays of one length.  Scalars, and arrays long enough to be cut into
chunks, are the business of the models' evaluators
(`distributions._evaluator`).  No function raises a floating-point
warning at any input, infinities and NaN included.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "erf", "erfc", "ndtri", "owens_t"]


def _polevl(x, coef: tuple):
    """Horner evaluation, highest power first, of floats or arrays (in
    place on one new array)."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _split(x: np.ndarray, mask: np.ndarray, on_true, on_false) -> np.ndarray:
    """on_true(x[mask]) where mask holds, on_false(x[~mask]) elsewhere;
    both are elementwise and shape-preserving."""
    count = np.count_nonzero(mask)
    if count == mask.size:
        return on_true(x)
    if not count:
        return on_false(x)
    out = np.empty_like(x)
    out[mask] = on_true(x[mask])
    out[~mask] = on_false(x[~mask])
    return out


# erf and erfc (Cephes ndtr.c).  erf is x T(x^2)/U(x^2) for |x| <= 1;
# erfc is exp(-x^2) P(|x|)/Q(|x|) for 1 <= |x| < 8 and exp(-x^2) R/S
# beyond.  Each Q, S and U has its leading 1.
_MAXLOG = 7.09782712893383996843e2        # log(DBL_MAX)
_SQRT1_2 = math.sqrt(0.5)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)


def _erf_small(x: np.ndarray) -> np.ndarray:
    """erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc_rational(a: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    z = -a * a
    return np.where(z < -_MAXLOG, 0.0, np.exp(z) * _polevl(a, num)
                    / _polevl(a, den))


def _erfc_pos(a: np.ndarray) -> np.ndarray:
    """erfc for a >= 1 or NaN."""
    # beyond 27 exp(-a^2) is 0: clipping there keeps a^2 finite
    a = np.minimum(a, 27.0)
    return _split(a, a < 8.0, lambda b: _erfc_rational(b, _ERFC_P, _ERFC_Q),
                  lambda b: _erfc_rational(b, _ERFC_R, _ERFC_S))


def _erf_large(x: np.ndarray) -> np.ndarray:
    return np.where(x < 0.0, -1.0, 1.0) * (1.0 - _erfc_pos(np.abs(x)))


def _erfc_large(x: np.ndarray) -> np.ndarray:
    y = _erfc_pos(np.abs(x))
    return np.where(x < 0.0, 2.0 - y, y)


def erf(x):
    """The error function."""
    return _split(x, np.abs(x) <= 1.0, _erf_small, _erf_large)


def erfc(x):
    """The complementary error function 1 - erf(x)."""
    return _split(x, np.abs(x) < 1.0, lambda v: 1.0 - _erf_small(v),
                  _erfc_large)


def _ndtr_tail(u: np.ndarray) -> np.ndarray:
    y = 0.5 * _erfc_pos(np.abs(u))
    return np.where(u > 0.0, 1.0 - y, y)


def ndtr(x):
    """The standard normal CDF, relatively accurate in the lower tail
    (while it stays a normal double, down to x = -37.5)."""
    u = x * _SQRT1_2
    return _split(u, np.abs(u) < 1.0, lambda v: 0.5 + 0.5 * _erf_small(v),
                  _ndtr_tail)


# Cephes ndtri: a rational approximation in y - 1/2 on the centre, and
# two in z = 1/x on each tail, x = sqrt(-2 log y), split at x = 8.  Each
# Q has its leading 1.
_SQRT_2PI = 2.50662827463100050242
_EXP_M2 = 0.13533528323661269189    # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ndtri_centre(y: np.ndarray) -> np.ndarray:
    """ndtri(y) for exp(-2) < y < 1 - exp(-2)."""
    y = y - 0.5
    y2 = y * y
    return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _SQRT_2PI


def _ndtri_tail_term(x: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    z = 1.0 / x
    return z * _polevl(z, num) / _polevl(z, den)


def _ndtri_tail(y: np.ndarray) -> np.ndarray:
    """ndtri(y) for 0 < y <= exp(-2)."""
    x = np.sqrt(-2.0 * np.log(y))
    term = _split(x, x < 8.0, lambda v: _ndtri_tail_term(v, _P1, _Q1),
                  lambda v: _ndtri_tail_term(v, _P2, _Q2))
    return -(x - np.log(x) / x - term)


def ndtri(p):
    """The standard normal quantile: -inf at 0, inf at 1 and NaN outside
    [0, 1]."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = _split(y, y > _EXP_M2, _ndtri_centre, lambda v: _split(
        v, v > 0.0, _ndtri_tail, lambda w: np.where(w == 0.0, -np.inf, np.nan)))
    return np.where(upper, -out, out)


# Owen's T (Patefield and Tandy 2000).  For h >= 0 and 0 <= a <= 1 the
# (h, a) plane is cut at _HRANGE and _ARANGE into cells, and _SELECT
# gives each cell a code: the series T1, T2 or T4 truncated at the order
# _ORDER[code], the Chebyshev series T3, the 13-point Gauss quadrature
# T5, or the closed form T6 near a = 1.  a > 1 reflects into a < 1.
_HRANGE = np.array([0.02, 0.06, 0.09, 0.125, 0.26, 0.4, 0.6, 1.6, 1.7, 2.33,
                    2.4, 3.36, 3.4, 4.8])
_ARANGE = np.array([0.025, 0.09, 0.15, 0.36, 0.5, 0.9, 0.99999])
_SELECT = np.array([
    0, 0, 1, 12, 12, 12, 12, 12, 12, 12, 12, 15, 15, 15, 8,
    0, 1, 1, 2, 2, 4, 4, 13, 13, 14, 14, 15, 15, 15, 8,
    1, 1, 2, 2, 2, 4, 4, 14, 14, 14, 14, 15, 15, 15, 9,
    1, 1, 2, 4, 4, 4, 4, 6, 6, 15, 15, 15, 15, 15, 9,
    1, 2, 2, 4, 4, 5, 5, 7, 7, 16, 16, 16, 11, 11, 10,
    1, 2, 4, 4, 4, 5, 5, 7, 7, 16, 16, 16, 11, 11, 11,
    1, 2, 3, 3, 5, 5, 7, 7, 16, 16, 16, 16, 16, 11, 11,
    1, 2, 3, 3, 5, 5, 17, 17, 17, 17, 16, 16, 16, 11, 11])
_ORDER = np.array([2, 3, 4, 5, 7, 10, 12, 18, 10, 20, 30, 20, 4, 7, 8, 20, 13,
                   0])
# method of each code: 0-5 for T1-T6; 6 marks a = 1, 7 an h so large
# that T < exp(-h^2/2)/8 rounds to 0
_METHOD = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 3, 3, 3, 4, 5],
                   dtype=np.uint8)
_A_ONE, _UNDER = 6, 7
_H_UNDER = 38.62
# the constants in double arithmetic, as scipy's Owen's T takes them
# (math.sqrt(2 pi) is an ulp below the Cephes literal _SQRT_2PI)
_2PI = 2.0 * math.pi
_SQRT_2PI_D = math.sqrt(_2PI)
_SQRT_2 = math.sqrt(2.0)
# T3: Patefield and Tandy's coefficients of sum_i c_i x^(2i), which
# approximates 1/(1 + x^2) on [-1, 1] to 2e-16
_T3_C = (0.99999999999999987510, -0.99999999999988796462,
         0.99999999998290743652, -0.99999999896282500134,
         0.99999996660459362918, -0.99999933986272476760,
         0.99999125611136965852, -0.99991777624463387686,
         0.99942835555870132569, -0.99697311720723000295,
         0.98751448037275303682, -0.95915857980572882813,
         0.89246305511006708555, -0.76893425990463999675,
         0.58893528468484693250, -0.38380345160440256652,
         0.20317601701045299653, -0.82813631607004984866e-01,
         0.24167984735759576523e-01, -0.44676566663971825242e-02,
         0.39141169402373836468e-03)
# T5: squares of the positive nodes of 26-point Gauss-Legendre, and their
# weights over 2 pi
_T5_X = (0.0035082039676451716, 0.031279042338030756, 0.08526682628321945,
         0.16245071730812277, 0.25851196049125436, 0.3680755384069753,
         0.485010929056047, 0.6027751415261857, 0.7147788421775323,
         0.814755109887601, 0.8971102975594897, 0.9572380808594426,
         0.991788329746297)
_T5_W = (0.018831438115323503, 0.01856708624397765, 0.018042093461223385,
         0.017263829606398752, 0.016243219975989858, 0.014994592034116705,
         0.01353547446966209, 0.011886351605820165, 0.010070377242777432,
         0.008113054574229958, 0.006041900952847024, 0.0038862217010742057,
         0.001679303108454609)


def _half_erf(x):
    """Phi(x) - 1/2 = erf(x/sqrt 2)/2."""
    return erf(x / _SQRT_2) / 2.0


def _half_erfc(x):
    """Phi(-x) = erfc(x/sqrt 2)/2."""
    return erfc(x / _SQRT_2) / 2.0


# Cephes expm1 (unity.c), which scipy's Owen's T calls: a rational
# approximation for |x| <= 1/2, exp(x) - 1 beyond
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2,
            9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3,
            2.2726554820815502876593e-1, 2.0000000000000000009025e0)


def _expm1_small(x: np.ndarray) -> np.ndarray:
    xx = x * x
    r = x * _polevl(xx, _EXPM1_P)
    r = r / (_polevl(xx, _EXPM1_Q) - r)
    return r + r


def _expm1(x: np.ndarray) -> np.ndarray:
    return _split(x, np.abs(x) <= 0.5, _expm1_small,
                  lambda v: np.exp(v) - 1.0)


def _mask(k: int, m: np.ndarray, m_min: int):
    """1 where a series truncated at order m takes its term k, else 0."""
    return 1.0 if k <= m_min else (k <= m)


# Each method takes the flat arrays h, a, ah = a h of one cell kind and
# their orders m, and sums each element's series to its own order.
def _t1(h, a, ah, m):
    m_min = m.min()
    hs = -0.5 * h * h
    aa = a * a
    aj = a / _2PI
    dj = _expm1(hs)
    gj = hs * np.exp(hs)
    val = np.arctan(a) / _2PI
    for j in range(1, m.max() + 1):
        val += dj * aj / (2 * j - 1) * _mask(j, m, m_min)
        aj *= aa
        dj = gj - dj
        gj *= hs / (j + 1)
    return val


def _t2(h, a, ah, m):
    m_min = m.min()
    hs = h * h
    naa = -a * a
    y = 1.0 / hs
    vi = a * np.exp(-0.5 * ah * ah) / _SQRT_2PI_D
    z = (ndtr(ah) - 0.5) / h        # as scipy forms it
    val = z
    for k in range(1, m.max() + 1):
        z = y * (vi - (2 * k - 1) * z)
        vi *= naa
        val = val + z * _mask(k, m, m_min)
    return val * (np.exp(-0.5 * hs) / _SQRT_2PI_D)


def _t3(h, a, ah, m):
    aa = a * a
    hs = h * h
    y = 1.0 / hs
    vi = a * np.exp(-0.5 * ah * ah) / _SQRT_2PI_D
    zi = _half_erf(ah) / h
    val = zi * _T3_C[0]
    for i, c in enumerate(_T3_C[1:]):
        zi = y * ((2 * i + 1) * zi - vi)
        vi *= aa
        val += zi * c
    return val * np.exp(-0.5 * hs) / _SQRT_2PI_D


def _t4(h, a, ah, m):
    m_min = m.min()
    hs = h * h
    naa = -a * a
    ai = a * np.exp(-0.5 * hs * (1.0 - naa)) / _2PI
    yi = 1.0
    val = ai.copy()
    for k in range(1, m.max() + 1):
        yi = (1.0 - hs * yi) / (2 * k + 1)
        ai *= naa
        val += ai * yi * _mask(k, m, m_min)
    return val


def _t5(h, a, ah, m):
    aa = a * a
    nhh = -0.5 * h * h
    val = 0.0
    for x, w in zip(_T5_X, _T5_W):
        r = 1.0 + aa * x
        val = val + w * np.exp(nhh * r) / r
    return val * a


def _t6(h, a, ah, m):
    normh = _half_erfc(h)
    y = 1.0 - a
    r = np.arctan2(y, 1.0 + a)
    return (0.5 * normh * (1.0 - normh)
            - r * np.exp(-0.5 * y * h * h / r) / _2PI)


def _a_one(h, a, ah, m):
    return 0.5 * _half_erfc(-h) * _half_erfc(h)


def _under(h, a, ah, m):
    return np.zeros_like(h)


_METHODS = (_t1, _t2, _t3, _t4, _t5, _t6, _a_one, _under)


def _owens_t_core(h: np.ndarray, a: np.ndarray, ah: np.ndarray) -> np.ndarray:
    """T(h, a) for flat arrays, 0 <= h < inf, 0 <= a <= 1, ah = a h."""
    code = _SELECT[np.searchsorted(_ARANGE, a) * 15
                   + np.searchsorted(_HRANGE, h)]
    method = _METHOD[code]
    method[a == 1.0] = _A_ONE
    method[h > _H_UNDER] = _UNDER
    counts = np.bincount(method, minlength=len(_METHODS))
    if np.count_nonzero(counts) == 1:
        return _METHODS[method[0]](h, a, ah, _ORDER[code])
    out = np.empty_like(h)
    order = np.argsort(method, kind="stable")
    ends = np.cumsum(counts)
    for k in np.flatnonzero(counts):
        idx = order[ends[k] - counts[k]:ends[k]]
        out[idx] = _METHODS[k](h[idx], a[idx], ah[idx], _ORDER[code[idx]])
    return out


def _reflected_base(h: np.ndarray, ah: np.ndarray) -> np.ndarray:
    """(Phi(h) + Phi(ah))/2 - Phi(h) Phi(ah), written with Phi(x) - 1/2
    for ah <= 0.67 and with Phi(-x) beyond, so that it keeps its digits."""
    k = h.size
    both = np.concatenate((h, ah))
    near = ah <= 0.67
    count = np.count_nonzero(near)
    if count:
        n = _half_erf(both)
        out = 0.25 - n[:k] * n[k:]
    if count < k:
        c = _half_erfc(both)
        far = (c[:k] + c[k:]) / 2.0 - c[:k] * c[k:]
        out = far if not count else np.where(near, out, far)
    return out


def owens_t(h, a):
    """Owen's T function T(h, a) = 1/(2 pi) int_0^a exp(-h^2 (1 + x^2)/2)
    / (1 + x^2) dx."""
    negative = a < 0.0
    h, a = np.abs(h), np.abs(a)
    with np.errstate(over="ignore", invalid="ignore"):
        ah = a * h
    ah[h == 0.0] = 0.0
    high = a > 1.0
    reflect = np.count_nonzero(high)
    # for a > 1, T(ah, 1/a) - that is, h and ah swapped - is reflected
    hd, ad, ahd = h, a, ah
    if reflect:
        hd = np.where(high, ah, h)
        ad = np.where(high, 1.0 / np.maximum(a, 1.0), a)
        ahd = np.where(high, h, ah)
    ok = (hd < np.inf) & (ad <= 1.0)
    if np.count_nonzero(ok) == ok.size:
        out = _owens_t_core(hd, ad, ahd)
    else:
        out = np.where((hd == np.inf) & (ad <= 1.0), 0.0, np.nan)
        out[ok] = _owens_t_core(hd[ok], ad[ok], ahd[ok])
    if reflect:
        out[high] = _reflected_base(h[high], ah[high]) - out[high]
    return np.negative(out, out=out, where=negative)
