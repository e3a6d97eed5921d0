"""Distribution models: normal, noncentral t (1 df), normal mixture, empirical.

Every model exposes the same surface: ``cdf(x)``, ``density(x)``,
``quantile(t)`` (the left-continuous generalized inverse
``inf{x : t <= F(x)}``), and ``sample(n, seed)``.  All evaluators accept
scalars or numpy arrays and are vectorized.

The quantile and the CDF satisfy the Galois duality
``t <= F(x)  iff  quantile(t) <= x``: exactly for empirical models, and
up to the stated numeric tolerance (1e-10 in the central range, machine
precision in CDF space everywhere) for the analytic families.

The noncentral t with one degree of freedom has closed forms for its CDF
(Owen's T function, with a cancellation-free variant in the lower tail)
and its density; its quantile keeps relative accuracy in both tails,
out to t = 1e-300 and 1 - t = 2^-53.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.special import erf, ndtr, ndtri, owens_t

from .errors import DataError, DomainError, NumericError, ParameterError
from .rng import SeedSpec, as_seed

__all__ = [
    "Distribution",
    "Normal",
    "NoncentralT1",
    "NormalMixture",
    "Empirical",
    "EmpiricalDistribution",
    "from_descriptor",
    "cdf_eval",
    "quantile_eval",
    "density_eval",
    "sample",
]

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _as_prob_array(t) -> tuple[np.ndarray, bool]:
    """Validate quantile arguments lie in the open unit interval."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    if flat.size and (not np.all(np.isfinite(flat)) or flat.min() <= 0.0
                      or flat.max() >= 1.0):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    return arr, scalar


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


class Distribution:
    """Common surface for the model families."""

    kind: str = ""

    def cdf(self, x):
        raise NotImplementedError

    def density(self, x):
        raise NotImplementedError

    def quantile(self, t):
        raise NotImplementedError

    def sample(self, n: int, seed: SeedSpec | int) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Distribution) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(repr(self.to_json()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_json().items()
                           if k != "kind")
        return f"{type(self).__name__}({fields})"


class Normal(Distribution):
    """Gaussian with the usual location-scale parameterization."""

    kind = "normal"

    def __init__(self, mean: float, sd: float):
        self.mean = float(mean)
        self.sd = float(sd)
        if not math.isfinite(self.mean) or not math.isfinite(self.sd):
            raise ParameterError("normal parameters must be finite")
        if self.sd <= 0.0:
            raise ParameterError(f"sd must be positive, got {self.sd}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(ndtr((x - self.mean) / self.sd), x.ndim == 0)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(_phi((x - self.mean) / self.sd) / self.sd,
                             x.ndim == 0)

    def quantile(self, t):
        t, scalar = _as_prob_array(t)
        return _maybe_scalar(self.mean + self.sd * ndtri(t), scalar)

    def sample(self, n: int, seed: SeedSpec | int) -> np.ndarray:
        rng = as_seed(seed).generator()
        return self.mean + self.sd * rng.standard_normal(int(n))

    def to_json(self) -> dict:
        return {"kind": "normal", "mean": self.mean, "sd": self.sd}


# Noncentral t with one degree of freedom, T = (Z + ncp)/|Z'| with
# independent standard normals.  With r = sqrt(1+x^2) and a = ncp/r,
# Owen's closed form (Owen 1956, Ann. Math. Statist. 27; Owen 1965,
# Biometrika 52) is F(x) = Phi(-a) + 2 T(a, x), T being Owen's T function.
# For x < -1 its two terms cancel as F falls like c/|x|, so there the
# reflection T(h, s) + T(hs, 1/s) = (Phi(h) + Phi(hs))/2 - Phi(h) Phi(hs)
# (h, s >= 0; T is even in h) turns it into
# F(x) = 2 T(xa, -1/x) - erf(a/sqrt 2) Phi(xa),
# which keeps relative accuracy out to |x| = 1e300.  The density is
#   f(x) = g(x)/r^2,  g = [exp(-ncp^2/2)
#          + sqrt(2 pi) ncp (x/r) exp(-a^2/2) Phi(ncp x/r)]/pi,
# with g bounded, so Newton steps on the quantile use g where f
# underflows.  Below the median F(x) <= c/|x| for every x < 0, with
# equality up to a factor 1 + O(1/x^2), where
# c = 2 phi(0) (phi(ncp) - ncp Phi(-ncp)).
_DBL_MAX = float(np.finfo(float).max)
_DBL_TINY = float(np.finfo(float).tiny)
_T1_NEWTON_CAP = 100
_T1_XTOL = 4.0 * float(np.finfo(float).eps)


def _t1_cdf(x, ncp: float) -> np.ndarray:
    """The CDF, relatively accurate in the lower tail."""
    x = np.asarray(x, dtype=float)
    xf = np.clip(x, -_DBL_MAX, _DBL_MAX)
    r = np.hypot(1.0, xf)
    a = ncp / r
    xa = ncp * (xf / r)
    tail = xf < -1.0
    base = np.where(tail, -erf(a / _SQRT_2) * ndtr(xa), ndtr(-a))
    out = base + 2.0 * owens_t(np.where(tail, xa, a),
                               np.where(tail, -1.0 / np.minimum(xf, -1.0), xf))
    out = np.where(np.isinf(x), x > 0, out)
    return np.clip(out, 0.0, 1.0)


def _t1_scaled_density(x, ncp: float) -> np.ndarray:
    """The density times 1 + x^2, bounded for every x."""
    xf = np.clip(np.asarray(x, dtype=float), -_DBL_MAX, _DBL_MAX)
    r = np.hypot(1.0, xf)
    a, u = ncp / r, xf / r
    return (math.exp(-0.5 * ncp * ncp) + _SQRT_2PI * ncp * u
            * np.exp(-0.5 * a * a) * ndtr(ncp * u)) / math.pi


class NoncentralT1(Distribution):
    """Noncentral t with 1 degree of freedom and noncentrality ``ncp``.

    The CDF and density are closed forms through Owen's T function (see
    the comment above `_t1_cdf`).  Against a quadrature reference, for
    |ncp| <= 3, the CDF is within 1e-12 relative wherever it is below 1/2
    and 2e-15 absolute everywhere, and the density within 1e-11 relative.
    For ncp above about 4 the lower tail loses relative accuracy, because
    the terms of both forms cancel and Owen's T loses relative accuracy at
    small slopes; the absolute error stays at machine precision.

    The quantile inverts the CDF with a bracketing table plus safeguarded
    Newton refinement, iterated until the step or the bracket has
    converged to a few ulps.  Above the median it solves
    F(-x; -ncp) = 1 - t instead, the survival function at the exact
    double difference 1 - t, so both tails keep relative accuracy: the
    quantile follows -c/t down to t = 1e-300 and c'/(1 - t), with
    c' = 2 phi(0) (phi(ncp) + ncp Phi(ncp)), up to 1 - t = 2^-53.  In the
    central range the round trip |F(Q(t)) - t| stays below 1e-10.  A
    quantile beyond the double range, or one whose iteration does not
    converge, raises `NumericError`.
    """

    kind = "t1"

    def __init__(self, ncp: float):
        self.ncp = float(ncp)
        if not math.isfinite(self.ncp):
            raise ParameterError("ncp must be finite")
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self._reflection: NoncentralT1 | None = None

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(_t1_cdf(x, self.ncp), x.ndim == 0)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        inv_r = 1.0 / np.hypot(1.0, np.clip(x, -_DBL_MAX, _DBL_MAX))
        return _maybe_scalar(_t1_scaled_density(x, self.ncp) * inv_r * inv_r,
                             x.ndim == 0)

    def _quantile_table(self) -> tuple[np.ndarray, np.ndarray]:
        # Lazily built bracketing table of F: dense linear core, log-spaced
        # tails out to 1e13 (the Cauchy-like tails decay as 1/x), reduced
        # to strictly increasing CDF values.
        if self._table is None:
            core = np.linspace(-24.0, 24.0, 1537)
            tail = np.exp(np.linspace(math.log(24.0), math.log(1e13), 385))
            xs = np.unique(np.concatenate((-tail[1:], core, tail[1:])))
            fs, first = np.unique(np.maximum.accumulate(self.cdf(xs)),
                                  return_index=True)
            self._table = (xs[first], fs)
        return self._table

    def _solve_lower(self, p: np.ndarray) -> np.ndarray:
        """Solve F(x) = p for p <= 1/2."""
        xt, ft = self._quantile_table()
        j = np.clip(np.searchsorted(ft, p, side="left"), 1, ft.size - 1)
        lo, hi = xt[j - 1], xt[j]
        x = lo + (hi - lo) * (p - ft[j - 1]) / (ft[j] - ft[j - 1])
        below = p < ft[0]
        if below.any():
            # F(x) <= c/|x| for x < 0: -c/p bounds the root from below and
            # equals it to O(1/x^2), that is exactly beyond the table
            ncp = self.ncp
            c = 2.0 * _phi(0.0) * (_phi(ncp) - ncp * ndtr(-ncp))
            if p[below].min() * _DBL_MAX <= c:
                raise NumericError("t1 quantile lies beyond the double range")
            x[below] = lo[below] = -c / p[below]
            hi[below] = xt[0]
        active = np.arange(p.size)
        for _ in range(_T1_NEWTON_CAP):
            xa, pa = x[active], p[active]
            fx = self.cdf(xa)
            over = fx >= pa
            la = np.where(over, lo[active], xa)
            ha = np.where(over, xa, hi[active])
            xn = xa - self._newton_step(xa, fx - pa)
            scale = _T1_XTOL * np.maximum(np.abs(xa), 1.0)
            small = np.abs(xn - xa) <= scale
            xn = np.where(small | ((xn > la) & (xn < ha)), xn, 0.5 * (la + ha))
            done = small | (ha - la <= scale)
            x[active], lo[active], hi[active] = xn, la, ha
            active = active[~done]
            if not active.size:
                return x
        raise NumericError("t1 quantile Newton iteration did not converge")

    def _newton_step(self, x: np.ndarray, residual: np.ndarray) -> np.ndarray:
        """residual / f(x), finite also where the density underflows."""
        f = self.density(x)
        deep = f < _DBL_TINY
        step = residual / np.where(deep, 1.0, f)
        if deep.any():
            # |x| beyond about 1e154: f = g/r^2 with g bounded, so
            # multiplying by r twice keeps every factor finite
            xd = x[deep]
            r = np.hypot(1.0, xd)
            g = np.maximum(_t1_scaled_density(xd, self.ncp), 5e-324)
            step[deep] = residual[deep] * r / g * r
        return step

    def quantile(self, t):
        t, scalar = _as_prob_array(t)
        tj = np.atleast_1d(t)
        # Above the median solve for the survival function: -T has
        # noncentrality -ncp, so F(-x; -ncp) = 1 - t, and the difference
        # is exact in double precision for t >= 1/2.
        upper = tj > 0.5
        p = np.where(upper, 1.0 - tj, tj)
        x = np.empty_like(p)
        if (~upper).any():
            x[~upper] = self._solve_lower(p[~upper])
        if upper.any():
            if self._reflection is None:
                self._reflection = NoncentralT1(-self.ncp)
            x[upper] = -self._reflection._solve_lower(p[upper])
        return _maybe_scalar(x if not scalar else x[0], scalar)

    def sample(self, n: int, seed: SeedSpec | int) -> np.ndarray:
        rng = as_seed(seed).generator()
        z = rng.standard_normal((2, int(n)))
        return (z[0] + self.ncp) / np.abs(z[1])

    def to_json(self) -> dict:
        return {"kind": "t1", "ncp": self.ncp}


class NormalMixture(Distribution):
    """Finite mixture of Gaussians.

    ``components`` is a sequence of (weight, mean, sd) triples; weights
    must be positive and sum to 1 within 1e-9.
    """

    kind = "mixture"

    def __init__(self, components):
        comps = [(float(w), float(m), float(s)) for (w, m, s) in components]
        if not comps:
            raise ParameterError("mixture needs at least one component")
        for w, m, s in comps:
            if not (math.isfinite(w) and math.isfinite(m) and math.isfinite(s)):
                raise ParameterError("mixture parameters must be finite")
            if w <= 0.0:
                raise ParameterError(f"mixture weight must be positive, got {w}")
            if s <= 0.0:
                raise ParameterError(f"mixture sd must be positive, got {s}")
        total = sum(w for w, _, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"mixture weights sum to {total}, expected 1")
        self.components = comps
        self._w = np.array([c[0] for c in comps])
        self._m = np.array([c[1] for c in comps])
        self._s = np.array([c[2] for c in comps])

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self._m) / self._s
        return _maybe_scalar(ndtr(z) @ self._w, x.ndim == 0)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self._m) / self._s
        return _maybe_scalar(_phi(z) @ (self._w / self._s), x.ndim == 0)

    def quantile(self, t):
        t, scalar = _as_prob_array(t)
        tj = np.atleast_1d(np.asarray(t, dtype=float))
        span = 12.0 * self._s.max()
        lo = np.full(tj.shape, self._m.min() - span)
        hi = np.full(tj.shape, self._m.max() + span)
        for _ in range(100):
            bad = self.cdf(lo) >= tj
            if not bad.any():
                break
            lo = np.where(bad, lo - 2.0 * (hi - lo), lo)
        else:
            raise NumericError("mixture quantile bracket failed on the left")
        for _ in range(100):
            bad = self.cdf(hi) < tj
            if not bad.any():
                break
            hi = np.where(bad, hi + 2.0 * (hi - lo), hi)
        else:
            raise NumericError("mixture quantile bracket failed on the right")
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            under = self.cdf(mid) < tj
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
        out = hi
        return _maybe_scalar(out if not scalar else out[0], scalar)

    def sample(self, n: int, seed: SeedSpec | int) -> np.ndarray:
        rng = as_seed(seed).generator()
        n = int(n)
        u = rng.random(n)
        comp = np.searchsorted(np.cumsum(self._w), u, side="right")
        comp = np.minimum(comp, self._w.size - 1)
        return self._m[comp] + self._s[comp] * rng.standard_normal(n)

    def to_json(self) -> dict:
        return {"kind": "mixture",
                "components": [{"w": w, "mean": m, "sd": s}
                               for (w, m, s) in self.components]}


class EmpiricalDistribution:
    """Sorted sample values with size and a within-sample tie flag."""

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("empirical sample must be a nonempty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise DataError("empirical sample contains non-finite values")
        self.values = np.sort(arr)
        self.n = int(arr.size)
        self.tie_flag = bool(np.any(np.diff(self.values) == 0.0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.values, np.atleast_1d(x), side="right") / self.n
        return _maybe_scalar(out if x.ndim else out[0], x.ndim == 0)

    def quantile(self, t):
        """Order statistic ``values[ceil(n t)]`` (1-indexed)."""
        t, scalar = _as_prob_array(t)
        tj = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.ceil(self.n * tj).astype(np.int64)
        idx = np.clip(idx, 1, self.n)
        out = self.values[idx - 1]
        return _maybe_scalar(out if not scalar else out[0], scalar)


class Empirical(Distribution):
    """Distribution wrapper around an EmpiricalDistribution."""

    kind = "empirical"

    def __init__(self, values, csv_path: str | None = None):
        if isinstance(values, EmpiricalDistribution):
            self.empirical = values
        else:
            self.empirical = EmpiricalDistribution(values)
        self.csv_path = csv_path

    @property
    def values(self) -> np.ndarray:
        return self.empirical.values

    @property
    def n(self) -> int:
        return self.empirical.n

    @property
    def tie_flag(self) -> bool:
        return self.empirical.tie_flag

    def cdf(self, x):
        return self.empirical.cdf(x)

    def density(self, x):
        raise DomainError("empirical distributions have no density")

    def quantile(self, t):
        return self.empirical.quantile(t)

    def sample(self, n: int, seed: SeedSpec | int) -> np.ndarray:
        rng = as_seed(seed).generator()
        idx = rng.integers(0, self.n, size=int(n))
        return self.values[idx]

    def to_json(self) -> dict:
        if self.csv_path is not None:
            return {"kind": "empirical", "csv": self.csv_path}
        return {"kind": "empirical", "values": [float(v) for v in self.values]}


def from_descriptor(obj: dict, base_dir: str | Path | None = None) -> Distribution:
    """Build a model from its JSON descriptor.

    Empirical descriptors may reference a CSV file (resolved against
    ``base_dir`` when relative) or carry inline values.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DataError("model descriptor must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "normal":
            return Normal(obj["mean"], obj["sd"])
        if kind == "t1":
            return NoncentralT1(obj["ncp"])
        if kind == "mixture":
            return NormalMixture([(c["w"], c["mean"], c["sd"])
                                  for c in obj["components"]])
        if kind == "empirical":
            if "csv" in obj:
                from .io_utils import load_sample_csv
                path = Path(obj["csv"])
                if base_dir is not None and not path.is_absolute():
                    path = Path(base_dir) / path
                return Empirical(load_sample_csv(path), csv_path=str(obj["csv"]))
            if "values" in obj:
                return Empirical(obj["values"])
            raise DataError("empirical descriptor needs 'csv' or 'values'")
    except KeyError as exc:
        raise DataError(f"model descriptor missing field {exc}") from None
    raise DataError(f"unknown model kind {kind!r}")


def cdf_eval(model: Distribution, x):
    return model.cdf(x)


def quantile_eval(model: Distribution, t):
    return model.quantile(t)


def density_eval(model: Distribution, x):
    return model.density(x)


def sample(model: Distribution, n: int, seed: SeedSpec | int) -> np.ndarray:
    return model.sample(n, seed)
