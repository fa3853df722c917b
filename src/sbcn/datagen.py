"""Synthetic ground-truth generators and regression-based calibration.

Two regimes are provided: a five-factor market model where one market
factor drives four style factors and every stock loads on all five
(densely coupled, hard to disentangle), and a sparse random model where
each stock depends on a small random subset of independent factors.
Real factor/return histories can be turned into a generator spec by
ordinary least squares.

Stocks respond to factors with a time lag; factor-on-factor influence is
contemporaneous within a time step.  Learning datasets are therefore
produced lag-aligned (each row pairs factor values with the stock moves
they caused) so that a row is one complete draw of the causal system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learn import _check_choice
from .model import BinaryDataset, CsvFormatError, Dag, _csv_rows, _frozen, _json_object, _Value, topological_order
from .seeds import derive_seed

FACTOR_NAMES_5 = ("Km", "SMB", "HML", "RMW", "CMA")


class SingularDesignError(ValueError):
    """Regression design matrix is rank deficient."""


@dataclass(frozen=True, eq=False)
class RealSeries(_Value):
    """T x d matrix of real observations; the first ``n_factors`` columns
    are factor series, the rest are stock/portfolio returns."""

    values: np.ndarray
    names: tuple[str, ...]
    n_factors: int = 0

    def __init__(self, values, names, n_factors=0):
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "names", tuple(str(s) for s in names))
        object.__setattr__(self, "n_factors", int(n_factors))
        if self.values.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series contains non-finite entries")
        if len(self.names) != self.values.shape[1]:
            raise ValueError(
                f"{self.values.shape[1]} columns but {len(self.names)} names"
            )
        if not 0 <= self.n_factors <= self.values.shape[1]:
            raise ValueError("n_factors out of range")

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class FactorModelSpec(_Value):
    """Linear generative model: a DAG of factors plus stock loadings.

    ``factor_loadings[j, k]`` is the loading of factor j on factor k and
    must be nonzero only where ``factor_dag`` has the arc (k, j).  Factors
    without parents are independent Gaussians.  ``stock_betas[i, j]`` is
    stock i's loading on factor j (zero = no dependence); stocks react to
    factors ``lag`` steps later.
    """

    n_factors: int
    n_stocks: int
    factor_dag: Dag
    factor_loadings: np.ndarray
    factor_sigma: np.ndarray
    stock_betas: np.ndarray
    stock_sigma: np.ndarray
    lag: int = 1
    factor_names: tuple[str, ...] | None = None
    stock_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_factors", int(self.n_factors))
        object.__setattr__(self, "n_stocks", int(self.n_stocks))
        for attr in ("factor_loadings", "factor_sigma", "stock_betas", "stock_sigma"):
            object.__setattr__(self, attr, _frozen(getattr(self, attr)))
        object.__setattr__(self, "lag", int(self.lag))
        factor_names, stock_names = self.factor_names, self.stock_names
        if factor_names is None:
            factor_names = tuple(f"F{j}" for j in range(self.n_factors))
        if stock_names is None:
            stock_names = tuple(f"P{i}" for i in range(self.n_stocks))
        object.__setattr__(self, "factor_names", tuple(factor_names))
        object.__setattr__(self, "stock_names", tuple(stock_names))
        if self.n_factors < 1 or self.n_stocks < 0:
            raise ValueError("need at least one factor and a nonnegative stock count")
        if self.lag < 0:
            raise ValueError("lag must be nonnegative")
        if self.factor_dag.n != self.n_factors:
            raise ValueError("factor_dag size does not match n_factors")
        if self.factor_loadings.shape != (self.n_factors, self.n_factors):
            raise ValueError("factor_loadings must be (n_factors, n_factors)")
        if self.stock_betas.shape != (self.n_stocks, self.n_factors):
            raise ValueError("stock_betas must be (n_stocks, n_factors)")
        if self.factor_sigma.shape != (self.n_factors,) or np.any(self.factor_sigma <= 0):
            raise ValueError("factor_sigma must be n_factors positive scales")
        if self.stock_sigma.shape != (self.n_stocks,) or np.any(self.stock_sigma <= 0):
            raise ValueError("stock_sigma must be n_stocks positive scales")
        for j in range(self.n_factors):
            for k in range(self.n_factors):
                if self.factor_loadings[j, k] != 0.0 and (k, j) not in self.factor_dag.edges:
                    raise ValueError(
                        f"nonzero loading of factor {j} on factor {k} "
                        "without the corresponding arc in factor_dag"
                    )
        if len(self.factor_names) != self.n_factors or len(self.stock_names) != self.n_stocks:
            raise ValueError("name counts do not match factor/stock counts")

    @property
    def n(self) -> int:
        return self.n_factors + self.n_stocks

    @property
    def names(self) -> tuple[str, ...]:
        return self.factor_names + self.stock_names


def market_factor_spec(
    seed: int,
    n_stocks: int = 10,
    positive_loadings: bool = False,
    lag: int = 1,
) -> FactorModelSpec:
    """Five-factor spec: the market factor drives the four style factors,
    every stock loads on all five factors.

    Child-factor loadings are drawn N(0.4, 0.2^2) and stock loadings
    N(0.5, 0.25^2); ``positive_loadings`` takes absolute values so every
    stock responds upward to every factor.  All residual scales are 1.
    """
    rng = np.random.default_rng(seed)
    n_factors = 5
    factor_dag = Dag(n_factors, [(0, j) for j in range(1, n_factors)])
    loadings = np.zeros((n_factors, n_factors))
    loadings[1:, 0] = rng.normal(0.4, 0.2, size=n_factors - 1)
    betas = rng.normal(0.5, 0.25, size=(n_stocks, n_factors))
    if positive_loadings:
        loadings = np.abs(loadings)
        betas = np.abs(betas)
    return FactorModelSpec(
        n_factors,
        n_stocks,
        factor_dag,
        loadings,
        np.ones(n_factors),
        betas,
        np.ones(n_stocks),
        lag=lag,
        factor_names=FACTOR_NAMES_5,
    )


def simulate(spec: FactorModelSpec, T: int, seed: int) -> RealSeries:
    """Draw a T-row series of factor and stock returns from the spec.

    Parentless factors are i.i.d. Gaussian; child factors combine their
    parents within the same time step plus Gaussian noise; stocks combine
    the factors from ``lag`` steps earlier plus Gaussian noise.  The lag
    burn-in rows are generated and discarded, so exactly T rows come back.
    """
    if T <= spec.lag:
        raise ValueError(f"T={T} must exceed lag={spec.lag}")
    rng = np.random.default_rng(seed)
    total = T + spec.lag
    nf, ns = spec.n_factors, spec.n_stocks

    factors = np.empty((total, nf))
    noise = rng.normal(size=(total, nf)) * spec.factor_sigma
    for j in topological_order(spec.factor_dag):
        parent_cols = list(spec.factor_dag.parents(j))
        factors[:, j] = noise[:, j]
        if parent_cols:
            factors[:, j] += factors[:, parent_cols] @ spec.factor_loadings[j, parent_cols]

    stocks = np.empty((total, ns))
    stocks[: spec.lag] = rng.normal(size=(spec.lag, ns)) * spec.stock_sigma
    eps = rng.normal(size=(T, ns)) * spec.stock_sigma
    stocks[spec.lag :] = factors[:T] @ spec.stock_betas.T + eps

    values = np.hstack([factors, stocks])[spec.lag :]
    return RealSeries(values, spec.names, n_factors=nf)


def lag_align(series: RealSeries, lag: int) -> RealSeries:
    """Pair each row's stock returns with the factor values that caused them.

    Shifts the stock columns up by ``lag`` rows relative to the factor
    columns, dropping the ``lag`` unmatched rows, so every output row is
    one complete cause/effect draw.
    """
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    if lag == 0:
        return series
    if series.T <= lag:
        raise ValueError(f"series of length {series.T} too short for lag {lag}")
    nf = series.n_factors
    values = np.hstack([series.values[:-lag, :nf], series.values[lag:, nf:]])
    return RealSeries(values, series.names, n_factors=nf)


def binarize(series: RealSeries) -> BinaryDataset:
    """Up/down indicators: 1 iff the value exceeds its column's median,
    which keeps marginals near 0.5.  Factor columns get rank 0, stock
    columns rank 1.
    """
    cells = (series.values > np.median(series.values, axis=0)).astype(np.uint8)
    rank = [0 if j < series.n_factors else 1 for j in range(series.d)]
    return BinaryDataset(cells, series.names, rank)


def simulate_dataset(spec: FactorModelSpec, T: int, seed: int) -> BinaryDataset:
    """Binarized, lag-aligned training data with exactly T rows."""
    series = simulate(spec, T + spec.lag, seed)
    return binarize(lag_align(series, spec.lag))


def ground_truth_dag(spec: FactorModelSpec) -> Dag:
    """The generating structure over factor nodes 0..nf-1 and stock nodes after."""
    edges = set(spec.factor_dag.edges)
    for i in range(spec.n_stocks):
        for j in range(spec.n_factors):
            if spec.stock_betas[i, j] != 0.0:
                edges.add((j, spec.n_factors + i))
    return Dag(spec.n, edges)


def sparse_random_instance(
    n_factors: int = 10,
    n_stocks: int = 20,
    p: float = 0.3,
    T: int = 250,
    seed: int = 0,
    signed_loadings: bool = False,
) -> tuple[FactorModelSpec, Dag, BinaryDataset]:
    """Random sparse regime: independent factors, each (stock, factor) pair
    coupled with probability p.

    Loading magnitudes are uniform on [0.5, 1.5] so present dependencies
    carry detectable signal; ``signed_loadings`` flips each sign with
    probability 1/2 (off by default: up moves then always push stocks up,
    which is what the up/down encoding can express as raised probability).
    Returns the spec, its ground-truth DAG, and a binarized T-row dataset.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(derive_seed(seed, 0))
    mask = rng.random((n_stocks, n_factors)) < p
    magnitude = rng.uniform(0.5, 1.5, size=(n_stocks, n_factors))
    signs = rng.integers(0, 2, size=(n_stocks, n_factors)) * 2 - 1
    betas = mask * magnitude * (signs if signed_loadings else 1)
    spec = FactorModelSpec(
        n_factors,
        n_stocks,
        Dag(n_factors),
        np.zeros((n_factors, n_factors)),
        np.ones(n_factors),
        betas,
        np.ones(n_stocks),
    )
    data = simulate_dataset(spec, T, derive_seed(seed, 1))
    return spec, ground_truth_dag(spec), data


#: The generator modes and, for each, its parameters and their defaults.
#: A parameter is read as the type of its default (``model._json_value``).
GENERATOR_PARAMS = {
    "famafrench": {"n_stocks": 10, "positive_loadings": False, "lag": 1},
    "sparse": {"n_factors": 10, "n_stocks": 20, "p": 0.3, "signed_loadings": False},
}
GENERATOR_MODES = tuple(GENERATOR_PARAMS)
#: The range of each numeric generator parameter, as (low, high); None is unbounded.
GENERATOR_RANGES = {"n_stocks": (0, None), "n_factors": (1, None), "lag": (0, None), "p": (0, 1)}


def generator_params(mode: str, params) -> dict:
    """The mode's defaults overridden by ``params``, a dict or its JSON text,
    read by ``model._json_object``: a ``ModelSchemaError`` names an unknown
    key, a value not of its default's type or a number outside its
    ``GENERATOR_RANGES`` entry; an unknown mode is a ``ValueError``."""
    _check_choice("generator mode", mode, GENERATOR_MODES)
    defaults = GENERATOR_PARAMS[mode]

    def build(**values):
        for key, value in values.items():
            if key in GENERATOR_RANGES:
                low, high = GENERATOR_RANGES[key]
                if value < low or (high is not None and value > high):
                    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
                    raise ValueError(f"{key} must be {bound}, got {value!r}")
        return defaults | values
    kinds = {key: type(default) for key, default in defaults.items()}
    return _json_object(params, "generator", kinds, kinds.keys(), build)


def generate_instance(
    mode: str, params, T: int, seed: int
) -> tuple[FactorModelSpec, Dag, BinaryDataset]:
    """(spec, ground-truth DAG, T-row dataset) of the named generator with
    ``generator_params(mode, params)``; the seed fixes the instance."""
    kwargs = generator_params(mode, params)
    if mode == "sparse":
        return sparse_random_instance(T=T, seed=seed, **kwargs)
    spec = market_factor_spec(derive_seed(seed, 0), **kwargs)
    return spec, ground_truth_dag(spec), simulate_dataset(spec, T, derive_seed(seed, 1))


def _ols(X: np.ndarray, Y: np.ndarray, names) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of each Y column on X (no intercept); returns
    (coefficients, residual standard deviations)."""
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        offending = _dependent_columns(X, names)
        raise SingularDesignError(
            "design matrix is rank deficient; linearly dependent columns: "
            + ", ".join(offending)
        )
    beta, _, _, _ = np.linalg.lstsq(X, Y, rcond=None)
    resid = Y - X @ beta
    dof = max(1, X.shape[0] - X.shape[1])
    sigma = np.sqrt((resid**2).sum(axis=0) / dof)
    return beta.T, sigma


def _dependent_columns(X: np.ndarray, names) -> list[str]:
    independent: list[int] = []
    offending = []
    for j in range(X.shape[1]):
        cols = independent + [j]
        if np.linalg.matrix_rank(X[:, cols]) == len(cols):
            independent.append(j)
        else:
            offending.append(names[j])
    return offending


def estimate_spec(returns: RealSeries, factors: RealSeries, lag: int = 1) -> FactorModelSpec:
    """Calibrate a spec from historical series by ordinary least squares.

    Each return column is regressed on the factor columns from ``lag``
    steps earlier; style factors (all but the first column) are regressed
    on the contemporaneous first factor, which becomes the root of the
    factor DAG.  Coefficients become loadings, residual standard
    deviations become the noise scales.
    """
    if returns.T != factors.T:
        raise ValueError(
            f"returns ({returns.T} rows) and factors ({factors.T} rows) are not aligned"
        )
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    nf = factors.d
    if returns.T <= nf + lag + 1:
        raise ValueError(
            f"need more than {nf + lag + 1} rows to fit {nf} factors at lag {lag}; "
            f"got {returns.T}"
        )
    X = factors.values[: returns.T - lag]
    Y = returns.values[lag:]
    stock_betas, stock_sigma = _ols(X, Y, factors.names)

    factor_dag = Dag(nf, [(0, j) for j in range(1, nf)])
    loadings = np.zeros((nf, nf))
    sigma = np.empty(nf)
    sigma[0] = max(float(np.std(factors.values[:, 0])), np.finfo(float).tiny)
    root = factors.values[:, :1]
    for j in range(1, nf):
        coef, res = _ols(root, factors.values[:, j : j + 1], factors.names[:1])
        loadings[j, 0] = coef[0, 0]
        sigma[j] = max(float(res[0]), np.finfo(float).tiny)
    return FactorModelSpec(
        nf,
        returns.d,
        factor_dag,
        loadings,
        sigma,
        stock_betas,
        np.maximum(stock_sigma, np.finfo(float).tiny),
        lag=lag,
        factor_names=factors.names,
        stock_names=returns.names,
    )


def series_from_csv(text: str, n_factors: int = 0) -> RealSeries:
    """Read a headered CSV of real values; non-numeric first column
    (e.g. dates) is dropped.  A malformed row or cell raises
    ``CsvFormatError`` naming its row and column, as in
    ``BinaryDataset.from_csv``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CsvFormatError("empty CSV")
    if len(lines) == 1:
        raise CsvFormatError("CSV has a header but no data rows")
    names = [s.strip() for s in lines[0].split(",")]
    try:
        float(lines[1].split(",")[0])
        skip = 0
    except ValueError:
        skip = 1
    values = _csv_rows(lines[1:], 2, len(names), float, "a number", skip)
    return RealSeries(values, names[skip:], n_factors=n_factors)
