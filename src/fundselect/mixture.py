"""Three-component mixture prior for the standardized alphas, fit by grid search.

The marginal model for each standardized alpha is

    mu_i ~ pi0 * delta(nu0) + pi1 * N(nu1, tau1_sq) + pi2 * N(nu2, tau2_sq)

with nu0 <= 0 (the spike holds the zero/weak-skill mass). Fitting walks a grid:
for each candidate percentage m of small-|z| funds, the realized common factors
are estimated by least absolute deviations of that subset on the factor
loadings; for each candidate nu0 the de-factored, de-centered statistics yield
four pooled moments; for each (tau1_sq, tau2_sq) pair the moment system is
inverted for the weights and component offsets; surviving candidates are
scored by the histogram total-variation distance between the data and fresh
simulations from the candidate model, and the smallest score wins (lexical
grid order breaks ties).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dependence import DependenceModel
from .errors import ConfigError, DataError, FitFailedError
from .streams import substream

TV_BIN_WIDTH = 0.1
_TV_DRAWS = 5  # simulations averaged into each candidate's score
_PI_SLACK = 1e-8
_RESID_TOL = 1e-8


@dataclass(frozen=True)
class MixtureParams:
    """Fitted prior: weights, spike location, component means and variances."""

    pi0: float
    pi1: float
    pi2: float
    nu0: float
    nu1: float
    nu2: float
    tau1_sq: float
    tau2_sq: float

    def __post_init__(self):
        pis = (self.pi0, self.pi1, self.pi2)
        if any(not 0.0 <= w <= 1.0 for w in pis):
            raise ValueError(f"mixture weights must lie in [0, 1], got {pis}")
        if abs(sum(pis) - 1.0) > 1e-10:
            raise ValueError(f"mixture weights must sum to 1, got {sum(pis)!r}")
        if self.nu0 > 0.0:
            raise ValueError(f"spike location must be <= 0, got {self.nu0}")
        if self.tau1_sq <= 0.0 or self.tau2_sq <= 0.0:
            raise ValueError("component variances must be positive")

    def as_dict(self) -> dict:
        return {
            "pi0": self.pi0,
            "pi1": self.pi1,
            "pi2": self.pi2,
            "nu0": self.nu0,
            "nu1": self.nu1,
            "nu2": self.nu2,
            "tau1_sq": self.tau1_sq,
            "tau2_sq": self.tau2_sq,
        }

    def draw_means(self, rng: np.random.Generator, p: int) -> np.ndarray:
        """p independent draws of the standardized alpha from this prior.

        Draw order (documented for reproducibility): p uniform component
        labels, then p standard normals for the slab components.
        """
        u = rng.random(p)
        comp = (u >= self.pi0).astype(int) + (u >= self.pi0 + self.pi1).astype(int)
        normals = rng.standard_normal(p)
        return np.where(
            comp == 0,
            self.nu0,
            np.where(
                comp == 1,
                self.nu1 + np.sqrt(self.tau1_sq) * normals,
                self.nu2 + np.sqrt(self.tau2_sq) * normals,
            ),
        )


@dataclass(frozen=True)
class PooledMoments:
    """Cross-sectional moments of the de-factored statistics."""

    m1: float
    m2: float
    m3: float
    m4: float
    eta_sq_bar: float
    eta_4_bar: float


@dataclass(frozen=True)
class GridConfig:
    """Search grids: percentages for the small-|z| subset, spike locations,
    and component variances (the variance grid is crossed with itself)."""

    m_grid: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)
    nu0_grid: tuple[float, ...] = (-0.5, -0.4, -0.3, -0.2, -0.1, 0.0)
    tau_grid: tuple[float, ...] = tuple(np.round(np.arange(0.05, 0.3001, 0.01), 2))

    def __post_init__(self):
        if not self.m_grid or not self.nu0_grid or not self.tau_grid:
            raise ConfigError("all three grids must be nonempty")
        if any(not 0.0 < m <= 100.0 for m in self.m_grid):
            raise ConfigError("m grid values are percentages in (0, 100]")
        if any(v > 0.0 for v in self.nu0_grid):
            raise ConfigError("spike grid values must be <= 0")
        if any(t <= 0.0 for t in self.tau_grid):
            raise ConfigError("variance grid values must be positive")

    @property
    def n_points(self) -> int:
        return len(self.m_grid) * len(self.nu0_grid) * len(self.tau_grid) ** 2


@dataclass(eq=False)
class FitDiagnostics:
    """What the grid search saw: winning subset size, factor estimate,
    winning score, and one record per grid point."""

    m_pct: float
    v_hat: np.ndarray
    tv: float
    grid_trace: list[dict] = field(default_factory=list)


def lad_regress(z_subset: np.ndarray, c_subset: np.ndarray) -> np.ndarray:
    """Least-absolute-deviations fit of z on the loading columns, no intercept.

    Iteratively reweighted least squares with epsilon-smoothed weights
    (eps = 1e-6), stopping when the absolute-deviation objective moves by less
    than 1e-8 or after 200 iterations.
    """
    z = np.asarray(z_subset, dtype=float)
    c = np.asarray(c_subset, dtype=float)
    if c.ndim != 2:
        raise DataError("loading matrix must be 2-d")
    n, k = c.shape
    if z.shape != (n,):
        raise DataError("z and loading rows disagree")
    if n < k:
        raise DataError(f"LAD needs at least as many rows ({n}) as columns ({k})")
    if k == 0:
        return np.zeros(0)
    norms = np.linalg.norm(c, axis=0)
    if np.any(norms == 0.0):
        dead = int(np.argmax(norms == 0.0))
        raise DataError(f"loading column {dead} is identically zero")

    eps = 1e-6
    v = np.linalg.lstsq(c, z, rcond=None)[0]
    obj = float(np.abs(z - c @ v).sum())
    for _ in range(200):
        w = 1.0 / np.maximum(np.abs(z - c @ v), eps)
        sw = np.sqrt(w)
        v_new = np.linalg.lstsq(c * sw[:, None], z * sw, rcond=None)[0]
        obj_new = float(np.abs(z - c @ v_new).sum())
        if obj_new <= obj:
            v = v_new
        if abs(obj - obj_new) < 1e-8:
            obj = min(obj, obj_new)
            break
        obj = min(obj, obj_new)
    return v


def pooled_moments(h_hat: np.ndarray, eta_sq: np.ndarray) -> PooledMoments:
    """First four cross-sectional moments of h_hat, plus the pooled
    idiosyncratic shares the moment equations need."""
    h = np.asarray(h_hat, dtype=float)
    e = np.asarray(eta_sq, dtype=float)
    if h.size == 0:
        raise DataError("empty statistic vector")
    if h.shape != e.shape:
        raise DataError("h_hat and eta_sq must have matching shapes")
    return PooledMoments(
        m1=float(np.mean(h)),
        m2=float(np.mean(h**2)),
        m3=float(np.mean(h**3)),
        m4=float(np.mean(h**4)),
        eta_sq_bar=float(np.mean(e)),
        eta_4_bar=float(np.mean(e**2)),
    )


def forward_moments(
    pi1, pi2, u1, u2, tau1_sq, tau2_sq, eta_sq_bar, eta_4_bar
) -> tuple:
    """Evaluate the four pooled moment equations (broadcasts over arrays)."""
    a1 = tau1_sq + eta_sq_bar
    a2 = tau2_sq + eta_sq_bar
    u1s = u1 * u1
    u2s = u2 * u2
    m1 = pi1 * u1 + pi2 * u2
    m2 = pi1 * (u1s + tau1_sq) + pi2 * (u2s + tau2_sq) + eta_sq_bar
    m3 = pi1 * u1 * (u1s + 3.0 * a1) + pi2 * u2 * (u2s + 3.0 * a2)
    m4 = (
        pi1 * (u1s * u1s + 6.0 * a1 * u1s + 3.0 * a1 * a1)
        + pi2 * (u2s * u2s + 6.0 * a2 * u2s + 3.0 * a2 * a2)
        + 3.0 * eta_4_bar * (1.0 - pi1 - pi2)
    )
    return m1, m2, m3, m4


def _residuals(x: np.ndarray, tau1, tau2, targets, eta_bar, eta4_bar) -> np.ndarray:
    m1, m2, m3, m4 = forward_moments(
        x[:, 0], x[:, 1], x[:, 2], x[:, 3], tau1, tau2, eta_bar, eta4_bar
    )
    return np.stack([m1, m2, m3, m4], axis=1) - targets


def _jacobian(x: np.ndarray, tau1, tau2, eta_bar, eta4_bar) -> np.ndarray:
    pi1, pi2, u1, u2 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    a1 = tau1 + eta_bar
    a2 = tau2 + eta_bar
    u1s = u1 * u1
    u2s = u2 * u2
    J = np.empty((x.shape[0], 4, 4))
    J[:, 0, 0] = u1
    J[:, 0, 1] = u2
    J[:, 0, 2] = pi1
    J[:, 0, 3] = pi2
    J[:, 1, 0] = u1s + tau1
    J[:, 1, 1] = u2s + tau2
    J[:, 1, 2] = 2.0 * pi1 * u1
    J[:, 1, 3] = 2.0 * pi2 * u2
    J[:, 2, 0] = u1 * (u1s + 3.0 * a1)
    J[:, 2, 1] = u2 * (u2s + 3.0 * a2)
    J[:, 2, 2] = pi1 * (3.0 * u1s + 3.0 * a1)
    J[:, 2, 3] = pi2 * (3.0 * u2s + 3.0 * a2)
    J[:, 3, 0] = u1s * u1s + 6.0 * a1 * u1s + 3.0 * a1 * a1 - 3.0 * eta4_bar
    J[:, 3, 1] = u2s * u2s + 6.0 * a2 * u2s + 3.0 * a2 * a2 - 3.0 * eta4_bar
    J[:, 3, 2] = pi1 * (4.0 * u1s * u1 + 12.0 * a1 * u1)
    J[:, 3, 3] = pi2 * (4.0 * u2s * u2 + 12.0 * a2 * u2)
    return J


def _newton_starts(targets: np.ndarray) -> np.ndarray:
    """Eight deterministic starts built from sign/scale combinations of the
    first moment and the square root of the second."""
    m1 = float(targets[0])
    s = np.sqrt(max(float(targets[1]), 1e-4))
    u_starts = [
        (m1 - s, m1 + s),
        (m1 + s, m1 - s),
        (-s, s),
        (-2.0 * s, 2.0 * s),
        (-0.5 * s, 0.5 * s),
        (m1 - 2.0 * s, m1 + 0.5 * s),
        (-0.5, 1.0),
        (-1.0, 2.0),
    ]
    pi_starts = [
        (0.3, 0.3),
        (0.3, 0.3),
        (0.3, 0.3),
        (0.2, 0.2),
        (0.45, 0.45),
        (0.3, 0.3),
        (0.1, 0.1),
        (0.05, 0.05),
    ]
    out = np.empty((8, 4))
    for i, ((u1, u2), (p1, p2)) in enumerate(zip(u_starts, pi_starts)):
        if abs(u1 - u2) < 1e-3:
            u2 = u1 + 1e-3
        out[i] = (p1, p2, u1, u2)
    return out


def _solve_moment_batch(
    targets: np.ndarray,
    tau1_arr: np.ndarray,
    tau2_arr: np.ndarray,
    eta_bar: float,
    eta4_bar: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped multi-start Newton over (pi1, pi2, u1, u2) for many variance pairs.

    targets is (4,) (shared) and tau*_arr are (n,). Returns (feasible bool (n,),
    solutions (n, 4)); infeasible rows are NaN.
    """
    n = tau1_arr.shape[0]
    n_start = 8
    starts = _newton_starts(targets)
    X = np.repeat(starts[None, :, :], n, axis=0).reshape(n * n_start, 4)
    t1 = np.repeat(tau1_arr, n_start)
    t2 = np.repeat(tau2_arr, n_start)
    tgt = targets[None, :]

    R = _residuals(X, t1, t2, tgt, eta_bar, eta4_bar)
    rnorm = np.max(np.abs(R), axis=1)
    for _ in range(60):
        if np.all(rnorm < 1e-12):
            break
        J = _jacobian(X, t1, t2, eta_bar, eta4_bar)
        G = np.einsum("nij,nik->njk", J, J)
        ridge = 1e-12 * (1.0 + np.trace(G, axis1=1, axis2=2))
        G[:, np.arange(4), np.arange(4)] += ridge[:, None]
        g = np.einsum("nij,ni->nj", J, R)
        try:
            step = np.linalg.solve(G, g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        step = np.where(np.isfinite(step), step, 0.0)

        alpha = np.ones(n * n_start)
        accepted = rnorm < 1e-12  # already-converged rows keep their X
        X_next = X.copy()
        R_next = R.copy()
        rn_next = rnorm.copy()
        for _bt in range(30):
            work = ~accepted
            if not np.any(work):
                break
            Xc = X[work] - alpha[work, None] * step[work]
            Rc = _residuals(Xc, t1[work], t2[work], tgt, eta_bar, eta4_bar)
            rc = np.max(np.abs(Rc), axis=1)
            ok = rc < rnorm[work]
            ok = np.where(np.isfinite(rc), ok, False)
            idx = np.nonzero(work)[0]
            good = idx[ok]
            X_next[good] = Xc[ok]
            R_next[good] = Rc[ok]
            rn_next[good] = rc[ok]
            accepted[good] = True
            alpha[idx[~ok]] *= 0.5
        X, R, rnorm = X_next, R_next, rn_next

    pi1, pi2 = X[:, 0], X[:, 1]
    pi0 = 1.0 - pi1 - pi2
    # Components are identified by ordering their offsets (u1 <= u2); the
    # mirror root of an unordered solution lives at the transposed variance
    # pair, which the symmetric grid also visits, so nothing is lost.
    valid = (
        np.all(np.isfinite(X), axis=1)
        & (rnorm < _RESID_TOL)
        & (X[:, 2] <= X[:, 3])
        & (pi1 >= -_PI_SLACK)
        & (pi1 <= 1.0 + _PI_SLACK)
        & (pi2 >= -_PI_SLACK)
        & (pi2 <= 1.0 + _PI_SLACK)
        & (pi0 >= -_PI_SLACK)
        & (pi0 <= 1.0 + _PI_SLACK)
    )

    rnorm_sel = np.where(valid, rnorm, np.inf).reshape(n, n_start)
    best_start = np.argmin(rnorm_sel, axis=1)
    feasible = np.isfinite(rnorm_sel[np.arange(n), best_start])
    chosen = X.reshape(n, n_start, 4)[np.arange(n), best_start]
    chosen = np.where(feasible[:, None], chosen, np.nan)
    return feasible, chosen


def solve_moments(
    mom: PooledMoments, tau1_sq: float, tau2_sq: float
) -> tuple[float, float, float, float, float] | None:
    """Invert the pooled moment system for one variance pair.

    Returns (pi0, pi1, pi2, u1, u2) where u's are the component offsets from
    the spike, or None when no starting point converges to a valid solution.
    Components are reported in offset order (u1 <= u2), the usual mixture
    identifiability convention; the swapped labeling is the same model with
    the variance pair transposed.
    """
    if tau1_sq <= 0.0 or tau2_sq <= 0.0:
        raise DataError("component variances must be positive")
    targets = np.asarray([mom.m1, mom.m2, mom.m3, mom.m4], dtype=float)
    feasible, sols = _solve_moment_batch(
        targets,
        np.asarray([tau1_sq], dtype=float),
        np.asarray([tau2_sq], dtype=float),
        mom.eta_sq_bar,
        mom.eta_4_bar,
    )
    if not feasible[0]:
        return None
    pi1, pi2, u1, u2 = sols[0]
    pi0, pi1, pi2 = _clip_weights(1.0 - pi1 - pi2, pi1, pi2)
    return pi0, pi1, pi2, float(u1), float(u2)


def _clip_weights(pi0: float, pi1: float, pi2: float) -> tuple[float, float, float]:
    w = np.clip([pi0, pi1, pi2], 0.0, 1.0)
    w = w / w.sum()
    return float(w[0]), float(w[1]), float(w[2])


def simulate_z(params: MixtureParams, dep: DependenceModel, seed) -> np.ndarray:
    """One draw of the statistic vector under the fitted prior and dependence.

    Draw order (documented for reproducibility): component labels, component
    normals, the common-factor vector, the idiosyncratic vector.
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "simulate_z")
    p = dep.p
    mu = params.draw_means(rng, p)
    w = rng.standard_normal(dep.rank)
    xi = rng.standard_normal(p)
    return mu + dep.B @ w + np.sqrt(dep.lambda_p) * xi


def total_variation(z: np.ndarray, z_sim: np.ndarray) -> float:
    """Histogram total-variation distance with 0.1-wide bins spanning the
    pooled range of the two samples."""
    a = np.asarray(z, dtype=float)
    b = np.asarray(z_sim, dtype=float)
    if a.size == 0 or b.size == 0:
        raise DataError("total_variation needs nonempty samples")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    n_bins = max(int(np.ceil((hi - lo) / TV_BIN_WIDTH)), 1)
    edges = lo + TV_BIN_WIDTH * np.arange(n_bins + 1)
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    return float(min(0.5 * np.abs(pa / a.size - pb / b.size).sum(), 1.0))


def fit_mixture(
    z: np.ndarray,
    dep: DependenceModel,
    grids: GridConfig | None = None,
    seed: int = 0,
) -> tuple[MixtureParams, FitDiagnostics]:
    """Grid-search fit of the mixture prior to the statistic vector.

    Every grid point is visited in lexical order (m, nu0, tau1_sq, tau2_sq) and
    recorded in the trace; infeasible moment systems are skipped, feasible ones
    are scored by the average total-variation distance over `_TV_DRAWS` fresh
    simulations, and the minimizer wins with ties going to the earlier point.
    Deterministic for a fixed seed and grids: the simulation substream of a
    grid point depends only on (seed, its lexical index).
    """
    z = np.asarray(z, dtype=float)
    p = z.size
    if p < 50:
        raise DataError(f"mixture fit needs at least 50 funds, got {p}")
    if dep.p != p:
        raise DataError("dependence model and statistic vector disagree on p")
    if grids is None:
        grids = GridConfig()

    tau_pairs = [(t1, t2) for t1 in grids.tau_grid for t2 in grids.tau_grid]
    tau1_arr = np.asarray([t[0] for t in tau_pairs])
    tau2_arr = np.asarray([t[1] for t in tau_pairs])
    n_tau = len(tau_pairs)

    abs_sorted = np.sort(np.abs(z))
    eta_bar = float(np.mean(dep.eta_sq))
    eta4_bar = float(np.mean(dep.eta_sq**2))

    trace: list[dict] = []
    best_tv = np.inf
    best: tuple[MixtureParams, float, np.ndarray] | None = None

    for mi, m_pct in enumerate(grids.m_grid):
        cut = min(max(int(p * m_pct / 100.0), 1), p)
        threshold = abs_sorted[cut - 1]
        subset = np.abs(z) <= threshold
        lad_failed = None
        if dep.l > 0:
            try:
                v_hat = lad_regress(z[subset], dep.C[subset])
            except DataError as exc:
                lad_failed = str(exc)
                v_hat = np.zeros(dep.l)
            cv = dep.C @ v_hat
        else:
            v_hat = np.zeros(0)
            cv = np.zeros(p)
        if lad_failed is not None:
            warnings.warn(
                f"subset for m={m_pct}% cannot support the factor regression "
                f"({lad_failed}); marking its grid points infeasible",
                RuntimeWarning,
                stacklevel=2,
            )

        for ni, nu0 in enumerate(grids.nu0_grid):
            if lad_failed is not None:
                for t1, t2 in tau_pairs:
                    trace.append(
                        {"m": m_pct, "nu0": nu0, "tau1_sq": t1, "tau2_sq": t2,
                         "feasible": False, "tv": None}
                    )
                continue
            h_hat = z - cv - nu0
            mom = pooled_moments(h_hat, dep.eta_sq)
            targets = np.asarray([mom.m1, mom.m2, mom.m3, mom.m4])
            feasible, sols = _solve_moment_batch(
                targets, tau1_arr, tau2_arr, eta_bar, eta4_bar
            )
            cell_base = (mi * len(grids.nu0_grid) + ni) * n_tau
            for ti in range(n_tau):
                t1, t2 = tau_pairs[ti]
                rec = {"m": m_pct, "nu0": nu0, "tau1_sq": t1, "tau2_sq": t2,
                       "feasible": bool(feasible[ti]), "tv": None}
                if feasible[ti]:
                    pi1, pi2, u1, u2 = sols[ti]
                    pi0, pi1, pi2 = _clip_weights(1.0 - pi1 - pi2, pi1, pi2)
                    params = MixtureParams(
                        pi0=pi0, pi1=pi1, pi2=pi2,
                        nu0=float(nu0),
                        nu1=float(nu0 + u1),
                        nu2=float(nu0 + u2),
                        tau1_sq=float(t1), tau2_sq=float(t2),
                    )
                    rng = substream(seed, "fit_tv", cell_base + ti)
                    score = 0.0
                    for _ in range(_TV_DRAWS):
                        score += total_variation(z, simulate_z(params, dep, rng))
                    score /= _TV_DRAWS
                    rec["tv"] = score
                    if score < best_tv:
                        best_tv = score
                        best = (params, float(m_pct), v_hat.copy())
                trace.append(rec)

    if best is None:
        raise FitFailedError(
            f"no feasible grid point among {len(trace)} candidates", trace=trace
        )
    params, m_pct, v_hat = best
    diagnostics = FitDiagnostics(m_pct=m_pct, v_hat=v_hat, tv=best_tv, grid_trace=trace)
    return params, diagnostics
