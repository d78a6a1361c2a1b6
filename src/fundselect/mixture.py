"""Three-component mixture prior for the standardized alphas, fit by grid search.

The marginal model for each standardized alpha is

    mu_i ~ pi0 * delta(nu0) + pi1 * N(nu1, tau1_sq) + pi2 * N(nu2, tau2_sq)

with nu0 <= 0 (the spike holds the zero/weak-skill mass). `fit_mixture`
searches the grid (m, nu0, tau1_sq, tau2_sq) in three stages:

1. Candidates (`_grid_candidates`). For each percentage m of small-|z|
   funds the realized common factors are estimated by least absolute
   deviations of that subset on the factor loadings; for each (m, nu0) cell
   the de-factored, de-centered statistics give four pooled moments; one
   stacked damped-Newton solve (`_solve_moment_batch`) inverts every cell's
   moment system at every variance pair. The result is one flat table of
   candidate priors in lexical grid order, with a mask of the feasible ones.
2. Scores (`_score_candidates`). Each feasible candidate is scored by the
   mean histogram total-variation distance between the data and `_TV_DRAWS`
   simulations from the candidate model, drawn from the candidate's own
   substream of the seed; candidates are simulated and binned in blocks of
   `_SCORE_CHUNK`, and each score equals, bit for bit, the score of the same
   candidate computed alone with `simulate_z` and `total_variation`.
3. Choice. The smallest score wins; ties go to the earlier grid point.

A fixed seed and grids give the same fit.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from .dependence import DependenceModel
from .errors import ConfigError, DataError, FitFailedError
from .streams import substream

TV_BIN_WIDTH = 0.1
_TV_DRAWS = 5  # simulations averaged into each candidate's score
_SCORE_CHUNK = 16  # feasible grid points simulated and binned together
_PI_SLACK = 1e-8
_RESID_TOL = 1e-8
_N_STARTS = 8  # Newton starts per variance pair (`_newton_starts`)
# A live Newton row whose residual is still >= _RESID_TOL and has fallen by
# less than _STALL_DROP of itself over the last _STALL_WINDOW iterations stops.
_STALL_WINDOW = 10
_STALL_DROP = 1e-3
_SOLVE_ROWS = 32768  # Newton rows (cell x variance pair x start) iterated together
# Step lengths 2**-j, j < 30, tried per Newton step: 1 alone (most steps
# take it), then the halvings four at a time.
_STEP_LENGTHS = [np.ones(1)] + [
    np.ldexp(1.0, -np.arange(j, min(j + 4, 30))) for j in range(1, 30, 4)
]


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
        return asdict(self)

    def draw_means(self, rng: np.random.Generator, p: int) -> np.ndarray:
        """p independent draws of the standardized alpha from this prior.

        Draw order (documented for reproducibility): p uniform component
        labels, then p standard normals for the slab components.
        """
        u = rng.random(p)
        normals = rng.standard_normal(p)
        return _mixture_means(np.array([astuple(self)]), u[None], normals[None])[0]


def _mixture_means(rows: np.ndarray, u: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Standardized alphas from uniforms and normals, both (k, p): row j
    draws under the parameters rows[j], MixtureParams' fields in order. A
    uniform picks the component (spike below pi0, then slab 1 below
    pi0 + pi1, else slab 2); a slab value is its mean plus its standard
    deviation times the normal."""
    pi0, pi1, _, nu0, nu1, nu2, tau1_sq, tau2_sq = rows.T[:, :, None]
    first = u < pi0 + pi1
    slab = np.where(first, nu1, nu2) + np.where(first, np.sqrt(tau1_sq), np.sqrt(tau2_sq)) * normals
    return np.where(u < pi0, nu0, slab)


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
    """Moment residuals of the points x (..., 4) = (pi1, pi2, u1, u2)."""
    m1, m2, m3, m4 = forward_moments(
        x[..., 0], x[..., 1], x[..., 2], x[..., 3], tau1, tau2, eta_bar, eta4_bar
    )
    return np.stack([m1, m2, m3, m4], axis=-1) - targets


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
    out = np.empty((_N_STARTS, 4))
    for i, ((u1, u2), (p1, p2)) in enumerate(zip(u_starts, pi_starts)):
        if abs(u1 - u2) < 1e-3:
            u2 = u1 + 1e-3
        out[i] = (p1, p2, u1, u2)
    return out


def _newton_steps(
    X: np.ndarray, R: np.ndarray, t1, t2, eta_bar: float, eta4_bar: float, cell: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ridged Gauss-Newton steps of the rows (X, R), and a mask of the rows
    whose cell holds a singular system. np.linalg.solve refuses a whole batch
    for one singular matrix, so after a refusal each cell is solved alone: a
    cell refused again gets no steps, every other cell gets the steps a
    batch of its rows alone gives."""
    J = _jacobian(X, t1, t2, eta_bar, eta4_bar)
    G = np.einsum("nij,nik->njk", J, J)
    ridge = 1e-12 * (1.0 + np.trace(G, axis1=1, axis2=2))
    G[:, np.arange(4), np.arange(4)] += ridge[:, None]
    g = np.einsum("nij,ni->nj", J, R)
    try:
        return np.linalg.solve(G, g[..., None])[..., 0], np.zeros(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(g)
    singular = np.zeros(len(g), dtype=bool)
    for c in np.unique(cell).tolist():
        mine = cell == c
        try:
            step[mine] = np.linalg.solve(G[mine], g[mine][..., None])[..., 0]
        except np.linalg.LinAlgError:
            singular[mine] = True
    return step, singular


def _newton_cells(
    targets: np.ndarray,
    tau1_arr: np.ndarray,
    tau2_arr: np.ndarray,
    eta_bar: float,
    eta4_bar: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The iteration of `_solve_moment_batch` for the cells of targets (k, 4)
    together: the final X and max-abs residual of every row, rows in
    (cell, variance pair, start) order. Each row carries its cell's target."""
    k, n = targets.shape[0], tau1_arr.shape[0]
    per_cell = n * _N_STARTS
    starts = np.stack([_newton_starts(t) for t in targets])
    X = np.repeat(starts[:, None], n, axis=1).reshape(k * per_cell, 4)
    t1 = np.tile(np.repeat(tau1_arr, _N_STARTS), k)
    t2 = np.tile(np.repeat(tau2_arr, _N_STARTS), k)
    tgt = np.repeat(targets, per_cell, axis=0)
    cell = np.repeat(np.arange(k), per_cell)

    R = _residuals(X, t1, t2, tgt, eta_bar, eta4_bar)
    rnorm = np.max(np.abs(R), axis=1)
    converged = rnorm < 1e-12
    live = np.nonzero(~converged)[0]
    unchecked = np.nonzero(converged)[0]  # converged, system not yet factored
    # window[it % _STALL_WINDOW] holds every row's residual before iteration it
    window = np.empty((_STALL_WINDOW, rnorm.size))
    for it in range(60):
        if live.size == 0:
            break
        window[it % _STALL_WINDOW] = rnorm
        # a cell without live rows has stopped: its converged rows are not
        # factored again
        running = np.zeros(k, dtype=bool)
        running[cell[live]] = True
        rows = np.concatenate([live, unchecked[running[cell[unchecked]]]])
        step, singular = _newton_steps(
            X[rows], R[rows], t1[rows], t2[rows], eta_bar, eta4_bar, cell[rows]
        )
        keep = ~singular[: live.size]  # a singular system stops its own cell
        live = live[keep]
        step = step[: keep.size][keep]
        step = np.where(np.isfinite(step), step, 0.0)

        X_live, rn_live = X[live], rnorm[live]
        t1_live, t2_live, tgt_live = t1[live], t2[live], tgt[live]
        accepted = np.zeros(live.size, dtype=bool)
        work = np.arange(live.size)
        for alpha in _STEP_LENGTHS:
            if work.size == 0:
                break
            # (rows, lengths, 4): every length of a row shares its taus and target
            Xc = X_live[work, None] - alpha[:, None] * step[work, None]
            Rc = _residuals(Xc, t1_live[work, None], t2_live[work, None],
                            tgt_live[work, None], eta_bar, eta4_bar)
            rc = np.max(np.abs(Rc), axis=2)
            ok = (rc < rn_live[work, None]) & np.isfinite(rc)
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]  # the longest step that helps
            good = live[work[hit]]
            X[good] = Xc[hit, first]
            R[good] = Rc[hit, first]
            rnorm[good] = rc[hit, first]
            accepted[work[hit]] = True
            work = work[~hit]
        moved = live[accepted]
        converged = rnorm[moved] < 1e-12
        unchecked = moved[converged]
        live = moved[~converged]
        if it >= _STALL_WINDOW - 1:
            now, before = rnorm[live], window[(it + 1) % _STALL_WINDOW, live]
            live = live[~((now >= _RESID_TOL) & (before - now < _STALL_DROP * before))]
    return X, rnorm


def _solve_moment_batch(
    targets: np.ndarray,
    tau1_arr: np.ndarray,
    tau2_arr: np.ndarray,
    eta_bar: float,
    eta4_bar: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped multi-start Newton over (pi1, pi2, u1, u2) for many cells and
    variance pairs.

    targets is (c, 4), one row of moment targets per cell, or (4,) for a
    single cell; tau*_arr are (n,), the variance pairs every cell solves.
    Returns (feasible bool (c, n), solutions (c, n, 4)), or (n,) and (n, 4)
    for 1-d targets; infeasible rows are NaN.

    Every row (cell x variance pair x start) takes at most 60 Gauss-Newton
    steps; a step is scaled by the first of 1, 1/2, ..., 2**-29 that lowers
    the max-abs residual, the length repeated halving from 1 accepts. The
    lengths are tried in a few blocks (`_STEP_LENGTHS`), one residual pass
    per block. The cells are stacked into one iteration, at most
    `_SOLVE_ROWS` rows at a time. Only live rows are worked on: a row leaves
    the active set once it has converged (residual < 1e-12), once none of
    the 30 lengths lowered its residual -- its X, and so its step and every
    length, would repeat unchanged, so it is a fixed point -- or once it
    creeps: its residual is still >= `_RESID_TOL` (not yet a root the fit
    accepts) and has fallen by less than `_STALL_DROP` of itself over the
    last `_STALL_WINDOW` iterations; it keeps its X and residual and its
    system is not factored again. A creeping row could still converge, so
    the rule can change a chosen root's last bits against running every row
    for 60 iterations; rows below `_RESID_TOL` never stop early, so a root
    that converges keeps its bits. The 4x4 systems of rows that
    just converged are factored once more while their cell has live rows,
    because a singular one ends the iteration for every row of its cell,
    exactly as when every row of the cell is solved on every iteration.
    Every operation acts row by row, so each cell's result is bit-identical
    to the full-batch iteration of that cell alone under the same rules.
    """
    cells = np.atleast_2d(targets)
    c, n = cells.shape[0], tau1_arr.shape[0]
    feasible = np.zeros((c, n), dtype=bool)
    chosen = np.full((c, n, 4), np.nan)
    block = max(_SOLVE_ROWS // (n * _N_STARTS), 1)
    for lo in range(0, c, block):
        hi = min(lo + block, c)
        X, rnorm = _newton_cells(cells[lo:hi], tau1_arr, tau2_arr, eta_bar, eta4_bar)
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
        pairs = (hi - lo) * n
        rnorm_sel = np.where(valid, rnorm, np.inf).reshape(pairs, _N_STARTS)
        best_start = np.argmin(rnorm_sel, axis=1)
        ok = np.isfinite(rnorm_sel[np.arange(pairs), best_start])
        sols = X.reshape(pairs, _N_STARTS, 4)[np.arange(pairs), best_start]
        feasible[lo:hi] = ok.reshape(hi - lo, n)
        chosen[lo:hi] = np.where(ok[:, None], sols, np.nan).reshape(hi - lo, n, 4)
    lead = targets.shape[:-1]
    return feasible.reshape(lead + (n,)), chosen.reshape(lead + (n, 4))


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
    pi0, pi1, pi2 = _clip_weights(sols[:, :2])[0].tolist()
    return pi0, pi1, pi2, float(sols[0, 2]), float(sols[0, 3])


def _clip_weights(pi12: np.ndarray) -> np.ndarray:
    """Rows (pi0, pi1, pi2) from rows (pi1, pi2): pi0 = 1 - pi1 - pi2, every
    weight clipped to [0, 1], then each row renormalized to sum to one."""
    w = np.clip(np.column_stack([1.0 - pi12[:, 0] - pi12[:, 1], pi12]), 0.0, 1.0)
    return w / w.sum(axis=1, keepdims=True)


def _simulate_rows(rows: np.ndarray, dep: DependenceModel, u: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Statistic vectors from uniforms u (k, p) and standard normals
    (k, 2p + rank), row j under rows[j]: each normals row holds the
    component normals, the common-factor vector and the idiosyncratic vector."""
    p, rank = dep.p, dep.rank
    mu = _mixture_means(rows, u, normals[:, :p])
    # One matrix-vector product per row: a single (k, rank) x (rank, p)
    # product sums in another order and changes the last bits.
    common = np.stack([dep.B @ w for w in normals[:, p : p + rank]])
    return mu + common + np.sqrt(dep.lambda_p) * normals[:, p + rank :]


def simulate_z(params: MixtureParams, dep: DependenceModel, seed) -> np.ndarray:
    """One draw of the statistic vector under the fitted prior and dependence.

    Draw order (documented for reproducibility): p uniform component labels,
    then 2p + rank standard normals -- the component normals, the
    common-factor vector, the idiosyncratic vector.
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "simulate_z")
    p = dep.p
    u = rng.random(p)
    normals = rng.standard_normal(2 * p + dep.rank)
    return _simulate_rows(np.array([astuple(params)]), dep, u[None], normals[None])[0]


def _bin_counts(x: np.ndarray, lo: np.ndarray, n_bins: np.ndarray) -> np.ndarray:
    """Row j of the result is ``np.histogram(x[j], edges)[0]`` with edges
    ``lo[j] + TV_BIN_WIDTH * arange(n_bins[j] + 1)``, zero-padded to the
    largest bin count. A value falls in the bin of the last edge at or below
    it, except that the last bin also holds its right edge; values past it
    are dropped. Requires x >= lo row by row."""
    lo = lo[:, None]
    n = n_bins[:, None]
    j = np.clip(np.floor((x - lo) / TV_BIN_WIDTH), 0, n)
    # The estimate can be one bin off where rounding puts a value next to an
    # edge; compare against the edges themselves until none is misplaced.
    while np.any(down := (j > 0) & (lo + TV_BIN_WIDTH * j > x)):
        j -= down
    while np.any(up := (j < n) & (lo + TV_BIN_WIDTH * (j + 1) <= x)):
        j += up
    keep = (j < n) | (x == lo + TV_BIN_WIDTH * n)
    width = int(n_bins.max())
    flat = np.arange(x.shape[0])[:, None] * width + np.minimum(j, n - 1).astype(np.int64)
    counts = np.bincount(flat[keep], minlength=x.shape[0] * width)
    return counts.reshape(x.shape[0], width)


def _sorted_bin_counts(a_sorted: np.ndarray, lo: np.ndarray, n_bins: np.ndarray) -> np.ndarray:
    """`_bin_counts` of the one sorted sample a_sorted against every row's
    edges, found by bisection as np.histogram finds them: bin k holds the
    values from edge k up to, not including, edge k + 1, and the last bin
    also its right edge. Columns past a row's own bins are zero."""
    rows = np.arange(lo.size)
    edges = lo[:, None] + TV_BIN_WIDTH * np.arange(int(n_bins.max()) + 1)
    below = np.searchsorted(a_sorted, edges, side="left")
    below[rows, n_bins] = np.searchsorted(a_sorted, edges[rows, n_bins], side="right")
    counts = np.diff(below, axis=1)
    counts[np.arange(counts.shape[1]) >= n_bins[:, None]] = 0
    return counts


def _tv_rows(a_sorted: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``total_variation(a_sorted, b[j])`` for every row of the 2-d b, in
    one pass; a_sorted must be sorted."""
    lo = np.minimum(a_sorted[0], b.min(axis=1))
    hi = np.maximum(a_sorted[-1], b.max(axis=1))
    n_bins = np.maximum(np.ceil((hi - lo) / TV_BIN_WIDTH).astype(np.int64), 1)
    pa = _sorted_bin_counts(a_sorted, lo, n_bins)
    pb = _bin_counts(b, lo, n_bins)
    diff = np.abs(pa / a_sorted.size - pb / b.shape[1])
    total = np.empty(b.shape[0])
    # Sum each row over exactly its own bins, as the 1-d sum would.
    for n in np.unique(n_bins).tolist():
        rows = n_bins == n
        total[rows] = diff[rows, :n].sum(axis=1)
    return np.minimum(0.5 * total, 1.0)


def total_variation(z: np.ndarray, z_sim: np.ndarray) -> float:
    """Histogram total-variation distance with 0.1-wide bins spanning the
    pooled range of the two samples, which must be nonempty and finite."""
    a = np.asarray(z, dtype=float).ravel()
    b = np.asarray(z_sim, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise DataError("total_variation needs nonempty samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("total_variation needs finite samples")
    return float(_tv_rows(np.sort(a), b[None])[0])


def _score_points(z_sorted: np.ndarray, dep: DependenceModel, rows: np.ndarray, rngs) -> np.ndarray:
    """Score of each candidate: the mean of `_TV_DRAWS` values of
    ``total_variation(z, simulate_z(MixtureParams(*rows[j]), dep, rngs[j]))``,
    drawn in turn from the candidate's own generator and summed in order;
    z_sorted is ``np.sort(z)``."""
    n_sim = len(rows) * _TV_DRAWS
    u = np.empty((n_sim, dep.p))
    normals = np.empty((n_sim, 2 * dep.p + dep.rank))
    for i in range(n_sim):
        rng = rngs[i // _TV_DRAWS]
        rng.random(out=u[i])
        rng.standard_normal(out=normals[i])
    z_sim = _simulate_rows(np.repeat(rows, _TV_DRAWS, axis=0), dep, u, normals)
    tv = _tv_rows(z_sorted, z_sim).reshape(len(rows), _TV_DRAWS)
    score = np.zeros(len(rows))
    for d in range(_TV_DRAWS):
        score += tv[:, d]
    return score / _TV_DRAWS


def _grid_candidates(
    z: np.ndarray, dep: DependenceModel, grids: GridConfig
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The candidate prior of every grid point, in lexical grid order.

    Returns the factor estimate v_hat of each m, the candidates as rows
    (cells x variance pairs, 8) in MixtureParams' field order, and the flat
    mask of the rows whose moment system has a valid root; other rows hold
    NaN. An m whose subset cannot support the factor regression warns and
    has no feasible row.
    """
    p = z.size
    taus = np.asarray(grids.tau_grid)
    tau1_arr, tau2_arr = np.repeat(taus, taus.size), np.tile(taus, taus.size)
    abs_sorted = np.sort(np.abs(z))
    n_nu0 = len(grids.nu0_grid)
    n_cells = len(grids.m_grid) * n_nu0

    v_hats = []
    targets = np.full((n_cells, 4), np.nan)
    solvable = np.zeros(n_cells, dtype=bool)
    for mi, m_pct in enumerate(grids.m_grid):
        cut = min(max(int(p * m_pct / 100.0), 1), p)
        subset = np.abs(z) <= abs_sorted[cut - 1]
        v_hat, cv = np.zeros(dep.l), np.zeros(p)
        if dep.l > 0:
            try:
                v_hat = lad_regress(z[subset], dep.C[subset])
            except DataError as exc:
                warnings.warn(
                    f"subset for m={m_pct}% cannot support the factor regression "
                    f"({exc}); marking its grid points infeasible",
                    RuntimeWarning,
                    stacklevel=3,  # the caller of fit_mixture
                )
                v_hats.append(v_hat)
                continue
            cv = dep.C @ v_hat
        v_hats.append(v_hat)
        for ni, nu0 in enumerate(grids.nu0_grid):
            mom = pooled_moments(z - cv - nu0, dep.eta_sq)
            targets[mi * n_nu0 + ni] = (mom.m1, mom.m2, mom.m3, mom.m4)
            solvable[mi * n_nu0 + ni] = True

    feasible = np.zeros((n_cells, tau1_arr.size), dtype=bool)
    sols = np.full((n_cells, tau1_arr.size, 4), np.nan)
    feasible[solvable], sols[solvable] = _solve_moment_batch(
        targets[solvable], tau1_arr, tau2_arr,
        float(np.mean(dep.eta_sq)), float(np.mean(dep.eta_sq**2)),
    )
    sols = sols.reshape(-1, 4)
    nu0 = np.repeat(np.tile(np.asarray(grids.nu0_grid, dtype=float), len(grids.m_grid)),
                    tau1_arr.size)
    rows = np.column_stack([_clip_weights(sols[:, :2]), nu0, nu0[:, None] + sols[:, 2:],
                            np.tile(tau1_arr, n_cells), np.tile(tau2_arr, n_cells)])
    return v_hats, rows, feasible.ravel()


def _score_candidates(
    z: np.ndarray, dep: DependenceModel, rows: np.ndarray, feasible: np.ndarray, seed
) -> np.ndarray:
    """The score of each candidate row, NaN where it is infeasible. Row i
    draws from substream (seed, "fit_tv", i); the feasible rows are scored
    in blocks of `_SCORE_CHUNK`, which may span cells."""
    z_sorted = np.sort(z)
    scores = np.full(len(rows), np.nan)
    order = np.flatnonzero(feasible)
    for start in range(0, order.size, _SCORE_CHUNK):
        chunk = order[start : start + _SCORE_CHUNK]
        rngs = [substream(seed, "fit_tv", i) for i in chunk.tolist()]
        scores[chunk] = _score_points(z_sorted, dep, rows[chunk], rngs)
    return scores


def fit_mixture(
    z: np.ndarray,
    dep: DependenceModel,
    grids: GridConfig | None = None,
    seed: int = 0,
) -> tuple[MixtureParams, FitDiagnostics]:
    """Grid-search fit of the mixture prior to the statistic vector.

    Builds every grid point's candidate (`_grid_candidates`), scores the
    feasible ones (`_score_candidates`) and keeps the smallest score, ties
    going to the earlier point in lexical order (m, nu0, tau1_sq, tau2_sq).
    The trace records every grid point in that order. Deterministic for a
    fixed seed and grids: a point's simulations depend only on (seed, its
    lexical index). Raises FitFailedError, with the trace, when no point is
    feasible.
    """
    z = np.asarray(z, dtype=float)
    if z.size < 50:
        raise DataError(f"mixture fit needs at least 50 funds, got {z.size}")
    if dep.p != z.size:
        raise DataError("dependence model and statistic vector disagree on p")
    if grids is None:
        grids = GridConfig()

    v_hats, rows, feasible = _grid_candidates(z, dep, grids)
    scores = _score_candidates(z, dep, rows, feasible, seed)
    points = itertools.product(grids.m_grid, grids.nu0_grid, grids.tau_grid, grids.tau_grid)
    trace = [
        {"m": m, "nu0": nu0, "tau1_sq": t1, "tau2_sq": t2, "feasible": ok,
         "tv": tv if ok else None}
        for (m, nu0, t1, t2), ok, tv in zip(points, feasible.tolist(), scores.tolist())
    ]
    if not feasible.any():
        raise FitFailedError(
            f"no feasible grid point among {len(trace)} candidates", trace=trace
        )
    best = int(np.argmin(np.where(feasible, scores, np.inf)))
    mi = best // (len(grids.nu0_grid) * len(grids.tau_grid) ** 2)
    diagnostics = FitDiagnostics(m_pct=float(grids.m_grid[mi]), v_hat=v_hats[mi],
                                 tv=trace[best]["tv"], grid_trace=trace)
    return MixtureParams(*rows[best].tolist()), diagnostics
