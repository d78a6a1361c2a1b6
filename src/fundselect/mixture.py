"""Three-component mixture prior for the standardized alphas, fit by grid search.

The marginal model for each standardized alpha is

    mu_i ~ pi0 * delta(nu0) + pi1 * N(nu1, tau1_sq) + pi2 * N(nu2, tau2_sq)

with nu0 <= 0 (the spike holds the zero/weak-skill mass). `fit_mixture`
searches the grid (m, nu0, tau1_sq, tau2_sq) in three stages:

1. Candidates (`_grid_candidates`). For each percentage m of small-|z|
   funds the realized common factors are estimated by least absolute
   deviations of that subset on the factor loadings; for each (m, nu0) cell
   the de-factored, de-centered statistics give four pooled moments; one
   stacked variable-projection solve (`_solve_moment_batch`: the weights in
   closed form, Gauss-Newton on the two slab offsets) inverts every cell's
   moment system at every variance pair. The result is one flat table of
   candidate priors in lexical grid order, with a mask of the feasible ones.
2. Scores (`_score_candidates`). Each feasible candidate is scored by the
   composite likelihood of the de-factored statistics h = z - C v_hat: the
   mean negative log-likelihood under sum_c pi_c N(nu_c, tau_c + eta_i^2),
   tau_0 = 0, the law whose pooled moments the candidate solves.
3. Choice. The smallest score wins; ties go to the earlier grid point. Only
   the winner is simulated, for its `tv` diagnostic.

Fixed grids give the same fit whatever the seed, which moves only `tv`.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .dependence import DependenceModel
from .errors import ConfigError, DataError, FitFailedError
from .streams import substream

TV_BIN_WIDTH = 0.1
_TV_DRAWS = 5  # simulations averaged into the winner's `tv` diagnostic
_PI_SLACK = 1e-8
_RESID_TOL = 1e-8
_PI_FLOOR = 1e-3  # a slab whose solved weight is nearer zero than this is dead
_N_STARTS = 8  # offset starts per variance pair in each round (`_newton_starts`)
# A live row whose residual is still >= _RESID_TOL and has fallen by
# less than _STALL_DROP of itself over the last _STALL_WINDOW iterations stops.
_STALL_WINDOW = 10
_STALL_DROP = 1e-3
_SOLVE_ROWS = 8192  # rows (cell x variance pair x start) iterated together
# Step lengths 2**-j, j < 30, tried in order per Gauss-Newton step: 1 alone
# (most steps take it), then as many at once as keep a pass within
# _TRIAL_CELLS (row, length) pairs.
_STEP_LENGTHS = np.ldexp(1.0, -np.arange(30))
_TRIAL_CELLS = 4096
# One row per grid point of `FitDiagnostics.grid_trace`, score NaN where infeasible.
_TRACE_DTYPE = np.dtype([("m", float), ("nu0", float), ("tau1_sq", float), ("tau2_sq", float),
                         ("feasible", bool), ("score", float)])


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
        first = u < self.pi0 + self.pi1
        slab = (np.where(first, self.nu1, self.nu2)
                + np.where(first, np.sqrt(self.tau1_sq), np.sqrt(self.tau2_sq)) * normals)
        return np.where(u < self.pi0, self.nu0, slab)


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
    winning score, the winner's simulated TV, the grid trace (a `_TRACE_DTYPE`
    array, one row per grid point in lexical order) and how far the
    second-best score lies above the winning one (None with fewer than two
    feasible points)."""

    m_pct: float
    v_hat: np.ndarray
    score: float
    tv: float
    grid_trace: np.ndarray = field(default_factory=lambda: np.empty(0, _TRACE_DTYPE))
    runner_up_gap: float | None = None

    def surface(self) -> dict:
        """The fit record the output files write: the grid size, the feasible
        count, the winning score, the runner-up gap and the winner's TV."""
        return {"n_grid_points": len(self.grid_trace),
                "n_feasible": int(np.count_nonzero(self.grid_trace["feasible"])),
                "score": self.score, "runner_up_gap": self.runner_up_gap, "tv": self.tv}

    @staticmethod
    def refused_surface(trace: np.ndarray) -> dict:
        """The record of a fit refused with this trace: nothing feasible, no winner."""
        return {"n_grid_points": len(trace), "n_feasible": 0,
                "score": None, "runner_up_gap": None, "tv": None}


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


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the 4-vectors along the first axis, summed in order."""
    return np.add.reduce(x * y, axis=0)


def _lstsq2(a: np.ndarray, c: np.ndarray, y: np.ndarray):
    """Least-squares solution (x1, x2) of [a c] x = y (4-vectors along the
    first axis) through a Gram-Schmidt QR factor, c orthogonalized twice,
    and the factor (q1, q2, r11, r12, r22); a rank-deficient row gives NaN."""
    r11 = np.sqrt(_dot(a, a))
    q1 = a / r11
    r12 = _dot(q1, c)
    w = c - r12 * q1
    again = _dot(q1, w)
    w -= again * q1
    r12 += again
    r22 = np.sqrt(_dot(w, w))
    # what is left of c after the projection is rounding: rank-deficient
    r22 = np.where(r22 > 1e-13 * np.abs(r12), r22, np.nan)
    q2 = w / r22
    x2 = _dot(q2, y) / r22
    x1 = (_dot(q1, y) - r12 * x2) / r11
    return x1, x2, (q1, q2, r11, r12, r22)


def _slab_column(u, tau, eta_bar: float, eta4_bar: float, slope: bool = False) -> np.ndarray:
    """How a slab's weight enters the four moment equations at offset u --
    its column of the linear system A(u) pi = b, along the first axis; with
    slope=True the column's derivative in u instead."""
    a = tau + eta_bar
    us = u * u
    col = np.empty((4,) + np.shape(us))
    if slope:
        col[0], col[1], col[2], col[3] = 1.0, 2.0 * u, 3.0 * us + 3.0 * a, 4.0 * us * u + 12.0 * a * u
    else:
        col[0], col[1], col[2] = u, us + tau, u * (us + 3.0 * a)
        col[3] = us * us + 6.0 * a * us + 3.0 * a * a - 3.0 * eta4_bar
    return col


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _project(u1, u2, t1, t2, b, eta_bar: float, eta4_bar: float, step=False):
    """Variable projection at the offsets (u1, u2): the weights (pi1, pi2)
    that fit A(u) pi = b best in the 2-norm (b with the moments along the
    first axis) and the max-abs residual of A(u) pi - b. With step=True also
    the Gauss-Newton step (s1, s2) in the offsets on that residual, through
    the Golub-Pereyra Jacobian (the offsets move by minus the step). Silent
    on rank-deficient rows, whose values are not finite."""
    c1 = _slab_column(u1, t1, eta_bar, eta4_bar)
    c2 = _slab_column(u2, t2, eta_bar, eta4_bar)
    pi1, pi2, (q1, q2, r11, r12, r22) = _lstsq2(c1, c2, b)
    R = pi1 * c1 + pi2 * c2 - b
    rnorm = np.abs(R).max(axis=0)
    if not step:
        return pi1, pi2, rnorm
    # d r / d u_c = pi_c P_perp d_c - (d_c . r) (A^+)' e_c, with d_c the
    # derivative of column c and (A^+)' e_c = Q R^-T e_c from the factor.
    d1 = _slab_column(u1, t1, eta_bar, eta4_bar, slope=True)
    d2 = _slab_column(u2, t2, eta_bar, eta4_bar, slope=True)
    h11, h21, h12, h22 = _dot(q1, d1), _dot(q2, d1), _dot(q1, d2), _dot(q2, d2)
    g1, g2, ratio = _dot(d1, R) / r11, _dot(d2, R) / r22, r12 / r22
    j1 = pi1 * (d1 - h11 * q1 - h21 * q2) - g1 * (q1 - ratio * q2)
    j2 = pi2 * (d2 - h12 * q1 - h22 * q2) - g2 * q2
    s1, s2, _ = _lstsq2(j1, j2, R)
    return pi1, pi2, rnorm, s1, s2


def _newton_starts(targets: np.ndarray, wide: bool = False) -> np.ndarray:
    """`_N_STARTS` deterministic offset starts (u1, u2), one per row, built
    from the first moment m1 and s, the square root of the second: the base
    starts, or with wide=True the wide ones, which put one slab 2-5 s out in
    either tail."""
    m1 = float(targets[0])
    s = np.sqrt(max(float(targets[1]), 1e-4))
    if wide:
        starts = [(m1, m1 + 3.0 * s), (m1 - 3.0 * s, m1), (m1, m1 + 5.0 * s),
                  (m1 - 5.0 * s, m1), (-s, 4.0 * s), (-4.0 * s, s),
                  (m1 + 2.0 * s, m1 + 5.0 * s), (m1 - 5.0 * s, m1 - 2.0 * s)]
    else:
        starts = [(m1 - s, m1 + s), (m1 + s, m1 - s), (-s, s), (-2.0 * s, 2.0 * s),
                  (-0.5 * s, 0.5 * s), (m1 - 2.0 * s, m1 + 0.5 * s), (-0.5, 1.0), (-1.0, 2.0)]
    out = np.array(starts)
    close = np.abs(out[:, 0] - out[:, 1]) < 1e-3
    out[close, 1] = out[close, 0] + 1e-3
    return out


def _vp_rows(u1, u2, t1, t2, b, eta_bar: float, eta4_bar: float) -> np.ndarray:
    """The iteration of `_solve_moment_batch` on independent rows: offsets
    u1, u2, variances t1, t2 (all (N,)) and right-hand sides b (4, N).
    Returns the final (pi1, pi2, u1, u2) of every row as (N, 4)."""
    u1, u2 = u1.copy(), u2.copy()
    pi1, pi2, rnorm = _project(u1, u2, t1, t2, b, eta_bar, eta4_bar)
    live = np.nonzero(~(rnorm < 1e-12))[0]
    # window[it % _STALL_WINDOW] holds every row's residual before iteration it
    window = np.empty((_STALL_WINDOW, rnorm.size))
    for it in range(60):
        if live.size == 0:
            break
        window[it % _STALL_WINDOW] = rnorm
        u1_live, u2_live, rn_live = u1[live], u2[live], rnorm[live]
        t1_live, t2_live, b_live = t1[live], t2[live], b[:, live]
        s1, s2 = _project(u1_live, u2_live, t1_live, t2_live, b_live,
                          eta_bar, eta4_bar, step=True)[3:]
        fine = np.isfinite(s1) & np.isfinite(s2)
        s1, s2 = np.where(fine, s1, 0.0), np.where(fine, s2, 0.0)
        accepted = np.zeros(live.size, dtype=bool)
        work = np.arange(live.size)
        j = 0
        while work.size and j < _STEP_LENGTHS.size:
            alpha = _STEP_LENGTHS[j : j + (1 if j == 0 else max(_TRIAL_CELLS // work.size, 1))]
            j += alpha.size
            # (rows, lengths): every length of a row shares its taus and b
            u1c = u1_live[work, None] - alpha * s1[work, None]
            u2c = u2_live[work, None] - alpha * s2[work, None]
            p1c, p2c, rc = _project(u1c, u2c, t1_live[work, None], t2_live[work, None],
                                    b_live[:, work, None], eta_bar, eta4_bar)
            ok = (rc < rn_live[work, None]) & np.isfinite(rc)
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]  # the longest step that helps
            good = live[work[hit]]
            u1[good], u2[good] = u1c[hit, first], u2c[hit, first]
            pi1[good], pi2[good] = p1c[hit, first], p2c[hit, first]
            rnorm[good] = rc[hit, first]
            accepted[work[hit]] = True
            work = work[~hit]
        moved = live[accepted]
        live = moved[~(rnorm[moved] < 1e-12)]
        if it >= _STALL_WINDOW - 1:
            now, before = rnorm[live], window[(it + 1) % _STALL_WINDOW, live]
            live = live[~((now >= _RESID_TOL) & (before - now < _STALL_DROP * before))]
    return np.column_stack([pi1, pi2, u1, u2])


def _solve_moment_batch(
    targets: np.ndarray,
    tau1_arr: np.ndarray,
    tau2_arr: np.ndarray,
    eta_bar: float,
    eta4_bar: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-start variable-projection solve of the moment systems of many
    cells and variance pairs.

    targets is (c, 4), one row of moment targets per cell; tau*_arr are
    (n,), the variance pairs every cell solves. Returns (feasible bool
    (c, n), solutions (c, n, 4) as (pi1, pi2, u1, u2)); infeasible rows are
    NaN.

    The weights enter the moments linearly, A(u) pi = b with b the targets
    less the spike's own moments, so at fixed offsets u the best weights are
    a 4x2 least-squares solve (`_project`, through a QR factor: the normal
    equations lose the roots of heavy-tailed targets) and only u iterates.
    Every row (cell x variance pair x start) takes at most 60 Gauss-Newton
    steps in u with the Golub-Pereyra Jacobian, each scaled by the first of
    1, 1/2, ..., 2**-29 that lowers the max-abs residual (`_STEP_LENGTHS`).
    A row stops once it has converged (residual < 1e-12), once no length
    lowers its residual (a fixed point; a rank-deficient system, as at
    tau1 = tau2 with u1 = u2, gives a zero step and so stops only its own
    row), or once it creeps: its residual is still >= `_RESID_TOL` and fell
    by less than `_STALL_DROP` of itself in the last `_STALL_WINDOW` steps.

    Each pair runs the base starts of `_newton_starts`, and the wide ones
    only if the base starts give no valid root. A slab whose weight ends
    within `_PI_FLOOR` of zero is dropped: weight and offset 0, so no
    arbitrary offset enters the table, and the rest must fit without it. A
    root is valid when its max-abs moment residual (`forward_moments`) is
    below `_RESID_TOL`, its offsets are ordered (u1 <= u2; the mirror root
    lives at the transposed variance pair, which the symmetric grid also
    visits) and its weights lie in [0, 1] within `_PI_SLACK`; the one with
    the smallest residual wins, the earlier start on a tie. At most
    `_SOLVE_ROWS` rows are stacked at a time, and every operation acts row
    by row, so each result is bit-identical to the solve of its cell alone.
    """
    c, n = targets.shape[0], tau1_arr.shape[0]
    feasible = np.zeros(c * n, dtype=bool)
    chosen = np.full((c * n, 4), np.nan)
    b = (targets - np.array([0.0, eta_bar, 0.0, 3.0 * eta4_bar])).T
    starts = [np.array([_newton_starts(t, wide) for t in targets]).reshape(c, _N_STARTS, 2)
              for wide in (False, True)]
    chunk = max(_SOLVE_ROWS // _N_STARTS, 1)
    for lo in range(0, c * n, chunk):
        todo = np.arange(lo, min(lo + chunk, c * n))  # flat (cell, variance pair) indices
        for start in starts:
            cell, pair = np.divmod(todo, n)
            U = start[cell].reshape(-1, 2)
            rows_cell = np.repeat(cell, _N_STARTS)
            t1, t2 = np.repeat(tau1_arr[pair], _N_STARTS), np.repeat(tau2_arr[pair], _N_STARTS)
            X = _vp_rows(U[:, 0], U[:, 1], t1, t2, b[:, rows_cell], eta_bar, eta4_bar)
            dead = np.abs(X[:, :2]) < _PI_FLOOR
            X[:, :2][dead] = 0.0
            X[:, 2:][dead] = 0.0
            with np.errstate(invalid="ignore", over="ignore"):
                moments = np.column_stack(forward_moments(*X.T, t1, t2, eta_bar, eta4_bar))
                rnorm = np.max(np.abs(moments - targets[rows_cell]), axis=1)
            weights = np.column_stack([X[:, :2], 1.0 - X[:, 0] - X[:, 1]])
            valid = (np.all(np.isfinite(X), axis=1) & (rnorm < _RESID_TOL) & (X[:, 2] <= X[:, 3])
                     & np.all((weights >= -_PI_SLACK) & (weights <= 1.0 + _PI_SLACK), axis=1))
            rnorm_sel = np.where(valid, rnorm, np.inf).reshape(todo.size, _N_STARTS)
            best = np.argmin(rnorm_sel, axis=1)
            ok = np.isfinite(rnorm_sel[np.arange(todo.size), best])
            feasible[todo[ok]] = True
            chosen[todo[ok]] = X.reshape(todo.size, _N_STARTS, 4)[np.arange(todo.size), best][ok]
            todo = todo[~ok]
    return feasible.reshape(c, n), chosen.reshape(c, n, 4)


def solve_moments(
    mom: PooledMoments, tau1_sq: float, tau2_sq: float
) -> tuple[float, float, float, float, float] | None:
    """Invert the pooled moment system for one variance pair.

    Returns (pi0, pi1, pi2, u1, u2) where u's are the component offsets from
    the spike, or None when no start, base or wide, ends at a valid root
    (`_solve_moment_batch`): max-abs moment residual below 1e-8, weights in
    [0, 1] and offsets in order, once a slab lighter than `_PI_FLOOR` has
    been dropped (weight and offset 0). Components are reported in offset
    order (u1 <= u2), the usual mixture identifiability convention; the
    swapped labeling is the same model with the variance pair transposed.
    """
    if tau1_sq <= 0.0 or tau2_sq <= 0.0:
        raise DataError("component variances must be positive")
    targets = np.asarray([[mom.m1, mom.m2, mom.m3, mom.m4]], dtype=float)
    (feasible,), (sols,) = _solve_moment_batch(
        targets, np.asarray([tau1_sq], dtype=float), np.asarray([tau2_sq], dtype=float),
        mom.eta_sq_bar, mom.eta_4_bar,
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


def simulate_z(params: MixtureParams, dep: DependenceModel, seed) -> np.ndarray:
    """One draw of the statistic vector under the fitted prior and dependence.

    Draw order (documented for reproducibility): p uniform component labels,
    then 2p + rank standard normals -- the component normals, the
    common-factor vector, the idiosyncratic vector.
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "simulate_z")
    mu = params.draw_means(rng, dep.p)
    common = dep.B @ rng.standard_normal(dep.rank)
    return mu + common + np.sqrt(dep.lambda_p) * rng.standard_normal(dep.p)


def total_variation(z: np.ndarray, z_sim: np.ndarray) -> float:
    """Histogram total-variation distance with 0.1-wide bins spanning the
    pooled range of the two samples, which must be nonempty and finite."""
    a = np.asarray(z, dtype=float).ravel()
    b = np.asarray(z_sim, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise DataError("total_variation needs nonempty samples")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("total_variation needs finite samples")
    lo = min(a.min(), b.min())
    n_bins = max(int(np.ceil((max(a.max(), b.max()) - lo) / TV_BIN_WIDTH)), 1)
    edges = lo + TV_BIN_WIDTH * np.arange(n_bins + 1)
    pa = np.histogram(a, bins=edges)[0] / a.size
    pb = np.histogram(b, bins=edges)[0] / b.size
    return float(min(0.5 * np.abs(pa - pb).sum(), 1.0))


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


@np.errstate(divide="ignore", invalid="ignore")
def _score_candidates(z: np.ndarray, dep: DependenceModel, v_hats: list[np.ndarray],
                      rows: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """The score of each candidate row (module docstring, stage 2), NaN
    where it is infeasible. The spike, a point mass, has no density where
    eta_i^2 = 0. Rows are scored one at a time: a (rows, p) block per m
    would double the fit's peak memory."""
    eta_sq = dep.eta_sq
    hs = [z - dep.C @ v_hat for v_hat in v_hats]
    per_m = len(rows) // len(hs)
    scores = np.full(len(rows), np.nan)
    for j in np.flatnonzero(feasible).tolist():
        pi0, pi1, pi2, nu0, nu1, nu2, t1, t2 = rows[j].tolist()
        h = hs[j // per_m]
        logs = [np.log(pi) - 0.5 * (np.log(2.0 * np.pi * var) + (h - nu) ** 2 / var)
                for pi, nu, var in ((pi0, nu0, eta_sq), (pi1, nu1, t1 + eta_sq),
                                    (pi2, nu2, t2 + eta_sq))]
        logs[0][eta_sq == 0.0] = -np.inf
        top = np.maximum(np.maximum(logs[0], logs[1]), logs[2])
        top[top == -np.inf] = 0.0  # no component has density here: log f = -inf
        scores[j] = -np.mean(np.log(sum(np.exp(c - top) for c in logs)) + top)
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
    The trace holds every grid point's row in that order (`_TRACE_DTYPE`),
    built from the candidate table's columns. The winner and the trace do
    not depend on `seed`: it drives only `diag.tv`, the mean TV of the data
    against `_TV_DRAWS` `simulate_z` draws of the winner from substream
    (seed, "fit_tv"). Raises FitFailedError, with the trace, when no point
    is feasible.
    """
    z = np.asarray(z, dtype=float)
    if z.size < 50:
        raise DataError(f"mixture fit needs at least 50 funds, got {z.size}")
    if dep.p != z.size:
        raise DataError("dependence model and statistic vector disagree on p")
    if grids is None:
        grids = GridConfig()

    v_hats, rows, feasible = _grid_candidates(z, dep, grids)
    scores = _score_candidates(z, dep, v_hats, rows, feasible)
    trace = np.empty(len(rows), _TRACE_DTYPE)
    per_m = len(rows) // len(grids.m_grid)
    for name, column in zip(_TRACE_DTYPE.names, (
            np.repeat(np.asarray(grids.m_grid, dtype=float), per_m),
            rows[:, 3], rows[:, 6], rows[:, 7], feasible, scores)):
        trace[name] = column
    if not feasible.any():
        raise FitFailedError(
            f"no feasible grid point among {len(trace)} candidates", trace=trace
        )
    best = int(np.argmin(np.where(np.isnan(scores), np.inf, scores)))
    mi = best // per_m
    ranked = np.sort(scores[feasible])
    gap = float(ranked[1] - ranked[0]) if ranked.size > 1 else None
    winner = MixtureParams(*rows[best].tolist())
    rng = substream(seed, "fit_tv")
    tv = sum(total_variation(z, simulate_z(winner, dep, rng)) for _ in range(_TV_DRAWS)) / _TV_DRAWS
    diagnostics = FitDiagnostics(m_pct=float(grids.m_grid[mi]), v_hat=v_hats[mi],
                                 score=float(scores[best]), tv=tv, grid_trace=trace,
                                 runner_up_gap=gap)
    return winner, diagnostics
