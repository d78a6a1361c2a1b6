"""Tests for the synthetic-panel generators and the replication study harness."""

import argparse
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import fundselect.cli as cli
import fundselect.simlab as simlab
from fundselect.errors import ConfigError, DataError, FundselectError
from fundselect.mixture import GridConfig
from fundselect.panel import carhart_fit
from fundselect.simlab import (
    SimMetrics,
    SimSetting,
    epsilon_correlation,
    fdp_fnp,
    fgn_covariance,
    generate_panel,
    planted_panel,
    run_sim_study,
    true_mixture,
)
from fundselect.streams import substream


# ---------------------------------------------------------------------------
# configuration and ground-truth prior
# ---------------------------------------------------------------------------


def test_setting_validation():
    good = dict(p=60, sparsity="s1", dependence="d1", theta=0.1, reps=2, seed=0)
    SimSetting(**good)
    for bad in (
        dict(good, p=49),
        dict(good, sparsity="s3"),
        dict(good, dependence="iid"),
        dict(good, theta=1.0),
        dict(good, reps=0),
        dict(good, n_months=11),
    ):
        with pytest.raises(ConfigError):
            SimSetting(**bad)


def test_true_mixture_weights():
    dense_neg = true_mixture("s1")
    assert (dense_neg.pi0, dense_neg.pi1, dense_neg.pi2) == (0.1, 0.7, 0.2)
    dense_pos = true_mixture("s2")
    assert (dense_pos.pi0, dense_pos.pi1, dense_pos.pi2) == (0.1, 0.2, 0.7)
    for params in (dense_neg, dense_pos):
        assert (params.nu0, params.nu1, params.nu2) == (0.0, -0.5, 1.2)
        assert (params.tau1_sq, params.tau2_sq) == (0.1, 0.1)


# ---------------------------------------------------------------------------
# residual correlation designs
# ---------------------------------------------------------------------------


def test_zero_loadings_give_identity_correlation():
    """Without loadings a design's covariance is diagonal, and a diagonal
    covariance has the identity as its correlation."""
    cov = np.diag(np.linspace(0.5, 9.0, 12))
    np.testing.assert_array_equal(simlab._cov_to_corr(cov), np.eye(12))


def test_long_memory_base_has_unit_diagonal():
    m = fgn_covariance(25)
    np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-12)
    # covariances decay but stay positive under long memory
    assert m[0, 1] > m[0, 10] > 0.0


def test_power_decay_design_is_strongly_dependent():
    """Ten wide loading columns push the top eigenvalue well above 10."""
    for seed in (0, 1, 2):
        sigma = epsilon_correlation("d2", 100, np.random.default_rng(seed))
        assert float(np.linalg.eigvalsh(sigma)[-1]) > 10.0


def test_correlation_designs_are_valid_correlations():
    for kind in ("d1", "d2", "d3"):
        sigma = epsilon_correlation(kind, 60, np.random.default_rng(9))
        np.testing.assert_allclose(np.diag(sigma), 1.0, atol=1e-12)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert float(np.linalg.eigvalsh(sigma)[0]) > -1e-10
    with pytest.raises(ConfigError):
        epsilon_correlation("d4", 60, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# synthetic panel generator
# ---------------------------------------------------------------------------


def test_generate_panel_shapes_and_determinism():
    setting = SimSetting(p=60, sparsity="s1", dependence="d2", theta=0.1, reps=1, seed=5)
    panel, factors, mu = generate_panel(setting, substream(5, "rep", 0))
    assert panel.returns.shape == (120, 60)
    assert len(panel.fund_ids) == 60
    assert mu.shape == (60,)
    panel2, _, mu2 = generate_panel(setting, substream(5, "rep", 0))
    np.testing.assert_array_equal(panel.returns, panel2.returns)
    np.testing.assert_array_equal(mu, mu2)


def test_generate_panel_draws_mu_from_the_sparsity_mixture():
    """Across panels the spike fraction and the mean skill match the prior."""
    setting = SimSetting(p=200, sparsity="s1", dependence="d1", theta=0.1, reps=1, seed=8)
    draws = np.concatenate(
        [generate_panel(setting, substream(8, "rep", r))[2] for r in range(10)]
    )
    assert draws.size == 2000
    spike_frac = float(np.mean(draws == 0.0))
    assert 0.08 < spike_frac < 0.12  # pi0 = 0.1
    assert -0.16 < float(draws.mean()) < -0.06  # pi1*nu1 + pi2*nu2 = -0.11


def test_generated_panel_carries_the_planted_skill_into_z():
    """The regression pipeline recovers a z ordering aligned with true mu."""
    setting = SimSetting(p=150, sparsity="s1", dependence="d1", theta=0.1, reps=1, seed=77)
    panel, factors, mu = generate_panel(setting, substream(77, "rep", 0))
    estimates = carhart_fit(panel, factors)
    assert float(np.corrcoef(estimates.z, mu)[0, 1]) > 0.25


# ---------------------------------------------------------------------------
# planted return-scale panel
# ---------------------------------------------------------------------------


def test_planted_panel_marks_and_rewards_the_chosen_funds():
    panel, factors, mask = planted_panel(80, 120, 10, 0.005, seed=4)
    assert mask.sum() == 10
    estimates = carhart_fit(panel, factors)
    assert float(estimates.z[mask].mean()) > 4.0
    assert abs(float(estimates.z[~mask].mean())) < 1.0
    assert float(estimates.alpha_hat[mask].mean()) == pytest.approx(0.005, abs=0.001)
    assert abs(float(estimates.alpha_hat[~mask].mean())) < 5e-4


def test_planted_panel_zero_planted_and_determinism():
    panel, _, mask = planted_panel(50, 60, 0, 0.005, seed=9)
    assert mask.sum() == 0
    panel2, _, _ = planted_panel(50, 60, 0, 0.005, seed=9)
    np.testing.assert_array_equal(panel.returns, panel2.returns)
    with pytest.raises(ConfigError):
        planted_panel(50, 60, 51, 0.005, seed=9)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_fdp_fnp_by_hand():
    decisions = np.array([1, 1, 0, 0])
    mu = np.array([0.5, -0.2, 0.3, 0.0])
    fdp, fnp = fdp_fnp(decisions, mu)
    assert fdp == 0.5  # one of two selections has mu <= 0
    assert fnp == 0.5  # one of two unselected has mu > 0
    assert fdp_fnp(np.zeros(4), mu) == (0.0, 0.5)
    assert fdp_fnp(np.ones(4), mu) == (0.5, 0.0)


# ---------------------------------------------------------------------------
# study harness
# ---------------------------------------------------------------------------

STUDY_GRIDS = GridConfig(
    m_grid=(20.0, 40.0),
    nu0_grid=(-0.2, -0.1, 0.0),
    tau_grid=(0.05, 0.08, 0.10, 0.12, 0.15, 0.20, 0.25, 0.30),
)


def test_degenerate_level_selects_nothing():
    setting = SimSetting(p=50, sparsity="s2", dependence="d1", theta=0.0, reps=3, seed=1)
    out = run_sim_study(setting)
    for metrics in out.values():
        assert metrics.mean_fdp == 0.0
        assert metrics.mean_selected == 0.0
        assert metrics.selected == [0, 0, 0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("dependence", ["d1", "d2"])
def test_study_is_deterministic_and_worker_independent(dependence):
    """Same seed -> bitwise-equal metrics, even across process-pool workers
    that run BLAS on fewer threads than this process."""
    setting = SimSetting(p=120, sparsity="s1", dependence=dependence, theta=0.1, reps=2, seed=31)
    kwargs = dict(grids=STUDY_GRIDS, n_samples=500)
    first = run_sim_study(setting, **kwargs)
    second = run_sim_study(setting, **kwargs)
    parallel = run_sim_study(setting, workers=2, **kwargs)
    assert set(first) == {"dvalue", "bh", "storey"}
    for method in first:
        assert first[method].fdp == second[method].fdp == parallel[method].fdp
        assert first[method].fnp == second[method].fnp == parallel[method].fnp
        assert first[method].selected == second[method].selected == parallel[method].selected
        assert first[method].mean_fdp == parallel[method].mean_fdp
    # per-rep scores are proportions of counts
    for metrics in first.values():
        assert isinstance(metrics, SimMetrics)
        for fdp, fnp, k in zip(metrics.fdp, metrics.fnp, metrics.selected):
            assert 0.0 <= fdp <= 1.0 and 0.0 <= fnp <= 1.0
            assert 0 <= k <= setting.p
            assert fdp * max(k, 1) == pytest.approx(round(fdp * max(k, 1)), abs=1e-9)
            assert fnp * max(setting.p - k, 1) == pytest.approx(
                round(fnp * max(setting.p - k, 1)), abs=1e-9
            )


def _canned_rep(rep: int) -> dict:
    per = {"fdp": 0.25, "fnp": 0.1, "selected": 4}
    return {"rep": rep, "dvalue": dict(per), "bh": dict(per), "storey": dict(per)}


def _rep_reporting_blas_threads(args):
    """A canned replication whose selection count is the smallest thread
    count of the OpenBLAS libraries loaded in the process that ran it."""
    out = _canned_rep(args[1])
    out["dvalue"]["selected"] = min(get() for _, get in simlab._openblas_thread_controls())
    return out


@pytest.mark.parametrize("workers, reps, processes",
                         [(2, 2, 2), (8, 2, 2), (3, 6, 3), (8, 1, None)])
def test_pool_workers_run_one_blas_thread(monkeypatch, workers, reps, processes):
    """The pool starts min(workers, reps) processes, each of which runs
    OpenBLAS on one thread, whatever the core count; one replication runs in
    this process, on one thread too, and this process's thread counts come
    back afterwards."""
    controls = simlab._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for _, get in controls]
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(simlab, "usable_cores", lambda: 6)
    monkeypatch.setattr(simlab, "_run_one_rep", _rep_reporting_blas_threads)
    monkeypatch.setattr(simlab, "ProcessPoolExecutor", RecordingPool)
    setting = SimSetting(p=50, sparsity="s1", dependence="d1", theta=0.1, reps=reps, seed=2)
    out = run_sim_study(setting, workers=workers)
    assert sizes == ([] if processes is None else [processes])
    assert out["dvalue"].selected == [1] * reps
    assert [get() for _, get in controls] == before


def _rep_reporting_scipy_special(args):
    """A canned replication whose selection count is 1 when the process that
    ran it had scipy.special loaded before the replication started."""
    out = _canned_rep(args[1])
    out["dvalue"]["selected"] = int("scipy.special" in sys.modules)
    return out


@pytest.mark.parametrize("workers, theta, loaded", [(2, 0.1, 1), (1, 0.1, 0), (2, 0.0, 0)],
                         ids=["pool", "in-process", "no-dvalues"])
def test_forked_workers_inherit_scipy_special(monkeypatch, workers, theta, loaded):
    """With more than one worker and d-values to compute (theta > 0), the
    study imports scipy.special before the pool forks, so every worker finds
    it loaded; otherwise it imports nothing."""
    monkeypatch.delitem(sys.modules, "scipy.special", raising=False)
    monkeypatch.setattr(simlab, "_run_one_rep", _rep_reporting_scipy_special)
    setting = SimSetting(p=50, sparsity="s1", dependence="d1", theta=theta, reps=2, seed=2)
    assert run_sim_study(setting, workers=workers)["dvalue"].selected == [loaded] * 2


def _blas_threads(job):
    """The thread count of every OpenBLAS loaded in the process that runs it."""
    return [get() for _, get in simlab._openblas_thread_controls()]


def _failing_job(job):
    raise RuntimeError(f"job {job} failed")


def test_in_process_jobs_run_one_blas_thread_and_restore_the_callers():
    """With one worker, the jobs run in this process on one OpenBLAS thread,
    and the caller's two threads come back afterwards, also when a job
    raises."""
    controls = simlab._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for _, get in controls]
    try:
        for set_num_threads, _ in controls:
            set_num_threads(2)
        assert simlab.map_jobs(_blas_threads, [0, 1], workers=1) == [[1] * len(controls)] * 2
        assert [get() for _, get in controls] == [2] * len(controls)
        with pytest.raises(RuntimeError, match="job 0 failed"):
            simlab.map_jobs(_failing_job, [0], workers=1)
        assert [get() for _, get in controls] == [2] * len(controls)
    finally:
        for (set_num_threads, _), threads in zip(controls, before):
            set_num_threads(threads)


def test_thread_controls_cover_every_loaded_openblas():
    """One thread control per OpenBLAS library mapped into this process,
    SciPy's own included once scipy.special has loaded it."""
    import scipy.special  # noqa: F401  (loads SciPy's OpenBLAS, if it has one)

    try:
        with open("/proc/self/maps") as fh:
            libraries = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        pytest.skip("no /proc/self/maps on this platform")
    if not libraries:
        pytest.skip("no OpenBLAS loaded in this process")
    assert len(simlab._openblas_thread_controls()) == len(libraries)


def test_blas_limit_does_nothing_without_openblas(monkeypatch):
    """Without a thread control the limit changes no loaded library; it still
    sets OPENBLAS_NUM_THREADS for any OpenBLAS loaded later."""
    controls = simlab._openblas_thread_controls()
    before = [get() for _, get in controls]
    monkeypatch.setattr(simlab, "_openblas_thread_controls", lambda: [])
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # restored afterwards
    simlab._limit_blas_threads(max(before, default=1) + 1)
    assert [get() for _, get in controls] == before
    assert os.environ["OPENBLAS_NUM_THREADS"] == str(max(before, default=1) + 1)


def _blas_env(job):
    return os.environ.get("OPENBLAS_NUM_THREADS")


@pytest.mark.parametrize("caller", [None, "2"])
def test_in_process_jobs_restore_openblas_num_threads(monkeypatch, caller):
    """In-process jobs see OPENBLAS_NUM_THREADS=1, and the caller's value, or
    its absence, comes back afterwards, also when a job raises."""
    if caller is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
    assert simlab.map_jobs(_blas_env, [0, 1], workers=1) == ["1", "1"]
    assert os.environ.get("OPENBLAS_NUM_THREADS") == caller
    with pytest.raises(RuntimeError, match="job 0 failed"):
        simlab.map_jobs(_failing_job, [0], workers=1)
    assert os.environ.get("OPENBLAS_NUM_THREADS") == caller


def test_usable_cores_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert simlab.usable_cores() == 3
    assert cli._workers(argparse.Namespace(workers=0)) == 3
    assert cli._workers(argparse.Namespace(workers=5)) == 5
    monkeypatch.delattr(os, "sched_getaffinity")
    assert simlab.usable_cores() == 64


def test_study_drops_scarce_failures_with_a_warning(monkeypatch):
    def flaky(args):
        setting, rep = args[0], args[1]
        if rep == 0:
            raise FundselectError("synthetic failure")
        return _canned_rep(rep)

    monkeypatch.setattr(simlab, "_run_one_rep", flaky)
    setting = SimSetting(p=50, sparsity="s1", dependence="d1", theta=0.1, reps=20, seed=2)
    with pytest.warns(RuntimeWarning, match="dropped 1 failed replication"):
        out = run_sim_study(setting)
    assert len(out["dvalue"].fdp) == 19
    assert out["dvalue"].mean_fdp == pytest.approx(0.25)
    assert out["bh"].mean_selected == pytest.approx(4.0)


def test_study_fails_loudly_when_too_many_reps_fail(monkeypatch):
    def broken(args):
        raise FundselectError("synthetic failure")

    monkeypatch.setattr(simlab, "_run_one_rep", broken)
    setting = SimSetting(p=50, sparsity="s1", dependence="d1", theta=0.1, reps=5, seed=2)
    with pytest.raises(DataError, match="replications failed"):
        run_sim_study(setting)


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("Singular matrix"),
                                   ValueError("array must not contain infs or NaNs")],
                         ids=["linalg", "value"])
def test_study_counts_a_crashed_fit_as_a_failed_replication(monkeypatch, error):
    """A numerical crash in one replication's fit drops that replication with
    the usual warning; in two of two replications it is the usual DataError."""
    calls = []

    def crash_in_rep_3(z, dep, grids=None, seed=0):
        calls.append(seed)
        if len(calls) == 4:
            raise error
        return true_mixture("s1"), None

    monkeypatch.setattr(simlab, "fit_mixture", crash_in_rep_3)
    setting = SimSetting(p=50, sparsity="s1", dependence="d1", theta=0.1, reps=11, seed=2)
    with pytest.warns(RuntimeWarning, match=r"dropped 1 failed replication\(s\): 3$"):
        out = run_sim_study(setting, n_samples=100)
    assert len(out["dvalue"].fdp) == 10

    def always_crash(z, dep, grids=None, seed=0):
        raise error

    monkeypatch.setattr(simlab, "fit_mixture", always_crash)
    setting = SimSetting(p=50, sparsity="s1", dependence="d1", theta=0.1, reps=2, seed=2)
    with pytest.raises(DataError, match="2/2 replications failed; first failure "
                                        + re.escape(f"(rep 0): {error}")):
        run_sim_study(setting, n_samples=100)
