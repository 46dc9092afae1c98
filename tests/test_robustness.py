"""Fault-tolerance layer: budgets, retries, degradation, fault injection.

Three layers under test:

* ``repro.robustness`` itself — RunBudget/RunGuard semantics, the fault
  injectors, and the simulated misbehaving estimators;
* the estimator population — every public estimator must survive every
  registered data fault *structurally* (clean success or a library
  ``MultiClustError``, never a raw NumPy/linear-algebra error), and the
  iterative optimisers must expose ``n_iter_`` and warn on
  non-convergence;
* the harness/CLI — ``run_experiments`` records failures instead of
  aborting, and ``python -m repro run`` reports a status summary with a
  nonzero exit code when anything failed.
"""

import importlib.util
import inspect
import pathlib
import warnings

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.cluster import (
    ConstrainedKMeans,
    FuzzyCMeans,
    GaussianMixtureEM,
    KernelKMeans,
    KMeans,
    KMedoids,
)
from repro.exceptions import (
    BudgetExceededError,
    ConvergenceWarning,
    FaultInjectedError,
    MultiClustError,
    ValidationError,
)
from repro.experiments import ResultTable, run_experiments, summarize_outcomes
from repro.robustness import (
    DATA_FAULTS,
    FlakyEstimator,
    RunBudget,
    RunGuard,
    StallingEstimator,
    active_budget,
    adversarial_cluster_count,
    budget_tick,
    faulty_variants,
    inject_duplicate_rows,
    inject_nan_cells,
)
from repro.originalspace import (
    ADCOAlternative,
    ConditionalInformationBottleneck,
    MinCEntropy,
)
from repro.transform import OrthogonalClustering

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
    "check_estimator_contract.py"
_spec = importlib.util.spec_from_file_location("check_estimator_contract",
                                               _TOOL)
contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract)


def _data(n=40, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[: n // 2] += 3.0
    return X


# ---------------------------------------------------------------------------
# budgets


def test_budget_tick_is_noop_without_guard():
    assert active_budget() is None
    budget_tick()  # must not raise


def test_run_budget_tick_allowance():
    budget = RunBudget(max_ticks=3)
    for _ in range(3):
        budget.tick()
    with pytest.raises(BudgetExceededError):
        budget.tick()


def test_run_budget_validates_inputs():
    with pytest.raises(ValidationError):
        RunBudget(max_seconds=0.0)
    with pytest.raises(ValidationError):
        RunBudget(max_ticks=0)


def test_guard_context_installs_budget():
    with RunGuard(max_ticks=100):
        assert active_budget() is not None
    assert active_budget() is None


def test_guard_budget_interrupts_stall():
    guard = RunGuard(max_seconds=0.05, label="stall")
    result = guard.fit(StallingEstimator(stall_seconds=30.0), _data())
    assert not result.ok
    assert result.failure.error_type == "BudgetExceededError"
    assert result.elapsed < 5.0  # interrupted, not the 30s safety valve
    assert result.failure.label == "stall"


def test_guard_tick_budget_caps_iterations():
    result = RunGuard(max_ticks=2).fit(
        KMeans(n_clusters=3, max_iter=500, n_init=1, random_state=0), _data()
    )
    assert not result.ok
    assert result.failure.error_type == "BudgetExceededError"


@pytest.mark.parametrize("factory", [
    lambda: ConditionalInformationBottleneck(random_state=0),
    lambda: ADCOAlternative(random_state=0),
    lambda: MinCEntropy(random_state=0),
], ids=["CIB", "ADCOAlternative", "MinCEntropy"])
def test_tick_budget_stops_alternative_local_search(factory):
    # every restart ticks at least once, so one tick cannot cover a fit
    X = np.abs(_data()) + 0.1
    result = RunGuard(max_ticks=1).fit(factory(), X, np.repeat([0, 1], 20))
    assert not result.ok
    assert result.failure.error_type == "BudgetExceededError"


def test_budget_clause_flags_an_estimator_that_never_ticks():
    class NoTicks:
        def __init__(self):
            self.n_iter_ = None

        def fit(self, X):
            self.n_iter_ = 1
            return self

    (violation,) = contract.check_budget("NoTicks", NoTicks)
    assert "budget_tick" in violation
    assert contract.check_budget("KMeans", KMeans) == []


# ---------------------------------------------------------------------------
# retries and failure records


def test_retry_with_reseed_recovers_flaky_fit():
    est = FlakyEstimator(n_failures=2, random_state=0)
    result = RunGuard(max_retries=2).fit(est, _data())
    assert result.ok
    assert result.attempts == 3
    assert result.value.random_state == 2
    assert result.unwrap() is result.value


def test_retries_exhausted_produce_failure():
    result = RunGuard(max_retries=1).fit(
        FlakyEstimator(n_failures=5, random_state=0), _data()
    )
    assert not result.ok
    assert result.attempts == 2
    assert result.failure.error_type == "FaultInjectedError"
    # unwrap raises a library type, not RuntimeError, so callers can
    # filter guarded-run failures with one except MultiClustError
    with pytest.raises(MultiClustError):
        result.unwrap()


def test_validation_error_is_never_retried():
    result = RunGuard(max_retries=3).fit(
        KMeans(n_clusters=3), np.full((10, 2), np.nan)
    )
    assert not result.ok
    assert result.attempts == 1
    assert result.failure.error_type == "ValidationError"
    assert result.failure.context["estimator"] == "KMeans"


def test_guard_as_context_manager_captures():
    with RunGuard(label="cm") as guard:
        raise FaultInjectedError("boom")
    assert not guard.result.ok
    assert guard.result.failure.error_type == "FaultInjectedError"
    assert "boom" in str(guard.result.failure)


def test_guard_as_decorator():
    @RunGuard()
    def answer():
        return 42

    assert answer().unwrap() == 42


def test_guard_run_plain_callable():
    result = RunGuard(label="r").run(lambda: "ok")
    assert result.ok and result.value == "ok"


# ---------------------------------------------------------------------------
# fault injectors


def test_inject_nan_cells_count():
    X = inject_nan_cells(_data(), n_cells=3, random_state=0)
    assert int(np.isnan(X).sum()) == 3


def test_inject_duplicate_rows_creates_duplicates():
    X = inject_duplicate_rows(_data(), fraction=0.5, random_state=0)
    assert np.unique(X, axis=0).shape[0] < X.shape[0]


def test_adversarial_cluster_count_exceeds_samples():
    X = _data(n=17)
    assert adversarial_cluster_count(X) == 18
    with pytest.raises(MultiClustError):
        KMeans(n_clusters=adversarial_cluster_count(X)).fit(X)


def test_faulty_variants_covers_registry():
    names = [name for name, _ in faulty_variants(_data())]
    assert names == list(DATA_FAULTS)


# ---------------------------------------------------------------------------
# every public estimator survives every data fault structurally

_ESTIMATORS = sorted(contract.iter_estimators(), key=lambda item: item[0])


@pytest.mark.parametrize("fault", list(DATA_FAULTS))
@pytest.mark.parametrize(
    "name,cls", _ESTIMATORS, ids=[n.rsplit(".", 1)[1] for n, _ in _ESTIMATORS]
)
def test_estimator_survives_data_fault(name, cls, fault):
    args = contract.nan_fit_args(cls)
    if args is None:
        pytest.skip("estimator does not take a raw data matrix")
    X = DATA_FAULTS[fault](_data())
    args = [X if isinstance(a, np.ndarray) and a.ndim == 2 else
            [X, X.copy()] if isinstance(a, list) else a for a in args]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cls().fit(*args)
    except MultiClustError:
        pass  # structured rejection is a pass


def test_contract_checker_tool_passes():
    assert contract.main([]) == 0


# ---------------------------------------------------------------------------
# convergence reporting of the iterative optimisers


@pytest.mark.parametrize("factory", [
    lambda: KMeans(n_clusters=3, max_iter=1, n_init=1, random_state=0),
    lambda: KMedoids(n_clusters=3, max_iter=1, random_state=0),
    lambda: GaussianMixtureEM(n_components=3, max_iter=1, n_init=1,
                              random_state=0),
    lambda: FuzzyCMeans(n_clusters=3, max_iter=1, random_state=0),
    lambda: ConstrainedKMeans(n_clusters=3, max_iter=1, n_init=1,
                              random_state=0),
])
def test_convergence_warning_on_iteration_cap(factory):
    X = _data(n=80, seed=3)
    with pytest.warns(ConvergenceWarning):
        est = factory().fit(X)
    assert est.n_iter_ == 1


@pytest.mark.parametrize("factory", [
    lambda: KMeans(n_clusters=2, random_state=0),
    lambda: KMedoids(n_clusters=2, random_state=0),
    lambda: GaussianMixtureEM(n_components=2, random_state=0),
    lambda: FuzzyCMeans(n_clusters=2, random_state=0),
    lambda: KernelKMeans(n_clusters=2, random_state=0),
    lambda: ConstrainedKMeans(n_clusters=2, random_state=0),
    lambda: OrthogonalClustering(n_clusters=2, max_clusterings=2,
                                 random_state=0),
])
def test_n_iter_exposed_after_clean_fit(factory):
    est = factory().fit(_data())
    assert isinstance(est.n_iter_, int)
    assert est.n_iter_ >= 1


def test_invalid_max_iter_rejected():
    with pytest.raises(ValidationError, match="max_iter"):
        KMeans(n_clusters=2, max_iter=0).fit(_data())
    with pytest.raises(ValidationError, match="KMeans"):
        KMeans(n_clusters=2, max_iter=2.5).fit(_data())


# ---------------------------------------------------------------------------
# fault-tolerant experiment harness


def _ok_experiment():
    table = ResultTable("ok", ["x"])
    table.add(x=1)
    return table


def _bad_experiment():
    raise RuntimeError("synthetic experiment failure")


def test_run_experiments_keep_going_records_failures():
    outcomes = run_experiments(
        {"GOOD": _ok_experiment, "BAD": _bad_experiment,
         "AFTER": _ok_experiment}
    )
    assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
    bad = outcomes[1]
    assert bad.failure.error_type == "RuntimeError"
    assert bad.failure.label == "BAD"
    assert outcomes[0].table.rows == [{"x": 1}]


def test_run_experiments_stops_without_keep_going():
    outcomes = run_experiments(
        {"GOOD": _ok_experiment, "BAD": _bad_experiment,
         "NEVER": _ok_experiment},
        keep_going=False,
    )
    assert [o.key for o in outcomes] == ["GOOD", "BAD"]


def test_run_experiments_fault_injection_and_callback():
    seen = []
    outcomes = run_experiments(
        {"A": _ok_experiment, "B": _ok_experiment},
        fail_keys={"B"},
        callback=lambda o: seen.append(o.key),
    )
    assert seen == ["A", "B"]
    assert outcomes[1].failure.error_type == "FaultInjectedError"


def test_summarize_outcomes_table():
    outcomes = run_experiments({"GOOD": _ok_experiment,
                                "BAD": _bad_experiment})
    table = summarize_outcomes(outcomes)
    assert table.column("status") == ["ok", "failed"]
    rendered = table.render()
    assert "RuntimeError" in rendered
    assert "experiment" in rendered


# ---------------------------------------------------------------------------
# CLI integration


def test_cli_run_single_ok(capsys):
    assert cli_main(["run", "f6"]) == 0
    out = capsys.readouterr().out
    assert "completed in" in out
    assert "run summary" not in out  # single success stays terse


def test_cli_unknown_experiment_suggests(capsys):
    assert cli_main(["run", "F66"]) == 2
    err = capsys.readouterr().err
    assert "did you mean F6" in err


def test_cli_injected_fault_reports_and_fails(capsys):
    assert cli_main(["run", "F6", "--inject-fault", "F6"]) == 1
    captured = capsys.readouterr()
    assert "run summary" in captured.out
    assert "failed" in captured.out
    assert "FaultInjectedError" in captured.out
    assert "1/1 experiment(s) failed" in captured.err


def test_cli_budget_flag_interrupts(capsys):
    # A tiny budget trips inside the slowest optimiser loop of F1; with
    # keep-going the sweep still ends with a summary and exit code 1.
    code = cli_main(["run", "F1", "--budget", "0.0001"])
    captured = capsys.readouterr()
    assert code == 1
    assert "BudgetExceededError" in captured.out
