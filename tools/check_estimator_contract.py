"""Verify the robustness contract of every public estimator.

Usage:  python tools/check_estimator_contract.py

The contract (see docs/robustness.md):

1. every estimator class exported by the algorithm subpackages is
   default-constructible, has ``fit``, and supports ``get_params`` —
   the hook :class:`repro.robustness.RunGuard` uses for
   retry-with-reseed;
2. ``get_params`` round-trips through the constructor (cloning works);
3. loop-bound parameters (``max_iter``-style) default to positive
   integers, so every optimisation loop is bounded out of the box;
4. a data matrix containing NaN is rejected with a library error
   (:class:`repro.exceptions.MultiClustError`), never a raw NumPy /
   linear-algebra exception deep inside the optimiser;
5. (telemetry, see docs/observability.md) an estimator advertising
   ``n_iter_`` must, after a clean fit, expose a ``convergence_trace_``
   whose length equals ``n_iter_`` — one
   :class:`~repro.observability.ConvergenceEvent` per executed outer
   iteration, no more, no fewer;
6. (serialisation, see docs/serving.md) every estimator — across *all*
   fit families, including candidate-set and labeling-ensemble ones —
   must survive ``to_dict`` → strict-JSON text (no bare NaN/Infinity
   tokens) → ``from_dict`` with every fitted array bit-identical and,
   where ``predict`` exists, identical predictions from the rebuilt
   estimator;
7. (reserved for the metamorphic relations of ROADMAP item 4);
8. (cooperative budgets, see docs/robustness.md) an estimator
   advertising ``n_iter_`` must stop with
   :class:`~repro.exceptions.BudgetExceededError` when fitted under an
   iteration budget that is already spent — its outer loop calls
   :func:`~repro.robustness.budget_tick`, so ``RunGuard`` budgets can
   stop it in-process.

Exit status is the number of violations, so the script doubles as a CI
gate (``tests/test_robustness.py`` runs it inside the tier-1 suite).

The *static* half of the contract (fitted attributes computed in fit
only, get_params derivable) is lint rule ``RL007`` in ``repro.lint``;
this tool keeps the runtime half, which needs real fits. Both agree on
the estimator population through
:data:`repro.core.taxonomy.ESTIMATOR_PACKAGES`.
"""

from __future__ import annotations

import inspect
import pathlib
import sys
import warnings

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.taxonomy import ESTIMATOR_PACKAGES  # noqa: E402

BOUND_PARAMS = ("max_iter", "n_init", "max_sweeps", "max_clusterings",
                "n_solutions")

PACKAGES = list(ESTIMATOR_PACKAGES)


def iter_estimators():
    """Yield ``(qualified_name, class)`` for every exported estimator."""
    import importlib

    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            if inspect.isclass(obj) and hasattr(obj, "fit"):
                yield f"{pkg_name}.{name}", obj


def fit_family(cls):
    """First ``fit`` parameter name: X, views, candidates or labelings."""
    params = [p for p in inspect.signature(cls.fit).parameters
              if p != "self"]
    return params[0], params[1:]


def nan_fit_args(cls):
    """Arguments driving ``fit`` with a NaN-poisoned input, or ``None``
    when the family takes no raw data matrix (candidates/labelings)."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 4))
    X[3, 2] = np.nan
    first, rest = fit_family(cls)
    if first == "X":
        args = [X]
    elif first == "views":
        args = [[X, X.copy()]]
    else:
        return None
    if rest and rest[0] in ("given", "labels"):
        args.append(np.repeat([0, 1], 20))
    elif rest and rest[0] == "known":
        return None
    elif rest:
        # optional trailing args (e.g. StatPC's candidates) stay default
        pass
    return args


def clean_fit_args(cls):
    """Arguments driving a small *clean* fit, or ``None`` when the
    family takes no raw data matrix (candidates/labelings/known)."""
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(size=(20, 4)),
                        rng.normal(size=(20, 4)) + 4.0])
    first, rest = fit_family(cls)
    if cls.__name__ == "ConditionalInformationBottleneck":
        return [np.abs(X) + 0.1, np.repeat([0, 1], 20)]
    if first == "X":
        args = [X]
    elif first == "views":
        args = [[X, X.copy()]]
    else:
        return None
    if rest and rest[0] in ("given", "labels"):
        args.append(np.repeat([0, 1], 20))
    elif rest and rest[0] == "known":
        return None
    return args


def serialization_fit_args(cls):
    """Arguments driving a small clean fit for the serialisation check.

    Unlike :func:`clean_fit_args` this covers *every* family: subspace
    candidate sets, labeling ensembles, known-clusters arguments, and
    estimators that require non-negative data.
    """
    from repro.core.subspace import SubspaceCluster

    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(size=(20, 4)),
                        rng.normal(size=(20, 4)) + 4.0])
    given = np.repeat([0, 1], 20)
    candidates = [
        SubspaceCluster(range(0, 14), (0, 1), quality=0.9),
        SubspaceCluster(range(14, 28), (1, 2), quality=0.8),
        SubspaceCluster(range(0, 10), (0, 1), quality=0.7),
        SubspaceCluster(range(28, 40), (2, 3), quality=0.6),
    ]
    first, rest = fit_family(cls)
    if cls.__name__ == "ConditionalInformationBottleneck":
        return [np.abs(X) + 0.1, given]
    if first == "X":
        args = [X]
    elif first == "views":
        args = [[X, X.copy()]]
    elif first == "candidates":
        args = [candidates]
        if rest and rest[0] == "known":
            args.append([candidates[0]])
        return args
    elif first == "labelings":
        return [[given.copy(), np.arange(40) % 3]]
    else:
        return None
    if rest and rest[0] in ("given", "labels"):
        args.append(given)
    return args


def check_serialization(name, cls):
    """Contract item 6: fitted ``to_dict`` → strict JSON → ``from_dict``
    → identical fitted state and predictions."""
    import json

    from repro.io import dumps

    args = serialization_fit_args(cls)
    if args is None:
        return [f"{name}: no fit arguments for the serialisation check — "
                "teach serialization_fit_args about this fit family"]
    kwargs = {}
    if "random_state" in cls().get_params():
        kwargs["random_state"] = 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = cls(**kwargs)
            inst.fit(*args)
    except Exception as exc:  # noqa: BLE001
        return [f"{name}: clean fit failed during the serialisation "
                f"check ({exc!r})"]
    try:
        payload = inst.to_dict()
    except Exception as exc:  # noqa: BLE001
        return [f"{name}: to_dict failed on a fitted instance ({exc!r})"]
    try:
        text = dumps(payload)
    except (TypeError, ValueError) as exc:
        return [f"{name}: to_dict payload is not strict-JSON "
                f"serialisable ({exc!r})"]

    def reject_constant(token):
        raise ValueError(f"bare {token} token in serialised output")

    try:
        decoded = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:
        return [f"{name}: serialised text is not RFC JSON ({exc})"]
    try:
        rebuilt = cls.from_dict(decoded)
    except Exception as exc:  # noqa: BLE001
        return [f"{name}: from_dict failed on its own to_dict output "
                f"({exc!r})"]
    problems = []
    for attr, value in vars(inst).items():
        if not isinstance(value, np.ndarray):
            continue
        other = getattr(rebuilt, attr, None)
        equal_nan = value.dtype.kind == "f"
        if (not isinstance(other, np.ndarray)
                or not np.array_equal(value, other, equal_nan=equal_nan)):
            problems.append(f"{name}: fitted array {attr!r} does not "
                            "survive the to_dict/from_dict round-trip")
    if hasattr(inst, "predict") and isinstance(args[0], np.ndarray):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = np.asarray(inst.predict(args[0]))
                got = np.asarray(rebuilt.predict(args[0]))
        except Exception as exc:  # noqa: BLE001
            problems.append(f"{name}: predict failed after the "
                            f"round-trip ({exc!r})")
        else:
            if not np.array_equal(expected, got):
                problems.append(f"{name}: rebuilt estimator predicts "
                                "differently from the fitted original")
    return problems


def check_telemetry(name, cls):
    """Contract item 5: ``len(convergence_trace_) == n_iter_``."""
    inst = cls()
    if not hasattr(inst, "n_iter_"):
        return []
    args = clean_fit_args(cls)
    if args is None:
        return []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst.fit(*args)
    except Exception as exc:  # noqa: BLE001
        return [f"{name}: clean fit failed during the telemetry check "
                f"({exc!r})"]
    n_iter = inst.n_iter_
    trace = getattr(inst, "convergence_trace_", None)
    if n_iter is None:
        return [f"{name}: n_iter_ still None after a clean fit"]
    if trace is None:
        return [f"{name}: advertises n_iter_ but convergence_trace_ is "
                "None after a clean fit"]
    if len(trace) != n_iter:
        return [f"{name}: len(convergence_trace_) == {len(trace)} but "
                f"n_iter_ == {n_iter} — must emit exactly one event per "
                "executed iteration"]
    return []


def check_budget(name, cls):
    """Contract item 8: a spent iteration budget stops the fit."""
    from repro.robustness import RunGuard, active_budget

    if not hasattr(cls(), "n_iter_"):
        return []
    args = clean_fit_args(cls)
    if args is None:
        return []
    guard = RunGuard(max_ticks=1)
    with warnings.catch_warnings(), guard:
        warnings.simplefilter("ignore")
        active_budget().tick()  # spend the only tick before fitting
        cls().fit(*args)
    if guard.result.status == "ok":
        return [f"{name}: advertises n_iter_ but a spent budget did not "
                "stop its fit — call budget_tick once per outer iteration"]
    error = guard.result.failure.error_type
    if error != "BudgetExceededError":
        return [f"{name}: fit under a spent budget raised {error}, not "
                "BudgetExceededError"]
    return []


def check_estimator(name, cls):
    """Return a list of violation strings for one estimator class."""
    from repro.exceptions import MultiClustError

    problems = []
    try:
        inst = cls()
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        return [f"{name}: not default-constructible ({exc!r})"]

    if not callable(getattr(inst, "get_params", None)):
        problems.append(f"{name}: missing get_params (RunGuard cannot "
                        "clone/reseed it)")
        return problems

    params = inst.get_params()
    try:
        clone = cls(**params)
        if clone.get_params().keys() != params.keys():
            problems.append(f"{name}: get_params does not round-trip")
    except Exception as exc:  # noqa: BLE001
        problems.append(f"{name}: constructor rejects its own "
                        f"get_params ({exc!r})")

    for key in BOUND_PARAMS:
        if key in params:
            value = params[key]
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < 1):
                problems.append(
                    f"{name}: {key} default {value!r} is not a positive "
                    "integer — the optimisation loop is unbounded"
                )

    args = nan_fit_args(cls)
    if args is not None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cls().fit(*args)
            problems.append(f"{name}: silently accepts NaN input")
        except MultiClustError:
            pass
        except Exception as exc:  # noqa: BLE001
            problems.append(
                f"{name}: NaN input escapes as raw "
                f"{type(exc).__name__}: {exc}"
            )
    return problems


def main(argv=None):
    """Run the sweep; print violations; return their count."""
    del argv  # no options yet
    n_checked = 0
    violations = []
    for name, cls in iter_estimators():
        n_checked += 1
        violations.extend(check_estimator(name, cls))
        violations.extend(check_telemetry(name, cls))
        violations.extend(check_serialization(name, cls))
        violations.extend(check_budget(name, cls))
    for line in violations:
        print(f"VIOLATION: {line}")
    print(f"checked {n_checked} estimators, {len(violations)} violation(s)")
    return len(violations)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
