"""Estimator base classes.

Three estimator shapes cover the whole tutorial:

* :class:`BaseClusterer` — one data matrix in, one labeling out
  (traditional clustering; slide 3);
* :class:`AlternativeClusterer` — takes a *given* clustering and produces
  one dissimilar alternative (slide 30);
* :class:`MultiClusteringEstimator` — produces several clusterings at
  once (slide 39) or over given views.

All follow ``fit(X) -> self`` with results exposed as trailing-underscore
attributes, and support ``get_params``/``set_params`` for harness sweeps.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from .clustering import Clustering
from ..exceptions import ValidationError
from ..utils.validation import check_array, check_is_fitted

__all__ = [
    "ParamsMixin",
    "BaseClusterer",
    "AlternativeClusterer",
    "MultiClusteringEstimator",
]


@functools.lru_cache(maxsize=None)
def _init_param_names(cls):
    """Constructor parameter names of ``cls``, introspected once per
    class (a subclass that overrides ``__init__`` is its own key)."""
    sig = inspect.signature(cls.__init__)
    return tuple(
        name
        for name, p in sig.parameters.items()
        if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    )


class ParamsMixin:
    """``get_params``/``set_params`` driven by the ``__init__`` signature."""

    @classmethod
    def _param_names(cls):
        return list(_init_param_names(cls))

    def get_params(self):
        """Constructor parameters as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set constructor parameters; unknown names raise."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValidationError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def to_dict(self):
        """Serialise this estimator (params + fitted state) to a
        strict-JSON-compatible dict; see :func:`repro.io.estimator_to_dict`.
        """
        from ..io import estimator_to_dict

        return estimator_to_dict(self)

    @classmethod
    def from_dict(cls, payload):
        """Rebuild an estimator serialised by :meth:`to_dict`.

        Called on a base or concrete class; the payload names the real
        class, which must be ``cls`` or a subclass of it.
        """
        from ..io import estimator_from_dict

        estimator = estimator_from_dict(payload)
        if not isinstance(estimator, cls):
            raise ValidationError(
                f"payload decodes to {type(estimator).__name__}, "
                f"not a {cls.__name__}")
        return estimator

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"

    def _check_array(self, X, *, n_features=None, **kwargs):
        """:func:`check_array` with this estimator's name in messages.

        Every ``fit`` validates through this so harness logs attribute a
        rejected input to the estimator that rejected it. ``predict``
        passes ``n_features``, the column count of the fitted data.
        """
        kwargs.setdefault("estimator", type(self).__name__)
        X = check_array(X, **kwargs)
        if n_features is not None and X.shape[1] != n_features:
            raise ValidationError(
                f"{kwargs['estimator']}: X has {X.shape[1]} features, but "
                f"the model was fitted on {n_features}"
            )
        return X


class BaseClusterer(ParamsMixin):
    """A traditional clusterer: ``fit`` sets ``labels_``."""

    labels_ = None

    def fit(self, X):  # pragma: no cover - abstract
        raise NotImplementedError

    def fit_predict(self, X):
        """Fit and return the label vector."""
        return self.fit(X).labels_

    @property
    def clustering_(self):
        """Fitted result wrapped as a :class:`Clustering`."""
        check_is_fitted(self, "labels_")
        return Clustering(self.labels_, name=type(self).__name__)


class AlternativeClusterer(ParamsMixin):
    """Finds one clustering dissimilar to given knowledge.

    ``fit(X, given)`` sets ``labels_`` (the alternative). ``given`` may be
    a label vector, a :class:`Clustering`, or — for algorithms that accept
    several negatives (e.g. minCEntropy⁺) — a list of them.
    """

    labels_ = None

    @staticmethod
    def _given_labels(given):
        """Normalise given knowledge to a list of label arrays.

        Accepts a label vector (any 1-d array-like of ints), a
        :class:`Clustering`, or a list/tuple of either. A flat list of
        scalars is one labeling, not many.
        """
        if given is None:
            raise ValidationError("this algorithm requires a given clustering")
        if isinstance(given, Clustering):
            return [np.asarray(given.labels)]
        if isinstance(given, (list, tuple)):
            if given and all(np.isscalar(g) for g in given):
                return [np.asarray(given)]
            items = list(given)
        else:
            items = [given]
        out = []
        for g in items:
            if isinstance(g, Clustering):
                out.append(np.asarray(g.labels))
            else:
                out.append(np.asarray(g))
        if not out:
            raise ValidationError("given must contain at least one clustering")
        return out

    def fit(self, X, given):  # pragma: no cover - abstract
        raise NotImplementedError

    def fit_predict(self, X, given):
        """Fit and return the alternative label vector."""
        return self.fit(X, given).labels_

    @property
    def clustering_(self):
        check_is_fitted(self, "labels_")
        return Clustering(self.labels_, name=type(self).__name__)


class MultiClusteringEstimator(ParamsMixin):
    """Produces multiple clusterings: ``fit`` sets ``labelings_`` (list of
    label vectors, one per solution)."""

    labelings_ = None

    def fit(self, X):  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def clusterings_(self):
        """Fitted solutions as :class:`Clustering` objects."""
        check_is_fitted(self, "labelings_")
        return [
            Clustering(lab, name=f"{type(self).__name__}[{i}]")
            for i, lab in enumerate(self.labelings_)
        ]

    @property
    def n_clusterings_(self):
        check_is_fitted(self, "labelings_")
        return len(self.labelings_)
