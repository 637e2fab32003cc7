"""Latency predictors: per-class service-time models + Eq. 2.

Two implementations of the same interface:

:class:`TrainedPredictor`
    what PCS actually runs — one :class:`CombinedServiceTimeModel`
    (Eq. 1) per component class, fitted from monitored profiling
    samples, plus a per-class SCV estimate for Eq. 2.

:class:`OraclePredictor`
    an ablation upper bound that reads the ground-truth interference
    model directly (perfect service-time knowledge); the gap between
    the two isolates how much scheduling quality prediction error
    costs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping

import numpy as np

from repro.errors import ModelError
from repro.interference.ground_truth import InterferenceModel
from repro.model.combined import CombinedServiceTimeModel
from repro.model.queueing import DEFAULT_RHO_MAX
from repro.service.component import Component, ComponentClass

__all__ = ["LatencyPredictor", "TrainedPredictor", "OraclePredictor"]


class LatencyPredictor(ABC):
    """Predicts service times and Eq. 2 latencies per component class."""

    rho_max: float = DEFAULT_RHO_MAX

    @abstractmethod
    def predict_mean_service(
        self, cls: ComponentClass, contention: np.ndarray
    ) -> np.ndarray:
        """Mean service time for ``(n, 4)`` contention vectors → ``(n,)``."""

    @abstractmethod
    def scv(self, cls: ComponentClass) -> float:
        """Squared coefficient of variation used in Eq. 2 for the class."""


class TrainedPredictor(LatencyPredictor):
    """The production predictor: Eq. 1 models fitted per class.

    Parameters
    ----------
    models:
        One fitted :class:`CombinedServiceTimeModel` per component
        class appearing in the service.
    scvs:
        Per-class service-time SCV estimates (from profiling; the
        paper derives mean and variance from the interval's predicted
        service times, §IV-B).
    rho_max:
        Saturation cap for Eq. 2 (see :mod:`repro.model.queueing`).
    """

    def __init__(
        self,
        models: Mapping[ComponentClass, CombinedServiceTimeModel],
        scvs: Mapping[ComponentClass, float],
        rho_max: float = DEFAULT_RHO_MAX,
        capacity=None,
    ) -> None:
        if not models:
            raise ModelError("TrainedPredictor needs at least one class model")
        for cls, model in models.items():
            if not model.is_fitted:
                raise ModelError(f"model for class {cls.value} is not fitted")
        missing = set(models) - set(scvs)
        if missing:
            raise ModelError(f"missing SCV estimates for {sorted(c.value for c in missing)}")
        for cls, scv in scvs.items():
            if scv < 0:
                raise ModelError(f"scv for {cls.value} must be >= 0, got {scv}")
        self.models: Dict[ComponentClass, CombinedServiceTimeModel] = dict(models)
        self._scvs = dict(scvs)
        self.rho_max = float(rho_max)
        # Contention can never physically exceed the node's saturation
        # levels, and the regression models never saw values beyond
        # them either — clip to stay inside the trained region instead
        # of extrapolating the polynomial (matches what a monitored
        # counter would report on saturated hardware).
        from repro.cluster.node import NodeCapacity

        self._cap = (capacity or NodeCapacity()).vector.as_array()

    def _model(self, cls: ComponentClass) -> CombinedServiceTimeModel:
        model = self.models.get(cls)
        if model is None:
            raise ModelError(f"no trained model for class {cls.value}")
        return model

    def predict_mean_service(self, cls, contention):
        u = np.clip(np.atleast_2d(contention), 0.0, self._cap)
        return self._model(cls).predict(u)

    def scv(self, cls: ComponentClass) -> float:
        return self._scvs[cls]


class OraclePredictor(LatencyPredictor):
    """Ground-truth predictor (ablation upper bound).

    Wraps the simulator's interference model: given a component class's
    base distribution, the true mean service time under contention ``U``
    is ``base_mean · f_cls(U)`` exactly.
    """

    def __init__(
        self,
        interference: InterferenceModel,
        representatives: Mapping[ComponentClass, Component],
        rho_max: float = DEFAULT_RHO_MAX,
    ) -> None:
        if not representatives:
            raise ModelError("OraclePredictor needs class representatives")
        self.interference = interference
        self.representatives = dict(representatives)
        self.rho_max = float(rho_max)

    def _rep(self, cls: ComponentClass) -> Component:
        rep = self.representatives.get(cls)
        if rep is None:
            raise ModelError(f"no representative for class {cls.value}")
        return rep

    def predict_mean_service(self, cls, contention):
        rep = self._rep(cls)
        u = np.atleast_2d(np.asarray(contention, dtype=np.float64))
        mean = self.interference.inflation_array(cls, u)
        mean *= rep.base_mean
        return mean

    def scv(self, cls: ComponentClass) -> float:
        return self._rep(cls).base_scv
