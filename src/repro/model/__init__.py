"""The performance predictor — the paper's §IV in full.

- :mod:`repro.model.regression` — per-resource regression models
  ``RG(U_sr)`` (step 1 of the basic model).
- :mod:`repro.model.combined` — the relevance-weighted combination
  ``RG_ST(U)`` of paper **Eq. 1** (step 2).
- :mod:`repro.model.queueing` — the M/G/1 expected latency of **Eq. 2**,
  scalar and vectorised.
- :mod:`repro.model.service_latency` — stage max / service sum of
  **Eqs. 3–4**.
- :mod:`repro.model.predictor` — per-class latency predictors gluing
  the above together (plus a ground-truth oracle for ablations).
- :mod:`repro.model.matrix` — the performance matrix ``L`` of **Eq. 5**
  with the Table III contention-update rules; a transparent reference
  implementation and a NumPy-vectorised fast path, tested equal.
- :mod:`repro.model.training` — training sets, fitting pipeline and the
  prediction-error metrics of Fig. 5.
"""

from repro.model.combined import CombinedServiceTimeModel
from repro.model.matrix import MatrixInputs, PerformanceMatrix
from repro.model.predictor import (
    LatencyPredictor,
    OraclePredictor,
    TrainedPredictor,
)
from repro.model.queueing import (
    mg1_latency,
    mg1_latency_array,
    mg1_waiting_time,
    utilisation,
)
from repro.model.regression import PolynomialRegressor
from repro.model.service_latency import overall_latency, stage_latencies
from repro.model.training import (
    TrainingSet,
    error_buckets,
    mean_absolute_percentage_error,
    train_combined_model,
)

__all__ = [
    "PolynomialRegressor",
    "CombinedServiceTimeModel",
    "mg1_latency",
    "mg1_latency_array",
    "mg1_waiting_time",
    "utilisation",
    "stage_latencies",
    "overall_latency",
    "LatencyPredictor",
    "TrainedPredictor",
    "OraclePredictor",
    "MatrixInputs",
    "PerformanceMatrix",
    "TrainingSet",
    "train_combined_model",
    "mean_absolute_percentage_error",
    "error_buckets",
]
