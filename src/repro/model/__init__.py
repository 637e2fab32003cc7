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

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "PolynomialRegressor": "regression",
        "CombinedServiceTimeModel": "combined",
        "mg1_latency": "queueing",
        "mg1_latency_array": "queueing",
        "mg1_waiting_time": "queueing",
        "utilisation": "queueing",
        "stage_latencies": "service_latency",
        "overall_latency": "service_latency",
        "LatencyPredictor": "predictor",
        "TrainedPredictor": "predictor",
        "OraclePredictor": "predictor",
        "MatrixInputs": "matrix",
        "PerformanceMatrix": "matrix",
        "TrainingSet": "training",
        "train_combined_model": "training",
        "mean_absolute_percentage_error": "training",
        "error_buckets": "training",
    },
)
