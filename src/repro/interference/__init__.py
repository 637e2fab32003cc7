"""Ground-truth interference: how contention inflates service times.

On the authors' testbed this relationship is physical (cache misses,
bandwidth saturation); here it is an explicit model the *predictor never
sees* — the regressions of paper Eq. 1 must learn it from monitored
samples, exactly as they learn real hardware.  Keeping it explicit gives
the reproduction a controlled notion of "true" latency against which
prediction error (Fig. 5) is measured.

The names in ``__all__`` load on first access: importing the package
imports none of its submodules.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "InterferenceCoefficients": "ground_truth",
        "InterferenceModel": "ground_truth",
        "default_interference_model": "ground_truth",
    },
)
