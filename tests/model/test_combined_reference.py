"""Eq. 1's packed kernel against the per-resource sum, bit for bit.

``CombinedServiceTimeModel.predict`` evaluates its four fitted
regressors from packed tables.  The reference below is the loop it
replaced: each resource's ``PolynomialRegressor.predict`` on its own
column, weighted and added in ``RESOURCE_KINDS`` order (skipping zero
weights), divided by the weight total and floored at 1e-9.  Every
prediction must equal it byte for byte, for batches of every size the
control loop sends, whatever the input's memory layout, and through
``TrainedPredictor``'s capacity clip.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import NodeCapacity
from repro.cluster.resources import RESOURCE_KINDS
from repro.model.combined import CombinedServiceTimeModel
from repro.model.predictor import TrainedPredictor
from repro.service.component import ComponentClass

CAPACITY = NodeCapacity().vector.as_array()


def reference_predict(model, u):
    """Eq. 1 as the sum over the fitted one-resource regressors."""
    acc = np.zeros(u.shape[0])
    for kind in RESOURCE_KINDS:
        w = model.weights[kind]
        if w == 0.0:
            continue
        acc += w * model.regressors[kind].predict(u[:, kind.index])
    return np.maximum(acc / sum(model.weights.values()), 1e-9)


@st.composite
def _training(draw):
    """A profiling set; some columns (or all, or the times) constant."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 80))
    u = rng.uniform(0.0, 1.0, (n, 4)) * CAPACITY
    constant = draw(st.lists(st.integers(0, 3), max_size=4, unique=True))
    u[:, constant] = u[0, constant]
    slope = rng.uniform(0.0, 2.0, 4) / CAPACITY
    x = 0.005 * (1.0 + u @ slope + 0.3 * (u @ slope) ** 2)
    x *= rng.lognormal(0.0, draw(st.sampled_from([0.0, 0.02, 0.3])), n)
    if draw(st.booleans()):
        x[:] = x[0]
    return u, x


def _contention(draw, rng):
    """(n, 4) contention from below 0 to above capacity, in one of
    several memory layouts."""
    n = draw(
        st.one_of(
            st.sampled_from([0, 1, 2]),
            st.integers(3, 40),
            st.integers(1900, 2100),
        )
    )
    lo, hi = -0.5 * CAPACITY, 1.5 * CAPACITY
    layout = draw(st.sampled_from(["c", "fortran", "strided", "columns"]))
    if layout == "c":
        return rng.uniform(lo, hi, (n, 4))
    if layout == "fortran":
        return np.asfortranarray(rng.uniform(lo, hi, (n, 4)))
    if layout == "strided":
        big = np.full((2 * n, 8), np.nan)
        big[::2, ::2] = rng.uniform(lo, hi, (n, 4))
        return big[::2, ::2]
    wide = rng.uniform(0.0, 1.0, (n, 7))
    wide[:, 1:5] = rng.uniform(lo, hi, (n, 4))
    return wide[:, 1:5]


@settings(max_examples=300, deadline=None)
@given(training=_training(), data=st.data())
def test_packed_eq1_equals_the_per_resource_sum(training, data):
    u_train, x_train = training
    model = CombinedServiceTimeModel().fit(u_train, x_train)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = _contention(data.draw, rng)
    assert model.predict(u).tobytes() == reference_predict(model, u).tobytes()

    cls = ComponentClass.SEARCHING
    predictor = TrainedPredictor({cls: model}, {cls: 0.5})
    clipped = np.clip(u, 0.0, CAPACITY)
    assert (
        predictor.predict_mean_service(cls, u).tobytes()
        == reference_predict(model, clipped).tobytes()
    )
    if u.shape[0]:
        row = u[0]
        assert (
            predictor.predict_mean_service(cls, row).tobytes()
            == reference_predict(model, clipped[:1]).tobytes()
        )


def test_zero_weight_and_equal_weight_fallback():
    """A constant column gets weight 0 and drops out of the sum; an
    all-constant profile falls back to equal weights."""
    u = np.tile([0.5, 10.0, 50.0, 20.0], (10, 1))
    u[:, 0] = np.linspace(0.1, 0.9, 10)
    model = CombinedServiceTimeModel().fit(u, 0.004 * (1 + u[:, 0]))
    assert [model.weights[k] == 0.0 for k in RESOURCE_KINDS] == [
        False, True, True, True
    ]
    flat = CombinedServiceTimeModel().fit(
        np.tile([0.5, 10.0, 50.0, 20.0], (10, 1)), np.full(10, 0.006)
    )
    assert all(flat.weights[k] == 1.0 for k in RESOURCE_KINDS)
    for fitted in (model, flat):
        probe = np.array([[0.3, 12.0, 40.0, 25.0], [0.7, 5.0, 80.0, 10.0]])
        assert (
            fitted.predict(probe).tobytes()
            == reference_predict(fitted, probe).tobytes()
        )
