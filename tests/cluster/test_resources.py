"""Tests for ResourceVector algebra (the substrate of Table III)."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import MachineKind
from repro.cluster.node import Node
from repro.cluster.resources import RESOURCE_KINDS, ResourceKind, ResourceVector
from repro.errors import ConfigurationError

finite_nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
vectors = st.builds(
    ResourceVector,
    core=finite_nonneg,
    cache_mpki=finite_nonneg,
    disk_bw=finite_nonneg,
    net_bw=finite_nonneg,
)


class TestConstruction:
    def test_zero_vector(self):
        z = ResourceVector.zero()
        assert z.core == z.cache_mpki == z.disk_bw == z.net_bw == 0.0

    def test_field_order_matches_kind_index(self):
        v = ResourceVector(core=1.0, cache_mpki=2.0, disk_bw=3.0, net_bw=4.0)
        arr = v.as_array()
        for kind, expected in zip(RESOURCE_KINDS, [1.0, 2.0, 3.0, 4.0]):
            assert arr[kind.index] == expected
            assert v[kind] == expected

    def test_from_array_roundtrip(self):
        v = ResourceVector(0.5, 10.0, 50.0, 20.0)
        assert ResourceVector.from_array(v.as_array()) == v

    def test_from_array_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceVector.from_array([1.0, 2.0])

    def test_from_mapping_missing_keys_default_zero(self):
        v = ResourceVector.from_mapping({ResourceKind.CORE: 0.4})
        assert v.core == 0.4 and v.disk_bw == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceVector(core=-0.1)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceVector(core=float("nan"))

    def test_array_is_readonly(self):
        v = ResourceVector(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            v.as_array()[0] = 5.0


class TestAlgebra:
    @given(a=vectors, b=vectors)
    @settings(max_examples=100, deadline=None)
    def test_addition_componentwise(self, a, b):
        np.testing.assert_allclose(
            (a + b).as_array(), a.as_array() + b.as_array()
        )

    @given(a=vectors, b=vectors)
    @settings(max_examples=100, deadline=None)
    def test_minus_floors_at_zero(self, a, b):
        out = a.minus(b).as_array()
        assert np.all(out >= 0)
        np.testing.assert_allclose(out, np.maximum(a.as_array() - b.as_array(), 0))

    @given(a=vectors, b=vectors)
    @settings(max_examples=50, deadline=None)
    def test_add_then_minus_roundtrip(self, a, b):
        # Table III invariant: (U + U_ci) - U_ci == U.
        assert (a + b).minus(b).isclose(a, atol=1e-6)

    def test_scalar_multiplication(self):
        v = ResourceVector(1.0, 2.0, 3.0, 4.0)
        np.testing.assert_allclose((2 * v).as_array(), [2, 4, 6, 8])
        np.testing.assert_allclose((v * 0.5).as_array(), [0.5, 1, 1.5, 2])

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceVector(1.0, 1.0, 1.0, 1.0) * -1.0

    def test_clip_saturates_at_capacity(self):
        v = ResourceVector(2.0, 100.0, 500.0, 10.0)
        cap = ResourceVector(1.0, 60.0, 300.0, 125.0)
        clipped = v.clip(cap)
        np.testing.assert_allclose(clipped.as_array(), [1.0, 60.0, 300.0, 10.0])

    def test_sum_of_many(self):
        vs = [ResourceVector(core=0.1 * i) for i in range(5)]
        assert ResourceVector.sum(vs).core == pytest.approx(1.0)

    def test_empty_sum_is_zero(self):
        assert ResourceVector.sum([]) == ResourceVector.zero()


class TestOverflow:
    """A result that overflows to ``inf`` fails the finite check."""

    HUGE = np.finfo(np.float64).max

    def test_sum_overflow_rejected(self):
        v = ResourceVector(core=self.HUGE)
        with np.errstate(over="ignore"), pytest.raises(
            ConfigurationError, match="must be finite"
        ):
            v + v

    def test_scale_overflow_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(
            ConfigurationError, match="must be finite"
        ):
            ResourceVector(net_bw=self.HUGE) * 2.0

    def test_node_total_demand_overflow_rejected(self):
        class Job:
            name = "job"
            demand = ResourceVector(cache_mpki=self.HUGE)

        node = Node("n0", background=ResourceVector(cache_mpki=self.HUGE))
        node.host(Job(), MachineKind.BATCH)
        with np.errstate(over="ignore"), pytest.raises(
            ConfigurationError, match="must be finite"
        ):
            node.total_demand()


class TestEqualityHash:
    def test_equal_vectors_equal_hash(self):
        a = ResourceVector(0.3, 12.0, 40.0, 8.0)
        b = ResourceVector(0.3, 12.0, 40.0, 8.0)
        assert a == b and hash(a) == hash(b)

    def test_unequal(self):
        assert ResourceVector(core=0.1) != ResourceVector(core=0.2)

    def test_usable_in_sets(self):
        s = {ResourceVector.zero(), ResourceVector.zero(), ResourceVector(core=1.0)}
        assert len(s) == 2

    def test_norm_monotone(self):
        assert ResourceVector(core=2.0).norm() > ResourceVector(core=1.0).norm()

    def test_as_mapping_roundtrip(self):
        v = ResourceVector(0.5, 6.0, 70.0, 25.0)
        assert ResourceVector.from_mapping(v.as_mapping()) == v


class TestCopies:
    """A copied vector is as immutable as the original: its array stays
    read-only, so its hash cannot move under it."""

    @pytest.mark.parametrize(
        "copier",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copy_is_read_only_equal_and_same_hash(self, copier):
        v = ResourceVector(1.0, 2.0, 3.0, 4.0)
        c = copier(v)
        assert c is not v
        assert not c.as_array().flags.writeable
        with pytest.raises(ValueError):
            c.as_array()[0] = 9.0
        assert c == v and hash(c) == hash(v)
