"""Tests for OnlineService, deployment, and the Nutch factory."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeCapacity
from repro.errors import TopologyError
from repro.service.component import ComponentClass
from repro.service.nutch import NutchConfig, build_nutch_service
from repro.units import ms


@pytest.fixture
def service():
    return build_nutch_service()


class TestNutchTopology:
    def test_three_stages_in_paper_order(self, service):
        names = [s.name for s in service.topology.stages]
        assert names == ["segmenting", "searching", "aggregating"]

    def test_default_100_searching_components(self, service):
        searching = service.topology.stage("searching").components
        assert len(searching) == 100  # paper §VI-C: "100 VMs"
        assert all(c.cls is ComponentClass.SEARCHING for c in searching)

    def test_search_stage_shape(self, service):
        stage = service.topology.stage("searching")
        assert stage.n_groups == 20
        assert all(g.n_replicas == 5 for g in stage.groups)

    def test_total_components(self, service):
        assert service.n_components == 4 + 100 + 4

    def test_custom_config(self):
        svc = build_nutch_service(
            NutchConfig(n_search_groups=3, replicas_per_group=2)
        )
        assert len(svc.topology.stage("searching").components) == 6

    def test_base_means_match_config(self, service):
        cfg = NutchConfig()
        rep = service.representative(ComponentClass.SEARCHING)
        assert rep.base_mean == pytest.approx(cfg.search_mean_s)

    def test_component_demands_nonzero(self, service):
        for c in service.components:
            assert c.demand.norm() > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(TopologyError):
            NutchConfig(n_search_groups=0)
        with pytest.raises(TopologyError):
            NutchConfig(search_mean_s=-ms(1))
        with pytest.raises(TopologyError):
            NutchConfig(search_scv=0.0)


class TestClassViews:
    def test_classes_in_stage_order(self, service):
        assert service.classes() == [
            ComponentClass.SEGMENTING,
            ComponentClass.SEARCHING,
            ComponentClass.AGGREGATING,
        ]

    def test_representative_one_per_class(self, service):
        # §VI-D: only one component per homogeneous class is profiled.
        for cls in service.classes():
            rep = service.representative(cls)
            assert rep.cls is cls

    def test_representative_missing_class_rejected(self, service):
        with pytest.raises(TopologyError):
            service.representative(ComponentClass.GENERIC)


class TestDeployment:
    def _cluster(self, n=30):
        # Generous slots so 108 components fit on 30 nodes.
        return Cluster.homogeneous(n, NodeCapacity(machine_slots=16))

    def test_round_robin_deploys_all(self, service):
        cluster = self._cluster()
        service.deploy(cluster, "round_robin")
        for c in service.components:
            assert cluster.node_of(c) is not None

    def test_round_robin_balanced(self, service):
        cluster = self._cluster()
        service.deploy(cluster, "round_robin")
        counts = [len(list(n.residents())) for n in cluster]
        assert max(counts) - min(counts) <= 1

    def test_random_deploy_needs_rng(self, service):
        with pytest.raises(TopologyError):
            service.deploy(self._cluster(), "random")

    def test_random_deploy(self, service):
        cluster = self._cluster()
        service.deploy(cluster, "random", rng=np.random.default_rng(0))
        assert sum(len(list(n.residents())) for n in cluster) == 108

    def test_least_loaded_deploy(self, service):
        cluster = self._cluster()
        service.deploy(cluster, "least_loaded")
        assert sum(len(list(n.residents())) for n in cluster) == 108

    def test_unknown_strategy_rejected(self, service):
        with pytest.raises(TopologyError):
            service.deploy(self._cluster(), "galaxy-brain")

    def test_empty_service_name_rejected(self, service):
        from repro.service.service import OnlineService

        with pytest.raises(TopologyError):
            OnlineService("", service.topology)
