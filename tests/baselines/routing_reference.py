"""The mask-loop routing kernels, kept as the reference for the
replica-sorted kernels in :mod:`repro.baselines.routing`.

Each function is a kernel body as it was before the kernels sorted a
group's requests by replica: every pass builds one boolean mask per
replica, gathers through it and scatters back.  :func:`route_reference`
runs the body that matches a kernel's class and takes reissue timers
from the kernel's own ``_threshold``, so Hedged and Adaptive kernels
(which override only that rule) and a bound feed run as they do in the
simulator.  ``tests/baselines/test_routing_reference.py`` requires the
production kernels to reproduce these bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.routing import (
    RedundancyKernel,
    ReissueKernel,
    RoutingOutcome,
)
from repro.simcore.lindley import lindley_waits, lindley_waits_chunked


def _primary_choice(n, n_replicas, rng):
    if n_replicas == 1:
        return np.zeros(n, dtype=np.int64)
    return rng.integers(0, n_replicas, n)


def route_reference(
    kernel, arrivals, group, dists, rng, sojourns, services, scale=None,
    carries=None,
) -> RoutingOutcome:
    """``kernel.route_group_outcome`` computed the mask-loop way."""
    if isinstance(kernel, RedundancyKernel):
        return _redundancy(
            kernel, arrivals, group, dists, rng, sojourns, services, scale
        )
    if isinstance(kernel, ReissueKernel):
        return _reissue(
            kernel, arrivals, group, dists, rng, sojourns, services, scale
        )
    return _random_split(
        arrivals, group, dists, rng, sojourns, services, scale, carries
    )


def _random_split(
    arrivals, group, dists, rng, sojourns, services, scale=None, carries=None
):
    n = arrivals.size
    r_count = group.n_replicas
    primary = _primary_choice(n, r_count, rng)
    group_lat = np.empty(n)
    for r, comp in enumerate(group.components):
        mask = primary == r
        t = arrivals[mask]
        s = np.asarray(dists[comp.name].sample(rng, t.size), dtype=np.float64)
        if scale is not None:
            s = s * scale[mask]
        if carries is None:
            w = lindley_waits(t, s, validate=False)
        else:
            w, carries[comp.name] = lindley_waits_chunked(
                t, s, carries.get(comp.name), validate=False
            )
        soj = w + s
        group_lat[mask] = soj
        sojourns[comp.name].append(soj)
        services[comp.name].append(s)
    return RoutingOutcome(group_lat)


def _redundancy(kernel, arrivals, group, dists, rng, sojourns, services, scale):
    n = arrivals.size
    r_count = group.n_replicas
    k = min(kernel.replicas, r_count)
    if k == 1 or n == 0:
        return _random_split(
            arrivals, group, dists, rng, sojourns, services, scale
        )
    primary = _primary_choice(n, r_count, rng)
    starts = np.full((k, n), np.inf)
    svc = np.zeros((k, n))
    replica_req = {}
    replica_copy = {}
    for r in range(r_count):
        copy_idx = (r - primary) % r_count
        mask = copy_idx < k
        req_ids = np.flatnonzero(mask)
        if req_ids.size == 0:
            continue
        t = arrivals[req_ids]
        s = np.asarray(dists[group.components[r].name].sample(rng, t.size))
        if scale is not None:
            s = s * scale[req_ids]
        w = lindley_waits(t, s, validate=False)
        c = copy_idx[req_ids]
        starts[c, req_ids] = t + w
        svc[c, req_ids] = s
        replica_req[r] = req_ids
        replica_copy[r] = c
    first_start = starts.min(axis=0)
    cancelled = starts > first_start + kernel.cancel_delay_s
    svc2 = np.where(cancelled, 0.0, svc)
    finish = np.full((k, n), np.inf)
    for r, req_ids in replica_req.items():
        t = arrivals[req_ids]
        c = replica_copy[r]
        s2 = svc2[c, req_ids]
        w2 = lindley_waits(t, s2, validate=False)
        finish[c, req_ids] = t + w2 + s2
        live = ~cancelled[c, req_ids]
        services[group.components[r].name].append(s2[live])
    finish = np.where(cancelled, np.inf, finish)
    winner_copy = np.argmin(finish, axis=0)
    group_lat = finish[winner_copy, np.arange(n)] - arrivals
    winner_replica = (primary + winner_copy) % r_count
    for r, comp in enumerate(group.components):
        won = winner_replica == r
        if won.any():
            sojourns[comp.name].append(group_lat[won])
    duplicates = int(k * n - np.count_nonzero(cancelled) - n)
    return RoutingOutcome(group_lat, duplicates)


def _reissue(kernel, arrivals, group, dists, rng, sojourns, services, scale):
    n = arrivals.size
    r_count = group.n_replicas
    if r_count == 1 or n == 0:
        return _random_split(
            arrivals, group, dists, rng, sojourns, services, scale
        )
    primary = _primary_choice(n, r_count, rng)
    soj1 = np.empty(n)
    svc1 = np.empty(n)
    for r, comp in enumerate(group.components):
        mask = primary == r
        t = arrivals[mask]
        s = np.asarray(dists[comp.name].sample(rng, t.size))
        if scale is not None:
            s = s * scale[mask]
        soj1[mask] = lindley_waits(t, s, validate=False) + s
        svc1[mask] = s
    threshold = kernel._threshold(soj1, n)
    reissue = soj1 > threshold
    secondary_replica = (primary + 1) % r_count
    soj2 = np.empty(n)
    sec_soj = np.full(n, np.inf)
    for r, comp in enumerate(group.components):
        p_mask = primary == r
        s_mask = reissue & (secondary_replica == r)
        t_p = arrivals[p_mask]
        t_s = arrivals[s_mask] + threshold
        s_p = svc1[p_mask]
        s_s = np.asarray(dists[comp.name].sample(rng, int(s_mask.sum())))
        if scale is not None:
            s_s = s_s * scale[s_mask]
        t_all = np.concatenate([t_p, t_s])
        s_all = np.concatenate([s_p, s_s])
        order = np.argsort(t_all, kind="stable")
        w_all = lindley_waits(t_all[order], s_all[order], validate=False)
        soj_all = np.empty_like(w_all)
        soj_all[...] = w_all + s_all[order]
        unsorted = np.empty_like(soj_all)
        unsorted[order] = soj_all
        soj2[p_mask] = unsorted[: t_p.size]
        sec_soj[s_mask] = unsorted[t_p.size :]
        services[comp.name].append(s_all)
    with np.errstate(invalid="ignore"):
        reissued_lat = np.minimum(soj2, threshold + sec_soj)
    group_lat = np.where(reissue, reissued_lat, soj2)
    primary_won = ~reissue | (soj2 <= threshold + sec_soj)
    for r, comp in enumerate(group.components):
        won_primary = (primary == r) & primary_won
        won_secondary = (secondary_replica == r) & reissue & ~primary_won
        won = won_primary | won_secondary
        if won.any():
            sojourns[comp.name].append(group_lat[won])
    return RoutingOutcome(group_lat, int(np.count_nonzero(reissue)))
