"""The one fault grammar (:mod:`repro.rt.faultspec`): the rules that
cut across the three injector families.

Family-specific shapes are exercised where the family is
(``test_faultfs.py``, ``test_netfault.py``, ``test_netsweep.py``); here
are the rules one parser now decides for all of them, and the property
that everything the system *emits* — fuzz plans, recorder traces —
reads back as itself.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.netsweep import draw_fuzz_plan
from repro.net.codec import NAME_TYPES
from repro.rt.clientfault import ClientCrash, ClientFaultInjector
from repro.rt.faultfs import FaultInjector
from repro.rt.faultspec import (
    CLIENT_ACTIONS,
    FRAME_DIRECTIONS,
    NET_ACTIONS,
    STORAGE_ACTIONS,
    FaultSpec,
    FaultSpecError,
    PointCounter,
    parse_plan,
    plan_text,
    read_trace,
)

_ACTIONS = {"storage": STORAGE_ACTIONS, "client": CLIENT_ACTIONS,
            "net": NET_ACTIONS}
_SITE = {"storage": "log.fsync", "client": "client.force.ack",
         "net": "net.writelog.c2s"}


# -- the action vocabulary belongs to the site's family ----------------------


@pytest.mark.parametrize("family", sorted(_SITE))
@pytest.mark.parametrize("vocabulary", sorted(_ACTIONS))
def test_action_is_checked_against_the_sites_family(family, vocabulary):
    """Pre-fix, a storage plan ``("log.fsync", 0, "exit")`` constructed
    (its check accepted the *union* of storage and client actions) and
    the storage injector silently ran it as a power loss."""
    for action in _ACTIONS[vocabulary]:
        if family == vocabulary:
            spec = FaultSpec(_SITE[family], 0, action)
            assert spec.family == family
            assert parse_plan(spec.spec) == (spec,)
            continue
        for build in (lambda: FaultSpec(_SITE[family], 0, action),
                      lambda: parse_plan(f"{_SITE[family]}:0:{action}")):
            with pytest.raises(FaultSpecError) as excinfo:
                build()
            assert excinfo.value.token == action
            # The error lists the vocabulary that *would* be legal.
            assert _ACTIONS[family][0] in str(excinfo.value)


def test_storage_injector_never_runs_a_client_action(tmp_path):
    with pytest.raises(FaultSpecError):
        FaultInjector((FaultSpec("log.fsync", 0, "exit"),))


# -- bare points and default actions -----------------------------------------


def test_bare_point_parses_and_arms_with_the_family_default():
    points = parse_plan("log.fsync:3,client.force.ack:0,net.ack.s2c:1")
    assert [p.action for p in points] == ["", "", ""]
    assert [p.spec for p in points] \
        == ["log.fsync:3", "client.force.ack:0", "net.ack.s2c:1"]
    assert [p.arm().action for p in points] \
        == ["power-loss", "exit", "drop"]
    assert points[0].arm("eio").spec == "log.fsync:3:eio"
    assert points[0].arm("eio").arm() == points[0].arm("eio")


def test_point_counter_rejects_bare_points_and_foreign_families():
    with pytest.raises(FaultSpecError) as excinfo:
        PointCounter("storage", parse_plan("log.fsync:0"))
    assert excinfo.value.token == "log.fsync:0"
    with pytest.raises(FaultSpecError) as excinfo:
        PointCounter("client", parse_plan("log.fsync:0:eio"))
    assert excinfo.value.token == "log.fsync"


def test_point_counter_counts_traces_and_finds_the_armed_spec(tmp_path):
    trace_path = tmp_path / "trace.txt"
    (armed,) = parse_plan("client.b:1:raise")
    counter = PointCounter("client", (armed,), trace_path=trace_path)
    assert [counter.hit(site) for site in
            ("client.a", "client.b", "client.a", "client.b")] \
        == [None, None, None, armed]
    counter.close()
    assert counter.trace \
        == ["client.a:0", "client.b:0", "client.a:1", "client.b:1"]
    assert [p.spec for p in read_trace(trace_path)] == counter.trace
    assert read_trace(tmp_path / "never-written.txt") == ()


def test_client_injector_kills_the_armed_point_only():
    injector = ClientFaultInjector(parse_plan("client.b:1:raise"))
    injector.hit("client.b")
    with pytest.raises(ClientCrash) as excinfo:
        injector.hit("client.b")
    assert excinfo.value.point == "client.b:1" and injector.crashes == 1


# -- everything the system emits reads back as itself ------------------------

_site_names = st.from_regex(r"[a-z][a-z-]{0,8}(\.[a-z][a-z-]{0,8}){0,2}",
                            fullmatch=True)
_storage_sites = _site_names.filter(
    lambda s: not s.startswith(("net.", "client.")))
_client_sites = _site_names.map(lambda s: "client." + s)
_net_sites = st.builds(
    lambda kind, direction: f"net.{kind}.{direction}",
    st.sampled_from(sorted(NAME_TYPES)), st.sampled_from(FRAME_DIRECTIONS))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.dictionaries(_net_sites,
                                              st.integers(1, 9), min_size=1))
def test_every_fuzz_plan_spec_round_trips(seed, menu):
    for spec in draw_fuzz_plan(random.Random(seed), menu):
        assert parse_plan(spec.spec)[0].spec == spec.spec
        assert parse_plan(spec.spec) == (spec,)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("storage", "client", "net")).flatmap(
    lambda family: st.tuples(
        st.just(family),
        st.lists({"storage": _storage_sites, "client": _client_sites,
                  "net": _net_sites}[family], min_size=1, max_size=12))))
def test_every_traced_point_round_trips(family_and_sites):
    """Whatever site an injector is hit at, the ``site:index`` its
    recorder traces parses back as that bare point, in its family."""
    family, sites = family_and_sites
    counter = PointCounter(family)
    for site in sites:
        counter.hit(site)
    assert len(counter.trace) == len(sites)
    for point, site in zip(counter.trace, sites):
        (parsed,) = parse_plan(point)
        assert parsed.spec == point
        assert (parsed.site, parsed.family, parsed.action) \
            == (site, family, "")
    assert plan_text(parse_plan(",".join(counter.trace))) \
        == ",".join(counter.trace)
