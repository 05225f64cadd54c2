import pytest
from hypothesis import given, strategies as st

from railflow.network import (
    Horizon,
    Network,
    StationNode,
    TrackLink,
    TrainType,
    is_single_track,
    validate_network,
)


def two_node_net(sigma=None, duration=0.5, links=None):
    nodes = (StationNode(1, "A"), StationNode(2, "B"))
    links = links or (TrackLink(1, 1, 2, "A-B"), TrackLink(2, 2, 1, "B-A"))
    sigma = sigma or {l.id: l.id for l in links}
    horizon = Horizon(2)
    return Network(
        train_types=(TrainType(1, "reg"),),
        nodes=nodes,
        links=links,
        sigma=sigma,
        capacity={(l.id, t): 3.0 for l in links for t in horizon.periods},
        duration={(l.id, 1): duration for l in links},
        horizon=horizon,
    )


def test_valid_network_reports_clean():
    assert validate_network(two_node_net()).ok


def test_self_loop_detected():
    net = two_node_net(links=(TrackLink(1, 1, 1, "A-A"), TrackLink(2, 2, 1, "B-A")))
    assert "self-loop" in validate_network(net).codes()


def test_sigma_involution_violation():
    links = (TrackLink(1, 1, 2, "A-B"), TrackLink(2, 2, 1, "B-A"))
    net = two_node_net(links=links, sigma={1: 2, 2: 2})
    assert "sigma-involution" in validate_network(net).codes()


def test_sigma_must_reverse_endpoints():
    nodes = (StationNode(1, "A"), StationNode(2, "B"), StationNode(3, "C"))
    links = (TrackLink(1, 1, 2, "A-B"), TrackLink(2, 2, 3, "B-C"))
    horizon = Horizon(1)
    net = Network(
        train_types=(TrainType(1, "reg"),),
        nodes=nodes,
        links=links,
        sigma={1: 2, 2: 1},
        capacity={(l.id, 1): 1.0 for l in links},
        duration={},
        horizon=horizon,
    )
    assert "sigma-endpoints" in validate_network(net).codes()


def test_duration_beyond_one_period_flagged():
    report = validate_network(two_node_net(duration=1.2))
    assert "duration-exceeds-period" in report.codes()


def test_enumeration_density():
    nodes = (StationNode(1, "A"), StationNode(3, "B"))
    net = Network(
        train_types=(TrainType(1, "reg"),),
        nodes=nodes,
        links=(),
        sigma={},
        capacity={},
        duration={},
        horizon=Horizon(1),
    )
    assert "enumeration-density" in validate_network(net).codes()


def test_duplicate_names_and_pairs():
    links = (TrackLink(1, 1, 2, "A-B"), TrackLink(2, 1, 2, "A-B"))
    report = validate_network(two_node_net(links=links))
    codes = report.codes()
    assert "duplicate-name" in codes and "duplicate-link-pair" in codes


def test_missing_and_negative_capacity():
    net = two_node_net()
    broken = Network(
        train_types=net.train_types,
        nodes=net.nodes,
        links=net.links,
        sigma=net.sigma,
        capacity={(1, 1): -2.0},
        duration=net.duration,
        horizon=net.horizon,
    )
    codes = validate_network(broken).codes()
    assert "negative-capacity" in codes and "capacity-missing" in codes


def test_validation_is_order_independent():
    links = (TrackLink(1, 1, 1, "A-A"), TrackLink(2, 2, 1, "B-A"))
    first = two_node_net(links=links, duration=1.4)
    # same data, different dict insertion orders
    second = Network(
        train_types=first.train_types,
        nodes=first.nodes,
        links=first.links,
        sigma=dict(reversed(list(first.sigma.items()))),
        capacity=dict(reversed(list(first.capacity.items()))),
        duration=dict(reversed(list(first.duration.items()))),
        horizon=first.horizon,
    )
    assert validate_network(first) == validate_network(second)


def test_single_track_queries():
    links = (TrackLink(1, 1, 2, "A-B"), TrackLink(2, 2, 1, "B-A"))
    double = two_node_net(links=links)
    assert not is_single_track(double, 1)
    coupled = two_node_net(links=links, sigma={1: 2, 2: 1})
    assert is_single_track(coupled, 1)
    assert is_single_track(coupled, 2)  # involution symmetry
    with pytest.raises(KeyError):
        is_single_track(coupled, 9)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_durations_within_one_period_accepted(value):
    report = validate_network(two_node_net(duration=value))
    assert "duration-exceeds-period" not in report.codes()
