import pytest

from railflow.network import (
    Horizon,
    Network,
    StationNode,
    TrackLink,
    TrainType,
    is_single_track,
)


def two_node_net(sigma=None, links=None):
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
        duration={(l.id, 1): 0.5 for l in links},
        horizon=horizon,
    )


def test_single_track_queries():
    links = (TrackLink(1, 1, 2, "A-B"), TrackLink(2, 2, 1, "B-A"))
    double = two_node_net(links=links)
    assert not is_single_track(double, 1)
    coupled = two_node_net(links=links, sigma={1: 2, 2: 1})
    assert is_single_track(coupled, 1)
    assert is_single_track(coupled, 2)  # involution symmetry
    with pytest.raises(KeyError):
        is_single_track(coupled, 9)
