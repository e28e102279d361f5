"""``characterize_topology`` against the per-transfer string version.

The topology profile groups active clients by AS and country with their
transfer counts as weights.  ``_reference_topology`` is the grouping it
replaced — one AS number and one country string gathered per transfer,
``(as, ip)`` pairs keyed as strings — kept here as the oracle: every
field must agree bit for bit, including the order of tied shares.
"""

import numpy as np
import pytest

from repro.analysis.ranks import group_counts, rank_frequency, share_by_key
from repro.core.client_layer import characterize_topology
from repro.rng import make_rng
from repro.trace.store import ClientTable, Trace


def _reference_topology(trace):
    active = np.unique(trace.client_index)
    clients = trace.clients
    transfer_as = clients.as_numbers[trace.client_index]
    _, as_counts = group_counts(transfer_as)
    _, as_transfer_shares = rank_frequency(as_counts)

    active_ips = clients.ips[active]
    active_ases = clients.as_numbers[active]
    pair_keys = np.char.add(np.char.add(active_ases.astype(np.str_), "|"),
                            active_ips.astype(np.str_))
    unique_pairs = np.unique(pair_keys)
    pair_as = np.asarray([key.split("|", 1)[0] for key in unique_pairs])
    _, ip_counts = group_counts(pair_as)
    _, as_ip_shares = rank_frequency(ip_counts)

    countries = clients.countries[trace.client_index]
    return {
        "as_transfer_shares": as_transfer_shares,
        "as_ip_shares": as_ip_shares,
        "country_shares": share_by_key(countries),
        "n_ases": int(np.unique(active_ases[active_ases > 0]).size),
        "n_ips": int(np.unique(active_ips).size),
        "n_countries": int(np.unique(
            clients.countries[active][clients.countries[active] != ""]).size),
    }


def _trace(client_index, as_numbers, countries, ips):
    n = len(client_index)
    clients = ClientTable(
        player_ids=[f"p{i:05d}" for i in range(len(as_numbers))],
        ips=ips, as_numbers=as_numbers, countries=countries)
    return Trace(clients=clients, client_index=client_index,
                 object_id=np.zeros(n, dtype=np.int64),
                 start=np.arange(n, dtype=np.float64),
                 duration=np.ones(n))


def _assert_matches_reference(trace):
    got = characterize_topology(trace)
    want = _reference_topology(trace)
    for name in ("as_transfer_shares", "as_ip_shares"):
        a, b = getattr(got, name), want[name]
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.country_shares == want["country_shares"]
    for name in ("n_ases", "n_ips", "n_countries"):
        assert getattr(got, name) == want[name], name


@pytest.mark.parametrize("seed", range(6))
def test_random_topologies_match_reference(seed):
    rng = make_rng(seed)
    n_clients = int(rng.integers(5, 400))
    as_numbers = rng.choice([0, 7, 42, 3356, 65000, -1],
                            size=n_clients).astype(np.int64)
    countries = rng.choice(["", "BR", "US", "JP", "DE", "B"],
                           size=n_clients)
    # Shared IPs (NAT) so distinct-IP counts differ from client counts.
    ips = [f"10.0.{k // 256}.{k % 256}"
           for k in rng.integers(0, max(2, n_clients // 2), n_clients)]
    # A heavy-tailed interest profile, and some clients never active.
    client_index = rng.zipf(1.6, size=int(rng.integers(1, 3000))) % n_clients
    _assert_matches_reference(_trace(client_index, as_numbers, countries,
                                     ips))


def test_tied_shares_keep_reference_order():
    # Every country key (the unknown "" included) has two transfers, so
    # only the tie rule orders the country table.
    client_index = np.repeat(np.arange(8), [1, 1, 2, 1, 1, 2, 1, 1])
    as_numbers = np.asarray([5, 5, 9, 9, 5, 9, 0, 0], dtype=np.int64)
    countries = ["US", "US", "BR", "JP", "JP", "DE", "", ""]
    ips = [f"10.0.0.{k}" for k in (1, 2, 3, 3, 4, 5, 6, 6)]
    trace = _trace(client_index, as_numbers, countries, ips)
    _assert_matches_reference(trace)
    shares = characterize_topology(trace).country_shares
    assert len({share for _, share in shares}) == 1


def test_single_client():
    _assert_matches_reference(_trace(np.zeros(3, dtype=np.int64),
                                     np.asarray([0]), [""], ["10.0.0.1"]))
