import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from border_eig import LowerSet, border, system_from_nodes, total_degree_set
from border_eig.indexsets import sub_unit
from border_eig.system import dumps, system_to_json


def grlex_key(alpha):
    """The canonical order's sort key, as the tests' reference: total degree
    first, then a larger first coordinate earlier."""
    return (sum(alpha), tuple(-a for a in alpha))


def serialize_system(s):
    """A system's JSON text, as bytes."""
    return dumps(system_to_json(s)).encode()


def random_separated_nodes(rng, n, count, sep=1e-2, box=1.0):
    """Real nodes uniform in [-box, box]^n with pairwise separation >= sep."""
    nodes = []
    attempts = 0
    while len(nodes) < count:
        cand = rng.uniform(-box, box, size=n)
        if all(np.linalg.norm(cand - z) >= sep for z in nodes):
            nodes.append(cand)
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("node sampling failed to separate")
    return [z.astype(complex) for z in nodes]


def random_lower_set(n, steps, rng):
    """Grow a random lower set from {0} by repeatedly absorbing a border element.

    Only border elements with every predecessor already present are
    eligible, so closure holds by construction.
    """
    current = total_degree_set(n, 0)
    for _ in range(steps):
        eligible = [
            alpha
            for alpha in border(current).members
            if all(alpha[i] == 0 or sub_unit(alpha, i) in current for i in range(n))
        ]
        pick = eligible[rng.integers(len(eligible))]
        members = sorted(current.members + [pick], key=grlex_key)
        current = LowerSet(n, members, {a: k for k, a in enumerate(members)})
    return current


def matching_error(roots, nodes):
    """Max displacement under optimal root-to-node assignment."""
    k = len(nodes)
    assert len(roots) == k
    cost = np.array([[np.linalg.norm(r - z) for z in nodes] for r in roots])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.fixture
def idempotent_system():
    """x^2 = x, xy = 0, y^2 = y: roots (0,0), (1,0), (0,1)."""
    I = total_degree_set(2, 1)
    nodes = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    return system_from_nodes(I, nodes)
