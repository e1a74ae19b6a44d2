import hypothesis
import hypothesis.strategies as st

from maro import GenConfig, generate, make_instance

hypothesis.settings.register_profile("suite", max_examples=60, deadline=None)
hypothesis.settings.load_profile("suite")


class _RecordingCache(dict):
    """An instance memo that logs every key it stores.  A key is stored
    after each computation of its value, so a value computed twice is
    logged twice."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def record_stores(inst) -> list:
    """Give ``inst`` an empty recording memo; returns its log of stored keys."""
    cache = _RecordingCache()
    object.__setattr__(inst, "_cache", cache)
    return cache.stored


def int_vecs(n=2, lo=0, hi=12):
    return st.tuples(*[st.integers(lo, hi) for _ in range(n)]).map(
        lambda t: tuple(float(c) for c in t)
    )


def point_sets(n=2, max_size=6):
    return st.lists(int_vecs(n), min_size=1, max_size=max_size).map(
        lambda pts: tuple(dict.fromkeys(pts))
    )


def near_tie_sets(n, tau, max_size=6):
    """Point sets on a small integer grid, shifted by offsets at the slack
    boundary (+-tau/2, +-tau, +-2**-30).  The grid is optionally scaled by
    1e12, where offsets below the spacing of floats round away.  Duplicates
    are kept."""
    offsets = (0.0, tau / 2, -tau / 2, tau, -tau, 2.0**-30, -(2.0**-30))
    coord = st.tuples(st.integers(0, 3), st.sampled_from(offsets))
    vecs = st.lists(st.tuples(*[coord] * n), min_size=1, max_size=max_size)
    return st.tuples(vecs, st.sampled_from((1.0, 1e12))).map(
        lambda t: [tuple(g * t[1] + off for g, off in p) for p in t[0]]
    )


def near_tie_instances(tau, max_size=6):
    """Two-objective instances with 1-3 decisions and 1-2 scenarios whose
    recourse sets are drawn from ``near_tie_sets``; ``max_size=1`` gives
    singleton recourse."""

    def build(shape):
        nx, nu = shape
        keys = [(f"x{i}", f"u{k}") for i in range(nx) for k in range(nu)]
        sets = st.lists(near_tie_sets(2, tau, max_size), min_size=len(keys), max_size=len(keys))
        return sets.map(lambda ss: make_instance(
            "near-tie", 2, [f"x{i}" for i in range(nx)], [f"u{k}" for k in range(nu)],
            dict(zip(keys, ss)),
        ))

    return st.tuples(st.integers(1, 3), st.integers(1, 2)).flatmap(build)


def weights(n=2):
    # strictly positive integer masses, normalized
    return st.tuples(*[st.integers(1, 5) for _ in range(n)]).map(
        lambda t: tuple(c / sum(t) for c in t)
    )


gen_configs = st.builds(
    GenConfig,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 3),
    nx=st.integers(2, 5),
    nu=st.integers(1, 3),
    ny=st.integers(1, 5),
)

instances = gen_configs.map(generate)

singleton_instances = st.builds(
    GenConfig,
    seed=st.integers(0, 2**32 - 1),
    n=st.just(2),
    nx=st.integers(2, 5),
    nu=st.integers(1, 3),
    ny=st.just(1),
).map(generate)
