"""Model-based testing: the radix tree on every backend versus a plain
dict."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.apps.backends import BACKENDS, radix_tree

keys = st.binary(min_size=1, max_size=6)
operation = st.one_of(
    st.tuples(st.just("insert"), keys,
              st.integers(min_value=1, max_value=2 ** 32)),
    st.tuples(st.just("search"), keys),
)


def observe(name: str, ops) -> list:
    """Run ``ops`` on a tree on backend ``name``; returns (key, got,
    expected) for every search, then for every key ever inserted and a
    probe miss."""
    env, tree = radix_tree(name)
    reference: dict[bytes, int] = {}
    observations = []

    def app():
        for op in ops:
            if op[0] == "insert":
                _, key, value = op
                yield from tree.insert(key, value)
                reference[key] = value
            else:
                _, key = op
                got = yield from tree.search(key)
                observations.append((key, got, reference.get(key)))
        for key in list(reference):
            got = yield from tree.search(key)
            observations.append((key, got, reference[key]))
        got = yield from tree.search(b"\xff-definitely-absent")
        observations.append((b"absent", got, None))

    env.run(until=env.process(app()))
    return observations


@given(st.lists(operation, min_size=1, max_size=25))
@settings(max_examples=20, deadline=None)
def test_radix_tree_matches_dict(ops):
    for name in BACKENDS:
        for key, got, expected in observe(name, ops):
            assert got == expected, (name, key)
