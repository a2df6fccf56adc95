"""The cheap output digests of tests/parity.py, held to the values
recorded in tests/PARITY.md: the battery's every check value, the
benchmark's eval round and the teleport near-pole sweep, each to the
last bit."""

import pytest

import parity


def test_table_names_every_digest():
    assert sorted(parity.recorded()) == sorted(parity.DIGESTS)


@pytest.mark.parametrize("name", ["battery", "eval", "teleport"])
def test_digest_is_recorded(name):
    assert parity.digest(name)[0] == parity.recorded()[name]
