"""Chained prefix-block keys: long prompts and the nested-tuple oracle.

``PrefixIndex`` keys each full block by its token ids and the key of
the block before it (:class:`BlockKey`).  A key caches its hash and
compares its chain in a loop, so prompts of any length hash and match
without recursion (nested ``(parent, ids)`` tuples overflowed the
interpreter's recursion limit at 1,000 blocks).  The
hypothesis test replays random insert / peek / lookup streams, with
evictions and re-inserts, against the nested-tuple index the key class
replaced, kept here as the oracle.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.prefix import BlockKey, PrefixIndex


class NestedTupleIndex:
    """The prefix index as it was: nested ``(previous key, ids)`` tuple
    keys in an LRU ``OrderedDict`` (the oracle)."""

    def __init__(self, block_size, capacity_blocks):
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self._blocks = OrderedDict()
        self.hits = self.misses = self.evicted_blocks = 0

    def _keys(self, token_ids):
        ids = tuple(int(t) for t in token_ids)
        keys, prev = [], None
        for i in range(len(ids) // self.block_size):
            key = (prev, ids[i * self.block_size:(i + 1) * self.block_size])
            keys.append(key)
            prev = key
        return keys

    def peek(self, token_ids):
        matched = 0
        for key in self._keys(token_ids):
            if key not in self._blocks:
                break
            matched += self.block_size
        return matched

    def lookup(self, token_ids):
        matched = 0
        for key in self._keys(token_ids):
            if key not in self._blocks:
                break
            self._blocks.move_to_end(key)
            matched += self.block_size
        if matched:
            self.hits += 1
        else:
            self.misses += 1
        return matched

    def insert(self, token_ids):
        added = 0
        for key in self._keys(token_ids):
            if key in self._blocks:
                self._blocks.move_to_end(key)
            else:
                self._blocks[key] = None
                added += 1
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)
            self.evicted_blocks += 1
        return added


def nested_prefix(key):
    """Every token id of the prefix a nested-tuple key ends."""
    parts = []
    while key is not None:
        key, ids = key
        parts.append(ids)
    return tuple(t for ids in reversed(parts) for t in ids)


def chained_prefix(key):
    """Every token id of the prefix a :class:`BlockKey` ends."""
    parts = []
    while key is not None:
        parts.append(key.ids)
        key = key.parent
    return tuple(t for ids in reversed(parts) for t in ids)


# ----------------------------------------------------------------------
# the key type
# ----------------------------------------------------------------------
def chain(ids, block_size=4):
    key = None
    for i in range(len(ids) // block_size):
        key = BlockKey(key, tuple(ids[i * block_size:(i + 1) * block_size]))
    return key


def test_equal_chains_are_equal_keys_with_equal_hashes():
    a, b = chain(list(range(12))), chain(list(range(12)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_keys_differ_by_any_earlier_block_or_by_position():
    base = list(range(12))
    changed = list(base)
    changed[1] = 99  # first block differs, last block the same
    assert chain(base) != chain(changed)
    assert chain(base).ids == chain(changed).ids
    # the same ids one block later are a different key
    assert chain([0, 1, 2, 3]) != chain([7, 7, 7, 7, 0, 1, 2, 3])
    assert chain(base) != ("not", "a key")


@pytest.mark.parametrize("tokens", [16_384, 65_536])
def test_long_chains_hash_and_compare_without_recursion(tokens):
    a, b = chain(list(range(tokens)), 16), chain(list(range(tokens)), 16)
    assert a == b and hash(a) == hash(b)
    c = chain([7] + list(range(1, tokens)), 16)
    assert a != c  # differs only in the first of 4,096 blocks


# ----------------------------------------------------------------------
# long prompts through the index
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tokens", [16_384, 65_536])
def test_prefix_index_long_prompts(tokens):
    ids = list(range(tokens))
    index = PrefixIndex(capacity_blocks=2 * tokens // 16)
    assert index.peek(ids) == 0
    assert index.insert(ids) == tokens // 16
    assert index.peek(ids) == tokens
    assert index.lookup(ids) == tokens
    # a divergent tail shares every block before it
    other = ids[:-40] + [-1] * 40
    assert index.peek(other) == (tokens - 40) // 16 * 16
    assert index.insert(other) == 3
    assert (index.hits, index.misses, len(index)) == (1, 0, tokens // 16 + 3)


# ----------------------------------------------------------------------
# random streams against the nested-tuple oracle
# ----------------------------------------------------------------------
#: prompts are built from a few shared heads so streams hit, diverge
#: mid-prompt and re-insert evicted blocks
HEADS = [tuple(range(h * 100, h * 100 + 24)) for h in range(3)]

prompt = st.builds(
    lambda head, tail: list(HEADS[head][: 8 * (head + 1)]) + tail,
    st.integers(0, len(HEADS) - 1),
    st.lists(st.integers(0, 3), max_size=20),
)
op = st.tuples(st.sampled_from(["insert", "peek", "lookup"]), prompt)


@settings(max_examples=300, deadline=None)
@given(
    ops=st.lists(op, min_size=1, max_size=30),
    block_size=st.integers(1, 5),
    capacity=st.integers(1, 12),
)
def test_index_matches_nested_tuple_oracle(ops, block_size, capacity):
    index = PrefixIndex(block_size=block_size, capacity_blocks=capacity)
    oracle = NestedTupleIndex(block_size, capacity)
    for name, ids in ops:
        assert getattr(index, name)(ids) == getattr(oracle, name)(ids)
        assert (index.hits, index.misses, index.evicted_blocks) == (
            oracle.hits, oracle.misses, oracle.evicted_blocks
        )
        # the same resident blocks in the same LRU order
        assert [chained_prefix(k) for k in index._blocks] == [
            nested_prefix(k) for k in oracle._blocks
        ]
