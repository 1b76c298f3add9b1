"""Tests for the consistent-hashing ring (Section V-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistent import ConsistentRing, preserved_mask, spots_of_group
from repro.util.hashing import mix64


def spots(n_units=4, rows=8):
    return [(u, r) for u in range(n_units) for r in range(rows)]


class TestRing:
    def test_deterministic(self):
        tags = np.arange(100)
        a = ConsistentRing(spots(), salt=1).lookup(tags)
        b = ConsistentRing(spots(), salt=1).lookup(tags)
        assert np.array_equal(a, b)

    def test_salt_decorrelates(self):
        tags = np.arange(100)
        a = ConsistentRing(spots(), salt=1).lookup(tags)
        b = ConsistentRing(spots(), salt=2).lookup(tags)
        assert not np.array_equal(a, b)

    def test_load_roughly_balanced(self):
        ring = ConsistentRing(spots(4, 8), salt=0)
        owners = ring.lookup(np.arange(32_000))
        counts = np.bincount(owners, minlength=32)
        assert counts.min() > 0
        assert counts.max() < 5 * counts.mean()

    def test_units_and_rows_of(self):
        ring = ConsistentRing([(3, 7), (5, 1)], salt=0)
        idx = ring.lookup(np.arange(10))
        units = ring.units_of(idx)
        rows = ring.rows_of(idx)
        assert set(units) <= {3, 5}
        assert set(rows) <= {7, 1}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConsistentRing([])


class TestConsistency:
    def test_growing_preserves_most(self):
        """The defining property: adding spots only moves the tags owned
        by the new spots."""
        tags = np.arange(20_000)
        old_ring = ConsistentRing(spots(4, 8), salt=3)
        new_ring = ConsistentRing(spots(4, 8) + [(4, r) for r in range(8)], salt=3)
        preserved = preserved_mask(old_ring, new_ring, tags)
        # Going from 32 to 40 spots should move ~ 8/40 of tags.
        assert preserved.mean() > 0.7

    def test_rehash_comparison(self):
        """Plain mod-rehashing (simulated by a different salt) moves almost
        everything, unlike consistent growth."""
        tags = np.arange(20_000)
        old_ring = ConsistentRing(spots(4, 8), salt=3)
        grown = ConsistentRing(spots(4, 8) + [(4, 0)], salt=3)
        rehashed = ConsistentRing(spots(4, 8), salt=99)
        assert (
            preserved_mask(old_ring, grown, tags).mean()
            > preserved_mask(old_ring, rehashed, tags).mean()
        )

    def test_identical_rings_preserve_all(self):
        tags = np.arange(1000)
        a = ConsistentRing(spots(), salt=5)
        b = ConsistentRing(spots(), salt=5)
        assert preserved_mask(a, b, tags).all()

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_shrink_only_moves_removed_spots(self, keep_units, rows):
        all_spots = spots(keep_units + 1, rows)
        kept = spots(keep_units, rows)
        tags = np.arange(5000)
        big = ConsistentRing(all_spots, salt=1)
        small_ring = ConsistentRing(kept, salt=1)
        owners_big = big.lookup(tags)
        on_kept = np.array(
            [all_spots[i] in set(kept) for i in owners_big]
        )
        preserved = preserved_mask(big, small_ring, tags)
        # Tags on removed spots must move; tags on kept spots must stay.
        assert not preserved[~on_kept].any()
        assert preserved[on_kept].all()


class TestSpotsOfGroup:
    def test_enumeration(self):
        result = spots_of_group(np.array([2, 5]), np.array([2, 1]))
        assert result.tolist() == [[2, 0], [2, 1], [5, 0]]

    def test_empty_shares(self):
        assert len(spots_of_group(np.array([1]), np.array([0]))) == 0


# ---------------------------------------------------------------------------
# Oracle: the scalar reference construction, one spot and one virtual node
# at a time.  The vnode count (8) and the lookup salt (17) are spelled out
# here rather than imported so a change to either in the module fails.


def reference_spots(units, shares):
    return [(int(u), r) for u, rows in zip(units, shares) for r in range(int(rows))]


def reference_ring(spots, salt):
    keys, owners = [], []
    for index, (unit, row) in enumerate(spots):
        base = mix64(((unit + 1) << 32) ^ row ^ mix64(salt))
        for v in range(8):
            keys.append(mix64(base + v))
            owners.append(index)
    order = np.argsort(np.array(keys, dtype=np.uint64))
    return (
        np.array(keys, dtype=np.uint64)[order],
        np.array(owners, dtype=np.int64)[order],
    )


def reference_lookup(positions, owners, tags):
    hashes = [mix64(int(t) ^ mix64(17)) for t in tags]
    idx = np.searchsorted(positions, np.array(hashes, dtype=np.uint64), side="right")
    idx[idx == len(positions)] = 0
    return owners[idx]


def assert_matches_reference(units, shares, salt):
    spots_arr = spots_of_group(np.asarray(units), np.asarray(shares))
    expected = reference_spots(units, shares)
    assert spots_arr.tolist() == [list(s) for s in expected]
    if not expected:
        return
    positions, owners = reference_ring(expected, salt)
    tags = np.arange(0, 4000, 7)
    for ring in (ConsistentRing(spots_arr, salt=salt), ConsistentRing(expected, salt=salt)):
        assert ring._positions.dtype == positions.dtype
        assert ring._positions.tobytes() == positions.tobytes()
        assert ring._owners.tobytes() == owners.tobytes()
        assert np.array_equal(ring.lookup(tags), reference_lookup(positions, owners, tags))


group_draws = st.lists(
    st.tuples(st.integers(min_value=0, max_value=127), st.integers(min_value=0, max_value=24)),
    min_size=1,
    max_size=12,
    unique_by=lambda pair: pair[0],
).map(sorted)


class TestReferenceOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_groups_bitwise_equal(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 17))
        units = np.sort(rng.choice(128, size=k, replace=False))
        shares = rng.integers(0, 33, size=k)
        shares[rng.random(k) < 0.2] = 0
        assert_matches_reference(units, shares, salt=int(rng.integers(0, 1 << 20)))

    @given(group_draws, st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=40, deadline=None)
    def test_drawn_groups_bitwise_equal(self, pairs, salt):
        units = [u for u, _ in pairs]
        shares = [s for _, s in pairs]
        assert_matches_reference(units, shares, salt)


class TestMinimalMovement:
    """Section V-D: growing one unit's share by k rows moves only the
    tags the k new spots take over; every other tag keeps its place."""

    @given(
        group_draws.filter(lambda pairs: sum(s for _, s in pairs) > 0),
        st.data(),
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_growth_moves_only_tags_of_new_spots(self, pairs, data, k, salt):
        units = np.array([u for u, _ in pairs])
        shares = np.array([s for _, s in pairs])
        grow = data.draw(st.integers(min_value=0, max_value=len(units) - 1))
        grown = shares.copy()
        grown[grow] += k
        old_ring = ConsistentRing(spots_of_group(units, shares), salt=salt)
        new_spots = spots_of_group(units, grown)
        new_ring = ConsistentRing(new_spots, salt=salt)
        tags = np.arange(3000)
        owner = new_spots[new_ring.lookup(tags)]
        on_new_spot = (owner[:, 0] == units[grow]) & (owner[:, 1] >= shares[grow])
        preserved = preserved_mask(old_ring, new_ring, tags)
        assert preserved[~on_new_spot].all()
        assert not preserved[on_new_spot].any()
