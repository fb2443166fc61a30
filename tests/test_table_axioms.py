"""The packed-integer axiom pass of ``crossopt.oracles`` against the
scans it decides for, and the intersection generator's covering test
against the code it replaced (tests/pair_covers.py).

``_packed_exchange_holds`` and ``_packed_monotone`` must give the verdict
of ``_local_exchange_violation`` and ``_monotonicity_violation`` (the
scans that still name the first witness) on random tables, on valid
sub- and supermodular tables and their one-entry corruptions, with
negative entries and with entries as large as 10**300, for n = 0..8;
and on every rank table of the benchmark's covering-corpus at seed 0.
A table too wide to pack is decided by the scans alone.  At the size
limit (MAX_GROUND = 16) valid tables are accepted and corrupted ones
refused with the scan's witness.  The generator's witness cover, found
by a popcount scan, must be brute_subset_opt's unit-cost optimum.
"""

import importlib.util
import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pair_covers
from crossopt import randgen
from crossopt.brute import brute_subset_opt
from crossopt.errors import InstanceError
from crossopt.instances import LatticeInstance, load_instance
from crossopt.oracles import (
    MAX_GROUND,
    PACK_LIMIT,
    ContraPolymatroidPair,
    MatroidOracle,
    _check_local_exchange,
    _local_exchange_violation,
    _monotonicity_violation,
    _packed,
    _packed_exchange_holds,
    _packed_monotone,
)
from crossopt.rational import Rat

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def assert_same_verdicts(table, n):
    """The packed verdicts equal the scans' in both exchange directions
    and for monotonicity, and _check_local_exchange raises exactly on
    the scan's first witness."""
    for direction in (1, -1):
        witness = _local_exchange_violation(table, n, direction)
        assert _packed_exchange_holds(table, n, direction) is (witness is None)
        if witness is None:
            _check_local_exchange(table, n, direction, "t")
        else:
            s, e, f = witness
            with pytest.raises(InstanceError) as raised:
                _check_local_exchange(table, n, direction, "t")
            assert str(raised.value) == f"t violated at S={s:#x}, e={e}, f={f}"
    assert _packed_monotone(table, n) is (_monotonicity_violation(table, n) is None)


def modular_plus(n, terms, weights, joined):
    """Sum of w [D subset of S] (joined=False: supermodular for w >= 0)
    or w [D meets S] (joined=True: submodular and monotone for w >= 0),
    plus the modular sum of weights[e] over e in S."""
    return [
        sum(w for d, w in terms if (d & s if joined else d & s == d))
        + sum(weights[e] for e in range(n) if (s >> e) & 1)
        for s in range(1 << n)
    ]


@st.composite
def tables(draw):
    """(n, table, direction, corrupted): a random table (direction 0),
    or a valid submodular (+1) or supermodular (-1) one, scaled by up to
    10**300 and shifted by a possibly negative offset; half of the time
    one entry is corrupted."""
    n = draw(st.integers(0, 8))
    size = 1 << n
    direction = draw(st.sampled_from([0, 1, -1]))
    if direction == 0:
        base = draw(st.lists(st.integers(-20, 20), min_size=size, max_size=size))
    else:
        terms = draw(
            st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, 5)), max_size=4)
        )
        weights = draw(st.lists(st.integers(-3, 5), min_size=n, max_size=n))
        base = modular_plus(n, terms, weights, joined=direction > 0)
    scale = draw(st.sampled_from([1, 2, 10**30, 10**300]))
    offset = draw(st.sampled_from([0, -7, 10**12, -(10**300)]))
    table = [scale * v + offset for v in base]
    corrupted = draw(st.booleans())
    if corrupted:
        i = draw(st.integers(0, size - 1))
        table[i] += draw(st.sampled_from([-2, -1, 1, 2, -scale, scale]))
    return n, table, direction, corrupted


@settings(max_examples=400, deadline=None)
@given(tables())
@example((0, [5], 0, False))
@example((3, [0, 1, 1, 2, 1, 2, 2, 4], 0, False))  # not submodular at S=0x1
@example((2, [0, 0, 0, -(10**300)], 0, False))
def test_packed_pass_matches_scans(case):
    n, table, direction, corrupted = case
    if direction and not corrupted:
        # the valid tables do pass, so both verdicts are compared
        assert _packed_exchange_holds(table, n, direction)
    assert_same_verdicts(table, n)


@pytest.mark.parametrize("n", [1, 4, 6])
def test_every_one_entry_corruption_matches_scans(n):
    rng = random.Random(n)
    terms = [(rng.getrandbits(n), rng.randint(1, 4)) for _ in range(3)]
    weights = [rng.randint(-2, 3) for _ in range(n)]
    for joined in (False, True):
        valid = modular_plus(n, terms, weights, joined)
        assert _packed_exchange_holds(valid, n, 1 if joined else -1)
        for i in range(1 << n):
            for delta in (-1, 1):
                table = list(valid)
                table[i] += delta
                assert_same_verdicts(table, n)


def test_covering_corpus_tables_match_scans(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.WORKLOADS["covering-corpus"].build(0, str(tmp_path), str(tmp_path))
    checked = []
    for op in ops:
        inst = load_instance(op.argv[op.argv.index("--in") + 1])
        if isinstance(inst, LatticeInstance):
            checked.append((inst.n, inst.lat.matroid.rank, 1))
        else:
            checked += [(inst.n, inst.pair.r1, -1), (inst.n, inst.pair.r2, -1)]
    assert len(checked) == 245
    rng = random.Random(0)
    for n, table, direction in checked:
        assert _packed_exchange_holds(table, n, direction)
        assert _local_exchange_violation(table, n, direction) is None
        assert _packed_monotone(table, n) is (_monotonicity_violation(table, n) is None)
        corrupted = list(table)
        corrupted[rng.randrange(1, 1 << n)] += rng.choice([-1, 1])
        assert_same_verdicts(corrupted, n)


def test_too_wide_tables_are_scanned():
    # fields of 5,001 bytes: 256 of them exceed PACK_LIMIT, so the pair
    # is decided by the scans alone, with the scan's witness
    n, unit = 8, 1 << 40000
    assert 5001 << n > PACK_LIMIT
    table = [comb(s.bit_count(), 2) * unit for s in range(1 << n)]
    assert _packed(table, n) is None
    assert not _packed_exchange_holds(table, n, -1)
    assert not _packed_monotone(table, n)
    ContraPolymatroidPair(n, table, table)
    table[0b111] -= 2 * unit
    assert _local_exchange_violation(table, n, -1) == (0b1, 1, 2)
    message = r"^r2 supermodularity violated at S=0x1, e=1, f=2$"
    with pytest.raises(InstanceError, match=message):
        ContraPolymatroidPair(n, [0] * (1 << n), table)


def test_packed_width_follows_the_span():
    # 2^(w-1) > 2 span at the smallest whole-byte w
    for span, width in ((0, 8), (63, 8), (64, 16), (10**300, 1000)):
        w, p, half, clear = _packed((-3, span - 3), 1)
        top = 1 << (w - 1)
        assert (w, p, half, clear) == (width, span << w, top + (top << w), [top])
        assert 1 << (w - 1) > 2 * span


# -- the size limit -------------------------------------------------------------


def uniform(n, r):
    return tuple(min(s.bit_count(), r) for s in range(1 << n))


def test_size_limit_matroid():
    n = MAX_GROUND
    assert MatroidOracle(n, uniform(n, 8)).full_rank == 8
    jump = list(uniform(n, 8))
    jump[0x1FF] = 9  # a 9-set above rank 8
    assert _monotonicity_violation(jump, n) == (0x1FF, 9)
    message = r"^monotonicity violated at S=0x1ff \+ element 9$"
    with pytest.raises(InstanceError, match=message):
        MatroidOracle(n, tuple(jump))
    dip = list(uniform(n, 8))
    dip[0b11] = 1  # elements 0 and 1 parallel, but only within {0, 1}
    assert _monotonicity_violation(dip, n) is None
    assert _local_exchange_violation(dip, n, 1) == (0b1, 1, 2)
    message = r"^matroid submodularity violated at S=0x1, e=1, f=2$"
    with pytest.raises(InstanceError, match=message):
        MatroidOracle(n, tuple(dip))


def test_size_limit_supermodular_pair():
    n = MAX_GROUND
    r1 = [comb(s.bit_count(), 2) for s in range(1 << n)]
    r2 = [max(0, s.bit_count() - 8) for s in range(1 << n)]
    pair = ContraPolymatroidPair(n, tuple(r1), tuple(r2))
    assert pair.requirement((1 << n) - 1) == comb(16, 2)
    r1[0b111] += 2  # C(k, 2) has slack 1 in every exchange
    assert _local_exchange_violation(r1, n, -1) == (0b11, 2, 3)
    message = r"^r1 supermodularity violated at S=0x3, e=2, f=3$"
    with pytest.raises(InstanceError, match=message):
        ContraPolymatroidPair(n, tuple(r1), tuple(r2))


def test_past_the_size_limit_is_refused():
    n = MAX_GROUND + 1
    with pytest.raises(InstanceError, match=r"^ground set 17 exceeds 16$"):
        MatroidOracle(n, ())
    with pytest.raises(InstanceError, match=r"^ground set 17 exceeds 16$"):
        ContraPolymatroidPair(n, (), ())


# -- the generator's covering test ------------------------------------------------


class Pair:
    """The two fields of a pair that the reference reads."""

    def __init__(self, n, r1, r2):
        self.n, self.r1, self.r2 = n, r1, r2

    def requirement(self, mask):
        return max(self.r1[mask], self.r2[mask])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_covers_matches_reference(data):
    n = data.draw(st.integers(0, 6))
    size = 1 << n
    rest = st.lists(st.integers(0, 2), min_size=size - 1, max_size=size - 1)
    r1, r2 = ([0] + data.draw(rest) for _ in range(2))
    pair = Pair(n, r1, r2)
    requirement = list(map(max, r1, r2))
    for mask in range(size):
        assert randgen._covers(requirement, mask) is pair_covers._covers(pair, mask)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_least_cover_matches_brute_force(data):
    # the generator's witness: brute_subset_opt at unit costs, on random
    # requirements (some covered by no mask) and on generated pairs
    n = data.draw(st.integers(0, 7))
    size = 1 << n
    if n and data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        tables = [randgen.random_supermodular_table(rng, n) for _ in range(2)]
        requirement = list(map(max, *tables))
    else:
        requirement = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    expected, _ = brute_subset_opt(
        n, lambda s: randgen._covers(requirement, s), [Rat(1)] * n
    )
    assert randgen._least_cover(n, requirement) == expected


def test_covers_matches_reference_on_the_acceptance_stream():
    # every mask of the pairs that the acceptance suite's intersection
    # stream (seed 404) draws first
    rng = random.Random(404)
    for _ in range(8):
        pair = randgen.random_intersection_instance(rng).pair
        requirement = list(map(max, pair.r1, pair.r2))
        for mask in range(1 << pair.n):
            assert randgen._covers(requirement, mask) is pair_covers._covers(pair, mask)
