import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqspiral import table as table_mod
from sqspiral.table import (CHUNK, DEFAULT_CAPACITY, SLAB_MIN, TAIL_START, CapacityError,
                            _blocks, build_table, exact_cum_angles, load_table, save_table,
                            SpiralTable, segment_angle, stream_cum_angles, table_for,
                            wrap_signed, TAU)


def test_segment_angle_values():
    assert segment_angle(1) == pytest.approx(math.pi / 4, abs=1e-15)
    assert segment_angle(3) == pytest.approx(math.pi / 6, abs=1e-15)
    # independent 40-digit arctan oracle: 0.0996686524911620273784461198780...
    assert segment_angle(100) == pytest.approx(0.09966865249116202, abs=2e-16)


def test_segment_angle_rejects_zero():
    with pytest.raises(ValueError):
        segment_angle(0)


@given(st.integers(min_value=1, max_value=10**9))
def test_segment_angle_range(n):
    a = segment_angle(n)
    assert 0 < a <= math.pi / 4
    assert segment_angle(n + 1) < a


def test_angle_of_reference_axis(table400):
    assert table400.angle_of(1) == 0.0


def test_angle_of_third_ray(table400):
    # 45 + 35.264 degrees
    assert math.degrees(table400.angle_of(3)) == pytest.approx(80.2644, abs=1e-3)


def test_ray_18_crosses_into_second_winding(table400):
    assert table400.angle_of(17) < TAU < table400.angle_of(18)
    assert table400.winding(18) == 2
    assert table400.winding(17) == 1


def test_cum_angle_strictly_increasing(table100k):
    assert np.all(np.diff(table100k.cum_angle) > 0)


def test_increments_match_segment_angle(table100k):
    ks = list(range(1, 2000)) + [CHUNK - 1, CHUNK, CHUNK + 1, 99999, 100000]
    for k in ks:
        inc = table100k.w(k) - table100k.w(k - 1)
        tol = 1e-14 * max(1.0, table100k.w(k))
        assert abs(inc - segment_angle(k)) <= tol


def test_c2_strictly_decreasing(table100k):
    ks = np.arange(1, table100k.max_n + 1)
    est = table100k.cum_angle[1:] - 2.0 * np.sqrt(ks)
    assert np.all(np.diff(est) < 0)


def test_term_comparison_underlying_decrease():
    # arctan(1/sqrt(k+1)) < 2*(sqrt(k+1) - sqrt(k)) makes c2(k) decrease
    for k in range(1, 5000):
        assert segment_angle(k + 1) < 2 * (math.sqrt(k + 1) - math.sqrt(k))


def test_build_deterministic_and_prefix_stable(table100k):
    again = build_table(100000)
    assert again.cum_angle.tobytes() == table100k.cum_angle.tobytes()
    # a cache serves the prefix of a larger build, so the bits must agree
    for n in (1, 2, 3, 7, 400, 432, 600, 1000, 2100, 3100,
              CHUNK - 1, CHUNK, CHUNK + 1, 99999):
        small = build_table(n)
        assert small.cum_angle.tobytes() == table100k.cum_angle[:n + 1].tobytes()


def test_plain_vs_compensated_gap(table100k):
    comp = build_table(10**6)
    assert abs(comp.w(10**6) - exact_cum_angles([10**6])[1]) <= 1e-10
    assert exact_cum_angles([CHUNK])[1] == table100k.w(CHUNK)  # one block: no carry


def test_exact_walk_has_the_table_bits():
    table = build_table(10**6)
    ks = [1, CHUNK - 1, CHUNK, CHUNK + 1, 10**6]
    w, _ = exact_cum_angles(ks)
    assert w == {k: table.w(k) for k in ks}
    assert exact_cum_angles([0, 0, 3]) == ({0: 0.0, 3: table.w(3)}, table.w(3))
    assert exact_cum_angles([]) == ({}, 0.0)
    for read in (exact_cum_angles, stream_cum_angles):
        with pytest.raises(ValueError):
            read([-1, 5])


def test_block_bases_carry_exact_sum_of_block_totals():
    # pins the Neumaier carry: bare addition of the totals is 2 ulp off at 1e6
    totals = []
    for _, _, base, total, prefix in _blocks(10**6):
        assert base == math.fsum(totals)
        assert total == prefix[-1]
        totals.append(total)
    assert len(totals) == -(-10**6 // CHUNK)


def _cumsum_walk(top):
    """Oracle: the walk with every block's own np.cumsum, no slab; yields
    (lo, hi, base, prefix) per block, the base carried by Neumaier's sum."""
    carry = comp = 0.0
    for lo in range(1, top + 1, CHUNK):
        hi = min(lo + CHUNK, top + 1)
        k = np.arange(lo, hi, dtype=np.float64)
        prefix = np.cumsum(np.arctan(1.0 / np.sqrt(k)))
        yield lo, hi, carry + comp, prefix
        total = float(prefix[-1])
        s = carry + total
        if abs(carry) >= abs(total):
            comp += (carry - s) + total
        else:
            comp += (total - s) + carry
        carry = s


def _cumsum_angles(ks):
    """Oracle for exact_cum_angles: w(k) from the per-block walk, and the
    block totals carried by bare additions."""
    ks = sorted(set(ks))
    w, plain = {0: 0.0}, 0.0
    for lo, hi, base, prefix in _cumsum_walk(ks[-1] if ks else 0):
        w.update((k, base + float(prefix[k - lo])) for k in ks if lo <= k < hi)
        plain += float(prefix[-1])
    return {k: w[k] for k in ks}, plain


def test_every_block_total_to_1e7_is_the_cumsum_total():
    # no index read: the 152 full blocks are one slab, the partial last a cumsum
    walk, oracle = list(_blocks(10**7, ())), list(_cumsum_walk(10**7))
    assert len(walk) == len(oracle) == 153
    assert sum(prefix is None for *_, prefix in walk) == 152
    for (lo, hi, base, total, prefix), (lo0, hi0, base0, prefix0) in zip(walk, oracle):
        assert (lo, hi, base, total) == (lo0, hi0, base0, prefix0[-1])
        assert prefix is None or prefix.tobytes() == prefix0.tobytes()
    ks = [10**4, 10**5, 10**6, 10**7]
    assert exact_cum_angles(ks) == _cumsum_angles(ks)


# (indices read, full blocks that hold none of them)
READS = [([], 0), ([1], 0), ([CHUNK], 0), ([CHUNK + 1], 1), ([2 * CHUNK + 1], 2),
         ([7 * CHUNK + 1], 7), ([8 * CHUNK + 1], 8), ([9 * CHUNK + 1], 9),
         ([2 * CHUNK + 1, 5 * CHUNK + 1, 11 * CHUNK], 8),
         ([15 * CHUNK + 1], 15), ([TAIL_START], 15), ([16 * CHUNK + 1], 16),
         ([17 * CHUNK + 1], 17), ([3, CHUNK, CHUNK + 1, 19 * CHUNK + 5], 17),
         ([0, CHUNK + 1, 9 * CHUNK, 9 * CHUNK + 1, 25 * CHUNK], 21)]


@pytest.mark.parametrize("ks, unread", READS)
def test_sparse_walk_is_the_cumsum_walk(ks, unread):
    top = max(ks, default=0)
    blocks = list(_blocks(top, ks))
    assert unread == sum(hi - lo == CHUNK and not any(lo <= k < hi for k in ks)
                         for lo, hi, *_ in blocks)
    assert sum(prefix is None for *_, prefix in blocks) == (unread if unread >= SLAB_MIN else 0)
    assert exact_cum_angles(ks) == _cumsum_angles(ks)
    if top <= TAIL_START:
        assert stream_cum_angles(ks) == _cumsum_angles(ks)[0]


def test_a_slab_never_has_one_column(monkeypatch):
    # np.add.reduce adds a slab's rows in order only with two or more
    # columns; one column it sums pairwise, with other bits than np.cumsum
    widths = []
    slab_totals = table_mod._slab_totals
    monkeypatch.setattr(table_mod, "_slab_totals",
                        lambda blocks: widths.append(len(blocks)) or slab_totals(blocks))
    for ks, _ in READS:
        exact_cum_angles(ks)
    for unread in range(SLAB_MIN + 2):
        exact_cum_angles([unread * CHUNK + 1])
    assert widths and min(widths) >= 2


def test_a_walk_holds_its_last_prefix_past_unread_blocks():
    # so the next block's np.cumsum reuses that memory, not fresh pages
    walk = _blocks(12 * CHUNK, [1, 12 * CHUNK])
    held = weakref.ref(next(walk)[4])
    assert [block[4] for block in [next(walk) for _ in range(10)]] == [None] * 10
    assert held() is not None
    assert next(walk)[4] is not None and held() is None


def test_build_rejects_bad_size_and_capacity():
    with pytest.raises(ValueError):
        build_table(0)
    with pytest.raises(CapacityError, match="budget"):
        build_table(DEFAULT_CAPACITY)  # raises before allocating


def test_ray_coordinates(table400):
    ray1 = table400.ray(1)
    assert (ray1.x, ray1.y) == (1.0, 0.0)
    ray2 = table400.ray(2)
    assert ray2.x == pytest.approx(1.0, abs=1e-12)
    assert ray2.y == pytest.approx(1.0, abs=1e-12)
    for n in (2, 17, 18, 100, 399):
        ray = table400.ray(n)
        assert ray.radius ** 2 == pytest.approx(n, rel=1e-12)
        assert 0 <= ray.angle_mod < TAU
        assert ray.x ** 2 + ray.y ** 2 == pytest.approx(n, rel=1e-9)
        assert ray.winding == 1 + int(ray.angle_total // TAU)


def test_angle_of_range_check(table400):
    with pytest.raises(IndexError):
        table400.angle_of(402)
    assert table400.angle_of(401) == table400.w(400)


def test_wrap_signed_edges():
    assert wrap_signed(0.0) == 0.0
    assert wrap_signed(math.pi) == pytest.approx(math.pi)
    assert wrap_signed(-math.pi) == pytest.approx(math.pi)
    assert wrap_signed(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_signed(TAU + 0.25) == pytest.approx(0.25, abs=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_wrap_signed_properties(x):
    w = wrap_signed(x)
    assert -math.pi < w <= math.pi
    assert wrap_signed(x + TAU) == pytest.approx(w, abs=1e-7)


def test_stream_matches_table(table100k):
    ks = [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 5, 99999, 100000]
    streamed = stream_cum_angles(ks)
    for k in ks:
        assert streamed[k] == table100k.w(k)


@pytest.mark.parametrize("k", [TAIL_START + 1, 10**7, 433494436])
def test_far_angle_differences_match_exact_sums(k):
    # exact sums of 10**5 arctans; the expansion's k^-1/2 term moves these
    # by up to 5e-5, its k^-3/2 term by up to 4e-11
    span = 10**5
    w = stream_cum_angles([k, k + span])
    exact = math.fsum(math.atan(1.0 / math.sqrt(j)) for j in range(k + 1, k + span + 1))
    assert abs((w[k + span] - w[k]) - exact) <= 1e-10


def test_far_angle_matches_table():
    # without the k^-3/2 term w(1e7) would be 3e-10 off
    table = table_for(10**7)
    w = stream_cum_angles([5, TAIL_START, 10**7])
    assert w[5] == table.w(5) and w[TAIL_START] == table.w(TAIL_START)
    assert abs(w[10**7] - table.w(10**7)) <= 1e-10


def test_far_angles_walk_no_blocks_past_tail_start(monkeypatch):
    walked = []

    def counting_blocks(top, ks=None):
        for block in _blocks(top, ks):
            walked.append(block[0])
            yield block

    monkeypatch.setattr(table_mod, "_blocks", counting_blocks)
    w = stream_cum_angles([433494436])
    assert 0 < len(walked) <= TAIL_START // CHUNK + 1
    assert w[433494436] == pytest.approx(41638.90066496, abs=1e-8)


def test_cache_round_trip(tmp_path, table400):
    path = str(tmp_path / "t.bin")
    save_table(table400, path)
    loaded = load_table(path, 400)
    assert loaded.max_n == table400.max_n
    assert loaded.cum_angle.tobytes() == table400.cum_angle.tobytes()
    save_table(table400, path)  # rewrite is byte-identical
    with open(path, "rb") as fh:
        first = fh.read()
    save_table(table400, path)
    with open(path, "rb") as fh:
        assert fh.read() == first


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_table(str(path), 10)


def _rewrite(path, header=None, angles=None):
    data = bytearray(path.read_bytes())
    if header is not None:
        data[5:13] = header
    if angles is not None:
        idx, value = angles
        data[13 + 8 * idx: 21 + 8 * idx] = np.float64(value).tobytes()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("header, angles, match", [
    (b"\xff" * 8, None, "file size"),
    ((0).to_bytes(8, "little"), None, "file size"),
    ((399).to_bytes(8, "little"), None, "file size"),
    (None, (0, 1e-300), "valid"),
    (None, (1, 0.7), "valid"),
    (None, (200, float("nan")), "valid"),
    (None, (201, 0.5), "valid"),
    (None, (400, float("inf")), "valid"),
])
def test_cache_rejects_bad_contents(tmp_path, table400, header, angles, match):
    path = tmp_path / "t.bin"
    save_table(table400, str(path))
    _rewrite(path, header, angles)
    with pytest.raises(ValueError, match=match):
        load_table(str(path), 400)


@pytest.mark.parametrize("max_n", [0, 401])
def test_cache_rejects_requests_it_cannot_serve(tmp_path, table400, max_n):
    path = str(tmp_path / "t.bin")
    save_table(table400, path)
    with pytest.raises(ValueError, match="cannot serve"):
        load_table(path, max_n)


def test_cache_load_is_read_only_without_copy(tmp_path, table400):
    path = tmp_path / "t.bin"
    save_table(table400, str(path))
    _rewrite(path, angles=(400, float("nan")))  # past every prefix read below
    for max_n in (1, 200, 399):
        loaded = load_table(str(path), max_n)
        assert loaded.max_n == max_n and len(loaded.cum_angle) == max_n + 1
        assert loaded.cum_angle.tobytes() == table400.cum_angle[:max_n + 1].tobytes()
        assert not loaded.cum_angle.flags.writeable
        assert not loaded.cum_angle.flags.owndata


def test_nearest_rays_match_brute_force(table400):
    cum = table400.cum_angle                     # ray m at cum[m - 1], rays 1..401
    angles = np.concatenate([cum, (cum[:-1] + cum[1:]) / 2,
                             [0.5, TAU, 20.0, 55.5, -1.0, 0.0, table400.w(400) + 3.0]])
    # the first ray of the least gap, over every ray of the table
    brute = np.argmin(np.abs(cum[:, None] - angles[None, :]), axis=0) + 1
    got = table400.nearest_rays(angles)
    assert got.dtype == np.int64 and got.tolist() == brute.tolist()
    assert got[-3:].tolist() == [1, 1, 401]


def test_nearest_rays_first_of_a_tie():
    tiny = SpiralTable(3, np.array([0.0, 1.0, 2.0, 3.0]))
    assert tiny.nearest_rays(np.array([1.5, 2.5, 0.5, 3.5])).tolist() == [2, 3, 1, 4]
