"""The dense greedy-left FSST merge step against the sparse run-parity kernel
it replaced.

The reference below is the previous encode kernel: int32 pair
maps with -1 for "no merge", match positions from ``np.nonzero``, conflicts
between adjacent matches resolved by run parity (keep offsets 0, 2, 4, ...
of each run of adjacent matches), and the escape expansion by cumulative
widths. Every test asserts byte-for-byte equality of the payload and the
slab table, so containers written by either kernel are identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parquet_converter_ray.codecs import fsst as F
from parquet_converter_ray.synth import make_transcripts

# --- the reference: the sparse run-parity kernel ----------------------------


def _ref_keep_parity(p: np.ndarray) -> np.ndarray:
    """Greedy-left by run parity: offsets 0, 2, 4, ... of each run of
    adjacent match positions ``p``."""
    if len(p) > 1:
        starts_mask = np.empty(len(p), dtype=bool)
        starts_mask[0] = True
        np.not_equal(np.diff(p), 1, out=starts_mask[1:])
        run_id = np.cumsum(starts_mask) - 1
        run_start = p[starts_mask][run_id]
        p = p[((p - run_start) & 1) == 0]
    return p


def _ref_replace_pair(seq: np.ndarray, l: int, r: int, code: int) -> tuple[np.ndarray, int]:
    if len(seq) < 2:
        return seq, 0
    m = (seq[:-1] == l) & (seq[1:] == r)
    p = np.nonzero(m)[0]
    if len(p) == 0:
        return seq, 0
    if l == r:
        p = _ref_keep_parity(p)
    keep = np.ones(len(seq), dtype=bool)
    keep[p + 1] = False
    seq[p] = code
    return seq[keep], len(p)


def _ref_pairmap(merges: list[tuple[int, int]]) -> np.ndarray:
    pm = np.full(F._ALPHA * F._ALPHA, -1, dtype=np.int32)
    for i, (l, r) in enumerate(merges):
        pm[l * F._ALPHA + r] = 256 + i
    return pm


def _ref_lit_table(pm: np.ndarray) -> np.ndarray:
    lit = np.full(1 << 16, -1, dtype=np.int32)
    src = np.nonzero(pm >= 0)[0]
    l, r = src // F._ALPHA, src % F._ALPHA
    m = (l < 256) & (r < 256)
    lit[l[m] * 256 + r[m]] = pm[src[m]]
    return lit


def _ref_replace_pass0(seq: np.ndarray, lit: np.ndarray) -> np.ndarray:
    if len(seq) < 2:
        return seq
    key = (seq[:-1] << np.uint16(8)) | seq[1:]
    codes = lit[key]
    p = np.nonzero(codes >= 0)[0]
    if len(p) == 0:
        return seq
    p = _ref_keep_parity(p)
    keep = np.ones(len(seq), dtype=bool)
    keep[p + 1] = False
    seq[p] = codes[p].astype(np.uint16)
    return seq[keep]


def _ref_replace_all(seq: np.ndarray, pm: np.ndarray, max_passes: int = 8) -> np.ndarray:
    for _ in range(max_passes):
        if len(seq) < 2:
            break
        key = seq[:-1].astype(np.int32) * F._ALPHA + seq[1:]
        codes = pm[key]
        p = np.nonzero(codes >= 0)[0]
        if len(p) < max(64, len(seq) // 100):
            break
        p = _ref_keep_parity(p)
        keep = np.ones(len(seq), dtype=bool)
        keep[p + 1] = False
        seq[p] = codes[p].astype(np.uint16)
        seq = seq[keep]
    return seq


def _ref_compress_slabbed(data: bytes, table: F.FsstTable, slab_size: int = F._SLAB):
    if len(data) == 0:
        return b"", []
    pm = _ref_pairmap(table.merges)
    lit = _ref_lit_table(pm)
    raw = np.frombuffer(data, dtype=np.uint8)
    parts, slabs = [], []
    for off in range(0, len(raw), slab_size):
        chunk = raw[off : off + slab_size]
        seq = _ref_replace_all(_ref_replace_pass0(chunk.astype(np.uint16), lit), pm)
        codes = table.code_map[seq]
        esc = codes < 0
        widths = np.where(esc, 2, 1).astype(np.int64)
        ends = np.cumsum(widths)
        starts = ends - widths
        out = np.empty(int(ends[-1]), dtype=np.uint8)
        out[starts] = np.where(esc, 255, codes).astype(np.uint8)
        out[starts[esc] + 1] = seq[esc].astype(np.uint8)
        parts.append(out.tobytes())
        slabs.append([len(parts[-1]), len(chunk)])
    return b"".join(parts), slabs


def _ref_train(data: bytes) -> F.FsstTable:
    """``fsst.train`` with the sparse pair step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "_replace_pair", _ref_replace_pair)
        return F.train(data)


# --- helpers ----------------------------------------------------------------


def _same(data: bytes, table: F.FsstTable, slab_size: int = F._SLAB) -> None:
    got = F.compress_slabbed(data, table, slab_size)
    assert got == _ref_compress_slabbed(data, table, slab_size)
    if data:
        assert F.decompress(got[0], table.code_syms, got[1]) == data


def _same_tables(a: F.FsstTable, b: F.FsstTable) -> None:
    assert a.merges == b.merges
    assert a.code_map.dtype == b.code_map.dtype and np.array_equal(a.code_map, b.code_map)
    assert a.code_syms == b.code_syms


@st.composite
def _tables(draw, max_symbols: int = 255):
    """A table of 0..255 symbols over a small alphabet: random merges (a
    merge may join any earlier value with itself), then literal codes."""
    alphabet = draw(st.lists(st.integers(0, 255), min_size=1, max_size=6, unique=True))
    n_merges = draw(st.integers(0, min(40, max_symbols)))
    merges: list[tuple[int, int]] = []
    for i in range(n_merges):
        vals = alphabet + list(range(256, 256 + i))
        merges.append((draw(st.sampled_from(vals)), draw(st.sampled_from(vals))))
    n_lits = draw(st.integers(0, max_symbols - n_merges))
    lits = np.array(sorted(draw(st.lists(st.integers(0, 255), max_size=n_lits, unique=True))),
                    dtype=np.int64)
    return alphabet, F._build_table(merges, lits)


# --- tests ------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_tables(), st.data(), st.sampled_from([7, 64, 512, F._SLAB]))
def test_random_streams_match_sparse_kernel(table_and_alphabet, data, slab_size):
    alphabet, table = table_and_alphabet
    stream = data.draw(st.lists(st.sampled_from(alphabet + [0, 200]), max_size=3000))
    _same(bytes(stream), table, slab_size)


@settings(max_examples=60, deadline=None)
@given(_tables(), st.binary(max_size=4000))
def test_dense_fallback_matches_sparse_kernel(table_and_alphabet, raw):
    """With one dense round, every conflict takes the sparse fallback."""
    alphabet, table = table_and_alphabet
    stream = bytes(alphabet[b % len(alphabet)] for b in raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(F, "_DENSE_ROUNDS", 1)
        _same(stream, table, 256)


@pytest.mark.parametrize("run", [1, 2, 3, 15, 16, 17, 32, 33, 200, 5000])
def test_equal_pair_merges_on_runs(run):
    """``l == r`` merges ("aa", then "aaaa", ...): runs at, under and past
    the dense step's round cap, which past it falls back to the sparse
    rule."""
    table = F._build_table([(97, 97), (256, 256), (257, 257), (32, 32), (259, 259)],
                           np.array([32, 97, 98], dtype=np.int64))
    for body in (b"a" * run, b" " * run, (b"b" + b"a" * run) * 3, b"a" * run + b" " * (run + 1)):
        _same(body, table)
        for l, r, code in ((97, 97, 300), (32, 32, 300), (97, 98, 300)):
            seq = np.frombuffer(body, dtype=np.uint8).astype(np.uint16)
            got, n_got = F._replace_pair(seq.copy(), l, r, code)
            want, n_want = _ref_replace_pair(seq.copy(), l, r, code)
            assert n_got == n_want and np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 64, 65, 200])
def test_greedy_left_is_the_run_parity_rule(n):
    rng = np.random.default_rng(n)
    for density in (0.0, 0.3, 0.8, 1.0):
        m = rng.random(n) < density
        want = np.zeros(n, dtype=bool)
        want[_ref_keep_parity(np.flatnonzero(m))] = True
        assert np.array_equal(F._greedy_left(m), want)


def test_slab_edges_empty_and_one_byte():
    text = make_transcripts(300, seed=3)["text"].to_pylist()
    data = "".join(t or "" for t in text).encode()[:5000]
    table = F.train(data)
    for slab in (64, 512):
        for n in (0, 1, 2, slab - 1, slab, slab + 1, 2 * slab, 2 * slab + 1, 3 * slab - 1):
            _same(data[:n], table, slab)
    assert F.compress_slabbed(b"", table) == (b"", [])
    _same(b"\xff", table)
    _same(b"\x00", F._build_table([], np.array([], dtype=np.int64)))  # escapes only


@pytest.mark.parametrize("kind", ["text", "random", "zeros", "runs", "utf8"])
def test_train_and_compress_match_on_real_inputs(kind):
    rng = np.random.default_rng(11)
    data = {
        "text": "".join(t or "" for t in make_transcripts(2_000, seed=5)["text"].to_pylist()).encode(),
        "random": rng.integers(0, 256, 300_000, dtype=np.uint8).tobytes(),
        "zeros": bytes(600_000),
        "runs": (b"x" + b" " * 97 + b"ab" * 40 + b"a" * 33) * 3000,
        "utf8": ("größe 日本語のテキスト ÄÖÜ " * 20_000).encode(),
    }[kind]
    table = F.train(data)
    _same_tables(table, _ref_train(data))
    _same(data, table)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([b"a", b"aa", b" ", b"the ", b"\xc3\xa4", b"x", b"\x00"]),
                max_size=600))
def test_train_matches_sparse_pair_step(parts):
    data = b"".join(parts)
    _same_tables(F.train(data), _ref_train(data))
