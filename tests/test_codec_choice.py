"""The codec cost model's FSST skip rule and the FSST trainer's ranking.

``choose_codec`` skips the FSST trial when the best wrapped trial so far is
at most 1/8 of the sample's raw payload bytes; ``fsst.train`` ranks only
the candidate pairs of each round. These tests pin that both are neutral:
the rule picks what the earlier rule (``best < 0.15 * plain``, kept below
as the reference) picked, and the trainer builds the table a full 512x512
histogram with a stable (count desc, key asc) order builds. No Ray.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parquet_converter_ray import codecs as C
from parquet_converter_ray.codecs import fsst as F
from parquet_converter_ray.codecs.strings import str_parts
from parquet_converter_ray.codecs.util import wrap_buf
from parquet_converter_ray.synth import make_transcripts


def _reference_choose(kind: str, vals, n: int) -> str:
    """The earlier cost model: FSST trained unless the best trial so far is
    below 0.15x the plain trial."""
    if n == 0:
        return "plain"
    table = C._NUM_CODECS if kind == "num" else C._STR_CODECS
    sample, _ = C._sample(kind, vals, n)
    best, best_size, plain_size = "plain", float("inf"), None
    for name in C._candidates(kind, vals):
        enc, _ = table[name]
        try:
            if name == "fsst":
                if plain_size is not None and best_size < 0.15 * plain_size:
                    continue
                _, payload = str_parts(sample)
                _, bufs = enc(sample, table=F.train(payload))
            else:
                _, bufs = enc(sample)
        except (ValueError, OverflowError):
            continue
        size = sum(len(wrap_buf(b)) for b in bufs)
        if name == "plain":
            plain_size = size
        if size < best_size:
            best, best_size = name, size
    return best


def _reference_train(data: bytes, max_merges: int = F._MAX_MERGES, sample_cap: int = 1 << 17,
                     round_size: int = 8) -> F.FsstTable:
    """``fsst.train`` over the full 512x512 pair histogram, top 64 pairs
    in a stable (count desc, key asc) order each round."""
    seq = np.frombuffer(F._sample_bytes(data, sample_cap), dtype=np.uint8).astype(np.uint16)
    sym_len = np.ones(F._ALPHA, dtype=np.int64)
    merges: list[tuple[int, int]] = []
    min_count = max(4, len(seq) // (1 << 16))
    while len(merges) < max_merges and len(seq) >= 2:
        key = seq[:-1].astype(np.int32) * F._ALPHA + seq[1:]
        counts = np.bincount(key, minlength=F._ALPHA * F._ALPHA)
        top = np.lexsort((np.arange(len(counts)), -counts))[:64]
        round_pairs: list[tuple[int, int]] = []
        used: set[int] = set()
        for k in top:
            if counts[k] < min_count or len(round_pairs) >= round_size:
                break
            l, r = divmod(int(k), F._ALPHA)
            if l in used or r in used:
                continue
            if sym_len[l] + sym_len[r] <= F._MAX_SYMBOL_LEN:
                round_pairs.append((l, r))
                used.update((l, r))
        if not round_pairs:
            break
        any_rep = False
        for l, r in round_pairs:
            if len(merges) >= max_merges:
                break
            code = 256 + len(merges)
            seq, n_rep = F._replace_pair(seq, l, r, code)
            if n_rep == 0:
                continue
            sym_len[code] = sym_len[l] + sym_len[r]
            merges.append((l, r))
            any_rep = True
        if not any_rep:
            break
    exp = [bytes([v]) for v in range(256)] + [b""] * 256
    for i, (l, r) in enumerate(merges):
        exp[256 + i] = exp[l] + exp[r]
    freqs = np.bincount(seq, minlength=F._ALPHA)
    m = len(merges)
    lit_vals = np.nonzero(freqs[:256] > 0)[0]
    if len(lit_vals) > 255 - m:
        order = np.argsort(freqs[lit_vals], kind="stable")[::-1]
        lit_vals = np.sort(lit_vals[order[: 255 - m]])
    code_syms = [exp[256 + i] for i in range(m)] + [exp[v] for v in lit_vals]
    return F.FsstTable(merges, None, code_syms)


def _physical(arr: pa.Array):
    """(kind, vals, n) as ``encode_array`` hands them to the cost model."""
    if arr.null_count:
        arr = pc.fill_null(arr, pa.scalar(C._fill_default(arr.type), type=arr.type))
    kind, vals = C._to_physical(arr)
    return kind, vals, len(arr)


@pytest.fixture(scope="module")
def partition() -> pa.Table:
    """A synth partition sorted as an encode sorts it."""
    return make_transcripts(4_000, seed=5).sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending")]).combine_chunks()


_rng = np.random.default_rng(11)
_WORDS = ["naïve", "東京", "Ελληνικά", "façade", "😀", "Straße", "добрый", "día"]
FIXTURES = {
    "all_null": pa.array([None] * 3_000, type=pa.string()),
    "all_empty": pa.array([""] * 3_000),
    "single_value": pa.array(["assistant"] * 3_000),
    "unique_ids": pa.array([f"{i:08d}-{v:016x}" for i, v in
                            enumerate(_rng.integers(0, 2**62, 3_000))]),
    "long_repeated_text": pa.array(["lorem ipsum dolor sit amet, " * int(k)
                                    for k in _rng.integers(20, 40, 600)]),
    "non_ascii_text": pa.array([" ".join(_rng.choice(_WORDS, int(k)))
                                for k in _rng.integers(1, 30, 3_000)]),
}


def test_rule_picks_the_reference_codec_on_a_partition(partition):
    for name in partition.column_names:
        kind, vals, n = _physical(partition[name].chunk(0))
        assert C.choose_codec(kind, vals, n)[0] == _reference_choose(kind, vals, n), name


@pytest.mark.parametrize("name", list(FIXTURES))
def test_rule_picks_the_reference_codec_on_fixtures(name):
    kind, vals, n = _physical(FIXTURES[name])
    assert C.choose_codec(kind, vals, n)[0] == _reference_choose(kind, vals, n)


def test_rule_skips_fsst_training_for_conv_id_and_role(partition, monkeypatch):
    calls = []
    real = F.train

    def spy(*a, **kw):
        calls.append(1)
        return real(*a, **kw)

    monkeypatch.setattr(F, "train", spy)
    for name in ("conv_id", "role"):
        C.choose_codec(*_physical(partition[name].chunk(0)))
    assert not calls
    C.choose_codec(*_physical(partition["text"].chunk(0)))
    assert len(calls) == 1
    for name in ("conv_id", "role"):
        trials = C.codec_trials(partition[name].chunk(0))
        assert [t["codec"] for t in trials] == ["plain", "dict", "fsst"]
        assert trials[-1]["skipped"] and trials[-1]["bytes"] is None


def test_blob_reports_the_choice_seconds(partition):
    """``choose_s`` (lineage ``timings["choose"]``) counts an ``auto``
    encode's cost model; a forced codec has none."""
    arr = partition["text"].chunk(0)
    auto = C.encode_array(arr)
    forced = C.encode_array(arr, codec=auto.codec)
    assert auto.choose_s > 0 and forced.choose_s == 0
    assert C.decode_array(auto).equals(C.decode_array(forced))


def _same_table(data: bytes) -> None:
    got, want = F.train(data), _reference_train(data)
    assert got.merges == want.merges
    assert got.code_syms == want.code_syms


_TOKENS = [b"the ", b"quick", b"\xc3\xa9t\xc3\xa9", b"aa", b"ab", b"ba", b"\x00\xff", b", ", b"zz"]


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.binary(max_size=3_000),
    st.lists(st.sampled_from(_TOKENS), max_size=800).map(b"".join),
))
def test_trainer_matches_the_full_histogram_reference(data):
    _same_table(data)


def test_trainer_matches_the_reference_on_synth_text(partition):
    _same_table(str_parts(partition["text"].chunk(0).fill_null(""))[1])


def test_tied_pairs_merge_lower_key_first():
    # "dc" and "ba" both occur 8 times; "ba" has the lower pair key
    table = F.train(b"dc" * 8 + b"ba" * 8)
    assert table.merges[:2] == [(ord("b"), ord("a")), (ord("d"), ord("c"))]


def test_train_is_deterministic(partition):
    data = str_parts(partition["text"].chunk(0).fill_null(""))[1]
    a, b = F.train(data), F.train(data)
    assert a.merges == b.merges and a.code_syms == b.code_syms
    assert np.array_equal(a.code_map, b.code_map)
