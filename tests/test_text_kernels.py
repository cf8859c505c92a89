"""Text read kernels: the FSST expansion (one Arrow ``take`` of expansion
ids) against the gather decoder it replaced, and ``bloom.lower_text`` (the
ASCII fast path of Unicode lowercasing) against ``pc.utf8_lower``, from
single arrays up to token scans and ranked search over a store that mixes
ASCII and non-ASCII containers. The kernel tests start no Ray."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parquet_converter_ray import bloom, storesearch, zonemap
from parquet_converter_ray.bloom import lower_text
from parquet_converter_ray.codecs import decode_array, decode_array_rows, encode_array
from parquet_converter_ray.codecs import fsst as F

# --- reference: the gather decoder the take replaced ---------------------------


def _ref_expansion_tables(code_syms):
    flat = b"".join(code_syms) + bytes(range(256))
    lens = np.zeros(511, dtype=np.int64)
    starts = np.zeros(511, dtype=np.int64)
    off = 0
    for i, s in enumerate(code_syms):
        starts[i] = off
        lens[i] = len(s)
        off += len(s)
    starts[255:511] = off + np.arange(256)
    lens[255:511] = 1
    return np.frombuffer(flat, dtype=np.uint8), starts, lens


def _ref_decompress_one(payload: bytes, tables) -> bytes:
    flat_np, starts, lens = tables
    b = np.frombuffer(payload, dtype=np.uint8)
    if len(b) == 0:
        return b""
    pos255 = np.nonzero(b == 255)[0]
    if len(pos255):
        starts_mask = np.empty(len(pos255), dtype=bool)
        starts_mask[0] = True
        np.not_equal(np.diff(pos255), 1, out=starts_mask[1:])
        run_id = np.cumsum(starts_mask) - 1
        run_start = pos255[starts_mask][run_id]
        ctrl = pos255[((pos255 - run_start) & 1) == 0]
        lit_pos = ctrl + 1
        consumed = np.zeros(len(b), dtype=bool)
        consumed[pos255] = True
        consumed[lit_pos] = True
        coded_pos = np.nonzero(~consumed)[0]
        allpos = np.concatenate([ctrl, coded_pos])
        ids = np.concatenate(
            [b[lit_pos].astype(np.int32) + 255, b[coded_pos].astype(np.int32)]
        )
        ids = ids[np.argsort(allpos, kind="stable")]
    else:
        ids = b.astype(np.int32)
    l = lens[ids]
    total = int(l.sum())
    if total == 0:
        return b""
    out_ends = np.cumsum(l)
    sym_starts = starts[ids]
    delta = np.ones(total, dtype=np.int64)
    delta[0] = sym_starts[0]
    if len(ids) > 1:
        delta[out_ends[:-1]] = sym_starts[1:] - (sym_starts[:-1] + l[:-1] - 1)
    src = np.cumsum(delta)
    return flat_np[src].tobytes()


def _check_one(payload: bytes, code_syms) -> None:
    want = _ref_decompress_one(payload, _ref_expansion_tables(code_syms))
    for large in (False, True):
        got = F._decompress_one(payload, F._expansion_tables(code_syms, large))
        assert bytes(got) == want
    assert F.decompress(payload, code_syms) == want


# --- FSST parity -----------------------------------------------------------------

_escape = st.integers(0, 255).map(lambda v: bytes([255, v]))


@st.composite
def _streams(draw, heavy: bool):
    """(code_syms, payload): a table of 0..255 symbols and a valid stream
    over it, i.e. codes below the table size and complete escape pairs.
    ``heavy`` streams are mostly escaped 255s (even 255-runs), often
    followed by an escaped other byte (odd 255-runs)."""
    syms = draw(st.lists(st.binary(min_size=1, max_size=8), max_size=255))
    toks = [_escape]
    if syms:
        toks.append(st.integers(0, len(syms) - 1).map(lambda c: bytes([c])))
    if heavy:
        toks.append(st.just(b"\xff\xff"))
    return syms, b"".join(draw(st.lists(st.one_of(*toks), max_size=300)))


@settings(max_examples=80, deadline=None)
@given(_streams(heavy=False))
def test_fsst_random_payloads(stream):
    _check_one(stream[1], stream[0])


@settings(max_examples=80, deadline=None)
@given(_streams(heavy=True))
def test_fsst_escape_heavy_payloads(stream):
    _check_one(stream[1], stream[0])


def test_fsst_all_byte_values_and_empty_strings():
    vals = [bytes(range(256)), b"", bytes(range(255, -1, -1)) * 3, b"", b"\xff" * 7, b""]
    arr = pa.array(vals, pa.binary())
    blob = encode_array(arr, codec="fsst")
    assert decode_array(blob).equals(arr)
    data = b"".join(vals)
    table = F.train(data)
    payload = F.compress(data, table)
    _check_one(payload, table.code_syms)
    assert F.decompress(payload, table.code_syms) == data
    _check_one(b"", table.code_syms)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(max_size=80), min_size=1, max_size=120),
       st.integers(16, 512))
def test_fsst_multi_slab_and_no_slab(strings, slab_size):
    data = b"".join(strings)
    table = F.train(data)
    payload, slabs = F.compress_slabbed(data, table, slab_size)
    want = _ref_decompress_one(payload, _ref_expansion_tables(table.code_syms))
    assert want == data
    assert F.decompress(payload, table.code_syms, slabs) == data
    assert F.decompress(payload, table.code_syms, None) == data  # no-slab stream


@pytest.fixture(scope="module")
def fsst_blobs():
    """A multi-slab FSST text column (with nulls and empty strings) and the
    same blob with its slab metadata dropped (the legacy layout)."""
    rng = np.random.default_rng(5)
    words = ["alpha", "Beta", "gamma", "ÄÖ", "\xff", "delta", "x"]
    vals = [" ".join(rng.choice(words, int(rng.integers(0, 60)))) for _ in range(9000)]
    for i in range(0, 9000, 97):
        vals[i] = None
    blob = encode_array(pa.array(vals, pa.string()), codec="fsst")
    assert len(blob.meta["slabs"]) > 3
    legacy = encode_array(pa.array(vals, pa.string()), codec="fsst")
    del legacy.meta["slabs"]
    return blob, legacy


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 8999), max_size=60, unique=True).map(sorted))
def test_fsst_rows_match_full_decode(fsst_blobs, sel):
    for blob in fsst_blobs:
        full = decode_array(blob)
        assert decode_array_rows(blob, sel).equals(full.take(pa.array(sel, pa.int64())))


def test_fsst_legacy_blob_decodes_identically(fsst_blobs):
    blob, legacy = fsst_blobs
    assert decode_array(legacy).equals(decode_array(blob))


# --- lower_text parity -----------------------------------------------------------


def _same_as_utf8(col) -> None:
    got, want = lower_text(col), pc.utf8_lower(col)
    assert got.type == want.type
    assert got.equals(want)


@pytest.mark.parametrize(
    "vals",
    [
        ["Hello World", "ABC xyz 09", None, ""],
        ["\u212aELVIN", "İSTANBUL", "STRAẞE", "ΣΊΣΥΦΟΣ", "ΟΔΟΣ", None],
        ["plain ASCII", "mixed K and İ"],
    ],
)
def test_lower_text_matches_utf8_lower(vals):
    _same_as_utf8(pa.array(vals, pa.string()))
    _same_as_utf8(pa.array(vals, pa.large_string()))


def test_lower_text_slices_chunks_nulls_empty():
    base = pa.array(["ÄÖ ẞ", "AbC", "DEF", "K"], pa.string())
    _same_as_utf8(base.slice(1, 2))  # ASCII slice of a non-ASCII buffer
    _same_as_utf8(base.slice(2))
    _same_as_utf8(base.slice(4))
    _same_as_utf8(pa.chunked_array([base.slice(1, 2), pa.array(["İx", None]), pa.array(["Q"])]))
    _same_as_utf8(pa.chunked_array([], pa.string()))
    _same_as_utf8(pa.array([], pa.string()))
    _same_as_utf8(pa.array([None, None], pa.string()))
    _same_as_utf8(pa.array(["", ""], pa.large_string()))


def test_lower_text_ascii_skips_unicode_kernel(monkeypatch):
    def boom(*a, **kw):
        raise AssertionError("utf8_lower ran on ASCII text")

    monkeypatch.setattr(pc, "utf8_lower", boom)
    assert lower_text(pa.array(["AbC", None, "X1"])).to_pylist() == ["abc", None, "x1"]
    assert lower_text(pa.array(["ÄÖ", "AbC"]).slice(1)).to_pylist() == ["abc"]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=12)), max_size=40),
       st.integers(0, 40))
def test_lower_text_property(vals, cut):
    arr = pa.array(vals, pa.string())
    _same_as_utf8(arr)
    _same_as_utf8(arr.slice(min(cut, len(arr))))


# --- store level: the ASCII path never changes an answer -------------------------

_WORDS = ["alpha", "Beta", "GAMMA", "kelvin", "scale", "omega", "Istanbul"]
_FOREIGN = ["\u212aELVIN scale", "İSTANBUL", "STRAẞE", "ΣΊΣΥΦΟΣ omega", "café ALPHA"]


@pytest.fixture(scope="module")
def mixed_store(ray_session, tmp_path_factory):
    """Range-clustered on grp: groups 0 and 1 hold non-ASCII rows (the
    Unicode path), the other containers are pure ASCII (the fast path)."""
    import ray

    from parquet_converter_ray.encode import encode_dataset

    rng = np.random.default_rng(11)
    n = 4000
    grp = np.repeat(np.arange(8), n // 8)
    texts = []
    for i in range(n):
        w = list(rng.choice(_WORDS, 6))
        if grp[i] < 2 and i % 5 == 0:
            w.append(_FOREIGN[(i // 5) % len(_FOREIGN)])
        texts.append(" ".join(w))
    texts[7] = None
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "grp": pa.array(grp.astype(np.int64)),
                  "text": pa.array(texts, pa.string())})
    out = str(tmp_path_factory.mktemp("mixed") / "store")
    encode_dataset(ray.data.from_arrow(t), out, n_parts=8, conv_col="doc_id", order_col=None,
                   sort_key=("doc_id",), salt_rows=0, cluster_by="grp",
                   text_bloom_cols=["text"], codec={"text": "fsst"})
    return out


def _in_process(monkeypatch):
    """Run the scan's slice tasks in the test process, so that a patched
    module-level function is the one the scan calls."""
    import ray

    class _Local:
        @staticmethod
        def remote(fn, paths, args):
            return ray.put(fn(paths, *args))

    monkeypatch.setattr(zonemap, "_remote_slice", lambda: _Local)


def _store_answers(store):
    from parquet_converter_ray.storesearch import store_search

    out = {}
    for op, q in [("hastok", "kelvin"), ("hastok", "istanbul scale"), ("hasany", "kelvin omega"),
                  ("hasphrase", "kelvin scale"), ("hasphrase", "stra e")]:
        batches = list(zonemap.scan_store(store, [("text", op, q)]).iter_batches(
            batch_format="pyarrow"))
        out[op, q] = pa.concat_tables(batches).sort_by("doc_id") if batches else None
    for mode in ("any", "all", "bm25"):
        out[mode] = store_search(store, "text", "kelvin istanbul alpha", 25, mode=mode,
                                 tiebreak=["doc_id"])
    return out


def test_store_token_ops_ascii_path_matches_unicode(mixed_store, monkeypatch):
    _in_process(monkeypatch)
    fast = _store_answers(mixed_store)
    monkeypatch.setattr(bloom, "lower_text", pc.utf8_lower)
    monkeypatch.setattr(storesearch, "lower_text", pc.utf8_lower)
    slow = _store_answers(mixed_store)
    assert fast.keys() == slow.keys()
    for key in fast:
        assert fast[key] is not None and fast[key].equals(slow[key]), key
    # the Unicode rows really answer: the Kelvin sign folds to "k"
    assert "\u212aELVIN scale" in " ".join(fast["hastok", "kelvin"]["text"].to_pylist())
    assert "İSTANBUL" in " ".join(fast["hastok", "istanbul scale"]["text"].to_pylist())
