"""CSV/TXT -> Parquet conversion on Ray Data (reference parity, S1-S8 / M3-M7).

Shape:  sample-then-commit schema inference (reference converter.py:453-511),
then a streaming ``read_csv -> map_batches(cast) -> write_parquet`` pipeline —
Ray Data's streaming executor replaces the polars sink
(reference converter.py:514-589) and parallelises across files and blocks.

Schema inference follows the reference's precedence (parser.py:154-268) with
the DEFAULT engine's sample-schema semantics (converter.py:453-511): numeric
guard first (all-numeric columns are Int64/float64, never datetime), then
datetime (default mixed parse, then each configured format; strict all-parse
sample commit, later rows coerce to null), then boolean
({"true","false","1","0"} case-insensitive), then string. The inference runs ONCE on a driver-side sample of
``sample_rows`` rows (pandas — identical semantics to the reference legacy
engine); the committed plan is then applied VECTORIZED per batch in
``map_batches`` across the cluster. NA tokens ["", "NA", "NULL"]
(reference config.py:55).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pandas as pd
import pyarrow as pa
import pyarrow.csv as pacsv

import ray.data

from .config import EngineConfig, ReaderOptions

_BOOL_MAP = {"true": True, "1": True, "false": False, "0": False}


@dataclass
class ConversionStats:
    """Per-file conversion record (reference stats.py:8-50 parity)."""

    input_path: str
    output_path: str = ""
    rows_processed: int = 0
    rows_converted: int = 0
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    column_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


_JSONL_SUFFIXES = (".jsonl", ".ndjson")


def resolve_options(path: str, cfg: EngineConfig) -> ReaderOptions:
    """Suffix dispatch (reference converter.py:360-388); unsupported -> ValueError."""
    suffix = os.path.splitext(path)[1].lower()
    if suffix == ".csv":
        return cfg.csv
    if suffix == ".txt":
        return cfg.txt
    raise ValueError(f"unsupported file type: {suffix}")


def normalize_encoding(value: str) -> tuple[str, str]:
    """Normalize encoding names to (codec, errors) — reference
    ``_normalize_polars_encoding`` semantics (converter.py:426-450): the
    recognised vocabulary is utf8 / utf8-lossy (lossy replaces undecodable
    bytes with U+FFFD); other codecs pass through for the Arrow reader.

    Examples
    --------
    >>> normalize_encoding("UTF-8")
    ('utf-8', 'strict')
    >>> normalize_encoding("utf8-lossy")
    ('utf-8', 'replace')
    """
    v = value.lower().replace("_", "-")
    if v in ("utf8", "utf-8"):
        return "utf-8", "strict"
    if v in ("utf8-lossy", "utf-8-lossy"):
        return "utf-8", "replace"
    return value, "strict"


# --- schema inference (sample-then-commit) ----------------------------------


def _read_sample(path: str, opts: ReaderOptions, sample_rows: int) -> pd.DataFrame:
    codec, errors = normalize_encoding(opts.encoding)
    kwargs: dict = {"nrows": sample_rows, "encoding_errors": errors}
    if opts.skip_footer > 0:
        # pandas python engine forbids nrows with skipfooter; the footer path
        # is eager/legacy anyway, so sample = whole file minus footer
        kwargs = {"skipfooter": opts.skip_footer, "encoding_errors": errors}
    return pd.read_csv(
        path,
        sep=opts.delimiter,
        encoding=codec,
        header=0 if opts.header else None,
        names=opts.column_names,
        na_values=opts.na_values,
        keep_default_na=False,
        skiprows=opts.skip_rows,
        dtype=str,
        engine="python",
        **kwargs,
    )


def _read_sample_jsonl(path: str, sample_rows: int) -> pd.DataFrame:
    """Driver-side JSONL sample, stringified so the SAME inference plan as the
    delimited path applies (a JSON int samples as '5' -> Int64 plan, an ISO
    timestamp string upgrades to the datetime plan, etc.)."""
    df = pd.read_json(path, lines=True, nrows=sample_rows, convert_dates=False)

    def to_str(v):
        if v is None or (isinstance(v, float) and pd.isna(v)):
            return None
        return str(v)

    mapper = getattr(df, "map", None) or df.applymap  # pandas<2.1 fallback
    return mapper(to_str)


def infer_parse_plan(df: pd.DataFrame, formats: list[str], dtypes: dict | None = None) -> dict[str, tuple]:
    """Column -> parse plan, reproducing reference parser.py:154-268 precedence.

    Plans: ("dtype", <explicit>) | ("datetime", fmt_or_None) | ("int64",) |
           ("float64",) | ("boolean",) | ("string",)
    """
    plan: dict[str, tuple] = {}
    for col in df.columns:
        if dtypes and col in dtypes:
            plan[col] = ("dtype", dtypes[col])
            continue
        s = df[col]
        nn = s.dropna()
        # numeric guard first: a column whose every non-null value is numeric
        # is numeric, never datetime — matches the DEFAULT engine's polars
        # sample-schema semantics (reference converter.py:453-511;
        # try_parse_dates does not treat digit strings as dates).
        num = pd.to_numeric(s, errors="coerce")
        if len(nn) and num[s.notna()].notna().all():
            dropped = num.dropna()
            if (dropped.astype("int64") == dropped).all():
                plan[col] = ("int64",)
            else:
                plan[col] = ("float64",)
            continue
        # datetime: default (mixed) parse first, then each configured format
        # (precedence per reference parser.py:195-224); STRICT sample commit —
        # all non-null sample values must parse (sample-then-commit,
        # converter.py:453-511); rows beyond the sample that fail the committed
        # format coerce to null (ignore_errors=True semantics, converter.py:419).
        committed = False
        if len(nn):
            for fmt in [None, *formats]:
                try:
                    conv = pd.to_datetime(nn, errors="coerce", format=fmt or "mixed")
                except (ValueError, TypeError):
                    continue
                if conv.notna().all():
                    plan[col] = ("datetime", fmt)
                    committed = True
                    break
        if committed:
            continue
        # boolean: values subset of {"true","false","1","0"} case-insensitive
        # (reference parser.py:243-257; "1"/"0" alone hit the numeric branch first)
        if len(nn) and nn.astype(str).str.lower().isin(list(_BOOL_MAP)).all():
            plan[col] = ("boolean",)
            continue
        plan[col] = ("string",)
    return plan


def plan_to_schema(plan: dict[str, tuple]) -> pa.Schema:
    out = []
    for col, p in plan.items():
        kind = p[0]
        if kind == "datetime":
            t = pa.timestamp("us")
        elif kind == "int64":
            t = pa.int64()
        elif kind == "float64":
            t = pa.float64()
        elif kind == "boolean":
            t = pa.bool_()
        elif kind == "dtype":
            t = pa.type_for_alias({"Int64": "int64", "string": "string"}.get(p[1], p[1]))
        else:
            t = pa.string()
        out.append(pa.field(col, t))
    return pa.schema(out)


class ApplyParsePlan:
    """Vectorized per-batch cast stage (M4-M7) — pandas kernels, identical
    semantics to the reference's ``infer_dtypes`` transformations."""

    def __init__(self, plan: dict[str, tuple]):
        self.plan = plan
        self.schema = plan_to_schema(plan)

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        for col, p in self.plan.items():
            if col not in batch.columns:
                continue
            kind = p[0]
            s = batch[col]
            if kind == "datetime":
                fmt = p[1]
                conv = pd.to_datetime(s, errors="coerce", format=fmt if fmt else "mixed")
                batch[col] = conv.astype("datetime64[us]")
            elif kind == "int64":
                batch[col] = pd.to_numeric(s, errors="coerce").astype("Int64")
            elif kind == "float64":
                batch[col] = pd.to_numeric(s, errors="coerce").astype("float64")
            elif kind == "boolean":
                batch[col] = s.astype(str).str.lower().map(_BOOL_MAP).astype("boolean")
            elif kind == "dtype":
                batch[col] = s.astype(p[1])
            else:
                batch[col] = s.astype("string")
        # pin the committed schema so every block is type-identical (empty or
        # all-null blocks would otherwise drift to arrow `null` columns)
        schema = pa.schema([self.schema.field(c) for c in batch.columns if self.schema.get_field_index(c) >= 0])
        return pa.Table.from_pandas(batch, schema=schema, preserve_index=False)


# --- pipeline ---------------------------------------------------------------


def read_delimited(path: str | list[str], opts: ReaderOptions) -> "ray.data.Dataset":
    """Streaming delimited read with every value as string (inference applies later)."""
    first = path[0] if isinstance(path, list) else path
    header = pd.read_csv(
        first, sep=opts.delimiter, nrows=0, header=0 if opts.header else None,
        names=opts.column_names, skiprows=opts.skip_rows, engine="python",
    )
    names = [str(c) for c in header.columns]
    convert = pacsv.ConvertOptions(
        column_types={c: pa.string() for c in names},
        null_values=opts.na_values,
        strings_can_be_null=True,
    )
    parse = pacsv.ParseOptions(delimiter=opts.delimiter)
    codec, _errors = normalize_encoding(opts.encoding)
    if opts.header and opts.column_names:
        # explicit replacement for header-derived column names (reference
        # parser semantics: pandas header=0 + names): give Arrow the
        # replacement names and consume the file's header row via skip_rows —
        # otherwise batches would carry the file's header names while the
        # parse plan is keyed by the replacements, silently dropping columns
        read = pacsv.ReadOptions(
            skip_rows=opts.skip_rows + 1,
            column_names=names,
            encoding=codec,
        )
    else:
        read = pacsv.ReadOptions(
            skip_rows=opts.skip_rows,
            column_names=None if opts.header else names,
            encoding=codec,
        )
    return ray.data.read_csv(
        path, convert_options=convert, parse_options=parse, read_options=read
    )


def convert_file(
    input_path: str,
    output_dir: str,
    cfg: EngineConfig | None = None,
) -> ConversionStats:
    """Convert one delimited file to a parquet dataset directory.

    Output: ``<output_dir>/<stem>/`` (a directory of part files — the resumable
    layout; the reference wrote a single ``<stem>.parquet``, converter.py:222).
    """
    cfg = cfg or EngineConfig()
    stats = ConversionStats(input_path=input_path)
    try:
        if os.path.splitext(input_path)[1].lower() in _JSONL_SUFFIXES:
            # JSONL source: Arrow's NDJSON reader streams typed batches; the
            # sample-then-commit plan still runs (over stringified values) so
            # string-encoded datetimes/numerics upgrade exactly like CSV
            sample = _read_sample_jsonl(input_path, cfg.sample_rows)
            plan = infer_parse_plan(sample, cfg.datetime_formats)
            ds = ray.data.read_json(input_path)
            return _commit_converted(ds, plan, input_path, output_dir, cfg, stats)
        opts = resolve_options(input_path, cfg)
        sample = _read_sample(input_path, opts, cfg.sample_rows)
        plan = infer_parse_plan(sample, cfg.datetime_formats, opts.dtypes)
        codec, errors = normalize_encoding(opts.encoding)
        if opts.skip_footer > 0 or errors == "replace" or len(opts.delimiter) > 1:
            # Arrow CSV has no skip-footer, no lossy decode, and only
            # single-char delimiters; use the eager pandas path for these
            # rarely-used options (reference parser.py:98,144 pandas
            # semantics — the legacy TXT path's default sep is the regex
            # '\s+'; utf8-lossy per converter.py:426-450 replaces
            # undecodable bytes with U+FFFD)
            df = pd.read_csv(
                input_path,
                sep=opts.delimiter,
                encoding=codec,
                encoding_errors=errors,
                header=0 if opts.header else None,
                names=opts.column_names,
                na_values=opts.na_values,
                keep_default_na=False,
                skiprows=opts.skip_rows,
                skipfooter=opts.skip_footer,
                dtype=str,
                engine="python",
            )
            if not len(df):
                df = df.astype(str)
            ds = ray.data.from_pandas(df)
        else:
            ds = read_delimited(input_path, opts)
        return _commit_converted(ds, plan, input_path, output_dir, cfg, stats)
    except Exception as e:  # per-file failures are non-fatal (reference converter.py:245-253)
        stats.errors.append(f"{type(e).__name__}: {e}")
    return stats


def _commit_converted(
    ds: "ray.data.Dataset",
    plan: dict[str, tuple],
    input_path: str,
    output_dir: str,
    cfg: EngineConfig,
    stats: ConversionStats,
) -> ConversionStats:
    """Shared tail of every conversion source: cast stage -> parquet dataset
    directory -> verification read + per-column stats."""
    ds = ds.map_batches(ApplyParsePlan(plan), batch_format="pandas")
    stem = os.path.splitext(os.path.basename(input_path))[0]
    out = os.path.join(output_dir, stem)
    if os.path.isdir(out):  # reruns overwrite (reference converter.py:222 semantics)
        import shutil

        shutil.rmtree(out)
    ds.write_parquet(out, compression=cfg.compression)
    from .pipelines._util import read_parquet_clean

    written = read_parquet_clean(out)
    stats.output_path = out
    stats.rows_processed = stats.rows_converted = written.count()
    stats.column_stats = _column_stats(written, cfg.profiling_column_limit)
    return stats


def convert_directory(
    input_dir: str, output_dir: str, cfg: EngineConfig | None = None
) -> list[ConversionStats]:
    """Convert every *.csv / *.txt in a directory (reference converter.py:101-172).

    Schema is inferred per file (files may differ), so each file is its own
    pipeline; Ray parallelises within each pipeline, and failures are isolated
    per file exactly like the reference's loop.
    """
    cfg = cfg or EngineConfig()
    files = sorted(
        os.path.join(input_dir, f)
        for f in os.listdir(input_dir)
        if f.lower().endswith((".csv", ".txt") + _JSONL_SUFFIXES)
    )
    return [convert_file(f, output_dir, cfg) for f in files]


def _column_stats(ds: "ray.data.Dataset", column_limit: int) -> dict:
    """Post-conversion per-column profile: dtype, null_count, n_unique for the
    first ``column_limit`` columns (reference converter.py:592-655)."""
    from .profile import profile_dataset

    prof = profile_dataset(ds, column_limit=column_limit)
    return {
        name: {
            "dtype": c["dtype"],
            "null_count": c["null_count"],
            "unique_values": c["n_unique"],
        }
        for name, c in prof["columns"].items()
    }


def save_conversion_report(stats_list: list[ConversionStats], output_dir: str, cfg: EngineConfig) -> str:
    """conversion_report.json (reference logging.py:172-224 parity)."""
    import datetime
    import json

    report = {
        "timestamp": datetime.datetime.now().isoformat(),
        "config": {"compression": cfg.compression, "sample_rows": cfg.sample_rows},
        "summary": {
            "total_files": len(stats_list),
            "successful": sum(1 for s in stats_list if not s.errors),
            "failed": sum(1 for s in stats_list if s.errors),
            "total_rows": sum(s.rows_converted for s in stats_list),
        },
        "files": [s.to_dict() for s in stats_list],
    }
    path = os.path.join(output_dir, "conversion_report.json")
    os.makedirs(output_dir, exist_ok=True)
    with open(path, "w") as f:
        json.dump(report, f, indent=2, default=str)
    return path
