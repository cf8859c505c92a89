"""Reference answers for the ``query`` workload, computed by DuckDB over the
input parquet, and the normalisation that makes engine results comparable.

Both sides are reduced to plain Python rows: lists of tuples, in the order
the query defines (ORDER BY), or sorted with NULL last where the engine
leaves order unspecified (scan rows, GROUP BY groups).
"""

from __future__ import annotations

import re

import duckdb

AGG_KEYS = ("count", "sum_turn_idx", "min_ts", "max_ts", "nn_tool")
STORE_COLUMNS = ("conv_id", "turn_idx", "role", "text", "tool", "ts")


def null_last(row: tuple) -> tuple:
    return tuple((v is None, v) for v in row)


def token_pattern(tok: str) -> str:
    """The whole-token regex the engine's search scorer uses per token."""
    return "(^|[^a-z0-9])" + re.escape(tok) + "([^a-z0-9]|$)"


def table_rows(tbl, columns) -> list[tuple]:
    return list(zip(*(tbl.column(c).to_pylist() for c in columns))) if tbl.num_rows else []


class DuckOracle:
    def __init__(self, parquet_dir: str):
        self.con = duckdb.connect()
        self.con.execute("SET threads = 2")
        self.con.execute(
            f"CREATE TABLE t AS SELECT * FROM read_parquet('{parquet_dir}/*.parquet')"
        )

    def close(self) -> None:
        self.con.close()

    def _rows(self, sql: str, params=()) -> list[tuple]:
        return [tuple(r) for r in self.con.execute(sql, list(params)).fetchall()]

    # -- pools the op parameters are drawn from --------------------------------

    def lookup_pool(self, max_turns: int) -> list[str]:
        return [r[0] for r in self._rows(
            "SELECT conv_id FROM t GROUP BY conv_id HAVING count(*) BETWEEN 2 AND ? "
            "ORDER BY conv_id", [max_turns])]

    def token_pool(self, skip: int, size: int) -> list[str]:
        """Vocabulary tokens ranked by frequency, skipping the most common."""
        return [r[0] for r in self._rows(
            "SELECT tok FROM (SELECT unnest(regexp_split_to_array(lower(text), "
            "'[^a-z0-9]+')) AS tok FROM t) WHERE tok <> '' GROUP BY tok "
            "ORDER BY count(*) DESC, tok LIMIT ? OFFSET ?", [size, skip])]

    # -- answers -----------------------------------------------------------------

    def lookup(self, cid: str) -> list[tuple]:
        return self._rows(f"SELECT {', '.join(STORE_COLUMNS)} FROM t WHERE conv_id = ? "
                          "ORDER BY turn_idx", [cid])

    def scan(self, min_turn: int, tool: str) -> list[tuple]:
        return sorted(self._rows(
            "SELECT conv_id, turn_idx, ts FROM t WHERE turn_idx >= ? AND tool = ?",
            [min_turn, tool]), key=null_last)

    def agg(self, role: str, max_turn: int) -> tuple:
        return self._rows(
            "SELECT count(*), sum(turn_idx), min(ts), max(ts), count(tool) FROM t "
            "WHERE role = ? AND turn_idx < ?", [role, max_turn])[0]

    def group(self, col: str, min_turn: int) -> list[tuple]:
        return sorted(self._rows(
            f"SELECT {col}, count(*), max(turn_idx), sum(turn_idx) FROM t "
            f"WHERE turn_idx >= ? GROUP BY {col}", [min_turn]), key=null_last)

    def topk(self, role: str, desc: bool, k: int) -> list[tuple]:
        d = "DESC" if desc else "ASC"
        return self._rows(
            "SELECT conv_id, turn_idx, ts FROM t WHERE role = ? "
            f"ORDER BY ts {d} NULLS LAST, conv_id, turn_idx LIMIT ?", [role, k])

    def distinct(self, col: str, max_turn: int) -> list:
        return [r[0] for r in self._rows(
            f"SELECT DISTINCT {col} FROM t WHERE turn_idx < ? ORDER BY {col} NULLS LAST",
            [max_turn])]

    def search(self, tokens: list[str], k: int) -> list[tuple]:
        score = " + ".join(
            f"CAST(coalesce(regexp_matches(lower(text), '{token_pattern(t)}'), false) AS INTEGER)"
            for t in tokens)
        return self._rows(
            f"SELECT conv_id, turn_idx, score FROM (SELECT conv_id, turn_idx, {score} AS score "
            "FROM t) WHERE score > 0 ORDER BY score DESC, conv_id, turn_idx LIMIT ?", [k])
