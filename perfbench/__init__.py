"""End-to-end and per-layer benchmark of the parquet_converter_ray engine.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1``, run from the root of a checkout. See ``run.py``.
"""
