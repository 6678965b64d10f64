"""Code ratchets: counts that may fall but must not rise."""

from __future__ import annotations

import pathlib
import re
from collections import Counter

PKG = pathlib.Path(__file__).resolve().parents[1] / "deezymatch_ray"


def test_pandas_batch_format_sites_do_not_grow():
    """Pandas-format UDFs leave ``pandas`` schema metadata on their
    blocks (unhashable for Ray's schema unification, and naming tensor
    columns by a dtype that fresh workers cannot parse). New UDFs are
    pyarrow; when a site is converted, lower the bound."""
    sites = [
        f"{p.relative_to(PKG)}:{i}"
        for p in sorted(PKG.rglob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if 'batch_format="pandas"' in line
    ]
    assert len(sites) <= 3, sites


def test_map_groups_only_at_known_sites():
    """``map_groups`` calls its UDF once per group and samples sort
    boundaries first; a whole-bucket UDF runs through
    ``blocking.bucket_map`` (one call per range of hash buckets). The
    sites left: ``analysis.py``'s top-k, sessions and rolling."""
    sites = Counter(
        p.relative_to(PKG).as_posix()
        for p in PKG.rglob("*.py")
        for line in p.read_text().splitlines()
        if ".map_groups(" in line
    )
    allowed = Counter({"pipelines/analysis.py": 3})
    assert sites <= allowed, sites


# ``<expr>.join(`` where <expr> is not a string literal, ``str``,
# ``bytes``, ``os.path`` or pyarrow's ``Table`` (the co-group's kernel,
# spelled ``pa.Table.join(left, right, ...)``): a separator literal's
# join ends in a quote
_DATASET_JOIN = re.compile(
    r"(?<![\"'])(?<!\bstr)(?<!\bbytes)(?<!\bpath)(?<!\bTable)\.join\(")


def test_no_dataset_join_in_the_library():
    """Two keyed sides meet through ``blocking.cogroup`` (one
    ``bucket_map``), never Ray's hash join: it stalls on a one-CPU
    cluster and fails on empty partitions."""
    sites = [
        f"{p.relative_to(PKG)}:{i}"
        for p in sorted(PKG.rglob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if _DATASET_JOIN.search(line)
    ]
    assert not sites, sites
    assert _DATASET_JOIN.search("joined = spend.join(cust, on=('k',))")
    assert not any(_DATASET_JOIN.search(x) for x in (
        '" ".join(words)', "str.join(sep, xs)", "b''.join(parts)",
        "bytes.join(b'', xs)", "os.path.join(a, b)", "'|'.join(k)",
        "pa.Table.join(left, right, keys=on)"))


def test_library_runs_no_actor_pools():
    """Stateful stages run as tasks that build their state once per
    worker process (``stages/scoring.py``); an actor pool costs a wait
    for its actors on every execution. ``concurrency=`` or
    ``fn_constructor_kwargs`` in the package means one came back."""
    sites = [
        f"{p.relative_to(PKG)}:{i}"
        for p in sorted(PKG.rglob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "concurrency=" in line or "fn_constructor_kwargs" in line
    ]
    assert not sites, sites


# ‖a‖² + ‖b‖² − 2·a·b (a binary "- 2.0 *", also at the start of a
# continuation line) and a matmul divided by norms ("(a @ b.T) /")
_GRAM = re.compile(r"(?:[\w\])]\s*|^\s*)-\s*2(?:\.0)?\s*\*|@\s*[\w\[\]:.]+\)\s*/")


def test_one_gram_distance_implementation():
    """Vector distances come from ``functions/vectors.py``, whose values
    do not depend on batch layout; a gram-form distance written out
    anywhere else gives byte-identical vectors a nonzero distance that
    varies with the matmul's blocking."""
    sites = [
        f"{p.relative_to(PKG)}:{i}"
        for p in sorted(PKG.rglob("*.py"))
        if p != PKG / "functions" / "vectors.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if _GRAM.search(line)
    ]
    assert not sites, sites
