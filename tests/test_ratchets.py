"""Code ratchets: counts that may fall but must not rise."""

from __future__ import annotations

import pathlib

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
    assert len(sites) <= 9, sites


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
