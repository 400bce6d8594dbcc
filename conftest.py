"""Repo-wide pytest configuration.

Registers the ``slow`` marker and skips slow-marked tests by default so
the tier-1 suite stays fast.  Run them with ``--runslow`` or
``REPRO_FULL=1``; the explicit benchmark modules under ``benchmarks/``
additionally honour ``REPRO_SMOKE=1`` for a tiny-shape fast pass.

The core GEMM bench and the serving benchmark scripts (``bench_core_perf``
/ ``bench_serving`` / ``bench_autoscale`` / ``bench_continuous`` and the
rest of ``SMOKE_BENCHES``) are also collected **into the default test
tier in smoke mode**: ``bench_*.py`` files do not match pytest's default test
patterns, so without this the scripts only ever ran when someone invoked
them explicitly — an easy way for them to silently rot.  The default
(no-flag) run forces ``REPRO_SMOKE=1`` and pulls those modules into
collection; committed ``BENCH_*.json`` regeneration stays gated behind
``REPRO_FULL=1`` (which disables the smoke forcing).

The tier-1 suite also carries the static-analysis gate
(``tests/test_checks_gate.py``): ``repro.checks`` runs strict over
``src/`` and relaxed over ``tests/`` + ``benchmarks/``, so determinism /
layering / clock-discipline / hygiene violations fail the plain run —
see ``[tool.repro-checks]`` in ``pyproject.toml``.
"""

import os

import pytest

# Bench scripts exercised (in smoke mode) by the plain test tier.
SMOKE_BENCHES = (
    "bench_core_perf.py",
    "bench_serving.py",
    "bench_autoscale.py",
    "bench_continuous.py",
    "bench_prefix.py",
    "bench_resilience.py",
    "bench_observability.py",
    "bench_obs_scale.py",
)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked @pytest.mark.slow",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test, skipped unless --runslow/REPRO_FULL=1"
    )
    # Default tier = smoke mode for the bench scripts.  REPRO_FULL=1 (the
    # documented regeneration path) and an explicit REPRO_SMOKE value both
    # take precedence; this only fills the unset default.
    if os.environ.get("REPRO_FULL") != "1":
        os.environ.setdefault("REPRO_SMOKE", "1")


def pytest_collect_file(file_path, parent):
    """Collect the serving bench scripts when smoke mode is active."""
    if (
        file_path.name in SMOKE_BENCHES
        and file_path.parent.name == "benchmarks"
        and os.environ.get("REPRO_SMOKE") == "1"
    ):
        # A bench file named explicitly on the command line is already
        # collected by pytest's own arg handling; collecting it here too
        # would run every test twice.
        explicit = {
            os.path.realpath(a.split("::", 1)[0])
            for a in parent.config.invocation_params.args
            if not str(a).startswith("-")
        }
        if os.path.realpath(str(file_path)) in explicit:
            return None
        return pytest.Module.from_parent(parent, path=file_path)
    return None


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow") or os.environ.get("REPRO_FULL") == "1":
        return
    skip_slow = pytest.mark.skip(reason="slow: pass --runslow or REPRO_FULL=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
