"""Seed-discipline audit: no module-level RNG anywhere in the tree.

Determinism is a hard gate here (``test_determinism_digest.py``), and
the conformance harness promises byte-identical episodes per seed.  Both
break silently the moment any code draws from a *shared global* RNG —
``random.random()``, ``np.random.rand()``, ``random.seed(...)`` — whose
state depends on import order and on whatever ran earlier in the
process.  The repo's rule is: every random draw comes from an RNG
*instance* constructed from an explicit seed (``random.Random(seed)`` /
``np.random.default_rng(seed)``).

This test greps the whole tree (``src``, ``tests``, ``benchmarks``,
``scripts``) for the global-API spellings and fails with file:line on
any hit, so a violation cannot land unnoticed.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Directories whose .py files must obey the discipline.
SCAN_DIRS = ("src", "tests", "benchmarks", "scripts")

#: Global-RNG spellings that are never acceptable.  ``random.Random(``
#: and ``np.random.default_rng(`` construct seeded instances and are the
#: sanctioned alternatives, so they are excluded by construction.
FORBIDDEN = re.compile(
    r"""
    (?<![\w.])random\.(?!Random\b)[a-z_]+\s*\(   # random.random(), random.seed()...
    | np\.random\.(?!default_rng\b|Generator\b)\w+ # np.random.rand(), np.random.seed()...
    | numpy\.random\.(?!default_rng\b|Generator\b)\w+
    """,
    re.VERBOSE,
)


def _iter_source_lines():
    for directory in SCAN_DIRS:
        root = REPO / directory
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            if path.name == "test_seed_discipline.py":
                continue  # this file spells out the forbidden forms
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                yield path.relative_to(REPO), lineno, line


def test_no_global_rng_use():
    """Every random draw must come from an explicitly seeded instance."""
    hits = []
    for relpath, lineno, line in _iter_source_lines():
        stripped = line.split("#", 1)[0]
        if FORBIDDEN.search(stripped):
            hits.append(f"{relpath}:{lineno}: {line.strip()}")
    assert not hits, (
        "global RNG use found — derive an RNG from an explicit seed "
        "(random.Random(seed) / np.random.default_rng(seed)) instead:\n"
        + "\n".join(hits)
    )


#: Wall-clock spellings forbidden in the span layer: span ids and
#: timestamps feed the determinism digest and the backend-parity trace
#: diff, so ``spans.py`` must never read host time: span timestamps
#: are the virtual times its callers pass in.
WALL_CLOCK = re.compile(
    r"""
    (?<![\w.])time\.(time|perf_counter|monotonic|process_time|
                     time_ns|perf_counter_ns|monotonic_ns)\s*\(
    | (?<![\w.])datetime\.(now|utcnow|today)\s*\(
    | \bimport\s+time\b
    """,
    re.VERBOSE,
)

#: Files that must be wall-clock-free (virtual-time only).
WALL_CLOCK_FREE = ("src/repro/obs/spans.py",)


def test_span_layer_has_no_wall_clock():
    """spans.py must not read host time — only virtual timestamps."""
    hits = []
    for rel in WALL_CLOCK_FREE:
        path = REPO / rel
        assert path.is_file(), f"audited file moved: {rel}"
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            stripped = line.split("#", 1)[0]
            if WALL_CLOCK.search(stripped):
                hits.append(f"{rel}:{lineno}: {line.strip()}")
    assert not hits, (
        "wall-clock use in the span layer — span timestamps are virtual "
        "time passed in by the caller:\n"
        + "\n".join(hits)
    )


def test_wall_clock_pattern_catches_known_spellings():
    """Guard the regex: canonical wall-clock forms must match."""
    bad = [
        "import time",
        "t = time.time()",
        "t = time.perf_counter()",
        "t = time.monotonic_ns()",
        "stamp = datetime.now()",
    ]
    good = [
        "wall_s = self.wall_clock()",
        "open_us = self.sim.now",
        "lifetime = runtime_us / 1e6",
    ]
    for line in bad:
        assert WALL_CLOCK.search(line), f"should match: {line}"
    for line in good:
        assert not WALL_CLOCK.search(line), f"should not match: {line}"


def test_audit_actually_scans_the_tree():
    """Guard the guard: the walker must see a substantial file set."""
    files = {relpath for relpath, _lineno, _line in _iter_source_lines()}
    assert len(files) > 50, f"audit only saw {len(files)} files"
    assert any(str(f).startswith("src/") for f in files)
    assert any(str(f).startswith("tests/") for f in files)


def test_pattern_catches_known_bad_spellings():
    """Guard the regex: the canonical bad forms must match, the
    sanctioned instance constructors must not."""
    bad = [
        "x = random.random()",
        "random.seed(0)",
        "idx = random.randrange(10)",
        "np.random.seed(1)",
        "a = np.random.rand(3)",
        "numpy.random.shuffle(v)",
    ]
    good = [
        "rng = random.Random(seed)",
        "rng = np.random.default_rng(seed)",
        "gen = numpy.random.default_rng(0)",
        "self._rng = random.Random(10_007 * (node_id + 1) + seed)",
    ]
    for line in bad:
        assert FORBIDDEN.search(line), f"should match: {line}"
    for line in good:
        assert not FORBIDDEN.search(line), f"should not match: {line}"
