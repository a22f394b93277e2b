"""Documentation checks: links resolve, metrics catalog is complete and
every catalog row names a metric the source still emits."""

import ast
import re
from pathlib import Path

import pytest

from repro.apps.hpcstruct import hpcstruct
from repro.runtime import VirtualTimeRuntime
from repro.synth import tiny_binary

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

DOC_FILES = sorted(
    [REPO / "README.md"] + list((REPO / "docs").glob("*.md")))

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    text = doc.read_text()
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (doc.parent / path).exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative links: {broken}"


class TestMetricsCatalog:
    """docs/OBSERVABILITY.md must list every metric the library emits."""

    @pytest.fixture(scope="class")
    def emitted_names(self):
        # One instrumented end-to-end run covers the parser, finalizer,
        # noreturn machinery, symbol table, maps, locks, and phases.
        sb = tiny_binary()
        rt = VirtualTimeRuntime(8, enable_trace=True)
        hpcstruct(sb.binary, rt)
        return set(rt.metrics.names())

    @pytest.fixture(scope="class")
    def catalog_text(self):
        return (REPO / "docs" / "OBSERVABILITY.md").read_text()

    @staticmethod
    def _normalize(name):
        """Fold per-instance names onto their catalog placeholder."""
        m = re.match(r"^map\.(.+)\.([a-z_]+)$", name)
        if m:
            return f"map.<name>.{m.group(2)}", m.group(1)
        if name.startswith("phase."):
            return "phase.<name>", None
        return name, None

    def test_every_emitted_metric_is_documented(self, emitted_names,
                                                catalog_text):
        missing = []
        for name in sorted(emitted_names):
            normalized, _ = self._normalize(name)
            if f"`{normalized}`" not in catalog_text:
                missing.append(name)
        assert not missing, (
            "metrics emitted but not in docs/OBSERVABILITY.md catalog: "
            f"{missing}")

    def test_map_names_in_use_are_documented(self, emitted_names,
                                             catalog_text):
        map_names = {self._normalize(n)[1] for n in emitted_names
                     if n.startswith("map.")} - {None}
        undocumented = [n for n in sorted(map_names)
                        if f"`{n}`" not in catalog_text]
        assert not undocumented, (
            "map names not listed in the catalog: "
            f"{undocumented}")

    def test_run_exercises_the_main_catalog_sections(self, emitted_names):
        # Guard against the fixture silently degrading into a run that
        # emits nothing: the workload must touch each subsystem.
        for expected in ("rt.tasks_spawned", "lock.acquires",
                         "parser.blocks_created",
                         "finalize.tailcall_rounds",
                         "map.blocks.acquires"):
            assert expected in emitted_names


#: Catalog rows in these namespaces must be backed by the source.
_CATALOG_NAME = re.compile(r"`((?:procs|noreturn|finalize)\.[a-z0-9_.]+)`")


def _source_strings():
    """(string literals, f-string literal prefixes) across ``src/repro``."""
    literals, prefixes = set(), set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                literals.add(node.value)
            elif isinstance(node, ast.JoinedStr) and node.values:
                head = node.values[0]
                if isinstance(head, ast.Constant) and head.value:
                    prefixes.add(head.value)
    return literals, prefixes


def _catalog_names(text):
    """Metric names in the first cell of every catalog table row."""
    names = set()
    for line in text.splitlines():
        if line.startswith("|"):
            names.update(_CATALOG_NAME.findall(line.split("|")[1]))
    return names


def _unbacked(names, literals, prefixes):
    return sorted(n for n in names
                  if n not in literals
                  and not any(n.startswith(p) for p in prefixes))


class TestCatalogReverse:
    """Every procs/noreturn/finalize catalog row names a metric the
    source can still emit, so rows for deleted metrics cannot linger."""

    @pytest.fixture(scope="class")
    def strings(self):
        return _source_strings()

    def test_every_catalog_row_is_emitted_by_the_source(self, strings):
        text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        names = _catalog_names(text)
        assert "procs.phase.frontier_wall_ns" in names
        stale = _unbacked(names, *strings)
        assert not stale, (
            "docs/OBSERVABILITY.md catalogs metrics no code emits: "
            f"{stale}")

    def test_a_row_for_an_unemitted_metric_is_flagged(self, strings):
        row = "| `noreturn.retired_rounds` | Rounds of a removed wave. |"
        assert _unbacked(_catalog_names(row), *strings) == [
            "noreturn.retired_rounds"]
