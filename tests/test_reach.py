"""Every definition nothing outside ``tests/`` reaches is kept on purpose.

``tools/reach.py`` lists the functions and classes of ``src/repro`` that
no path from an entry point reaches: starting from the words of
``benchmarks/``, ``examples/``, ``tools/`` and ``src/repro/__main__.py``,
a named definition is reached and adds the words of its body (a method
only once its class is reached), and a module's first reached definition
adds its top-level statements.  Imports and ``__init__.py`` files add
nothing, so a re-export or a definition naming itself reaches nothing.
Each unreached definition must be a row below, with the reason it stays;
the table is pinned exactly like ``SRC_CEILING``.  A new unreached
definition fails here: delete it, or add its row in the same diff and
say why.  A row whose definition was deleted or became reached fails
too, so the table stays the list.  The synthetic tree at the end pins
the rule itself.
"""

import textwrap

import pytest

from tools.reach import unreached

THREAD_API = "public ClioThread API"
ACCESSOR = "accessor tests observe through"

#: ``(file under src/repro, name) -> reason it stays``.
KEPT = {
    ("alloc/pa_strategies.py", "alloc_run"):
        "buddy runs drive split/coalesce in test_alloc_stateful",
    ("clib/client.py", "disable_batching"): THREAD_API,
    ("clib/client.py", "rcas"): THREAD_API,
    ("clib/transparent.py", "cached_bytes"): ACCESSOR,
    ("core/addr.py", "page_base"): ACCESSOR,
    ("core/extend.py", "caller_aware"): ACCESSOR,
    ("core/memory.py", "resident_bytes"): ACCESSOR,
    ("core/pa_allocator.py", "return_unused"):
        "async-buffer API the allocator stateful tests drive",
    ("core/page_table.py", "entries_for_pid"): ACCESSOR,
    ("core/simboard.py", "register_offload"):
        "SimBoard's offload API, which test_simboard.py drives",
    ("core/va_allocator.py", "allocated_bytes"): ACCESSOR,
    ("faults/schedule.py", "restart_board"):
        "scripts the orphan restart FaultSchedule.validate must reject",
    ("net/switch.py", "node_names"): ACCESSOR,
    ("net/switch.py", "shaper_for"): ACCESSOR,
    ("telemetry/spans.py", "find_instants"): "trace read API",
    ("telemetry/spans.py", "find_spans"): "trace read API",
    ("transport/ordering.py", "inflight_count"): ACCESSOR,
}


def test_every_unreached_definition_is_kept_with_a_reason():
    found = {(file, name) for file, name, _ in unreached()}
    new = sorted(found - set(KEPT))
    stale = sorted(set(KEPT) - found)
    assert not new, (
        f"unreached definitions with no KEPT row: {new}; delete them, or "
        "add a row in this diff and say why")
    assert not stale, (
        f"KEPT rows that are no longer unreached definitions: {stale}; "
        "drop them")


#: A package, its entry point and one caller: each definition is named
#: for the case of the rule it checks.
TREE = {
    "tools/run.py": """
        from repro.api import entry
        entry(Widget)
    """,
    "src/repro/__main__.py": "",
    "src/repro/__init__.py": """
        from repro.exported import only_exported
        __all__ = ["only_exported"]

        def __getattr__(name):
            return only_in_lazy_getattr
    """,
    "src/repro/exported.py": """
        def only_exported():
            return 1
    """,
    "src/repro/imported.py": """
        def only_imported():
            return 1
    """,
    "src/repro/api.py": """
        from repro.imported import only_imported

        TABLE = {"row": from_top_level}

        def entry(kind):
            return used_in_body()

        def used_in_body():
            return 1

        def from_top_level():
            return 1

        def names_itself():
            return names_itself()

        def only_in_lazy_getattr():
            return 1

        class Widget:
            def __init__(self):
                self.size = 0

            def __repr__(self):
                return "Widget"

            def never_called(self):
                return 1

        class Unused:
            def __init__(self):
                pass
    """,
}


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    for name, source in TREE.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(textwrap.dedent(source))
    return {(file, name) for file, name, _ in unreached(root)}


def test_a_reexport_reaches_nothing(synthetic):
    assert ("exported.py", "only_exported") in synthetic


def test_a_definition_naming_itself_is_unreached(synthetic):
    assert ("api.py", "names_itself") in synthetic


def test_an_import_line_of_a_reached_module_reaches_nothing(synthetic):
    assert ("imported.py", "only_imported") in synthetic


def test_a_name_used_in_a_reached_body_is_reached(synthetic):
    assert ("api.py", "used_in_body") not in synthetic
    assert ("api.py", "from_top_level") not in synthetic


def test_a_method_is_reached_only_when_named(synthetic):
    assert ("api.py", "Widget") not in synthetic
    assert ("api.py", "never_called") in synthetic


def test_dunders_and_members_of_listed_classes_are_never_listed(synthetic):
    assert synthetic == {
        ("exported.py", "only_exported"), ("api.py", "names_itself"),
        ("imported.py", "only_imported"), ("api.py", "only_in_lazy_getattr"),
        ("api.py", "never_called"), ("api.py", "Unused")}
