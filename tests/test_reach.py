"""Every definition nothing outside ``tests/`` reaches is kept on purpose.

``tools/reach.py`` lists the functions and classes of ``src/repro`` that
no path from an entry point reaches: starting from the words the code of
``benchmarks/``, ``examples/``, ``tools/`` and ``src/repro/__main__.py``
names, a named definition is reached and adds the words of its code (a
method only once its class is reached), and a module's first reached
definition adds its top-level statements.  Comments and docstrings are
prose and add nothing.  Imports and ``__init__.py`` files add
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
SIMBOARD = ("the reference model that BoardDiff and test_simboard.py "
            "compare CBoard against (paper section 5)")

#: ``(file under src/repro, name) -> reason it stays``.
KEPT = {
    ("clib/batch.py", "issue_vector"): THREAD_API,
    ("clib/batch.py", "pending_ops"): THREAD_API,
    ("clib/client.py", "batcher"): THREAD_API,
    ("clib/client.py", "disable_batching"): THREAD_API,
    ("clib/client.py", "ralloc_async"): THREAD_API,
    ("clib/client.py", "rcas"): THREAD_API,
    ("clib/client.py", "rfree_async"): THREAD_API,
    ("clib/client.py", "rreadv"): THREAD_API,
    ("clib/client.py", "rreadv_async"): THREAD_API,
    ("clib/client.py", "rwritev"): THREAD_API,
    ("clib/client.py", "rwritev_async"): THREAD_API,
    ("core/addr.py", "page_base"): ACCESSOR,
    ("core/addr.py", "required_permission"): SIMBOARD,
    ("core/extend.py", "caller_aware"): ACCESSOR,
    ("core/memory.py", "resident_bytes"): ACCESSOR,
    ("core/pa_allocator.py", "return_unused"):
        "async-buffer API the allocator stateful tests drive",
    ("core/page_table.py", "entries_for_pid"): ACCESSOR,
    ("core/simboard.py", "FlatMemory"): SIMBOARD,
    ("core/simboard.py", "SimBoard"): SIMBOARD,
    ("core/simboard.py", "_FlatAtomicUnit"): SIMBOARD,
    ("core/simboard.py", "_SimAllocation"): SIMBOARD,
    ("core/simboard.py", "_SimSpace"): SIMBOARD,
    ("core/simboard.py", "_gather"): SIMBOARD,
    ("core/simboard.py", "_scatter"): SIMBOARD,
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
            '''Mentions only_in_docstring.'''
            # Mentions only_in_comment.
            return used_in_body(), "in only_in_string"

        def only_in_docstring():
            return 1

        def only_in_comment():
            return 1

        def only_in_string():
            return 1

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


def test_a_docstring_mention_reaches_nothing(synthetic):
    assert ("api.py", "only_in_docstring") in synthetic


def test_a_comment_mention_reaches_nothing(synthetic):
    assert ("api.py", "only_in_comment") in synthetic


def test_a_word_in_a_non_docstring_string_reaches(synthetic):
    assert ("api.py", "only_in_string") not in synthetic


def test_dunders_and_members_of_listed_classes_are_never_listed(synthetic):
    assert synthetic == {
        ("exported.py", "only_exported"), ("api.py", "names_itself"),
        ("imported.py", "only_imported"), ("api.py", "only_in_lazy_getattr"),
        ("api.py", "never_called"), ("api.py", "Unused"),
        ("api.py", "only_in_docstring"), ("api.py", "only_in_comment")}
