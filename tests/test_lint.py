"""Static-analysis gate: the repro.lint engine, rules, and CLI.

Five layers under test:

* the engine — one walk per file, pragma suppression via tokenize
  (string literals must not suppress), RL000 parse/read failures,
  select/ignore resolution;
* the per-file rule pack — good/bad fixture snippets for RL001–RL010,
  including the deliberate exemptions (declare-as-None in ``__init__``,
  loop-variable-derived seeds, the CLI print, every row of the import
  policy);
* the whole-program pass — fixture *trees* exercising the cross-module
  rules RL012–RL017 (fork safety, lock discipline, resource lifecycle,
  metric-name consistency, the exception taxonomy, dead exports), plus
  dead-pragma detection (RL018);
* the CLI — exit codes 0/1/2, JSON output, and the consolidated
  ``repro check``;
* the tree itself — the tier-1 gate: the shipped source lints clean.
"""

import ast
import json
import tempfile
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    DEAD_PRAGMA_RULE_ID,
    PACKAGE_ROOT,
    PARSE_RULE_ID,
    SCHEMA_VERSION,
    LintEngine,
    all_rule_classes,
    format_human,
    format_json,
    module_name_for_path,
    resolve_rules,
    walk_source_tree,
)
from repro.lint.cli import main as lint_main
from repro.lint.walk import IMPORT_POLICY


def findings_for(code, select=None, path="snippet.py"):
    """Lint a dedented snippet, written to ``path`` under a temporary
    directory, through both engine passes; returns the report.

    ``docs_corpus=""`` keeps the real repo's docs and tests out of the
    dead-export evidence.
    """
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp, path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
        return LintEngine(select=select).lint_paths([target],
                                                    docs_corpus="")


def rule_ids(result):
    return [f.rule for f in result.findings]


def write_tree(root, files):
    """Materialise ``{relative path: source}`` under ``root``."""
    for rel, code in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code), encoding="utf-8")
    return root


def tree_report(root, files, select=None, docs_corpus=""):
    """Whole-program lint over a fixture tree (both engine passes).

    ``docs_corpus=""`` by default so RL017 sees only the evidence the
    fixture itself provides, never the real repo's docs and tests.
    """
    write_tree(root, files)
    return LintEngine(select=select).lint_paths(
        [root], docs_corpus=docs_corpus)


# ---------------------------------------------------------------------------
# Engine mechanics


class TestEngine:
    def test_parse_error_becomes_rl000(self):
        result = findings_for("def f(:\n")
        assert rule_ids(result) == [PARSE_RULE_ID]
        assert "does not parse" in result.findings[0].message

    def test_unreadable_file_becomes_rl000(self, tmp_path):
        result = LintEngine().lint_paths([tmp_path / "missing.py"],
                                         docs_corpus="")
        assert rule_ids(result) == [PARSE_RULE_ID]
        assert "cannot be read" in result.findings[0].message

    def test_findings_are_sorted_and_carry_locations(self):
        result = findings_for(
            """
            import sklearn
            print("late")
            """
        )
        assert rule_ids(result) == ["RL002", "RL003"]
        first = result.findings[0]
        assert first.path.endswith("/snippet.py") and first.line == 2
        assert first.render().startswith(f"{first.path}:2:1: RL002")

    def test_resolve_rules_select_and_ignore(self):
        assert [r.id for r in resolve_rules()] == \
            [cls.id for cls in all_rule_classes()]
        assert [r.id for r in resolve_rules(select=["RL003"])] == ["RL003"]
        survivors = [r.id for r in resolve_rules(ignore=["RL003"])]
        assert "RL003" not in survivors and "RL001" in survivors

    def test_resolve_rules_rejects_unknown_ids(self):
        with pytest.raises(ValueError, match="RL999"):
            resolve_rules(select=["RL999"])

    def test_lint_paths_dedupes_repeated_files(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("print('x')\n", encoding="utf-8")
        report = LintEngine(select=["RL003"]).lint_paths(
            [target, target, tmp_path])
        assert report.files_checked == 1
        assert len(report.findings) == 1


# ---------------------------------------------------------------------------
# Suppression pragmas


class TestPragmas:
    def test_matching_id_suppresses(self):
        result = findings_for(
            "x = 1.0\nok = x == 1.0  # repro: noqa[RL005] - exact sentinel\n"
        )
        assert result.findings == []
        assert result.suppressed_pragma == 1

    def test_wrong_id_does_not_suppress(self):
        result = findings_for(
            "x = 1.0\nok = x == 1.0  # repro: noqa[RL003] - wrong rule\n"
        )
        # the finding stands, and the pragma that suppressed nothing is
        # itself reported
        assert rule_ids(result) == [DEAD_PRAGMA_RULE_ID, "RL005"]

    def test_comma_list_suppresses_each_named_rule(self):
        result = findings_for(
            "import sklearn; x = 1.0 == 2.0"
            "  # repro: noqa[RL002, RL005] - fixture\n"
        )
        assert result.findings == []
        assert result.suppressed_pragma == 2

    def test_pragma_inside_string_literal_is_inert(self):
        result = findings_for(
            's = "# repro: noqa[RL005]"\nbad = 1.0 == 2.0\n'
        )
        assert rule_ids(result) == ["RL005"]

    def test_blanket_suppression_is_not_a_thing(self):
        result = findings_for(
            "bad = 1.0 == 2.0  # repro: noqa[] - no ids given\n"
        )
        assert rule_ids(result) == ["RL005"]


# ---------------------------------------------------------------------------
# The rule pack


class TestRL001SeededRng:
    def test_global_rng_attribute_flagged(self):
        result = findings_for("import numpy as np\nx = np.random.rand(3)\n")
        assert rule_ids(result) == ["RL001"]

    def test_seeded_generator_clean(self):
        result = findings_for(
            "import numpy as np\nrng = np.random.default_rng(0)\n"
        )
        assert result.findings == []

    def test_unseeded_default_rng_flagged(self):
        result = findings_for(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert rule_ids(result) == ["RL001"]
        assert "nondeterministic" in result.findings[0].message

    def test_import_of_global_helper_flagged(self):
        result = findings_for("from numpy.random import rand\n")
        assert rule_ids(result) == ["RL001"]
        assert findings_for(
            "from numpy.random import default_rng\n").findings == []

    def test_constant_reseed_in_loop_flagged(self):
        result = findings_for(
            """
            import numpy as np
            for i in range(5):
                rng = np.random.default_rng(42)
            """
        )
        assert rule_ids(result) == ["RL001"]
        assert "re-seeds" in result.findings[0].message

    def test_loop_derived_seed_is_independent_streams(self):
        result = findings_for(
            """
            import numpy as np
            for i in range(5):
                rng = np.random.default_rng(1000 + i)
            """
        )
        assert result.findings == []

    def test_seed_before_loop_clean(self):
        result = findings_for(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            for i in range(5):
                x = rng.normal()
            """
        )
        assert result.findings == []

    def test_loop_in_enclosing_function_does_not_count(self):
        # the def opens a new scope: the call is once-per-call, not
        # once-per-iteration
        result = findings_for(
            """
            import numpy as np
            for i in range(5):
                def make():
                    return np.random.default_rng(7)
            """
        )
        assert result.findings == []


#: Every import fixture -> the area it may be imported in (None:
#: nowhere). Each is flagged outside that area and clean inside it.
IMPORT_FIXTURES = {
    "import sklearn\n": None,
    "import sklearn.cluster\n": None,
    "from sklearn.cluster import KMeans\n": None,
    "from scipy import stats\n": None,
    "import pandas as pd\n": None,
    "import concurrent.futures\n": "repro/robustness/",
    "from multiprocessing import Pool\n": "repro/robustness/",
    "from multiprocessing import dummy\n": "repro/robustness/",
    "import multiprocessing.pool\n": "repro/robustness/",
    "import multiprocessing\npool = multiprocessing.Pool(2)\n":
        "repro/robustness/",
    "import http.server\n": "repro/serve/",
    "from http import server\n": "repro/serve/",
    "from socketserver import TCPServer\n": "repro/serve/",
}


class TestRL002ForbiddenImports:
    @pytest.mark.parametrize("code", list(IMPORT_FIXTURES))
    def test_forbidden_import_flagged(self, code):
        area = IMPORT_FIXTURES[code]
        result = findings_for(code, path="src/repro/cluster/fast.py")
        assert rule_ids(result) == ["RL002"]
        if area is not None:
            assert findings_for(code, path=f"src/{area}mod.py").findings \
                == []

    @pytest.mark.parametrize("module", list(IMPORT_POLICY))
    def test_policy_row_flagged_outside_its_area_only(self, module):
        area = IMPORT_POLICY[module][0]
        parent, _, last = module.rpartition(".")
        spellings = [f"import {module}\n"]
        if parent:
            spellings.append(f"from {parent} import {last}\n")
        outside = {a for a, _ in IMPORT_POLICY.values()} - {area, None}
        for code in spellings:
            for other in sorted(outside) + ["repro/cluster/"]:
                result = findings_for(code, select=["RL002"],
                                      path=f"src/{other}mod.py")
                assert rule_ids(result) == ["RL002"], (code, other)
            if area is not None:
                assert findings_for(code, select=["RL002"],
                                    path=f"src/{area}mod.py"
                                    ).findings == [], code

    @pytest.mark.parametrize("code", [
        "import numpy as np\n",
        "from . import utils\n",
        "from .cluster import KMeans\n",
        "import sklearnish_but_not\n",
        "import multiprocessing\n",
        "from multiprocessing import Process\n",
        "from http import client\n",
    ])
    def test_benign_import_clean(self, code):
        assert findings_for(code).findings == []


class TestRL003NoPrint:
    def test_print_call_flagged(self):
        result = findings_for("def f():\n    print('hi')\n")
        assert rule_ids(result) == ["RL003"]
        assert (result.findings[0].line, result.findings[0].col) == (2, 4)

    def test_docstring_mention_clean(self):
        result = findings_for('def f():\n    """Never print here."""\n')
        assert result.findings == []
        result = findings_for('x = "print(this)"\n# print neither\n')
        assert result.findings == []

    def test_cli_front_end_is_allowed(self):
        result = findings_for("print('usage: ...')\n",
                              path="src/repro/__main__.py")
        assert result.findings == []

    def test_lookalike_path_is_not_allowed(self):
        result = findings_for("print('x')\n",
                              path="src/repro/not__main__.py")
        assert rule_ids(result) == ["RL003"]


class TestRL004SwallowedInterrupt:
    def test_bare_except_flagged(self):
        result = findings_for(
            "try:\n    x = 1\nexcept:\n    pass\n"
        )
        assert rule_ids(result) == ["RL004"]

    def test_base_exception_flagged_including_tuples(self):
        code = ("try:\n    x = 1\n"
                "except (ValueError, BaseException):\n    pass\n")
        assert rule_ids(findings_for(code)) == ["RL004"]

    def test_reraising_handler_exempt(self):
        result = findings_for(
            "try:\n    x = 1\nexcept BaseException:\n    raise\n"
        )
        assert result.findings == []

    def test_except_exception_clean(self):
        result = findings_for(
            "try:\n    x = 1\nexcept Exception:\n    pass\n"
        )
        assert result.findings == []


class TestRL005FloatEquality:
    @pytest.mark.parametrize("code", [
        "ok = x == 1.0\n",
        "ok = 0.5 != y\n",
        "ok = x == -1.5\n",
        "ok = a < b == 2.0\n",
    ])
    def test_float_literal_comparison_flagged(self, code):
        assert rule_ids(findings_for("x = y = a = b = 0\n" + code)) == \
            ["RL005"]

    @pytest.mark.parametrize("code", [
        "ok = x == 1\n",
        "ok = x <= 1.0\n",
        "ok = x == y\n",
    ])
    def test_tolerant_or_integer_comparison_clean(self, code):
        assert findings_for("x = y = 0\n" + code).findings == []


class TestRL006MutableDefault:
    @pytest.mark.parametrize("code", [
        "def f(a=[]):\n    pass\n",
        "def f(a={}):\n    pass\n",
        "def f(*, a=set()):\n    pass\n",
        "def f(a=list()):\n    pass\n",
        "g = lambda a=[]: a\n",
    ])
    def test_mutable_default_flagged(self, code):
        assert rule_ids(findings_for(code)) == ["RL006"]

    @pytest.mark.parametrize("code", [
        "def f(a=None):\n    pass\n",
        "def f(a=()):\n    pass\n",
        "def f(a=0, b='x'):\n    pass\n",
    ])
    def test_immutable_default_clean(self, code):
        assert findings_for(code).findings == []


class TestRL007EstimatorContract:
    def test_orphan_estimator_without_get_params_flagged(self):
        result = findings_for(
            """
            class Lonely:
                def fit(self, X):
                    self.labels_ = X
                    return self
            """
        )
        assert rule_ids(result) == ["RL007"]
        assert "get_params" in result.findings[0].message

    def test_base_class_satisfies_get_params(self):
        result = findings_for(
            """
            class Fine(ParamsMixin):
                def fit(self, X):
                    self.labels_ = X
                    return self
            """
        )
        assert result.findings == []

    def test_fitted_attr_in_public_method_flagged(self):
        result = findings_for(
            """
            class Sneaky(ParamsMixin):
                def fit(self, X):
                    return self

                def predict(self, X):
                    self.labels_ = X
                    return self.labels_
            """
        )
        assert rule_ids(result) == ["RL007"]
        assert "assigned in predict" in result.findings[0].message

    def test_declare_as_none_in_init_is_the_idiom(self):
        result = findings_for(
            """
            class Fine(ParamsMixin):
                def __init__(self):
                    self.labels_ = None

                def fit(self, X):
                    self.labels_ = X
                    return self
            """
        )
        assert result.findings == []

    def test_non_none_declaration_in_init_flagged(self):
        result = findings_for(
            """
            class Eager(ParamsMixin):
                def __init__(self):
                    self.labels_ = []

                def fit(self, X):
                    return self
            """
        )
        assert rule_ids(result) == ["RL007"]
        assert "__init__" in result.findings[0].message

    def test_private_helpers_and_dunders_exempt(self):
        result = findings_for(
            """
            class Fine(ParamsMixin):
                def fit(self, X):
                    return self._solve(X)

                def _solve(self, X):
                    self.labels_ = X
                    return self

                def helper(self):
                    self.__mangled__ = 1
            """
        )
        assert result.findings == []

    def test_non_data_fit_is_not_an_estimator(self):
        # RunGuard.fit(self, estimator, ...) wraps estimators; the
        # contract targets classes whose fit consumes data
        result = findings_for(
            """
            class Guard:
                def fit(self, estimator, X):
                    self.outcome_ = estimator
                    return self
            """
        )
        assert result.findings == []


class TestRL008DocstringSync:
    def test_stale_parameter_flagged(self):
        result = findings_for(
            '''
            def f(x):
                """Do a thing.

                Parameters
                ----------
                x : int
                    Kept.
                gamma : float
                    Renamed away long ago.
                """
                return x
            '''
        )
        assert rule_ids(result) == ["RL008"]
        assert "'gamma'" in result.findings[0].message

    def test_matching_docstring_clean(self):
        result = findings_for(
            '''
            def f(x, y=0, *args, mode="a", **kwargs):
                """Do a thing.

                Parameters
                ----------
                x, y : int
                    Comma form.
                *args
                    Extras.
                mode : str
                    Keyword-only.
                **kwargs
                    Passthrough.
                """
                return x
            '''
        )
        assert result.findings == []

    def test_subset_documentation_tolerated(self):
        result = findings_for(
            '''
            def f(x, y):
                """Parameters
                ----------
                x : int
                    Only x is documented.
                """
                return x + y
            '''
        )
        assert result.findings == []

    def test_private_functions_exempt(self):
        result = findings_for(
            '''
            def _helper(x):
                """Parameters
                ----------
                ghost : int
                    Whatever.
                """
                return x
            '''
        )
        assert result.findings == []


class TestRL010StrictJson:
    @pytest.mark.parametrize("path", [
        "src/repro/experiments/report.py",
        "src/repro/serve/api.py",
    ])
    def test_allow_nan_flagged_everywhere(self, path):
        result = findings_for(
            "import json\n"
            "a = json.dumps({}, allow_nan=True)\n"
            "b = json.dumps({}, allow_nan=False)\n",
            select=["RL010"], path=path)
        assert rule_ids(result) == ["RL010"]
        assert result.findings[0].line == 2


# ---------------------------------------------------------------------------
# Output formats


class TestOutput:
    def test_json_schema(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import sklearn\nx = 1.0 == 2.0\n",
                          encoding="utf-8")
        report = LintEngine().lint_paths([target])
        data = json.loads(format_json(report))
        assert set(data) == {"version", "files_checked", "findings",
                             "counts", "suppressed"}
        assert data["version"] == SCHEMA_VERSION == 2
        assert data["files_checked"] == 1
        assert data["counts"] == {"RL002": 1, "RL005": 1}
        assert set(data["suppressed"]) == {"pragma"}
        for entry in data["findings"]:
            assert set(entry) == {"path", "line", "col", "rule",
                                  "severity", "message"}
            assert isinstance(entry["line"], int)

    def test_human_format_mentions_suppressions(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "x = 1.0 == 2.0  # repro: noqa[RL005] - fixture\n",
            encoding="utf-8")
        report = LintEngine().lint_paths([target])
        text = format_human(report)
        assert "checked 1 file(s): 0 finding(s)" in text
        assert "1 pragma-suppressed" in text


# ---------------------------------------------------------------------------
# Discovery


class TestWalkSourceTree:
    def test_default_walk_covers_the_package(self):
        files = list(walk_source_tree())
        names = {f.name for f in files}
        assert "__init__.py" in names
        assert files == sorted(files)
        assert all(f.suffix == ".py" for f in files)

    def test_denied_directories_are_pruned(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n",
                                                  encoding="utf-8")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "bad.py").write_text(
            "x = 1\n", encoding="utf-8")
        (tmp_path / "pkg" / "thing.egg-info").mkdir()
        (tmp_path / "pkg" / "thing.egg-info" / "bad2.py").write_text(
            "x = 1\n", encoding="utf-8")
        found = [f.name for f in walk_source_tree(tmp_path)]
        assert found == ["good.py"]

    def test_single_file_passthrough(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert list(walk_source_tree(target)) == [target]


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import pandas\n", encoding="utf-8")
        assert lint_main([str(target)]) == 1
        assert "RL002" in capsys.readouterr().out

    def test_unknown_rule_id_exits_two(self, capsys):
        assert lint_main(["--select", "RL999"]) == 2
        assert "RL999" in capsys.readouterr().err

    def test_select_restricts_the_rule_set(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import pandas\nx = 1.0 == 2.0\n",
                          encoding="utf-8")
        assert lint_main(["--select", "RL005", str(target)]) == 1
        out = capsys.readouterr().out
        assert "RL005" in out and "RL002" not in out
        assert lint_main(["--ignore", "RL002,RL005", str(target)]) == 0
        capsys.readouterr()

    def test_json_output_parses(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import pandas\n", encoding="utf-8")
        assert lint_main(["--format", "json", str(target)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["counts"] == {"RL002": 1}

    def test_list_rules_prints_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for cls in all_rule_classes():
            assert cls.id in out


# ---------------------------------------------------------------------------
# The whole-program pass: module naming


class TestModuleNaming:
    def test_module_names_climb_package_chain(self, tmp_path):
        write_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/robustness/__init__.py": "",
            "repro/robustness/workers.py": "x = 1\n",
        })
        name, is_package = module_name_for_path(
            tmp_path / "repro" / "robustness" / "workers.py")
        assert (name, is_package) == ("repro.robustness.workers", False)
        name, is_package = module_name_for_path(
            tmp_path / "repro" / "robustness" / "__init__.py")
        assert (name, is_package) == ("repro.robustness", True)

    def test_bare_file_outside_packages_keeps_its_stem(self, tmp_path):
        (tmp_path / "loner.py").write_text("x = 1\n", encoding="utf-8")
        assert module_name_for_path(tmp_path / "loner.py") == \
            ("loner", False)


# ---------------------------------------------------------------------------
# RL012 — fork safety


def _entry_tree(pool_body, extra=None):
    files = {
        "repro/__init__.py": "",
        "repro/robustness/__init__.py": "",
        "repro/robustness/pool.py": pool_body,
    }
    files.update(extra or {})
    return files


class TestRL012ForkSafety:
    def test_entry_point_without_registry_reset_flagged(self, tmp_path):
        report = tree_report(tmp_path, _entry_tree(
            """
            def _pool_worker_main(conn):
                conn.send("ready")
            """
        ), select=["RL012"])
        assert rule_ids(report) == ["RL012"]
        assert "reset_default_registry" in report.findings[0].message
        assert report.findings[0].path.endswith("pool.py")

    def test_entry_point_with_reset_is_clean(self, tmp_path):
        report = tree_report(tmp_path, _entry_tree(
            """
            def _pool_worker_main(conn):
                from ..observability import reset_default_registry
                reset_default_registry()
                conn.send("ready")
            """
        ), select=["RL012"])
        assert report.findings == []

    def test_renamed_entry_point_flagged(self, tmp_path):
        report = tree_report(tmp_path, _entry_tree(
            """
            def pool_worker_main_v2(conn):
                pass
            """
        ), select=["RL012"])
        assert rule_ids(report) == ["RL012"]
        assert "FORK_ENTRY_POINTS" in report.findings[0].message

    def test_module_level_lock_on_import_closure_flagged(self, tmp_path):
        report = tree_report(tmp_path, _entry_tree(
            """
            from repro.robustness import shared

            def _pool_worker_main(conn):
                from ..observability import reset_default_registry
                reset_default_registry()
            """,
            extra={
                "repro/robustness/shared.py": """
                    import threading
                    GLOBAL_LOCK = threading.Lock()
                    """,
            },
        ), select=["RL012"])
        assert rule_ids(report) == ["RL012"]
        assert report.findings[0].path.endswith("shared.py")
        assert "forked mid-state" in report.findings[0].message

    def test_function_local_thread_off_closure_is_exempt(self, tmp_path):
        # a Thread created lazily inside a function, and a module-level
        # lock in a module the fork entry points never import, are fine
        report = tree_report(tmp_path, _entry_tree(
            """
            import threading

            def _pool_worker_main(conn):
                from ..observability import reset_default_registry
                reset_default_registry()
                threading.Thread(target=conn.send).start()
            """,
            extra={
                "repro/unrelated.py": """
                    import threading
                    UNRELATED_LOCK = threading.Lock()
                    """,
            },
        ), select=["RL012"])
        assert report.findings == []


    def test_import_in_one_line_def_is_not_import_time(self, tmp_path):
        # a one-line def is a function like any other: its import runs
        # when called, so heavy.py is not on the fork closure
        report = tree_report(tmp_path, _entry_tree(
            """
            def lazy(): from repro import heavy

            def _pool_worker_main(conn):
                from ..observability import reset_default_registry
                reset_default_registry()
            """,
            extra={
                "repro/heavy.py": """
                    import threading
                    HEAVY_LOCK = threading.Lock()
                    """,
            },
        ), select=["RL012"])
        assert report.findings == []

    def test_lock_in_one_line_def_is_not_module_level(self, tmp_path):
        # the Lock is created per call, not at import, even when the
        # def fits on one line
        report = tree_report(tmp_path, _entry_tree(
            """
            from repro.robustness import shared

            def _pool_worker_main(conn):
                from ..observability import reset_default_registry
                reset_default_registry()
            """,
            extra={
                "repro/robustness/shared.py": """
                    import threading
                    def make(): return threading.Lock()
                    """,
            },
        ), select=["RL012"])
        assert report.findings == []

    def test_default_argument_lock_is_module_level(self, tmp_path):
        # a default value is evaluated where the def runs — at import —
        # even when the signature spans several lines
        report = tree_report(tmp_path, _entry_tree(
            """
            from repro.robustness import shared

            def _pool_worker_main(conn):
                from ..observability import reset_default_registry
                reset_default_registry()
            """,
            extra={
                "repro/robustness/shared.py": """
                    import threading

                    def make(
                            lock=threading.Lock()):
                        return lock
                    """,
            },
        ), select=["RL012"])
        assert rule_ids(report) == ["RL012"]
        assert report.findings[0].path.endswith("shared.py")


# ---------------------------------------------------------------------------
# RL013 — lock discipline


def _serve_class(body):
    return {
        "repro/__init__.py": "",
        "repro/serve/__init__.py": "",
        "repro/serve/state.py": body,
    }


class TestRL013LockDiscipline:
    BAD = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}

            def put(self, key, value):
                with self._lock:
                    self._items[key] = value

            def clear(self):
                self._items = {}
        """

    def test_lock_free_mutation_of_guarded_attr_flagged(self, tmp_path):
        report = tree_report(tmp_path, _serve_class(self.BAD),
                             select=["RL013"])
        assert rule_ids(report) == ["RL013"]
        finding = report.findings[0]
        assert "Store._items" in finding.message
        assert "clear()" in finding.message

    def test_same_class_outside_thread_shared_layers_is_exempt(
            self, tmp_path):
        # the rule only patrols the serve/observability layers: the
        # identical class in a single-threaded package is fine
        files = {
            "repro/__init__.py": "",
            "repro/cluster/__init__.py": "",
            "repro/cluster/state.py": self.BAD,
        }
        report = tree_report(tmp_path, files, select=["RL013"])
        assert report.findings == []

    def test_init_and_manual_acquire_are_exempt(self, tmp_path):
        report = tree_report(tmp_path, _serve_class("""
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def replace(self, items):
                    self._lock.acquire()
                    try:
                        self._items = items
                    finally:
                        self._lock.release()
            """), select=["RL013"])
        assert report.findings == []

    def test_unshared_attr_needs_no_lock(self, tmp_path):
        # an attribute never mutated under the lock was never declared
        # thread-shared; mutating it lock-free is not a violation
        report = tree_report(tmp_path, _serve_class("""
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}
                    self._label = ""

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value

                def rename(self, label):
                    self._label = label
            """), select=["RL013"])
        assert report.findings == []


# ---------------------------------------------------------------------------
# RL014 — resource lifecycle


class TestRL014ResourceLifecycle:
    def test_dropped_open_result_flagged(self):
        # the exact shape of the chaos-harness defect this rule caught:
        # open(...).read() leaks the fd on the spot
        result = findings_for(
            "def snapshot(path):\n"
            "    return bytearray(open(path, 'rb').read())\n",
            select=["RL014"])
        assert rule_ids(result) == ["RL014"]
        assert "dropped without close/unlink" in result.findings[0].message

    def test_bound_but_never_released_flagged(self):
        result = findings_for(
            """
            def leak(path):
                fh = open(path)
                size = 0
                return size
            """, select=["RL014"])
        assert rule_ids(result) == ["RL014"]
        assert "'fh'" in result.findings[0].message

    @pytest.mark.parametrize("code", [
        # with block
        "def a(p):\n    with open(p) as fh:\n        return fh.read()\n",
        # explicit close
        "def b(p):\n    fh = open(p)\n    fh.close()\n",
        # ownership handed to a callee
        "def c(p, closing):\n    return closing(open(p))\n",
        # ownership returned to the caller
        "def d(p):\n    fh = open(p)\n    return fh\n",
        # stored on self: escapes the scope
        "class K:\n    def e(self, p):\n        fh = open(p)\n"
        "        self.fh = fh\n",
    ])
    def test_released_or_escaping_resources_are_exempt(self, code):
        assert findings_for(code, select=["RL014"]).findings == []


# ---------------------------------------------------------------------------
# RL015 — metric-name consistency


def _metrics_tree(user_body, catalog_body=None):
    return {
        "catalog.py": catalog_body or """
            METRICS = {
                "fits_total": ("counter", "completed fits"),
                "queue_depth": ("gauge", "jobs waiting"),
            }
            METRIC_FAMILIES = {
                "serve.http.": ("counter", "per-route requests"),
            }
            """,
        "user.py": user_body,
    }


class TestRL015MetricNames:
    def test_consistent_sites_are_clean(self, tmp_path):
        report = tree_report(tmp_path, _metrics_tree("""
            def handle(record, route):
                record("fits_total")
                record("queue_depth", 3, kind="gauge")
                record(f"serve.http.{route}")
            """), select=["RL015"])
        assert report.findings == []

    def test_undeclared_name_flagged(self, tmp_path):
        report = tree_report(tmp_path, _metrics_tree("""
            def handle(record, route):
                record("fits_total")
                record("queue_depth")
                record(f"serve.http.{route}")
                record("mystery_metric")
            """), select=["RL015"])
        assert rule_ids(report) == ["RL015"]
        assert "'mystery_metric'" in report.findings[0].message

    def test_unmatched_dynamic_prefix_flagged(self, tmp_path):
        report = tree_report(tmp_path, _metrics_tree("""
            def handle(record, route):
                record("fits_total")
                record("queue_depth")
                record(f"adhoc.{route}")
            """), select=["RL015"])
        assert rule_ids(report) == ["RL015"]
        assert "METRIC_FAMILIES" in report.findings[0].message

    def test_unrecorded_catalog_entry_flagged(self, tmp_path):
        report = tree_report(tmp_path, _metrics_tree("""
            def handle(record):
                record("fits_total")
            """), select=["RL015"])
        assert rule_ids(report) == ["RL015"]
        finding = report.findings[0]
        assert "'queue_depth'" in finding.message
        assert finding.path.endswith("catalog.py")

    def test_prometheus_collision_flagged(self, tmp_path):
        report = tree_report(tmp_path, _metrics_tree(
            """
            def handle(record):
                record("pool.jobs")
                record("pool_jobs")
            """,
            catalog_body="""
                METRICS = {
                    "pool.jobs": ("counter", "dotted"),
                    "pool_jobs": ("counter", "undotted twin"),
                }
                METRIC_FAMILIES = {}
                """,
        ), select=["RL015"])
        assert rule_ids(report) == ["RL015"]
        assert "collision-free" in report.findings[0].message

    def test_tree_without_a_catalog_is_silent(self, tmp_path):
        report = tree_report(tmp_path, {
            "user.py": "def f(record):\n    record('anything_goes')\n",
        }, select=["RL015"])
        assert report.findings == []

    def test_lint_prometheus_mirror_matches_runtime(self):
        # RL015 re-implements the exposition transform so linting never
        # imports the target tree; the two must agree on every cataloged
        # name (and on the awkward shapes: sanitisation, prefixing,
        # counter suffixing)
        from repro.lint.rules.program import _prometheus_name
        from repro.observability import METRICS, prometheus_name

        for name, (kind, _) in METRICS.items():
            assert _prometheus_name(name, kind) == \
                prometheus_name(name, kind=kind)
        for name, kind in [("serve.http.ready", "counter"),
                           ("repro_already_prefixed", "gauge"),
                           ("weird-chars %", "counter"),
                           ("ends_total", "counter")]:
            assert _prometheus_name(name, kind) == \
                prometheus_name(name, kind=kind)


# ---------------------------------------------------------------------------
# RL016 — exception taxonomy


class TestRL016ExceptionTaxonomy:
    def test_banned_raise_flagged(self, tmp_path):
        report = tree_report(tmp_path, {
            "a.py": "def f():\n    raise RuntimeError('boom')\n",
        }, select=["RL016"])
        assert rule_ids(report) == ["RL016"]
        assert "MultiClustError" in report.findings[0].message

    def test_unknown_type_outside_taxonomy_flagged(self, tmp_path):
        report = tree_report(tmp_path, {
            "a.py": "def f():\n    raise MysteryError('boom')\n",
        }, select=["RL016"])
        assert rule_ids(report) == ["RL016"]
        assert "outside the exception taxonomy" in \
            report.findings[0].message

    def test_tree_defined_class_is_known_cross_module(self, tmp_path):
        # the class definition lives in a different module than the
        # raise: only the whole-program view can connect the two
        report = tree_report(tmp_path, {
            "errors.py": "class MinerError(Exception):\n    pass\n",
            "a.py": ("from errors import MinerError\n\n"
                     "def f():\n    raise MinerError('boom')\n"),
        }, select=["RL016"])
        assert report.findings == []

    def test_validation_seams_and_warnings_are_exempt(self, tmp_path):
        report = tree_report(tmp_path, {
            "a.py": """
                def f(x):
                    if x < 0:
                        raise ValueError("negative")
                    if not isinstance(x, int):
                        raise TypeError("not an int")
                    raise ConvergenceWarning("slow")
                """,
        }, select=["RL016"])
        assert report.findings == []


# ---------------------------------------------------------------------------
# RL017 — dead exports


class TestRL017DeadExports:
    def test_unreferenced_export_flagged(self, tmp_path):
        report = tree_report(tmp_path, {
            "a.py": '__all__ = ["used", "dead"]\nused = 1\ndead = 2\n',
            "b.py": "from a import used\n",
        }, select=["RL017"])
        assert rule_ids(report) == ["RL017"]
        assert "'dead'" in report.findings[0].message

    def test_documented_export_is_evidence(self, tmp_path):
        report = tree_report(tmp_path, {
            "a.py": '__all__ = ["dead"]\ndead = 2\n',
        }, select=["RL017"], docs_corpus="``dead`` is part of the API.")
        assert report.findings == []

    def test_attribute_reference_is_evidence(self, tmp_path):
        report = tree_report(tmp_path, {
            "a.py": '__all__ = ["helper"]\nhelper = 2\n',
            "b.py": "import a\nx = a.helper\n",
        }, select=["RL017"])
        assert report.findings == []

    def test_estimator_packages_are_exempt(self, tmp_path):
        # their __all__ is enumerated at runtime (servable_estimators,
        # the contract checker), so every entry is used by construction
        report = tree_report(tmp_path, {
            "repro/__init__.py": "",
            "repro/cluster/__init__.py":
                '__all__ = ["NobodyImportsMe"]\nNobodyImportsMe = 1\n',
        }, select=["RL017"])
        assert report.findings == []

    def test_dunder_exports_are_skipped(self, tmp_path):
        report = tree_report(tmp_path, {
            "a.py": '__all__ = ["__version__"]\n__version__ = "1.0"\n',
        }, select=["RL017"])
        assert report.findings == []


# ---------------------------------------------------------------------------
# RL018 — dead pragmas


class TestRL018DeadPragmas:
    def lint(self, tmp_path, code, select=None):
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent(code), encoding="utf-8")
        return LintEngine(select=select).lint_paths([target],
                                                    docs_corpus="")

    def test_pragma_that_suppresses_nothing_flagged(self, tmp_path):
        report = self.lint(
            tmp_path, "x = 1  # repro: noqa[RL005] - long since fixed\n")
        assert rule_ids(report) == [DEAD_PRAGMA_RULE_ID]
        assert "suppresses nothing" in report.findings[0].message

    def test_live_pragma_is_not_dead(self, tmp_path):
        report = self.lint(
            tmp_path, "x = 1.0 == 2.0  # repro: noqa[RL005] - fixture\n")
        assert report.findings == []
        assert report.suppressed_pragma == 1

    def test_unknown_rule_id_is_always_dead(self, tmp_path):
        report = self.lint(
            tmp_path, "x = 1.0 == 2.0  # repro: noqa[RL505] - typo\n")
        ids = rule_ids(report)
        # the typo'd pragma is dead AND the finding it meant to cover
        # survives
        assert DEAD_PRAGMA_RULE_ID in ids and "RL005" in ids
        assert "unknown rule id" in \
            [f for f in report.findings
             if f.rule == DEAD_PRAGMA_RULE_ID][0].message

    def test_dead_pragma_finding_is_itself_suppressible(self, tmp_path):
        report = self.lint(
            tmp_path,
            "x = 1  # repro: noqa[RL005, RL018] - grandfathered\n")
        assert report.findings == []

    def test_select_runs_do_not_judge_inactive_pragmas(self, tmp_path):
        # under --select RL003 the engine cannot tell whether an RL005
        # pragma is live, so it must not call it dead
        report = self.lint(
            tmp_path, "x = 1.0 == 2.0  # repro: noqa[RL005] - fixture\n",
            select=["RL003"])
        assert report.findings == []


# ---------------------------------------------------------------------------
# The consolidated `repro check` gate


class TestReproCheck:
    def test_check_runs_lint_and_tools_with_summary(self, monkeypatch,
                                                    capsys):
        from repro import __main__ as repro_main

        # one fast representative tool keeps the test cheap; the full
        # three-tool sweep is exercised by CI calling `repro check` itself
        monkeypatch.setattr(repro_main, "_CHECK_TOOLS",
                            ("check_outcome_schema.py",))
        code = repro_main.main(["check"])
        out = capsys.readouterr().out
        assert "repro.lint" in out
        assert "tools/check_outcome_schema.py" in out
        assert "PASS" in out
        assert "gate(s):" in out
        assert code == 0

    def test_check_skips_missing_tools_and_still_passes(self, monkeypatch,
                                                        capsys):
        from repro import __main__ as repro_main

        monkeypatch.setattr(repro_main, "_CHECK_TOOLS",
                            ("check_does_not_exist.py",))
        code = repro_main.main(["check"])
        out = capsys.readouterr().out
        assert "SKIP" in out and "1 skipped" in out
        assert code == 0


# ---------------------------------------------------------------------------
# The tier-1 gate: the shipped tree lints clean


class TestTreeIsClean:
    def test_package_lints_clean(self):
        report = LintEngine().lint_paths([PACKAGE_ROOT])
        assert report.files_checked > 80
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.ok, f"lint findings in shipped tree:\n{rendered}"

    def test_cli_gate_exits_zero(self, capsys):
        assert lint_main([]) == 0
        capsys.readouterr()

    def test_no_rule_rewalks_a_module(self, monkeypatch):
        # the engine's dispatch is the only traversal of a file: rules
        # may walk a small subtree (an except handler, a call argument)
        # but never a whole module again
        real_walk = ast.walk
        walked = []

        def walk(node):
            walked.append(type(node))
            return real_walk(node)

        monkeypatch.setattr(ast, "walk", walk)
        LintEngine().lint_paths([PACKAGE_ROOT])
        assert walked, "no rule reached ast.walk: the probe is broken"
        assert ast.Module not in walked
