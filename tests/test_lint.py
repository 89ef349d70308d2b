"""The ``repro lint`` framework: registry, pragmas, reporters, four
rules against their fixture corpus, the ownership table on planted
trees, the repo-wide green gate, and regression tests for the real
findings this gate surfaced and fixed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.lint import Checker, Finding, register_checker
from repro.lint.engine import (
    LintError,
    REPORT_VERSION,
    checker_descriptions,
    registered_rules,
    run_lint,
    unregister_checker,
)
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
RULES = ("asyncio", "exactness", "locks", "tracing")


def lint_file(path, **kwargs):
    return run_lint([str(path)], root=str(REPO), **kwargs)


def fixture(rule, verdict):
    return FIXTURES / f"{rule.replace('-', '_')}_{verdict}.py"


# ----------------------------------------------------------------------
# framework: registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_rules_registered(self):
        assert registered_rules() == tuple(sorted(RULES + ("ownership",)))

    def test_descriptions_cover_every_rule(self):
        descriptions = checker_descriptions()
        for rule in RULES:
            assert descriptions[rule]

    def test_duplicate_rule_rejected(self):
        class Dup(Checker):
            rule = "exactness"

        with pytest.raises(LintError, match="duplicate"):
            register_checker(Dup)

    def test_unnamed_checker_rejected(self):
        class Nameless(Checker):
            pass

        with pytest.raises(LintError, match="no rule name"):
            register_checker(Nameless)

    def test_custom_checker_runs_and_unregisters(self, tmp_path):
        class TodoChecker(Checker):
            rule = "todo-test-rule"
            description = "flags TODO comments"

            def check(self, module):
                for line, col, text in module.comments:
                    if "TODO" in text:
                        yield Finding(self.rule, module.display_path,
                                      line, col, "TODO found")

        register_checker(TodoChecker)
        try:
            target = tmp_path / "mod.py"
            target.write_text("x = 1  # TODO: later\n")
            report = run_lint([str(target)], rules=["todo-test-rule"])
            assert [f.message for f in report.findings] == ["TODO found"]
        finally:
            unregister_checker("todo-test-rule")
        with pytest.raises(LintError, match="unknown rule"):
            run_lint([str(tmp_path)], rules=["todo-test-rule"])

    def test_unknown_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            run_lint([str(REPO / "does-not-exist")])

    def test_syntax_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = run_lint([str(bad)])
        assert [f.rule for f in report.findings] == ["syntax"]


# ----------------------------------------------------------------------
# framework: suppression pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def violation(self):
        return ("# repro-lint: scope(exactness)\n"
                "x = 0.5\n")

    def test_finding_without_pragma(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(self.violation())
        report = run_lint([str(mod)], rules=["exactness"])
        assert len(report.findings) == 1
        assert not report.suppressed

    def test_trailing_line_allow(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("# repro-lint: scope(exactness)\n"
                       "x = 0.5  # repro-lint: allow(exactness) — why\n")
        report = run_lint([str(mod)], rules=["exactness"])
        assert not report.findings
        assert len(report.suppressed) == 1

    def test_trailing_allow_wrong_rule_does_not_suppress(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("# repro-lint: scope(exactness)\n"
                       "x = 0.5  # repro-lint: allow(locks)\n")
        report = run_lint([str(mod)], rules=["exactness"])
        assert len(report.findings) == 1

    def test_trailing_allow_star(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("# repro-lint: scope(exactness)\n"
                       "x = 0.5  # repro-lint: allow(*)\n")
        report = run_lint([str(mod)], rules=["exactness"])
        assert not report.findings

    def test_top_of_file_allow_covers_whole_file(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("# repro-lint: scope(exactness)\n"
                       "# repro-lint: allow(exactness) — float module\n"
                       "x = 0.5\n"
                       "y = 1e-9\n")
        report = run_lint([str(mod)], rules=["exactness"])
        assert not report.findings
        assert len(report.suppressed) == 2

    def test_standalone_mid_file_allow_covers_next_code_line(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("# repro-lint: scope(exactness)\n"
                       "a = 1\n"
                       "# repro-lint: allow(exactness) — justified\n"
                       "# (comment lines in between are skipped)\n"
                       "x = 0.5\n"
                       "y = 2.5\n")
        report = run_lint([str(mod)], rules=["exactness"])
        # the pragma covers x's line only; y still fails
        assert [f.line for f in report.findings] == [6]
        assert [f.line for f in report.suppressed] == [5]

    def test_scope_pragma_opts_into_path_scoped_rule(self, tmp_path):
        scoped = tmp_path / "scoped.py"
        scoped.write_text("# repro-lint: scope(exactness)\nx = 0.5\n")
        unscoped = tmp_path / "unscoped.py"
        unscoped.write_text("x = 0.5\n")
        assert len(run_lint([str(scoped)]).findings) == 1
        assert not run_lint([str(unscoped)]).findings


# ----------------------------------------------------------------------
# framework: reporters
# ----------------------------------------------------------------------
class TestReporters:
    def test_json_schema(self):
        report = lint_file(FIXTURES / "exactness_bad.py")
        data = report.as_dict()
        assert set(data) == {"version", "ok", "files_checked", "rules",
                             "findings", "suppressed_count"}
        assert data["version"] == REPORT_VERSION == 2
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert set(data["rules"]) >= set(RULES)
        assert isinstance(data["suppressed_count"], int)
        for finding in data["findings"]:
            assert set(finding) == {"rule", "path", "line", "col", "message"}
            assert finding["rule"] == "exactness"
        assert json.loads(json.dumps(data)) == data

    def test_text_render_mentions_counts(self):
        ok = lint_file(FIXTURES / "exactness_ok.py")
        assert "repro lint OK" in ok.render_text()
        bad = lint_file(FIXTURES / "exactness_bad.py")
        text = bad.render_text()
        assert "repro lint FAILED" in text
        assert "[exactness]" in text

    def test_cli_exit_codes_and_json(self, capsys):
        assert lint_main([str(FIXTURES / "exactness_ok.py")]) == 0
        assert lint_main([str(FIXTURES / "exactness_bad.py")]) == 1
        capsys.readouterr()
        assert lint_main(["--json", str(FIXTURES / "exactness_bad.py")]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False and data["findings"]

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == sorted(
            RULES + ("ownership",))

    def test_cli_has_no_baseline_options(self, capsys):
        # a finding is fixed or suppressed by a pragma; no file forgives it
        for flag in ("--base" "line", "--write-base" "line"):
            with pytest.raises(SystemExit) as exit_info:
                lint_main([flag, "debt.json",
                           str(FIXTURES / "exactness_bad.py")])
            assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_bad_rule_is_usage_error(self, capsys):
        assert lint_main(["--rules", "no-such-rule",
                          str(FIXTURES / "exactness_ok.py")]) == 2


# ----------------------------------------------------------------------
# four rules against their fixture corpus (ownership: planted trees below)
# ----------------------------------------------------------------------
class TestFixtureCorpus:
    @pytest.mark.parametrize("rule", RULES)
    def test_ok_fixture_is_clean(self, rule):
        report = lint_file(fixture(rule, "ok"))
        assert report.ok, report.render_text()

    @pytest.mark.parametrize("rule", RULES)
    def test_bad_fixture_fails_with_its_rule(self, rule):
        report = lint_file(fixture(rule, "bad"))
        assert not report.ok
        assert {f.rule for f in report.findings} == {rule}

    def test_exactness_catches_all_four_shapes(self):
        report = lint_file(FIXTURES / "exactness_bad.py")
        messages = "\n".join(f.message for f in report.findings)
        assert "float literal 0.5" in messages
        assert "float() coercion" in messages
        assert "math.sqrt" in messages
        assert "1e-09" in messages

    def test_exactness_allows_only_the_integer_math_functions(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("# repro-lint: scope(exactness)\n"
                       "import math\n"
                       "from math import gcd, lcm, isqrt\n"
                       "from math import floor\n"
                       "a = math.gcd(4, 6) + math.lcm(4, 6) + math.isqrt(9)\n"
                       "b = math.ceil(a)\n"
                       "c = a / 2\n")  # not an integer kernel: / is fine
        report = run_lint([str(mod)], rules=["exactness"])
        messages = sorted(f.message.split(" in ")[0] for f in report.findings)
        assert messages == ["math.ceil", "math.floor"]

    def test_integer_kernel_ok_fixture_is_clean(self):
        report = lint_file(FIXTURES / "integer_kernel_ok.py")
        assert report.ok, report.render_text()

    def test_integer_kernel_bad_fixture_fails(self):
        report = lint_file(FIXTURES / "integer_kernel_bad.py")
        assert {f.rule for f in report.findings} == {"exactness"}
        messages = [f.message for f in report.findings]
        # two in the return, one augmented assignment
        assert sum("true division in an integer kernel" in m
                   for m in messages) == 3
        assert sum("math.sqrt" in m for m in messages) == 1
        assert not any("math.gcd" in m for m in messages)

    def test_factor_py_is_an_integer_kernel(self):
        from repro.lint.checkers.exactness import INTEGER_FILES

        assert "repro/lp/factor.py" in INTEGER_FILES
        report = run_lint([str(REPO / "src" / "repro" / "lp" / "factor.py")],
                          rules=["exactness"])
        assert report.ok and not report.suppressed, report.render_text()

    def test_exactness_factor_ok_fixture_is_clean(self):
        report = lint_file(FIXTURES / "exactness_factor_ok.py")
        assert report.ok, report.render_text()

    def test_exactness_factor_bad_fixture_fails(self):
        report = lint_file(FIXTURES / "exactness_factor_bad.py")
        assert not report.ok
        assert {f.rule for f in report.findings} == {"exactness"}
        messages = "\n".join(f.message for f in report.findings)
        assert "float() coercion" in messages
        assert "math.log" in messages
        assert "1e-12" in messages
        assert "float literal 0.0" in messages

    def test_factor_module_in_exact_path_without_pragma(self, tmp_path):
        # repro/lp/factor.py is on the EXACT_FILES allowlist: a float
        # leaking into it must be flagged with no scope pragma needed
        target = tmp_path / "repro" / "lp"
        target.mkdir(parents=True)
        mod = target / "factor.py"
        mod.write_text("PIVOT_TOL = 1e-9\n")
        report = run_lint([str(mod)], root=str(tmp_path))
        assert [f.rule for f in report.findings] == ["exactness"]

    def test_locks_catches_write_read_and_closure(self):
        report = lint_file(FIXTURES / "locks_bad.py")
        lines = {f.line for f in report.findings}
        source = (FIXTURES / "locks_bad.py").read_text().splitlines()
        flagged = {source[line - 1].strip() for line in lines}
        assert any("self.count += 1" in text for text in flagged)
        assert any("return self.count" in text for text in flagged)
        assert any("lambda" in text for text in flagged)

    def test_locks_inherited_guards_enforced(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import threading\n"
            "class Base:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0  # guarded-by: _lock\n"
            "class Child(Base):\n"
            "    def bad(self):\n"
            "        return self.n\n")
        report = run_lint([str(mod)], rules=["locks"])
        assert len(report.findings) == 1
        assert "Child.bad" in report.findings[0].message

    def test_locks_dangling_annotation_flagged(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("import threading\n"
                       "# guarded-by: _lock\n"
                       "X = 3\n")
        report = run_lint([str(mod)], rules=["locks"])
        assert len(report.findings) == 1
        assert "dangling" in report.findings[0].message

    def test_locks_caller_holds_ok_fixture_is_clean(self):
        # the heat-sketch shape: lock-holding methods factor work into
        # '# caller-holds: _lock' helpers; every call site holds the lock
        report = lint_file(FIXTURES / "locks_heat_ok.py")
        assert report.ok, report.render_text()

    def test_locks_caller_holds_bad_fixture_catches_all_three(self):
        report = lint_file(FIXTURES / "locks_heat_bad.py")
        messages = [f.message for f in report.findings]
        assert all(f.rule == "locks" for f in report.findings)
        # 1. helper called without the lock held
        assert any("self._evict_min() called without holding" in m
                   for m in messages)
        # 2. unannotated helper touching guarded state
        assert any("self._heap accessed outside" in m
                   and "_compact" in m for m in messages)
        assert any("self._counts accessed outside" in m
                   and "_compact" in m for m in messages)
        # 3. dangling caller-holds annotation (not on a def header)
        assert any("dangling caller-holds" in m for m in messages)

    def test_locks_caller_holds_inherited_into_subclass(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import threading\n"
            "class Base:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0  # guarded-by: _lock\n"
            "    def _bump(self):  # caller-holds: _lock\n"
            "        self.n += 1\n"
            "class Child(Base):\n"
            "    def bad(self):\n"
            "        self._bump()\n"
            "    def good(self):\n"
            "        with self._lock:\n"
            "            self._bump()\n")
        report = run_lint([str(mod)], rules=["locks"])
        assert len(report.findings) == 1
        assert "Child.bad" in report.findings[0].message
        assert "caller-holds" in report.findings[0].message

    def test_tracing_catches_naked_span_and_wall_clock(self):
        report = lint_file(FIXTURES / "tracing_bad.py")
        messages = "\n".join(f.message for f in report.findings)
        assert "start_trace" in messages
        assert "span(...)" in messages
        assert "time.time()" in messages

    def test_asyncio_catches_every_blocking_shape(self):
        report = lint_file(FIXTURES / "asyncio_bad.py")
        messages = "\n".join(f.message for f in report.findings)
        assert "time.sleep()" in messages
        assert "socket.create_connection()" in messages
        assert ".recv()" in messages
        assert ".ping()" in messages and ".request()" in messages
        assert ".result()" in messages
        assert "sync 'with _engine_lock:'" in messages

    def test_asyncio_exempts_nested_sync_defs_and_awaits(self):
        # the ok fixture's executor jobs hold locks and sleep — exempt
        # because they run on threads; its one .result() carries an
        # allow pragma, so it lands in suppressed, never in findings
        report = lint_file(FIXTURES / "asyncio_ok.py")
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["asyncio"]

    def test_asyncio_catches_direct_dispatcher_calls(self):
        # route_post / route_get / handle_request wait on broker futures:
        # called from a coroutine they put the solve path back on the
        # loop as a blocking call (bare-name and attribute spellings)
        report = lint_file(FIXTURES / "asyncio_dispatch_bad.py")
        assert [f.rule for f in report.findings] == ["asyncio"] * 3
        messages = "\n".join(f.message for f in report.findings)
        for name in ("route_get()", "route_post()", "handle_request()"):
            assert name in messages
        assert "drive the dispatcher by awaiting" in messages

    def test_asyncio_lets_dispatchers_travel_to_the_executor(self):
        # handed to run_in_executor (a Name argument, not a call), called
        # from a plain def, or replaced by an awaited wrap_future: clean
        report = lint_file(FIXTURES / "asyncio_dispatch_ok.py")
        assert report.ok and not report.suppressed


# ----------------------------------------------------------------------
# ownership: who owns which section, checked on tmp_path trees
# ----------------------------------------------------------------------
# (row index, the row's owner, copied from this repo; a second file that
# re-offends in the spelling the row guards; the line, or the lines, that
# fire), every row's first plant at its own index.
# Rows 8, 13, 22 and 24 cover tests/ too, so their names are split in
# two here.
OWNERSHIP_PLANTS = [
    (0, "src/repro/core/trees.py", "src/repro/core/broadcast.py",
        '"""Fallback packing."""\n\n'
        "def greedy_tree_packing(platform, source):\n    return []\n", 3),
    (1, "src/repro/core/activities.py", "src/repro/core/trees.py",
        "def tree_ports(out, inc):\n"
        '    return [("send-port", out, 1), ("recv-port", inc, 1)]\n', 2),
    (2, "src/repro/core/activities.py", "src/repro/core/master_slave.py",
        "def solve(lp, handles):\n"
        "    return package(lp.solve(), handles, verify=False)\n", 2),
    (3, "src/repro/core/scatter.py", "src/repro/core/gather.py",
        "def rows(lp, expr, k):\n"
        '    lp.add_constraint(expr == 1, name=f"deliver[{k}]")\n', 2),
    (4, "src/repro/core/scatter.py", "src/repro/schedule/collective.py",
        "def endpoints(label):\n"
        '    src, dst = label.split("->")\n    return src, dst\n', 2),
    (5, "src/repro/schedule/reconstruction.py", "src/repro/schedule/batch.py",
        "from .edge_coloring import weighted_edge_coloring\n\n\n"
        "def rounds(edges, weights):\n"
        "    return weighted_edge_coloring(edges, weights)\n", 5),
    (6, "src/repro/schedule/reconstruction.py",
        "src/repro/simulator/event_executor.py",
        "def slots(edges):\n"
        "    return [m for m in greedy_interval_coloring(edges)]\n", 2),
    (7, "src/repro/schedule/reconstruction.py", "src/repro/schedule/batch.py",
        "def check(sched, port_model):\n"
        "    sched.solution.verify(port_model)\n", 2),
    (8, "src/repro/simulator/periodic_runner.py", "examples/gather_demo.py",
        "from repro.simulator import Collective" "Runner\n", 1),
    (9, "src/repro/problems/registry.py", "src/repro/dynamic/adaptive.py",
        'def run_adaptive(platform, epochs, backend="exact"):\n'
        "    return None\n", 1),
    (10, "src/repro/problems/registry.py", "src/repro/problems/catalog.py",
         "register(MasterSlaveSpec, entry_point=solve_master_slave)\n", 1),
    (11, "src/repro/core/master_slave.py", "src/repro/core/port_models.py",
         '"""Per-model master-slave solvers."""\n', 1),
    (12, "src/repro/schedule/batch.py", "src/repro/schedule/startup.py",
         '"""Start-up grouping of a finite batch."""\n', 1),
    (13, "src/repro/schedule/batch.py", "tests/test_batch.py",
         "from repro.schedule import Startup" "Analysis\n", 1),
    (14, "src/repro/schedule/batch.py",
         "src/repro/baselines/list_scheduling.py",
         "from ..simulator.periodic_runner import PeriodicRunner\n", 1),
    (15, "src/repro/service/broker.py", "src/repro/service/api.py",
         "def decode(options):\n"
         '    return options.get("backend", "exact")\n', 2),
    (16, "src/repro/service/broker.py", "src/repro/service/wire.py",
         "def option_dict(request):\n    return {}\n", 1),
    (17, "src/repro/service/cache.py", "src/repro/service/sharding.py",
         "class Near:\n"
         "    def __init__(self, size=64, ttl=None):\n"
         "        self.size = size\n", 2),
    (18, "src/repro/service/broker.py", "src/repro/service/api.py",
         "from concurrent.futures import ThreadPoolExecutor\n", 1),
    # the real asyncio rule names route_get, and src/repro/lint/ is out
    (19, "src/repro/lint/checkers/asyncio_rules.py",
         "src/repro/service/api.py",
         "def route_get(broker, path):\n    return None\n", 1),
    (20, "src/repro/service/broker.py", "src/repro/service/metrics.py",
         "class Endpoint:\n    def __init__(self):\n"
         "        self.reservoir = []\n", 3),
    (21, "src/repro/service/broker.py", "src/repro/service/transport.py",
         "def answer(op):\n"
         '    if op == "sleep":\n        return None\n', 2),
    (22, "src/repro/_rational.py", "src/repro/analysis/bounds.py",
         '"""Bounds."""\n\n\ndef is_non' 'increasing(values):\n'
         "    return True\n", 4),
    (23, "src/repro/lint/engine.py", "src/repro/lint/checkers/drift.py",
         '"""Rule ``drift``: the wire codec, parsed."""\n', 1),
    (24, "src/repro/lint/engine.py", "src/repro/lint/cli.py",
         "def add_arguments(parser):\n"
         '    parser.add_argument("--write-base' 'line", metavar="FILE")\n',
         2),
    # the tree-packing master's own rows and the DAG's own port sums, as
    # they stood before both read activities.port_groups
    (1, "src/repro/core/activities.py", "src/repro/core/trees.py",
     "def _solve_packing(platform, trees, lp, xs):\n"
     "    terms = {}\n"
     "    for x, tree in zip(xs, trees):\n"
     "        for node, t in tree_send_time(platform, tree).items():\n"
     '            terms.setdefault(("send", node), []).append(x * t)\n'
     "        for node, t in tree_recv_time(platform, tree).items():\n"
     '            terms.setdefault(("recv", node), []).append(x * t)\n'
     "    for kind, node in sorted(terms):\n"
     "        lp.add_constraint(lp_sum(terms[kind, node]) <= 1,\n"
     '                          name=f"{kind}[{node}]")\n', (4, 5, 6, 7)),
    (1, "src/repro/core/activities.py", "src/repro/core/dag.py",
     "def verify(self):\n"
     "    p, dag = self.platform, self.dag\n"
     "    for node in p.nodes():\n"
     "        out = Fraction(0)\n"
     "        for j in p.successors(node):\n"
     "            busy = sum(\n"
     "                (self.flow.get((node, j, f), Fraction(0)) * dag.files[f]\n"
     "                 for f in dag.files),\n"
     "                start=Fraction(0),\n"
     "            ) * p.c(node, j)\n"
     "            out += busy\n"
     "        if out > 1:\n"
     '            raise TaskGraphError(f"{node} send port {out} > 1")\n'
     "        inc = sum(\n"
     "            (\n"
     "                sum(\n"
     "                    (self.flow.get((j, node, f), Fraction(0)) * dag.files[f]\n"
     "                     for f in dag.files),\n"
     "                    start=Fraction(0),\n"
     "                ) * p.c(j, node)\n"
     "                for j in p.predecessors(node)\n"
     "            ),\n"
     "            start=Fraction(0),\n"
     "        )\n"
     "        if inc > 1:\n"
     '            raise TaskGraphError(f"{node} recv port {inc} > 1")\n',
     (13, 26)),
]


def _ownership_tree(tmp_path, *files):
    for rel, text in files:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return run_lint([str(tmp_path)], rules=["ownership"], root=str(tmp_path))


class TestOwnership:
    def test_every_row_has_a_plant(self):
        from repro.lint.checkers import ownership

        rows = [plant[0] for plant in OWNERSHIP_PLANTS]
        assert rows[:len(ownership.TABLE)] == list(range(len(ownership.TABLE)))

    @pytest.mark.parametrize("number", range(len(OWNERSHIP_PLANTS)))
    def test_a_plant_fires_its_row(self, number, tmp_path, monkeypatch):
        from repro.lint.checkers import ownership

        index, owner, plant, text, lines = OWNERSHIP_PLANTS[number]
        files = [(owner, (REPO / owner).read_text()), (plant, text)]
        report = _ownership_tree(tmp_path, *files)
        lines = lines if isinstance(lines, tuple) else (lines,)
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            ("ownership", plant, line) for line in lines], \
            report.render_text()
        # ... and it is this row that fires: without it the tree is clean
        monkeypatch.setattr(ownership, "TABLE", tuple(
            row for i, row in enumerate(ownership.TABLE) if i != index))
        assert _ownership_tree(tmp_path).ok

    def test_the_port_row_keeps_the_old_spellings(self, tmp_path):
        owner = "src/repro/core/activities.py"
        plant = ("def rows(lp, expr, node, ports):\n"
                 '    lp.add_constraint(expr, "<=", ports, '
                 'name=f"send-port[{node}]")\n')
        report = _ownership_tree(tmp_path, (owner, (REPO / owner).read_text()),
                                 ("src/repro/core/trees.py", plant))
        assert [(f.path, f.line) for f in report.findings] == [
            ("src/repro/core/trees.py", 2)]

    def test_the_old_port_row_guards_nothing(self, monkeypatch):
        # `send-port\[` alone matched no line of its owner, whose rows
        # are spelled ("send-port", out, budget): a vacuous row is a
        # finding once its owner is checked
        from repro.lint.checkers import ownership

        old = ownership.TABLE[1]._replace(pattern=r"send-port\[")
        monkeypatch.setattr(ownership, "TABLE", (old,))
        report = lint_file(REPO / "src/repro/core/activities.py",
                           rules=["ownership"])
        assert [(f.path, f.line) for f in report.findings] == [
            ("src/repro/core/activities.py", 1)]
        assert "matches 0 line(s)" in report.findings[0].message

    def test_a_count_row_holds_its_count_in_its_owner(self, tmp_path):
        owner = "src/repro/schedule/reconstruction.py"
        text = (REPO / owner).read_text()
        twice = text + "\n\ndef again(e, w):\n" \
                       "    return weighted_edge_coloring(e, w)\n"
        report = _ownership_tree(tmp_path, (owner, twice))
        assert [(f.path, f.line) for f in report.findings] == [(owner, 1)]
        assert "matches 2 line(s)" in report.findings[0].message
        gone = text.replace("weighted_edge_coloring(", "colouring(")
        report = _ownership_tree(tmp_path, (owner, gone))
        assert "matches 0 line(s)" in report.findings[0].message

    def test_a_file_without_its_owner_raises_nothing_spurious(self):
        # only the checked owner is held to its count
        for path in ("src/repro/schedule/edge_coloring.py",
                     "src/repro/core/scatter.py"):
            assert lint_file(REPO / path, rules=["ownership"]).ok


# ----------------------------------------------------------------------
# the repo-wide gate (the acceptance criterion, as a test)
# ----------------------------------------------------------------------
class TestRepoGate:
    def test_src_tree_is_green(self):
        report = run_lint([str(REPO / "src")], root=str(REPO))
        assert report.ok, report.render_text()

    def test_the_linted_scope_is_green(self):
        # what CI lints: every rule, ownership's table included, over
        # the package, the tests, the benchmarks and the examples
        report = run_lint([str(REPO / d) for d in
                           ("src", "tests", "benchmarks", "examples")],
                          root=str(REPO))
        assert report.ok, report.render_text()
        assert len(report.suppressed) <= 5

    def test_walk_skips_fixture_corpus(self):
        corpus = REPO / "tests" / "lint_fixtures"
        # the corpus is there, and is Python ...
        assert corpus.is_dir()
        assert list(corpus.glob("*.py"))
        # ... with deliberate violations, which linting it directly finds
        direct = run_lint([str(corpus)], root=str(REPO))
        assert direct.findings
        # ... and the walk over tests/ reads every other file and reports
        # none of them
        report = run_lint([str(REPO / "tests")], root=str(REPO))
        assert report.ok, report.render_text()
        outside = [path for path in (REPO / "tests").rglob("*.py")
                   if not path.is_relative_to(corpus)]
        assert report.files_checked == len(outside) > 0
        assert not [f for f in report.findings
                    if (REPO / f.path).resolve().is_relative_to(
                        corpus.resolve())]


# ----------------------------------------------------------------------
# regression tests for the real findings this PR fixed
# ----------------------------------------------------------------------
class TestFixedFindings:
    def test_dijkstra_heap_keys_are_exact(self):
        # two path costs closer than one double ulp: float heap keys
        # finalised 'a' before the truly shorter path through 'b'
        # relaxed it, leaving a's successor 'c' with a stale distance
        from repro.core.steiner import _dijkstra_from_set
        from repro.platform.graph import Platform

        eps = Fraction(1, 10**40)
        delta = Fraction(1, 10**50)
        p = Platform("tie")
        for n in ("r", "a", "b", "c"):
            p.add_node(n, w=1)
        p.add_edge("r", "a", c=Fraction(1, 3) + eps)
        p.add_edge("r", "b", c=Fraction(1, 3))
        p.add_edge("b", "a", c=delta)
        p.add_edge("a", "c", c=1)
        dist, parent = _dijkstra_from_set(p, {"r"})
        assert dist["a"] == Fraction(1, 3) + delta
        assert parent["a"] == ("b", "a")
        assert dist["c"] == Fraction(1, 3) + delta + 1

    def test_hopcroft_karp_integer_sentinel(self):
        from repro.schedule.matching import hopcroft_karp

        # behaviour unchanged by the float("inf") -> int sentinel swap
        adjacency = {i: [j for j in range(6) if (i + j) % 2 == 0]
                     for i in range(6)}
        matching = hopcroft_karp(adjacency)
        assert len(matching) == 6
        empty = hopcroft_karp({})
        assert empty == {}

    def test_matching_module_is_float_free(self):
        report = run_lint(
            [str(REPO / "src/repro/schedule/matching.py")], root=str(REPO))
        assert report.ok and not report.suppressed
