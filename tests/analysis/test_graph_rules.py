"""Fixture tests for the whole-program rules (DQG01–04, DQP01).

Each violating fixture is built so *no direct rule fires* — the
effect site lives in a module its layer allows, and the forbidden
dependency is only reachable transitively — proving the reach rules
catch what no single file shows.  Every fixture also has a fixed
form the lint must stay silent on.
"""

import json

from repro.analysis.engine import CATALOGUE
from repro.analysis.graph import build_program, module_name_for
from repro.cli import main


def lint_graph(tmp_path, capsys, files):
    """Write fixture files into a fresh tree and run ``lint`` on it.

    Each call gets its own subdirectory so consecutive scenarios in one
    test (violating form, fixed form) cannot see each other's files.
    """
    lint_graph.counter += 1
    root = tmp_path / f"case{lint_graph.counter}"
    for relpath, source in files.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    code = main(["lint", str(root), "--no-baseline"])
    return code, capsys.readouterr().out


lint_graph.counter = 0


DISK = "class DiskManager:\n    pass\n"


class TestLayerReach:
    def test_transitive_only_leak_is_caught(self, tmp_path, capsys):
        # server -> helper -> storage.disk: no single file violates a
        # per-file rule (helper is outside the DQL01 scope), but the
        # path exists and must fail with its witness chain.
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/server/mod.py": "from repro.helper import go\n",
                "repro/helper.py": "import repro.storage.disk\n\n\n"
                "def go():\n    return repro.storage.disk\n",
                "repro/storage/disk.py": DISK,
            },
        )
        assert code == 1
        assert "DQG01" in out
        assert (
            "repro.server.mod -> repro.helper -> repro.storage.disk" in out
        )

    def test_mediated_through_index_is_allowed(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/server/mod.py": "from repro.index.tpr import T\n",
                "repro/index/tpr.py": "import repro.storage.disk\n\n\n"
                "class T:\n    pass\n",
                "repro/storage/disk.py": DISK,
            },
        )
        assert code == 0, out

    def test_lazy_function_local_import_still_counts(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/core/mod.py": "def load():\n"
                "    from repro.helper import go\n"
                "    return go()\n",
                "repro/helper.py": "import repro.storage.disk\n",
                "repro/storage/disk.py": DISK,
            },
        )
        assert code == 1
        assert "DQG01" in out

    def test_deferred_reexport_charges_the_consumer(self, tmp_path, capsys):
        # pkg/__init__ defers the name via __getattr__; the module-level
        # from-import in server triggers it eagerly, so the consumer —
        # not the package holding the table — gets the edge.
        pkg = (
            '_LAZY = {"Thing": ("repro.storage.disk", "DiskManager")}\n'
            "\n\n"
            "def __getattr__(name):\n"
            "    module_name, attr = _LAZY[name]\n"
            "    import importlib\n"
            "    return getattr(importlib.import_module(module_name), attr)\n"
        )
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/server/mod.py": "from repro.pkg import Thing\n",
                "repro/pkg/__init__.py": pkg,
                "repro/storage/disk.py": DISK,
            },
        )
        assert code == 1
        # A two-module chain is the direct form of the contract.
        assert "DQL01" in out and "DQG01" not in out
        assert "repro.storage.disk" in out
        # The package holding the deferred table is itself clean.
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/pkg/__init__.py": pkg,
                "repro/storage/disk.py": DISK,
            },
        )
        assert code == 0, out

    def test_geometry_confinement(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/geometry/mod.py": "from repro.geometry.helper import h\n",
                "repro/geometry/helper.py": "from repro.motion.segment import S\n",
                "repro/motion/segment.py": "class S:\n    pass\n",
            },
        )
        assert code == 1
        assert "DQG01" in out and "repro.motion.segment" in out


class TestEffectReach:
    def test_dqg02_wallclock_two_hops_away(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/core/mod.py": "from repro.util import helper\n\n\n"
                "def tick():\n    return helper()\n",
                "repro/util.py": "import time\n\n\n"
                "def helper():\n    return time.time()\n",
            },
        )
        assert code == 1
        assert "DQG02" in out and "time.time()" in out

    def test_dqg02_import_without_call_is_clean(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/core/mod.py": "import repro.util\n",
                "repro/util.py": "import time\n\n\n"
                "def helper():\n    return time.time()\n",
            },
        )
        assert code == 0, out

    def test_dqg03_fs_behind_the_storage_boundary(self, tmp_path, capsys):
        # The open() lives where DQL05 allows it; only the index module
        # *reaching* it is the violation.
        files = {
            "repro/index/mod.py": "from repro.storage.file import dump\n\n\n"
            "def flush(p):\n    return dump(p)\n",
            "repro/storage/file.py": "def dump(p):\n"
            "    with open(p, 'w') as f:\n        f.write('x')\n",
        }
        code, out = lint_graph(tmp_path, capsys, files)
        assert code == 1
        assert "DQG03" in out and "open()" in out
        del files["repro/index/mod.py"]
        code, out = lint_graph(tmp_path, capsys, files)
        assert code == 0, out

    def test_dqg04_process_reach_outside_remote(self, tmp_path, capsys):
        spawner = (
            "import subprocess\n\n\n"
            "def spawn():\n    return subprocess.run(['true'])\n"
        )
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/workload/mod.py":
                "from repro.server.remote.spawner import spawn\n\n\n"
                "def go():\n    return spawn()\n",
                "repro/server/remote/spawner.py": spawner,
            },
        )
        assert code == 1
        assert "DQG04" in out and "subprocess.run()" in out
        # The remote stack may spawn processes itself.
        code, out = lint_graph(
            tmp_path, capsys, {"repro/server/remote/spawner.py": spawner}
        )
        assert code == 0, out


PROTO = """\
PROTOCOL_VERSION = 1
MSG_HELLO = 1
MSG_TICK = 2
MSG_RESULT = 32
MSG_ERROR = 33
_MESSAGE_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_TICK: "TICK",
    MSG_RESULT: "RESULT",
    MSG_ERROR: "ERROR",
}
"""

WORKER = """\
from repro.rpc import protocol as proto


class W:
    def _hello(self, p):
        return {}

    def _tick(self, p):
        return {}


_HANDLERS = {
    proto.MSG_HELLO: W._hello,
    proto.MSG_TICK: W._tick,
}
"""


class TestProtocolDrift:
    def test_agreeing_registry_and_handlers_are_clean(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {"repro/rpc/protocol.py": PROTO, "repro/rpc/worker.py": WORKER},
        )
        assert code == 0, out

    def test_dropped_handler_entry_fails(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/rpc/protocol.py": PROTO,
                "repro/rpc/worker.py": WORKER.replace(
                    "    proto.MSG_TICK: W._tick,\n", ""
                ),
            },
        )
        assert code == 1
        assert "DQP01" in out and "MSG_TICK" in out

    def test_handler_for_undefined_type_fails(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/rpc/protocol.py": PROTO,
                "repro/rpc/worker.py": WORKER.replace(
                    "proto.MSG_TICK: W._tick", "proto.MSG_GONE: W._tick"
                ),
            },
        )
        assert code == 1
        assert "MSG_GONE" in out

    def test_version_mismatch_fails(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/rpc/protocol.py": PROTO,
                "repro/rpc/worker.py": WORKER + "\nPROTOCOL_VERSION = 2\n",
            },
        )
        assert code == 1
        assert "PROTOCOL_VERSION" in out

    def test_duplicate_wire_value_fails(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/rpc/protocol.py": PROTO.replace(
                    "MSG_TICK = 2", "MSG_TICK = 1"
                ),
                "repro/rpc/worker.py": WORKER,
            },
        )
        assert code == 1
        assert "share wire value" in out

    def test_reply_types_need_no_handler(self, tmp_path, capsys):
        # MSG_RESULT / MSG_ERROR are emitted, never dispatched.
        code, out = lint_graph(
            tmp_path,
            capsys,
            {"repro/rpc/protocol.py": PROTO, "repro/rpc/worker.py": WORKER},
        )
        assert code == 0, out
        assert "MSG_RESULT" not in out and "MSG_ERROR" not in out


class TestGraphPlumbing:
    def test_module_name_for(self):
        assert (
            module_name_for(("src", "repro", "core", "pdq.py"))
            == "repro.core.pdq"
        )
        assert (
            module_name_for(("tmp", "repro", "server", "__init__.py"))
            == "repro.server"
        )
        assert module_name_for(("tests", "test_x.py")) is None

    def test_suppression_comment_silences_a_graph_rule(self, tmp_path, capsys):
        code, out = lint_graph(
            tmp_path,
            capsys,
            {
                "repro/server/mod.py":
                "from repro.helper import go  # repro: disable=DQG01\n",
                "repro/helper.py": "import repro.storage.disk\n",
                "repro/storage/disk.py": DISK,
            },
        )
        assert code == 0, out
        assert "1 suppressed" in out

    def test_json_format_carries_the_witness_path(self, tmp_path, capsys):
        for relpath, source in {
            "repro/server/mod.py": "from repro.helper import go\n",
            "repro/helper.py": "import repro.storage.disk\n",
            "repro/storage/disk.py": DISK,
        }.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        code = main(
            ["lint", str(tmp_path), "--no-baseline", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        hits = [v for v in payload["violations"] if v["rule"] == "DQG01"]
        assert hits and hits[0]["witness"] == [
            "repro.server.mod",
            "repro.helper",
            "repro.storage.disk",
        ]

    def test_rule_hygiene(self):
        seen = set()
        for doc in CATALOGUE:
            assert doc.id and doc.id not in seen
            seen.add(doc.id)
            assert doc.title
            assert "Invariant" in doc.why

    def test_build_program_skips_non_repro_files(self, tmp_path):
        import ast

        files = [
            ("x/test_a.py", ("x", "test_a.py"), ast.parse("import os\n")),
            (
                "repro/core/a.py",
                ("repro", "core", "a.py"),
                ast.parse("import repro.errors\n"),
            ),
        ]
        program = build_program(files)
        assert set(program.modules) == {"repro.core.a"}
