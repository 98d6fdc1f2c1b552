"""One seeded-fixture test per lint rule: each must fail `repro-dq lint`.

Every test writes a minimal source file violating exactly one rule into
a path that matches the rule's scope, runs the real CLI entry point on
it, and asserts the run exits non-zero naming that rule — proving the
rule fires end to end, not just at the AST-visitor level.
"""

import pytest

from repro.analysis.engine import CATALOGUE
from repro.cli import main


def lint_file(tmp_path, capsys, relpath, source):
    """Write one fixture file and lint it via the CLI; return (exit, out)."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    code = main(["lint", str(target), "--no-baseline"])
    return code, capsys.readouterr().out


FS_CALLS = (
    "import os\n\n\n"
    "def shrink(fd, a, b):\n"
    "    os.ftruncate(fd, 0)\n"
    "    os.link(a, b)\n"
    "    return os.open(a, os.O_RDONLY)\n"
)
PROC_CALLS = (
    "import asyncio\n"
    "import os\n\n\n"
    "async def spawn():\n"
    "    if os.fork() == 0:\n"
    "        return None\n"
    "    return await asyncio.create_subprocess_exec('true')\n"
)


def assert_flags(tmp_path, capsys, rule_id, relpath, source):
    code, out = lint_file(tmp_path, capsys, relpath, source)
    assert code == 1, f"{rule_id} fixture should fail lint:\n{out}"
    assert rule_id in out


class TestDeterminismRules:
    def test_dqd01_wall_clock_call(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQD01",
            "repro/core/mod.py",
            "import time\n\n\ndef stamp():\n    return time.time()\n",
        )

    def test_dqd01_from_import_and_datetime(self, tmp_path, capsys):
        code, out = lint_file(
            tmp_path,
            capsys,
            "repro/server/mod.py",
            "from time import monotonic\n"
            "import datetime\n\n\n"
            "def stamp():\n"
            "    return monotonic(), datetime.datetime.now()\n",
        )
        assert code == 1
        assert out.count("DQD01") == 2

    def test_dqd01_datetime_class_import_site_and_its_caller(
        self, tmp_path, capsys
    ):
        # One detector: the spelling DQD01 flags at the site is the
        # spelling DQG02 charges to a caller in another engine module.
        for relpath, source in {
            "repro/core/mod.py": "from datetime import datetime\n\n\n"
            "def stamp():\n    return datetime.now()\n",
            "repro/server/mod.py": "from repro.core.mod import stamp\n\n\n"
            "def tick():\n    return stamp()\n",
        }.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        assert main(["lint", str(tmp_path), "--no-baseline"]) == 1
        site, caller = capsys.readouterr().out.splitlines()[:2]
        assert "core/mod.py:5:11: DQD01 " in site and "datetime.now()" in site
        assert "server/mod.py:4:0: DQG02 " in caller
        assert "repro.core.mod:5" in caller

    def test_dqd02_unseeded_random(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQD02",
            "repro/workload/mod.py",
            "import random\n\n_RNG = random.Random()\n",
        )

    def test_dqd02_module_level_rng(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQD02",
            "repro/motion/mod.py",
            "import random\n\n\ndef jitter():\n    return random.gauss(0, 1)\n",
        )

    def test_dqd03_hash_derived_seed(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQD03",
            "repro/workload/mod.py",
            "import random\n\n\n"
            "def rng_for(mode):\n"
            "    seed = hash(mode)\n"
            "    return random.Random(seed)\n",
        )


class TestLayeringRules:
    def test_dql01_server_importing_disk(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQL01",
            "repro/server/mod.py",
            "from repro.storage.disk import DiskManager\n",
        )

    def test_dql01_is_reported_once_under_one_id(self, tmp_path, capsys):
        source = "from repro.storage.disk import DiskManager"
        code, out = lint_file(
            tmp_path, capsys, "repro/server/mod.py", source + "\n"
        )
        assert code == 1
        findings = [line for line in out.splitlines() if ":1:0: " in line]
        assert len(findings) == 1 and ": DQL01 " in findings[0]
        code, out = lint_file(
            tmp_path,
            capsys,
            "repro/server/mod.py",
            source + "  # repro: disable=DQL01\n",
        )
        assert code == 0, out
        assert "1 suppressed" in out

    def test_dql01_core_importing_disk_module(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQL01",
            "repro/core/mod.py",
            "import repro.storage.disk\n",
        )

    def test_dql02_geometry_importing_upward(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQL02",
            "repro/geometry/mod.py",
            "from repro.index.node import Node\n",
        )

    def test_dql02_geometry_may_use_errors(self, tmp_path, capsys):
        code, _ = lint_file(
            tmp_path,
            capsys,
            "repro/geometry/mod.py",
            "from repro.errors import GeometryError\n"
            "from repro.geometry.interval import Interval\n",
        )
        assert code == 0

    def test_dql03_generic_raise(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQL03",
            "repro/core/mod.py",
            "def check(x):\n"
            "    if x < 0:\n"
            "        raise ValueError('negative')\n",
        )

    def test_dql04_server_internal_importing_front_end(
        self, tmp_path, capsys
    ):
        assert_flags(
            tmp_path,
            capsys,
            "DQL04",
            "repro/server/broker.py",
            "from repro.server.shard import MultiplexBroker\n",
        )

    def test_dql04_module_import_form(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQL04",
            "repro/server/scheduler.py",
            "import repro.server.shard\n",
        )

    def test_dql04_shard_and_init_are_exempt(self, tmp_path, capsys):
        for exempt in ("repro/server/shard.py", "repro/server/__init__.py"):
            code, _ = lint_file(
                tmp_path,
                capsys,
                exempt,
                "from repro.server.shard import ShardPlan\n",
            )
            assert code == 0, f"{exempt} must be exempt from DQL04"

    def test_dql05_open_outside_storage(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQL05",
            "repro/server/broker.py",
            "def persist(path):\n"
            "    with open(path, 'w') as f:\n"
            "        f.write('state')\n",
        )

    def test_dql05_os_mutations_and_pathlib(self, tmp_path, capsys):
        code, out = lint_file(
            tmp_path,
            capsys,
            "repro/index/mod.py",
            "import os\n"
            "import pathlib\n\n\n"
            "def sync(path):\n"
            "    os.fsync(3)\n"
            "    pathlib.Path(path).write_bytes(b'x')\n",
        )
        assert code == 1
        assert out.count("DQL05") == 2

    def test_dql05_direct_os_file_calls(self, tmp_path, capsys):
        code, out = lint_file(tmp_path, capsys, "repro/core/mod.py", FS_CALLS)
        assert code == 1
        assert out.count("DQL05") == 3
        for call in ("os.ftruncate()", "os.link()", "os.open()"):
            assert call in out

    def test_dql05_direct_calls_are_fine_in_the_owners(self, tmp_path, capsys):
        for owner in ("repro/storage/file.py", "repro/cli.py"):
            code, out = lint_file(tmp_path, capsys, owner, FS_CALLS)
            assert code == 0, f"{owner} owns filesystem I/O:\n{out}"

    def test_dql05_storage_boundary_is_exempt(self, tmp_path, capsys):
        for exempt in (
            "repro/storage/file.py",
            "repro/storage/wal.py",
            "repro/cli.py",
        ):
            code, _ = lint_file(
                tmp_path,
                capsys,
                exempt,
                "import os\n\n\n"
                "def sync(fd):\n"
                "    os.fsync(fd)\n"
                "    return open('/dev/null')\n",
            )
            assert code == 0, f"{exempt} must be exempt from DQL05"

    def test_dql06_subprocess_outside_remote(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQL06",
            "repro/server/broker.py",
            "import subprocess\n\n\n"
            "def spawn():\n"
            "    return subprocess.Popen(['true'])\n",
        )

    def test_dql06_socket_and_multiprocessing_from_imports(
        self, tmp_path, capsys
    ):
        code, out = lint_file(
            tmp_path,
            capsys,
            "repro/index/mod.py",
            "from socket import socketpair\n"
            "from multiprocessing.connection import Pipe\n",
        )
        assert code == 1
        assert out.count("DQL06") == 2

    def test_dql06_remote_package_and_cli_are_exempt(self, tmp_path, capsys):
        for exempt in (
            "repro/server/remote/broker.py",
            "repro/server/remote/worker.py",
            "repro/cli.py",
        ):
            code, _ = lint_file(
                tmp_path,
                capsys,
                exempt,
                "import subprocess\n"
                "import socket\n",
            )
            assert code == 0, f"{exempt} must be exempt from DQL06"

    def test_dql06_direct_process_calls(self, tmp_path, capsys):
        # os.fork-family and asyncio.create_subprocess_* need no import
        # of a process module: the call itself is the site.
        code, out = lint_file(tmp_path, capsys, "repro/core/mod.py", PROC_CALLS)
        assert code == 1
        assert out.count("DQL06") == 2
        assert "os.fork()" in out
        assert "asyncio.create_subprocess_exec()" in out

    def test_dql06_direct_calls_are_fine_in_the_owners(self, tmp_path, capsys):
        for owner in ("repro/server/remote/mod.py", "repro/cli.py"):
            code, out = lint_file(tmp_path, capsys, owner, PROC_CALLS)
            assert code == 0, f"{owner} owns process APIs:\n{out}"

    def test_dql07_numpy_outside_kernels(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQL07",
            "repro/core/pdq.py",
            "import numpy\n\n\n"
            "def fast(xs):\n"
            "    return numpy.asarray(xs)\n",
        )

    def test_dql07_from_import_and_submodule(self, tmp_path, capsys):
        code, out = lint_file(
            tmp_path,
            capsys,
            "repro/geometry/trapezoid.py",
            "from numpy import float64\n"
            "import numpy.linalg\n",
        )
        assert code == 1
        assert out.count("DQL07") == 2

    def test_dql07_kernels_module_is_exempt(self, tmp_path, capsys):
        code, _ = lint_file(
            tmp_path,
            capsys,
            "repro/geometry/kernels.py",
            "import numpy\n",
        )
        assert code == 0, "repro.geometry.kernels must be exempt from DQL07"

    def test_dql07_outside_repro_scope_not_flagged(self, tmp_path, capsys):
        # benchmarks and tests live outside the scoped package
        code, _ = lint_file(
            tmp_path,
            capsys,
            "benchmarks/test_perf.py",
            "import numpy\n",
        )
        assert code == 0


class TestCrashSafetyRules:
    def test_dqc01_unlogged_pool_page_mutation(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQC01",
            "repro/index/mod.py",
            "def widen(pool, pid, entry):\n"
            "    node = pool.get(pid)\n"
            "    node.entries.append(entry)\n",
        )

    @pytest.mark.parametrize(
        "write",
        [
            "node.entries[0] = entry",
            "node[0] = entry",
            "del node.entries[0]",
            "node.update_child_box(entry.child_id, entry.box, 2)",
            "node.remove_child(entry.child_id, 2)",
            "node.remove_record(entry.record.key, 2)",
            "node.entries.set_box(0, entry.box, 2)",
        ],
    )
    def test_dqc01_every_row_write_form(self, tmp_path, capsys, write):
        assert_flags(
            tmp_path,
            capsys,
            "DQC01",
            "repro/index/mod.py",
            "def widen(pool, pid, entry):\n"
            "    node = pool.get(pid)\n"
            f"    {write}\n",
        )

    def test_dqc01_wal_evidence_clears_it(self, tmp_path, capsys):
        code, _ = lint_file(
            tmp_path,
            capsys,
            "repro/index/mod.py",
            "def widen(pool, pid, entry, intent_log):\n"
            "    intent_log.record(pid, None)\n"
            "    node = pool.get(pid)\n"
            "    node.entries.append(entry)\n",
        )
        assert code == 0

    def test_dqc02_mutable_default_arg(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQC02",
            "repro/core/mod.py",
            "def collect(items=[]):\n    return items\n",
        )

    def test_dqc03_shared_mutable_class_attr(self, tmp_path, capsys):
        assert_flags(
            tmp_path,
            capsys,
            "DQC03",
            "repro/server/mod.py",
            "class Session:\n    queue = []\n",
        )


class TestProtocolRules:
    def test_dqp01_answer_block_tag_without_a_decoder(self, tmp_path, capsys):
        # protocol v3's packed answer block: encoded under tag "cb" but
        # missing from the decoder table, so the peer would refuse it
        code, out = lint_file(
            tmp_path,
            capsys,
            "repro/rpc/protocol.py",
            "from typing import Any, Dict, Tuple\n\n"
            "PROTOCOL_VERSION = 3\n"
            "MSG_TICK = 4\n"
            "MSG_RESULT = 32\n\n\n"
            "class AnswerBlock:\n    pass\n\n\n"
            "def _enc_block(block):\n    return ''\n\n\n"
            "_BY_TYPE: Dict[type, Tuple[str, Any]] = {\n"
            "    AnswerBlock: ('cb', _enc_block),\n"
            "}\n"
            "_BY_TAG: Dict[str, Any] = {}\n",
        )
        assert code == 1, out
        assert "DQP01" in out and "'cb'" in out


class TestRuleHygiene:
    def test_every_rule_has_id_title_and_why(self):
        seen = set()
        for doc in CATALOGUE:
            assert doc.id and doc.id not in seen
            seen.add(doc.id)
            assert doc.title
            # The catalogue entry must state the invariant being
            # protected, not just restate the title.
            assert "Invariant" in doc.why
        assert len(seen) == 21

    def test_rules_listing_via_cli(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            f"{doc.id}  {doc.title}" for doc in CATALOGUE
        ]
