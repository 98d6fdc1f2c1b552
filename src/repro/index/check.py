"""``fsck`` for the R-tree: exhaustive structural invariant checking.

The one structural checker: :func:`fsck` walks the *entire* structure,
survives corrupt pages, and returns a report listing every violation
found, so an operator can see the full blast radius of a crash or a torn
write before deciding whether to recover, and a test can assert
``report.ok``.  Exposed on the command line as ``repro-dq fsck``.

Checked invariants:

* every page is readable and passes content validation (checksums /
  torn-page detection surface here as ``corrupt-page`` violations);
* every internal entry's box contains its child's MBR;
* levels decrease by exactly one per step and all leaves sit at 0;
* entry counts respect the fan-out bounds (over-full is an error;
  under-full non-root nodes are *warnings*, because STR bulk loading
  legitimately leaves tail nodes below the minimum fill);
* the parent directory matches the actual topology;
* no allocated page is orphaned (unreachable from the root);
* no page is referenced twice (no cycles, no shared subtrees);
* the recorded record count matches the number of stored records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import StorageError
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.index.rtree import RTree

__all__ = ["Violation", "FsckReport", "RepairReport", "fsck", "repair"]


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`fsck`."""

    severity: str  # "error" | "warning"
    kind: str  # machine-readable category, e.g. "corrupt-page"
    page_id: Optional[int]
    message: str

    def __str__(self) -> str:
        where = f"page {self.page_id}" if self.page_id is not None else "tree"
        return f"[{self.severity}] {self.kind} @ {where}: {self.message}"


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck` run."""

    pages_checked: int = 0
    records_seen: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def errors(self) -> List[Violation]:
        """Violations that make the tree unsafe to query."""
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> List[Violation]:
        """Benign oddities (e.g. bulk-load tail underfill)."""
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity violation was found."""
        return not self.errors

    def summary(self) -> str:
        """One-line human summary."""
        state = "clean" if self.ok else "CORRUPT"
        return (
            f"fsck: {state} — {self.pages_checked} pages, "
            f"{self.records_seen} records, "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )


def fsck(tree: RTree) -> FsckReport:
    """Check every structural invariant of ``tree``; never raises.

    Reads are uncounted-in-spirit but go through the normal disk path,
    so injected faults can surface here; a page that cannot be read is
    reported as a violation and its subtree skipped.
    """
    report = FsckReport()
    disk = tree.disk
    # A lossy page codec (float32 boxes, conservative decode-side pads)
    # legitimately leaves children overhanging their parent entry by a
    # hair; the codec advertises how much, and containment is checked
    # against the tolerantly-inflated parent box.
    slack = getattr(getattr(disk, "_codec", None), "containment_slack", 0.0)

    def flag(severity: str, kind: str, page_id: Optional[int], msg: str) -> None:
        report.violations.append(Violation(severity, kind, page_id, msg))

    seen: set = set()
    # (page_id, expected_level, parent_id)
    stack: List[tuple] = [(tree.root_id, None, None)]
    root_level: Optional[int] = None
    while stack:
        page_id, expected_level, parent_id = stack.pop()
        if page_id in seen:
            flag(
                "error",
                "duplicate-reference",
                page_id,
                "page is referenced from more than one parent (cycle or "
                "shared subtree)",
            )
            continue
        seen.add(page_id)
        try:
            node = disk.read(page_id)
        except StorageError as exc:
            flag("error", "corrupt-page", page_id, str(exc))
            continue
        report.pages_checked += 1
        if parent_id is None:
            root_level = node.level
        if expected_level is not None and node.level != expected_level:
            flag(
                "error",
                "level-mismatch",
                page_id,
                f"at level {node.level}, parent implies {expected_level}",
            )
        if parent_id is not None:
            recorded = tree.parent_of(page_id)
            if recorded != parent_id:
                flag(
                    "error",
                    "parent-directory",
                    page_id,
                    f"directory says parent {recorded}, topology says {parent_id}",
                )
        limit = tree.max_leaf if node.is_leaf else tree.max_internal
        min_fill = tree.min_leaf if node.is_leaf else tree.min_internal
        if len(node.entries) > limit:
            flag(
                "error",
                "overfull-node",
                page_id,
                f"{len(node.entries)} entries exceed the fan-out limit {limit}",
            )
        if parent_id is not None:
            if not node.entries:
                flag("error", "empty-node", page_id, "non-root node is empty")
            elif len(node.entries) < min_fill:
                flag(
                    "warning",
                    "underfull-node",
                    page_id,
                    f"{len(node.entries)} entries below minimum fill "
                    f"{min_fill} (legal after bulk load)",
                )
        if node.entries.is_leaf != node.is_leaf:
            held = "leaf" if node.entries.is_leaf else "internal"
            flag(
                "error",
                "wrong-entry-kind",
                page_id,
                f"level-{node.level} node holds {held} rows",
            )
        elif node.is_leaf:
            report.records_seen += len(node.entries)
        else:
            for e in node.entries:
                try:
                    child = disk.read(e.child_id)
                except StorageError:
                    # The child itself is flagged when popped; here we
                    # only skip the containment test.
                    pass
                else:
                    box = e.box
                    if slack:
                        box = Box(
                            [Interval(ext.low - slack, ext.high + slack) for ext in box]
                        )
                    if child.entries and not box.contains_box(child.mbr()):
                        flag(
                            "error",
                            "mbr-containment",
                            page_id,
                            f"entry box for child {e.child_id} does not "
                            "contain the child's MBR",
                        )
                stack.append((e.child_id, node.level - 1, page_id))
    if root_level is not None:
        try:
            height = tree.height
        except StorageError:
            height = None
        if height is not None and root_level != height - 1:
            flag(
                "error",
                "height-mismatch",
                tree.root_id,
                f"root level {root_level} disagrees with height {height}",
            )
    orphans = [pid for pid in disk.page_ids() if pid not in seen]
    for pid in orphans:
        flag(
            "error",
            "orphan-page",
            pid,
            "allocated page is unreachable from the root",
        )
    if report.records_seen != len(tree):
        flag(
            "error",
            "record-count",
            None,
            f"tree reports {len(tree)} records, found {report.records_seen}",
        )
    # Durable backends expose an on-disk verification pass (slot CRCs,
    # codec decodability).  Duck-typed so this layer stays ignorant of
    # the concrete storage backend.
    verify_pages = getattr(disk, "verify_pages", None)
    if verify_pages is not None:
        for pid, message in verify_pages():
            flag("error", "disk-slot", pid, message)
    return report


@dataclass
class RepairReport:
    """What :func:`repair` changed, bracketed by before/after checks."""

    before: FsckReport
    after: FsckReport
    orphans_freed: List[int] = field(default_factory=list)
    mbrs_tightened: int = 0
    parents_fixed: int = 0
    size_corrected: Optional[tuple] = None  # (recorded, actual)

    @property
    def ok(self) -> bool:
        """True when the post-repair check finds no errors."""
        return self.after.ok

    @property
    def changed(self) -> bool:
        """True when repair modified anything."""
        return bool(
            self.orphans_freed
            or self.mbrs_tightened
            or self.parents_fixed
            or self.size_corrected
        )

    def summary(self) -> str:
        """One-line human summary."""
        actions = (
            f"{len(self.orphans_freed)} orphan(s) freed, "
            f"{self.mbrs_tightened} MBR(s) tightened, "
            f"{self.parents_fixed} parent link(s) fixed"
        )
        if self.size_corrected:
            recorded, actual = self.size_corrected
            actions += f", record count {recorded} -> {actual}"
        state = "clean" if self.ok else "STILL CORRUPT"
        return f"repair: {actions}; after: {state}"


def repair(tree: RTree) -> RepairReport:
    """Fix every mechanically repairable violation, then re-check.

    Repairs, in order: the parent directory is rebuilt from the actual
    topology; internal entry boxes are reset to their child's true MBR
    bottom-up (fixing containment violations and over-wide boxes alike);
    unreachable allocated pages are freed; the recorded record count is
    reset to the number of records actually reachable.  Unreadable
    (corrupt) pages and duplicate references cannot be repaired without
    losing data — they survive into the ``after`` report, whose ``ok``
    decides the outcome.

    Not safe under live tracked queries (freed orphans or re-written
    nodes may sit in a live priority queue); quiesce first.
    """
    before = fsck(tree)
    report = RepairReport(before=before, after=before)
    disk = tree.disk

    # Pass 1: walk the reachable topology top-down, rebuilding the
    # parent directory and collecting internal nodes and the true
    # record count.
    reachable: set = set()
    internal_nodes: List = []
    records = 0
    stack: List[int] = [tree.root_id]
    while stack:
        page_id = stack.pop()
        if page_id in reachable:
            continue
        reachable.add(page_id)
        try:
            node = disk.read(page_id)
        except StorageError:
            continue
        if node.is_leaf:
            records += len(node.entries)
            continue
        internal_nodes.append(node)
        for child_id in node.child_ids():
            if child_id != tree.root_id and tree.parent_of(child_id) != page_id:
                tree._parents[child_id] = page_id
                report.parents_fixed += 1
            stack.append(child_id)

    # Pass 2: tighten entry boxes bottom-up, so a parent always sees its
    # children's final MBRs.  The entry's own timestamp is preserved —
    # repair must not make stale data look freshly inserted to NPDQ.
    for node in sorted(internal_nodes, key=lambda n: n.level):
        changed = False
        for e in list(node.entries):
            try:
                child = disk.read(e.child_id)
            except StorageError:
                continue
            if not child.entries:
                continue
            mbr = child.mbr()
            if e.box != mbr:
                node.update_child_box(e.child_id, mbr, e.timestamp)
                report.mbrs_tightened += 1
                changed = True
        if changed:
            disk.write(node.page_id, node)

    # Pass 3: free orphans (unreachable allocated pages).
    for page_id in disk.page_ids():
        if page_id not in reachable:
            disk.free(page_id)
            tree._parents.pop(page_id, None)
            report.orphans_freed.append(page_id)

    # Pass 4: reconcile the recorded record count.
    if records != len(tree):
        report.size_corrected = (len(tree), records)
        tree._size = records

    report.after = fsck(tree)
    return report
