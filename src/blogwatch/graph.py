"""Weighted directed URL graph and crawl frontier.

Nodes are URLs; an edge (src, dst) carries the estimated key-phrase weight
at the destination: the sum, over the source document's key phrases, of
score times occurrences in the link's anchor text and context window
(``phrases.link_weight``). A node's priority is the maximum over its
incoming edge weights: summing would let many weak comment-spam links
outrank one strong topical link. Edge re-insertion also takes the max, so
repeated weak sightings never erode a strong estimate.

Each fact is stored once: an edge's weight and provenance in ``_edges``
(first-insertion order, which checkpoints keep), adjacency as URL sets, and
node age as the insertion order of ``_nodes``. ``insert_links`` weighs a
document's links before it takes the graph lock, so the lock covers only
the upserts; the phrases' position map is built once per document, when a
link first has two hits to order. It calls the weigher as
``estimate_edge_weight``, this module's alias of ``phrases.link_weight``,
the name that pipebench's traced run wraps to time and count each link.

The frontier is one sorted list, ``_frontier``, of exactly one
``(priority, -seq, url)`` entry per unfetched node. ``seq`` counts node
insertions, so it orders nodes as ``_nodes`` does; a node added again gets
a new one. A node's status and priority change only through
``_set_status`` and ``_set_priority``, which move its entry with
``bisect``. The last entry is the next pick: the highest priority, the
oldest on ties.

At ``max_nodes``, a new node evicts the first entry: the lowest-priority
unfetched node, the newest on ties. Only with no unfetched node left does
it scan the nodes, oldest first, for the oldest fetched or failed node, and
with none of those it evicts the oldest excluded one; never a node in
flight and never the source whose links are being inserted. An evicted URL
may be added and fetched again later. An excluded node stays excluded
while it is in the graph: it is never picked, and inserting its links
again changes nothing.
"""
import threading
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum

from .phrases import link_weight
from .settings import finite_float, read_rows

DEFAULT_MAX_NODES = 100_000
BLOG_CONFIRM_BOOST = 1.2  # applied at most once per node

PROVENANCE_SUMMARY = "summary"
PROVENANCE_FULLTEXT = "fulltext"

# insert_links looks this name up on every call, so a wrapper that replaces
# it here (as pipebench's traced run does) sees each link
estimate_edge_weight = link_weight


class NodeStatus(Enum):
    UNFETCHED = "unfetched"
    IN_FLIGHT = "in_flight"
    FETCHED = "fetched"
    FAILED = "failed"
    EXCLUDED = "excluded"


class CorrectionKind(Enum):
    EXCLUDE_SPAM = "exclude_spam"
    CONFIRM_BLOG = "confirm_blog"
    RESCALE = "rescale"


@dataclass(frozen=True)
class Correction:
    target: str
    kind: CorrectionKind
    factor: float = None  # present iff kind == RESCALE
    reason: str = ""

    def __post_init__(self):
        if (self.kind is CorrectionKind.RESCALE) != (self.factor is not None):
            raise ValueError("factor present iff kind is rescale")
        if self.factor is not None and self.factor <= 0:
            raise ValueError("rescale factor must be positive")


@dataclass
class MutationReport:
    """What one graph mutation did: counts, and one message per correction
    that named no node."""
    nodes_added: int = 0
    edges_added: int = 0
    nodes_pruned: int = 0
    skipped: int = 0
    errors: list = field(default_factory=list)


class _Node:
    __slots__ = ("url", "status", "priority", "confirmed", "seq")

    def __init__(self, url, status, seq, priority):
        self.url = url
        self.status = status
        self.priority = priority
        self.confirmed = False
        self.seq = seq


class FrontierGraph:
    """Single-writer graph: every mutation runs under one plain lock, which
    no method holds while calling another; reads take snapshots. Bounded
    at ``max_nodes``; overflow evicts the lowest-priority unfetched node
    (newest first on ties), or with none the oldest resolved node, an
    excluded one last."""

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES):
        self.max_nodes = max_nodes
        self._lock = threading.Lock()
        self._nodes = {}       # url -> _Node, oldest first
        self._edges = {}       # (src, dst) -> (weight, provenance)
        self._incoming = {}    # dst -> set(src)
        self._outgoing = {}    # src -> set(dst)
        self._seq = 0          # node insertions so far
        self._frontier = []    # sorted (priority, -seq, url), one per unfetched node

    # ------------------------------------------------------------------
    # basic accessors

    def in_degree(self, url: str) -> int:
        with self._lock:
            return len(self._incoming.get(url, ()))

    def stats(self) -> dict:
        with self._lock:
            by_status = {}
            for n in self._nodes.values():
                by_status[n.status.value] = by_status.get(n.status.value, 0) + 1
            return {"nodes": len(self._nodes), "edges": len(self._edges), **by_status}

    # ------------------------------------------------------------------
    # node management

    def _new_node(self, url, status, report=None, keep=None, priority=0.0):
        if len(self._nodes) >= self.max_nodes and not self._evict_one(keep):
            if report is not None:
                report.skipped += 1
            return None
        self._seq += 1
        node = self._nodes[url] = _Node(url, status, self._seq, priority)
        self._list(node)
        if report is not None:
            report.nodes_added += 1
        return node

    def _evict_one(self, keep) -> bool:
        """Drop the lowest-priority unfetched node (the newest on ties), or
        with none the oldest fetched or failed node, or with none of those
        the oldest excluded one. A node in flight and ``keep`` stay."""
        if self._frontier:
            victim = self._frontier[0][2]
        else:
            victim = excluded = None
            for n in self._nodes.values():
                if n.status is NodeStatus.IN_FLIGHT or n.url == keep:
                    continue
                if n.status is not NodeStatus.EXCLUDED:
                    victim = n.url
                    break
                excluded = excluded or n.url
            victim = victim or excluded
            if victim is None:
                return False
        self._drop_node(victim)
        return True

    # ------------------------------------------------------------------
    # frontier list

    def _list(self, node):
        """Enter an unfetched node's key in the frontier list."""
        if node.status is NodeStatus.UNFETCHED:
            insort(self._frontier, (node.priority, -node.seq, node.url))

    def _unlist(self, node):
        """Take an unfetched node's key out of the frontier list."""
        if node.status is NodeStatus.UNFETCHED:
            frontier = self._frontier
            del frontier[bisect_left(frontier, (node.priority, -node.seq, node.url))]

    def _set_status(self, node, status):
        self._unlist(node)
        node.status = status
        self._list(node)

    def _set_priority(self, node, priority):
        self._unlist(node)
        node.priority = priority
        self._list(node)

    def _drop_node(self, url):
        # first, so removing its incoming edges recomputes no priority for it
        self._unlist(self._nodes.pop(url))
        for dst in list(self._outgoing.get(url, ())):
            self._remove_edge(url, dst)
        for src in list(self._incoming.get(url, ())):
            self._remove_edge(src, url)
        self._incoming.pop(url, None)
        self._outgoing.pop(url, None)

    def _remove_edge(self, src, dst):
        self._edges.pop((src, dst), None)
        inc = self._incoming.get(dst)
        if inc:
            inc.discard(src)
        out = self._outgoing.get(src)
        if out:
            out.discard(dst)
        node = self._nodes.get(dst)
        if node is not None:
            self._recompute_priority(node)

    def _recompute_priority(self, node):
        url = node.url
        priority = max((self._edges[(src, url)][0]
                        for src in self._incoming.get(url, ())), default=0.0)
        if priority != node.priority:
            self._set_priority(node, priority)

    # ------------------------------------------------------------------
    # edge insertion

    def _upsert_edge(self, src, node, weight, provenance, report):
        dst = node.url
        key = (src, dst)
        existing = self._edges.get(key)
        if existing is None:
            self._incoming.setdefault(dst, set()).add(src)
            self._outgoing.setdefault(src, set()).add(dst)
            report.edges_added += 1
        elif weight <= existing[0]:
            return
        self._edges[key] = (weight, provenance)
        if weight > node.priority:
            self._set_priority(node, weight)

    def insert_links(self, src_url: str, links, phrases, provenance: str) -> MutationReport:
        """Mark the source fetched and upsert one weighted edge per link. An
        excluded source is left as it is and the call counted as skipped.
        Every link is weighed (``estimate_edge_weight``) before the lock is
        taken, so the lock covers only the upserts. An edge is keyed by its
        nodes' own URL strings, never by a link's equal copy, so the graph
        holds one string per URL."""
        report = MutationReport()
        positions = {}
        weighted = [(link.target, estimate_edge_weight(link, phrases, positions))
                    for link in links]
        with self._lock:
            src = self._nodes.get(src_url)
            if src is None:
                src = self._new_node(src_url, NodeStatus.FETCHED, report)
                if src is None:
                    return report
            elif src.status is NodeStatus.EXCLUDED:
                report.skipped += 1
                return report
            self._set_status(src, NodeStatus.FETCHED)
            for dst, weight in weighted:
                # a new node enters the frontier list once, at its edge's weight
                node = self._nodes.get(dst) or self._new_node(
                    dst, NodeStatus.UNFETCHED, report, keep=src_url, priority=weight)
                if node is not None:
                    self._upsert_edge(src.url, node, weight, provenance, report)
        return report

    def insert_summary(self, doc, phrases) -> MutationReport:
        """Record one analyzed blog summary, a document whose URL is its
        feed's (idempotent upsert)."""
        return self.insert_links(doc.url, doc.links, phrases, PROVENANCE_SUMMARY)

    # ------------------------------------------------------------------
    # frontier

    def next_frontier(self):
        """The URL of the best unfetched node (highest priority, the oldest
        on ties), or None. The node is marked in flight, so repeat calls
        never hand the same URL to two workers."""
        with self._lock:
            if not self._frontier:
                return None
            url = self._frontier[-1][2]
            self._set_status(self._nodes[url], NodeStatus.IN_FLIGHT)
            return url

    def resolve(self, url: str, status: NodeStatus):
        """Resolve an in-flight node to fetched/failed/excluded."""
        with self._lock:
            node = self._nodes.get(url)
            if node is None:
                return
            if node.status is NodeStatus.EXCLUDED:
                return  # exclusion is monotone
            self._set_status(node, status)

    # ------------------------------------------------------------------
    # corrections

    def apply_corrections(self, corrections) -> MutationReport:
        """Apply analyzer corrections. Unknown targets are recorded in the
        report, never fatal."""
        report = MutationReport()
        with self._lock:
            for corr in corrections:
                node = self._nodes.get(corr.target)
                if node is None:
                    report.errors.append(f"unknown node: {corr.target}")
                    continue
                if corr.kind is CorrectionKind.EXCLUDE_SPAM:
                    self._exclude(node, report)
                elif corr.kind is CorrectionKind.CONFIRM_BLOG:
                    if not node.confirmed:
                        node.confirmed = True
                        self._rescale(node, BLOG_CONFIRM_BOOST)
                elif corr.kind is CorrectionKind.RESCALE:
                    self._rescale(node, corr.factor)
        return report

    def _rescale(self, node, factor):
        for src in self._incoming.get(node.url, ()):
            key = (src, node.url)
            weight, provenance = self._edges[key]
            self._edges[key] = (weight * factor, provenance)
        self._recompute_priority(node)

    def _exclude(self, node, report):
        self._set_status(node, NodeStatus.EXCLUDED)
        # kill the spam node's influence: drop its outgoing edges and prune
        # anything unfetched that was reachable only through it
        orphan_check = []
        for dst in list(self._outgoing.get(node.url, ())):
            self._remove_edge(node.url, dst)
            orphan_check.append(dst)
        while orphan_check:
            url = orphan_check.pop()
            n = self._nodes.get(url)
            if n is None or n.status is not NodeStatus.UNFETCHED:
                continue
            if not self._incoming.get(url):
                orphan_check.extend(self._outgoing.get(url, ()))
                self._drop_node(url)
                report.nodes_pruned += 1

    # ------------------------------------------------------------------
    # persistence

    def save(self, path):
        """Checkpoint: one node or edge per line, tab-separated, insertion
        order. In-flight nodes are written as unfetched (they must be
        refetched after a resume)."""
        with self._lock, open(path, "w", encoding="utf-8") as fh:
            for n in self._nodes.values():
                status = n.status
                if status is NodeStatus.IN_FLIGHT:
                    status = NodeStatus.UNFETCHED
                fh.write(f"N\t{n.url}\t{status.value}\t{n.priority!r}\n")
            for (src, dst), (weight, provenance) in self._edges.items():
                fh.write(f"E\t{src}\t{dst}\t{weight!r}\t{provenance}\n")

    @classmethod
    def load(cls, path, max_nodes: int = DEFAULT_MAX_NODES, lines=None) -> "FrontierGraph":
        """Read a ``save`` checkpoint (or its ``lines``) by ``read_rows``;
        its numbers must be finite (a NaN priority has no place in the
        frontier's order). A bad line raises
        ``ConfigError("<path>:<lineno>: ...")``. An edge is keyed by its
        declared nodes' URL strings, as ``insert_links`` keys it, so a
        resumed graph holds one string per URL. The frontier list is
        sorted once, after the last line."""
        graph = cls(max_nodes=max_nodes)
        read_rows(path, graph._load_line, lines)
        graph._frontier = sorted((n.priority, -n.seq, n.url) for n in graph._nodes.values()
                                 if n.status is NodeStatus.UNFETCHED)
        return graph

    def _load_line(self, line):
        fields = line.split("\t")
        if fields[0] == "N" and len(fields) == 4:
            _, url, status, priority = fields
            if url in self._nodes:
                raise ValueError(f"duplicate node {url!r}")
            if len(self._nodes) >= self.max_nodes:
                raise ValueError(f"checkpoint holds more than max_nodes={self.max_nodes} nodes")
            status = NodeStatus(status)
            if status is NodeStatus.IN_FLIGHT:
                raise ValueError("in-flight node (save writes them as unfetched)")
            self._seq += 1
            self._nodes[url] = _Node(url, status, self._seq, finite_float(priority))
        elif fields[0] == "E" and len(fields) == 5:
            _, src, dst, weight, provenance = fields
            if src not in self._nodes or dst not in self._nodes:
                raise ValueError(f"edge {src!r} -> {dst!r} names an undeclared node")
            src, dst = self._nodes[src].url, self._nodes[dst].url
            if (src, dst) in self._edges:
                raise ValueError(f"duplicate edge {src!r} -> {dst!r}")
            self._edges[(src, dst)] = (finite_float(weight), provenance)
            self._incoming.setdefault(dst, set()).add(src)
            self._outgoing.setdefault(src, set()).add(dst)
        else:
            raise ValueError(f"bad checkpoint line {line!r}")
