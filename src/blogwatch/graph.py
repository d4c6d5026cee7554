"""Weighted directed URL graph and crawl frontier.

Nodes are URLs; an edge (src, dst) carries the estimated key-phrase weight
at the destination: the sum, over the source document's key phrases, of
score times occurrences in the link's anchor text and context window, all
counted in one n-gram pass (``estimate_edge_weight``). A node's priority is
the maximum over its incoming edge weights: summing would let many weak
comment-spam links outrank one strong topical link. Edge re-insertion also
takes the max, so repeated weak sightings never erode a strong estimate.

Each fact is stored once: an edge's weight and provenance in ``_edges``
(first-insertion order, which checkpoints keep), adjacency as URL sets, and
node age as the insertion order of ``_nodes``. The frontier pick is one scan
over the nodes: the unfetched node of highest priority, the oldest on ties.
Eviction scans the same way for the lowest-priority unfetched node, the
newest on ties. An excluded node stays excluded: it is never picked, and
inserting its links again changes nothing.
"""
import threading
from dataclasses import dataclass, field
from enum import Enum

from .phrases import count_ngrams, terms

DEFAULT_MAX_NODES = 100_000
BLOG_CONFIRM_BOOST = 1.2  # applied at most once per node

PROVENANCE_SUMMARY = "summary"
PROVENANCE_FULLTEXT = "fulltext"


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


@dataclass(frozen=True)
class NodeRecord:
    url: str
    status: NodeStatus
    priority: float


@dataclass(frozen=True)
class EdgeRecord:
    src: str
    dst: str
    weight: float
    provenance: str


@dataclass
class MutationReport:
    nodes_added: list = field(default_factory=list)
    edges_added: list = field(default_factory=list)
    edges_updated: list = field(default_factory=list)
    nodes_pruned: list = field(default_factory=list)
    skipped: int = 0
    errors: list = field(default_factory=list)


def estimate_edge_weight(link, phrases) -> float:
    """Sum over the source document's key phrases of score * occurrences
    of the phrase's token sequence in the link's anchor text and context
    window (overlapping occurrences counted). Phrases are the 2-3 token
    n-grams ``phrases.extract_scored_phrases`` emits; sequences never match
    across the anchor/context boundary."""
    seq = terms(link.anchor_text)
    seq.append(None)
    seq.extend(terms(link.context_window))
    counts = count_ngrams(seq)
    total = 0.0
    # one term at a time in phrase order: summing in another order (or with
    # sum()) changes the weights in their last bits
    for p in phrases:
        occ = counts.get(p.tokens)
        if occ:
            total += p.score * occ
    return total


class _Node:
    __slots__ = ("url", "status", "priority", "confirmed")

    def __init__(self, url, status):
        self.url = url
        self.status = status
        self.priority = 0.0
        self.confirmed = False

    def record(self) -> NodeRecord:
        return NodeRecord(self.url, self.status, self.priority)


class FrontierGraph:
    """Single-writer graph: every mutation runs under one lock, reads take
    snapshots. Bounded at ``max_nodes``; overflow evicts the lowest-priority
    unfetched node (newest first on ties)."""

    def __init__(self, max_nodes: int = DEFAULT_MAX_NODES):
        self.max_nodes = max_nodes
        self._lock = threading.RLock()
        self._nodes = {}       # url -> _Node, oldest first
        self._edges = {}       # (src, dst) -> (weight, provenance)
        self._incoming = {}    # dst -> set(src)
        self._outgoing = {}    # src -> set(dst)

    # ------------------------------------------------------------------
    # basic accessors

    def __len__(self):
        return len(self._nodes)

    def node(self, url: str):
        with self._lock:
            n = self._nodes.get(url)
            return n.record() if n else None

    def in_degree(self, url: str) -> int:
        with self._lock:
            return len(self._incoming.get(url, ()))

    def nodes(self):
        with self._lock:
            return [n.record() for n in self._nodes.values()]

    def edges(self):
        with self._lock:
            return [EdgeRecord(src, dst, weight, provenance)
                    for (src, dst), (weight, provenance) in self._edges.items()]

    def stats(self) -> dict:
        with self._lock:
            by_status = {}
            for n in self._nodes.values():
                by_status[n.status.value] = by_status.get(n.status.value, 0) + 1
            return {"nodes": len(self._nodes), "edges": len(self._edges), **by_status}

    # ------------------------------------------------------------------
    # node management

    def _new_node(self, url, status, report=None):
        if len(self._nodes) >= self.max_nodes and not self._evict_one():
            if report is not None:
                report.skipped += 1
            return None
        node = self._nodes[url] = _Node(url, status)
        if report is not None:
            report.nodes_added.append(url)
        return node

    def _evict_one(self) -> bool:
        victim = None
        for n in self._nodes.values():
            # <=: of equal priorities, the newest node is evicted
            if n.status is NodeStatus.UNFETCHED and (victim is None
                                                     or n.priority <= victim.priority):
                victim = n
        if victim is None:
            return False
        self._drop_node(victim.url)
        return True

    def _drop_node(self, url):
        # first, so removing its incoming edges recomputes no priority for it
        del self._nodes[url]
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
        node.priority = max((self._edges[(src, url)][0]
                             for src in self._incoming.get(url, ())), default=0.0)

    # ------------------------------------------------------------------
    # edge insertion

    def _upsert_edge(self, src, dst, weight, provenance, report):
        key = (src, dst)
        existing = self._edges.get(key)
        if existing is None:
            self._incoming.setdefault(dst, set()).add(src)
            self._outgoing.setdefault(src, set()).add(dst)
            report.edges_added.append(key)
        elif weight > existing[0]:
            report.edges_updated.append(key)
        else:
            return
        self._edges[key] = (weight, provenance)
        node = self._nodes.get(dst)
        if node is not None and weight > node.priority:
            node.priority = weight

    def insert_links(self, src_url: str, links, phrases, provenance: str) -> MutationReport:
        """Mark the source fetched and upsert one weighted edge per link. An
        excluded source is left as it is and the call counted as skipped."""
        report = MutationReport()
        with self._lock:
            src = self._nodes.get(src_url)
            if src is None:
                src = self._new_node(src_url, NodeStatus.FETCHED, report)
                if src is None:
                    return report
            elif src.status is NodeStatus.EXCLUDED:
                report.skipped += 1
                return report
            src.status = NodeStatus.FETCHED
            for link in links:
                dst = link.target
                if dst not in self._nodes:
                    if self._new_node(dst, NodeStatus.UNFETCHED, report) is None:
                        continue
                weight = estimate_edge_weight(link, phrases)
                self._upsert_edge(src_url, dst, weight, provenance, report)
        return report

    def insert_summary(self, doc, phrases) -> MutationReport:
        """Record one analyzed blog summary (idempotent upsert)."""
        return self.insert_links(doc.blog_url, list(doc.all_links()), phrases,
                                 PROVENANCE_SUMMARY)

    # ------------------------------------------------------------------
    # frontier

    def next_frontier(self):
        """The best unfetched node (highest priority, the oldest on ties),
        or None. It is marked in flight, so repeat calls never hand the
        same node to two workers."""
        with self._lock:
            best = None
            for n in self._nodes.values():
                # >: of equal priorities, the oldest node is picked
                if n.status is NodeStatus.UNFETCHED and (best is None
                                                         or n.priority > best.priority):
                    best = n
            if best is None:
                return None
            best.status = NodeStatus.IN_FLIGHT
            return best.record()

    def resolve(self, url: str, status: NodeStatus):
        """Resolve an in-flight node to fetched/failed/excluded."""
        with self._lock:
            node = self._nodes.get(url)
            if node is None:
                return
            if node.status is NodeStatus.EXCLUDED:
                return  # exclusion is monotone
            node.status = status

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
        node.status = NodeStatus.EXCLUDED
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
                report.nodes_pruned.append(url)

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
    def load(cls, path, max_nodes: int = DEFAULT_MAX_NODES) -> "FrontierGraph":
        """Read a ``save`` checkpoint. A malformed line raises
        ``ValueError("<path>:<lineno>: ...")``."""
        graph = cls(max_nodes=max_nodes)
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if line:
                    try:
                        graph._load_line(line)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
        return graph

    def _load_line(self, line):
        fields = line.split("\t")
        if fields[0] == "N" and len(fields) == 4:
            _, url, status, priority = fields
            if url in self._nodes:
                raise ValueError(f"duplicate node {url!r}")
            # _new_node would evict a checkpointed node, or fail
            if len(self._nodes) >= self.max_nodes:
                raise ValueError(f"checkpoint holds more than max_nodes={self.max_nodes} nodes")
            status = NodeStatus(status)
            if status is NodeStatus.IN_FLIGHT:
                raise ValueError("in-flight node (save writes them as unfetched)")
            self._new_node(url, status).priority = float(priority)
        elif fields[0] == "E" and len(fields) == 5:
            _, src, dst, weight, provenance = fields
            if src not in self._nodes or dst not in self._nodes:
                raise ValueError(f"edge {src!r} -> {dst!r} names an undeclared node")
            if (src, dst) in self._edges:
                raise ValueError(f"duplicate edge {src!r} -> {dst!r}")
            self._edges[(src, dst)] = (float(weight), provenance)
            self._incoming.setdefault(dst, set()).add(src)
            self._outgoing.setdefault(src, set()).add(dst)
        else:
            raise ValueError(f"bad checkpoint line {line!r}")
