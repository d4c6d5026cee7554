"""blogwatch: continuous blog monitoring through online focused crawling.

Three cooperating layers: ping-driven seed generation, streaming RSS
summary analysis building a key-phrase-weighted URL graph, and a
relevance-gated focused crawler that corrects the graph as it fetches.
"""

#: The text kernels' implementation. Only pure Python exists; benchmark
#: results record this value.
KERNEL_IMPL = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_IMPL", "__version__"]
