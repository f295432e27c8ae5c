"""Knowledge-graph question answering via planned relation paths.

A question is answered in three phases: an LLM proposes relation paths,
those paths are matched against the knowledge graph by embedding
similarity (beam search, averaged-cost pathfinding, or variable-length
heuristic search), and the LLM reasons over the grounded paths to pick
the answer entities.
"""

__version__ = "0.1.0"
