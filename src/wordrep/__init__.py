"""Word-representability of graphs via semi-transitive orientations.

Modules:
  graphs        labeled undirected graphs, JSON I/O
  debruijn      de Bruijn digraphs B(n,k) and simplified graphs S(n,k)
  words         alternation relation and uniform representant search
  coloring      trailing-run 3-coloring of S(n,2), exact chromatic number
  orientations  orientations, shortcut detection, brute-force oracle
  solver        branch-and-propagate semi-transitivity decision procedure
  traces        proof-trace parsing, verification, emission, graph extraction
  subiso        anchored induced subgraph isomorphism
  repro         the reproduction pipeline behind ``wordrep repro``
  cli           command-line entry point
"""

__version__ = "0.1.0"
