"""Reference implementations the parity tests compare production against.

Importable as ``oracles`` (``tests/`` is on ``sys.path``).  Nothing here
is reachable from ``src/``: no option or environment variable selects
these paths — only a test can, by calling them directly or by installing them
through the seams named in each module.

* :mod:`oracles.groute` — scalar ``CostModel`` maze A* and run pricing
  (reference for the ``CostField`` paths of ``repro.groute``), and the
  build-every-path segment router (reference for ``_route_segment``).
* :mod:`oracles.field` — the per-line Eq. 9/10 recompute (reference for
  ``CostField``'s batched flush over flat buffers).
* :mod:`oracles.droute` — dict-of-tuples A* and session state (reference
  for ``repro.droute.indexed``).
* :mod:`oracles.crp` — uncached CR&P iteration: fresh per-net cost scans
  and ECC without an ``EccCache``.
"""
