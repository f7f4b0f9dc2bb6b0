"""Reference implementations the parity tests compare production against.

Importable as ``oracles`` (``tests/`` is on ``sys.path``).  Nothing here
is reachable from ``src/``: no option or environment variable selects
these paths — only a test can, by calling them directly or by installing them
through the seams named in each module.

* :mod:`oracles.groute` — scalar-priced maze A* and run pricing
  (reference for the ``CostField`` paths of ``repro.groute``), the
  build-every-path segment router (reference for ``_route_segment``)
  and ``route_pattern``, one pattern path planned and built.
* :mod:`oracles.field` — the scalar Eq. 10 ``CostModel`` (the definition
  ``CostField``'s maps and the maze heuristic are pinned to bit for bit)
  and the per-line Eq. 9/10 recompute (reference for ``CostField``'s
  batched flush over flat buffers).
* :mod:`oracles.droute` — dict-of-tuples A* and session state (reference
  for ``repro.droute.indexed``).
* :mod:`oracles.crp` — the scalar Algorithm 3 pricer (reference for
  ``EccCache`` and ``price_segments``) and the uncached CR&P iteration:
  fresh per-net cost scans and ECC through that pricer.
* :mod:`oracles.select` — the Eq. 12 exclusion rows from dense
  ``count × count`` masks (reference for
  ``repro.core.select._add_conflict_constraints``).
* :mod:`oracles.milp` — HiGHS through ``scipy.optimize.milp`` (reference
  for ``repro.ilp.scipy_backend``, which calls scipy's HiGHS extension
  without importing ``scipy.optimize``).
* :mod:`oracles.exhaustive` — enumeration of every 0/1 assignment of a
  small model (reference for ``repro.ilp.solve``'s optimum), and
  ``is_feasible``, which checks an assignment against the model's rows.
"""
