"""Off-chain layer: control nodes, monitor/oracle, task running, anchoring.

Import from the submodules (``repro.offchain.tasks``, ``.control``,
``.oracle``, ``.anchoring``).  The package itself loads nothing, so a
data-only site server, which needs ``tasks`` alone, does not pull in the
chain stack that ``control`` and ``oracle`` sit on.
"""
