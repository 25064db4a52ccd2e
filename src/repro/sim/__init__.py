"""Discrete-event simulation substrate: kernel, network, metrics.

Import from the submodules (``repro.sim.kernel``, ``.network``,
``.metrics``).  The package itself loads nothing, so a process that only
records into a ``MetricsRegistry`` (a data-only site server) does not load
the simulation kernel and network.
"""
