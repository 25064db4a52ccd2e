"""Gas schedule for the MedScript contract VM.

Gas serves two purposes in the reproduction: it bounds execution (so a
runaway contract cannot hang consensus) and it is the unit of duplicated
computing that experiments E2/E3 charge to the energy model — every node
executing the same contract burns the same gas, which is exactly the waste
the paper's transformed architecture removes.
"""

from __future__ import annotations

# Per-operation costs (dimensionless gas units).
GAS_STATEMENT = 2  # executing any statement
GAS_EXPRESSION = 1  # evaluating any expression node
GAS_LOOP_ITERATION = 3  # each loop-body entry
GAS_CALL = 10  # function call overhead
GAS_STORAGE_READ = 50
GAS_STORAGE_WRITE = 200
GAS_EMIT_EVENT = 100
GAS_HASH_PER_BYTE = 1
GAS_POW = 20  # exponentiation surcharge
GAS_DEPLOY_PER_BYTE = 2  # contract source storage
GAS_DEPLOY_BASE = 50_000
GAS_CALL_BASE = 5_000  # intrinsic cost of a call transaction

MAX_CALL_DEPTH = 32
MAX_ITERATIONS_PER_LOOP = 1_000_000
#: Gas bounds time, not memory: ``x = x + x`` doubles a string for a few gas.
#: So no str / bytes / list / tuple that ``+``, ``*`` or ``**`` builds may be
#: longer than this, and no int they build wider than this many bits; no
#: builtin that reads a sequence (``sum``, ``sorted``, ``list``, ...) takes a
#: longer one, and no ``%`` conversion is wider or more precise than this.
MAX_VALUE_SIZE = 1 << 16
