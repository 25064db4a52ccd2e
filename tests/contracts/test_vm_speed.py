"""Speed gate: lowering contracts to closures and regions must keep paying for itself.

``onchain_compute`` (E22) is the workload where the VM dominates CPU per op;
its unit of work is one ``matmul`` call at n=10.  The compiled VM has to run
it at least 25x as fast as the tree-walking oracle it replaced, in the same
process, on whatever host the tests land on.  Node-by-node closures alone
read ~3.6x and fused expressions ~6.5x; the rest is the native region (the
whole triple loop runs as one compiled function with one gas counter, ~49x),
so a change that quietly loses it fails here.

One compiled call takes ~0.3 ms, short enough for one scheduler tick on a
shared host to halve a pair's ratio, so a pair times ``BATCH`` compiled calls
back to back (about one oracle call's length) against one oracle call.
"""

from vm_oracle import OracleInterpreter

from repro.contracts import library
from repro.contracts.vm import GasMeter, Interpreter, compile_contract

N = 10
TRIALS = 12
BATCH = 10
MIN_SPEEDUP = 25.0


def test_compiled_matmul_at_least_25x_the_oracle(lower_quartile_pair):
    contract = compile_contract(library.COMPUTE_CONTRACT_SOURCE)
    args = {
        "a": [[(i * j + 1) % 7 for j in range(N)] for i in range(N)],
        "b": [[(i + j) % 5 for j in range(N)] for i in range(N)],
        "n": N,
    }

    def run(vm_class):
        meter = GasMeter(10**9)
        return vm_class(contract, {}, meter).call("matmul", dict(args)), meter.used

    assert run(Interpreter) == run(OracleInterpreter)  # also warms both paths

    # Ordered (compiled, oracle): the lower-quartile oracle/compiled ratio.
    batch, oracle = lower_quartile_pair(
        TRIALS, lambda: [run(Interpreter) for _ in range(BATCH)], lambda: run(OracleInterpreter)
    )
    compiled = batch / BATCH
    speedup = oracle / compiled
    assert speedup >= MIN_SPEEDUP, (
        f"compiled matmul n={N} is {speedup:.2f}x the oracle "
        f"({compiled * 1000:.2f}ms vs {oracle * 1000:.2f}ms; floor {MIN_SPEEDUP}x)"
    )
