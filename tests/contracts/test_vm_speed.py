"""Speed gate: lowering contracts to closures must keep paying for itself.

``onchain_compute`` (E22) is the workload where the VM dominates CPU per op;
its unit of work is one ``matmul`` call at n=10.  The compiled VM has to run
it at least 2.5x as fast as the tree-walking oracle it replaced, in the same
process, on whatever host the tests land on.
"""

from vm_oracle import OracleInterpreter

from repro.contracts import library
from repro.contracts.vm import GasMeter, Interpreter, compile_contract

N = 10
TRIALS = 12
MIN_SPEEDUP = 2.5


def test_compiled_matmul_at_least_2_5x_the_oracle(lower_quartile_pair):
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
    compiled, oracle = lower_quartile_pair(
        TRIALS, lambda: run(Interpreter), lambda: run(OracleInterpreter)
    )
    speedup = oracle / compiled
    assert speedup >= MIN_SPEEDUP, (
        f"compiled matmul n={N} is {speedup:.2f}x the oracle "
        f"({compiled * 1000:.2f}ms vs {oracle * 1000:.2f}ms; floor {MIN_SPEEDUP}x)"
    )
