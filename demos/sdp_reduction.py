"""General SDPs as energy minimization, via a trace guess R.

A standard-form SDP gains the extra constraint Tr X <= R, which makes it
a scaled energy-minimization problem over density matrices.  Two
embeddings realize this: a direct sum (one extra dimension) and a qubit
tensor (one extra qubit).  Their values agree, upper-bound the original
optimum, and approach it as R grows.
"""

import numpy as np

from thermosdp import PauliSum, materialize, solve_sdp
from thermosdp.oracle import lp_diagonal_sdp_value
from thermosdp.sdp import SdpProblem, reduce_direct_sum, reduce_qubit_embed

# diagonal data so a linear program can certify every number:
#   min  <diag(1.0, 0.1) X>  s.t.  <diag(1.0, 0.2) X> = 1.2,  X >= 0
# the cheap direction needs a lot of trace, so the bound R genuinely binds
C = PauliSum(1, [("I", 0.55), ("Z", 0.45)])       # diag(1.0, 0.1)
A1 = PauliSum(1, [("I", 0.6), ("Z", 0.4)])        # diag(1.0, 0.2)
sdp = SdpProblem(C, ((A1, 1.2),), trace_bound=4.0)

c_diag = np.real(np.diagonal(materialize(C).entries))
a_diag = np.real(np.diagonal(materialize(A1).entries))
alpha = lp_diagonal_sdp_value(c_diag, [a_diag], [1.2])
print("LP oracle: alpha = %.6f (no trace bound)" % alpha)

for R in (2.0, 4.0, 8.0):
    alpha_r = lp_diagonal_sdp_value(c_diag, [a_diag], [1.2], trace_bound=R)
    print("  R = %4.1f: alpha_R = %.6f  (>= alpha: %s)"
          % (R, alpha_r, alpha_r >= alpha - 1e-9))

# the two reductions produce different-shaped problems with the same value
direct = reduce_direct_sum(sdp)
embed = reduce_qubit_embed(sdp)
print("direct sum: dimension %d, targets %s" % (direct.d, direct.q))
print("qubit embed: dimension %d, qubits %d" % (embed.d, embed.hamiltonian.n))

report_exact = solve_sdp(sdp, epsilon=0.2, radius=3.0, mode="exact")
report_sga = solve_sdp(sdp, epsilon=0.8, radius=3.0, mode="sga", delta=0.2, seed=11)
alpha_r = lp_diagonal_sdp_value(c_diag, [a_diag], [1.2], trace_bound=4.0)
print("exact solve (direct sum):  %.5f  [oracle %.5f]" % (report_exact.estimate, alpha_r))
print("sga solve (qubit embed):   %.5f  [%d thermal samples]"
      % (report_sga.estimate, report_sga.sample_count))
