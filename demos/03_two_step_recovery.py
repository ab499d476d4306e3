"""The two-step solver on a single instance, phase by phase.

Step 1 builds the weighted second-moment matrix V = (1/m) sum y_i (a_i a_i^T - I)
(expectation nu x x^T) and runs projected power iterations from the column of
the shifted matrix S = V + ybar I with the largest diagonal entry, which
shifted_matrix and initial_vector read from the data without forming S.  Step 2 converts the
problem into an approximately linear one through pseudo-observations
ytil_i = (y_i - ybar)(a_i^T x) and descends with the adaptive step size
1/nu_hat, projecting after every move.  Each step takes plain values: the
iteration counts t1 and t2 (and, for a fixed step size, fixed=True).

Magnitude-only links cannot distinguish x from -x when the range is symmetric,
so we run the spectral start with both signs and keep the better branch --
the same restart policy the experiment harness uses.
"""
import numpy as np

from genphase import (LinkModel, build_spectral_matrix, evaluate, initial_vector,
                      linear_subspace_prior, projected_power, run_refine,
                      sample_measurements, shifted_matrix)

prior = linear_subspace_prior(k=5, n=100, seed=2)
z = np.random.default_rng(3).standard_normal(5)
x = evaluate(prior, z)
if x[int(np.argmax(np.abs(x)))] < 0:
    x = -x  # canonical sign, so errors below are against a fixed representative

link = LinkModel("abs-noise-out", sigma=0.1)
data = sample_measurements(link, x, m=2000, seed=7)

spec = build_spectral_matrix(data)
w0 = initial_vector(shifted_matrix(data))
print(f"start correlation <x, w0> = {x @ w0:+.3f}")

branches = [projected_power(spec, prior, s * w0, t1=20, truth=x) for s in (1.0, -1.0)]
states = min(branches, key=lambda st: st[-1].error)
print("\nstep 1: projected power iterations (best of +/- w0)")
for i in sorted(set(range(0, len(states), 4)) | {len(states) - 1}):
    s = states[i]
    print(f"  t={s.t:>2}  error={s.error:.4f}  correlation={s.correlation:+.4f}")

refined = run_refine(data, prior, states[-1].iterate, t2=30, truth=x)
print("\nstep 2: adaptive refinement (zeta = 1/nu_hat)")
for i in sorted(set(range(0, len(refined), 6)) | {len(refined) - 1}):
    s = refined[i]
    zeta = "-" if s.zeta is None else f"{s.zeta:.3f}"
    print(f"  t={s.t:>2}  error={s.error:.4f}  nu_hat={s.nu_hat:+.4f}  zeta={zeta}")

print(f"\nfinal error {refined[-1].error:.4f} "
      f"(init {states[0].error:.4f}, after step 1 {states[-1].error:.4f})")

# the same pipeline on the linear link shows the nu ~ 0 failure mode
data_lin = sample_measurements(LinkModel("linear", 0.0), x, m=2000, seed=7)
bad = run_refine(data_lin, prior, x, t2=10, truth=x)
warns = sum(s.warn for s in bad)
print(f"\nlinear link (nu = 0): warn flag raised on {warns}/{len(bad)} iterations "
      "-- the model is outside the solvable class")
