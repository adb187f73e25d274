# Take one overparameterized instance apart: the prediction error at a test
# point is a bias term (what the training rows never saw) plus one term per
# singular mode, (1/sigma_r) (x.v_r) (u_r.E).  The sum matches the actual
# estimator error to float precision -- that identity is what makes the
# later ablations meaningful.
#
# Run from the repo root:  python3 demos/error_decomposition.py

import numpy as np

from descent_lab import (
    decompose_test_error,
    fit_pinv,
    make_ground_truth,
    make_student_teacher,
    regime_of,
    svd,
)

N_TRAIN, D, NOISE, SEED = 12, 20, 0.3, 1

x, y, teacher = make_student_teacher(N_TRAIN + 50, D, NOISE, SEED)
x_train, y_train = x[:N_TRAIN], y[:N_TRAIN]
gt = make_ground_truth(x, y, x_train, y_train)
s = svd(x_train)
fit = fit_pinv(x_train, y_train)

x_test = x[-1]
dec = decompose_test_error(x_test, x_train, y_train, s, gt)

print(f"shape {N_TRAIN} x {D}: {regime_of(N_TRAIN, D)}, rank {s.rank}")
print(f"\n{'mode':>4} {'sigma':>9} {'1/sigma':>9} {'x.v':>9} {'u.E':>9} {'term':>10}")
for m in dec.modes:
    print(
        f"{m.mode_index:>4} {m.sigma:>9.4f} {m.inv_sigma:>9.4f} "
        f"{m.xtest_dot_v:>9.4f} {m.u_dot_E:>9.4f} {m.contribution:>10.5f}"
    )

predicted = dec.bias_term + dec.variance_term
observed = float(x_test @ fit.beta - x_test @ gt.beta_star)
print(f"\nbias term      {dec.bias_term:>12.6f}")
print(f"variance term  {dec.variance_term:>12.6f}")
print(f"sum            {predicted:>12.6f}")
print(f"actual error   {observed:>12.6f}")
print(f"gap            {abs(predicted - observed):>12.3g}")

# The trailing modes carry tiny sigmas but full-size projections, which is
# the whole story of the spike: near n = D the 1/sigma factor explodes.
tail = dec.modes[-1]
print(
    f"\nsmallest mode: sigma = {tail.sigma:.4f}, so its term is amplified "
    f"{tail.inv_sigma:.1f}x relative to the projections"
)
