# The spike needs all three factors at once: small singular values, test
# points that overlap the trailing modes, and training residuals for those
# modes to amplify.  Remove any one and the peak flattens.  Ridge, which
# caps 1/sigma instead of removing it, flattens the peak the same way: its
# filter gain sigma / (sigma^2 + lambda) never exceeds 1 / (2 sqrt(lambda)),
# and its records split its own test error, the variance shrunk and a bias
# from the shrinkage in its place.
#
# Run from the repo root:  python3 demos/ablations.py

from descent_lab import SweepConfig, parse_ablation, parse_estimator, peak_ratio, run_sweep

D = 16
BASE = dict(d=D, noise_sd=0.25, grid=list(range(2, 3 * D + 1)), seeds=list(range(10)))

runs = [
    ("baseline (pinv)", SweepConfig(**BASE)),
    ("sv-cutoff", SweepConfig(**BASE, ablation=parse_ablation("sv-cutoff"))),
    ("test-projection", SweepConfig(**BASE, ablation=parse_ablation("test-projection"))),
    ("linearized-targets", SweepConfig(**BASE, ablation=parse_ablation("linearized-targets"))),
    ("ridge:auto", SweepConfig(**BASE, estimator=parse_estimator("ridge:auto"))),
]

print(f"student-teacher D = {D}, grid 2..{3 * D}, {len(BASE['seeds'])} seeds")
print(f"\n{'variant':<22} {'peak ratio':>10}   (median mse at n=D over n=3D)")
for name, config in runs:
    outcome = run_sweep(config)
    ratio = peak_ratio(outcome.records, D)
    note = "spike" if ratio > 2 else "flat"
    print(f"{name:<22} {ratio:>10.2f}   {note}")
