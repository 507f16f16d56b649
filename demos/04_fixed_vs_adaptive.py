#
# Fixed-step vs adaptive factored gradient descent on one benchmark-style
# instance (entries of U* from Uniform(-1, 1), A = U* U*^T), from a near and
# a far start. Writes the trajectory CSVs and, when matplotlib is available,
# a log-scale convergence plot.
#
# A full-scale reproduction (n = 1000, ranks 2 and 5) is one command:
#     factordescent reproduce-figures --out figures-output
#

from pathlib import Path

from factordescent import ExperimentConfig, export_csv, run_comparison

OUT = Path("demo-output")

results = {}
for kind, param in (("near", 0.5), ("far", 1.0)):
    config = ExperimentConfig(
        n=300, r=2, seed=7, init_kind=kind, init_param=param,
        policies=("fgd", "adaptive-practical"),
        max_iters=1500, rel_tol=1e-10, output_dir=str(OUT / kind))
    artifact = run_comparison(config)
    export_csv(artifact)
    results[kind] = artifact
    for label, entry in artifact.summary["policies"].items():
        print(f"{kind:4s} {label:20s} iterations to tolerance: "
              f"{entry['iterations_to_tolerance']}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; CSVs are in", OUT)
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4), sharey=True)
    for ax, (kind, artifact) in zip(axes, results.items()):
        for label, traj in artifact.trajectories.items():
            ax.semilogy([rec.k for rec in traj.records],
                        [rec.rel_error for rec in traj.records], label=label)
        ax.set_title(f"{kind} start (n=300, r=2)")
        ax.set_xlabel("iteration")
        ax.legend()
    axes[0].set_ylabel("relative error $g(U_k)/g(U_0)$")
    fig.tight_layout()
    fig.savefig(OUT / "fixed_vs_adaptive.png", dpi=120)
    print("plot written to", OUT / "fixed_vs_adaptive.png")
