"""Clustering against an oracle that lies with probability p.

The noisy pipeline replaces single representatives with majority votes
over representative sets: grouping sampled points by greedy majority
linkage, testing membership with CheckCluster, and rejection-sampling
through the same majority machinery.
"""

import numpy as np

from samecluster import (
    NoisyConfig,
    OracleSession,
    PointSet,
    Representatives,
    check_cluster,
    find_clusters,
    run_noisy,
)

rng = np.random.default_rng(2)
centers = np.array([[0.0, 0, 0, 0], [8, 0, 0, 0], [0, 8, 0, 0]])
points = np.vstack([rng.normal(loc=c, scale=0.3, size=(400, 4)) for c in centers])
labels = np.repeat([1, 2, 3], 400)

print("== majority votes survive a p=0.2 oracle ==")
session = OracleSession(labels, error_prob=0.2, rng_seed=5)
reps = Representatives()
reps.add_cluster(*range(30))               # 30 members of cluster 1
x_same, x_other = 100, 500                 # a cluster-1 point, a cluster-2 point
print(f"point of the same cluster    -> {check_cluster(session, x_same, reps)}")
print(f"point of a different cluster -> {check_cluster(session, x_other, reps)}")

print()
print("== greedy majority-linkage grouping ==")
sample = rng.integers(0, len(points), size=300)
session = OracleSession(labels, error_prob=0.1, rng_seed=6)
ids, Z = find_clusters(sample, session, NoisyConfig(p=0.1, min_cluster_frac=0.0))
for gid in ids:
    members = np.asarray(Z[gid])
    purity = np.bincount(labels[members]).max() / len(members)
    print(f"group {gid}: {len(members):>3} members, purity {purity:.3f}")

print()
print("== full noisy recovery ==")
session = OracleSession(labels, error_prob=0.1, rng_seed=7)
res = run_noisy(PointSet(points, labels=labels), session,
                NoisyConfig(p=0.1), eps=0.5, seed=8)
print(f"recovered {res.K_recovered} clusters with {res.queries_total:,} queries")
for cid, err in sorted(res.per_cluster_errors.items()):
    print(f"  cluster {cid} (truth label {res.truth_labels[cid]}): "
          f"centroid error {err:.4f}")
