"""Cost function, D2-sampling and rejection sampling, step by step.

Walks through the geometric primitives: the squared-distance cost of a
center set, how D2-sampling concentrates draws on badly covered points,
and how rejection sampling thins those draws into uniform samples from a
single cluster.
"""

import numpy as np

from samecluster import (
    CenterSet,
    OracleSession,
    Representatives,
    SamplerState,
    add_center,
    centroid,
    centroid_error,
    cost,
    reference_point,
    rej_samp,
)
from samecluster.sampling import d2_sample_batch

rng = np.random.default_rng(0)

# Two clusters: a big one at the origin, a small far one.
big = rng.normal(loc=(0.0, 0.0), scale=0.4, size=(400, 2))
small = rng.normal(loc=(9.0, 0.0), scale=0.4, size=(40, 2))
points = np.vstack([big, small])
labels = np.array([1] * 400 + [2] * 40)

print("== cost function ==")
c_big = CenterSet({1: centroid(big)})
print(f"cost(all points | center on the big cluster) = {cost(points, c_big):,.1f}")
c_both = CenterSet({1: centroid(big), 2: centroid(small)})
print(f"cost(all points | both centroids)           = {cost(points, c_both):,.1f}")

print()
print("== D2-sampling ==")
sampler = SamplerState(points)
add_center(sampler, centroid(big))
draws = d2_sample_batch(sampler, rng, 2000)
frac_small = np.mean(labels[draws] == 2)
print(f"the small cluster holds {40/440:.1%} of the points but receives "
      f"{frac_small:.1%} of the D2 draws: distance wins over size")

print()
print("== rejection sampling to uniformity ==")
session = OracleSession(labels)
reps = Representatives()
reps.add_cluster(0)      # representative of the big cluster
reps.add_cluster(400)    # representative of the small cluster
ref = reference_point(range(400, 440), sampler)
accepted, draws_used, queries = rej_samp(
    sampler, session, W=[2], refs={2: ref}, T=200, eps=1.0, rng=rng, reps=reps)
sample_mean = points[np.asarray(accepted[2])].mean(axis=0)
err = centroid_error(small, sample_mean)
print(f"{len(accepted[2])} accepted samples from {draws_used} draws "
      f"({queries} oracle queries)")
print(f"centroid estimate from accepted samples: relative excess cost {err:.4f}")
