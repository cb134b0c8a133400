"""GPU platform study: V100 vs T4 vs A100.

Reproduces the paper's §5.4.2 platform-scaling experiment (Fig. 12) on
the simulator and extends it with an A100 what-if.

Run with:  python examples/gpu_platform_study.py
"""

import repro
from repro.gpusim import A100, T4, V100
from repro.graphs import kronecker, largest_component_vertices
from repro.sssp import validate_distances

graph = kronecker(scale=13, edgefactor=16, weights="int", seed=3)
source = int(largest_component_vertices(graph)[0])
print(f"workload: {graph}\n")

# --- single-GPU platform scaling (Fig. 12 + A100 what-if) -------------------
print(f"{'platform':<8} {'SMs':>5} {'GB/s':>6} {'time (ms)':>10} {'GTEPS':>7} {'vs T4':>6}")
times = {}
# scaled-simulation mode (DESIGN.md §5): one scale factor for all boards
for base in (T4, V100, A100):
    spec = base.scaled_for_workload(1 / 64)
    r = repro.solve(graph, source, method="rdbs", spec=spec)
    validate_distances(graph, source, r.dist)
    times[base.name] = r.time_ms
    rel = times["T4"] / r.time_ms
    print(
        f"{base.name:<8} {base.num_sms:>5} {base.mem_bandwidth_gbps:>6.0f} "
        f"{r.time_ms:>10.4f} {r.gteps:>7.3f} {rel:>6.2f}x"
    )
print(
    "\nThe paper's §5.4.2 analysis: 'taking parallelism resources and"
    "\nmemory bandwidth into consideration ... V100 should be two to three"
    "\ntimes better than T4' — the ratio above comes from the same"
    "\ndatasheet numbers."
)
