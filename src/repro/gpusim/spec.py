"""GPU hardware specifications for the execution-model simulator.

The simulator is *transaction-level*: it executes kernels for real (as
vectorized NumPy) while accounting warp-level instructions, memory
transactions, cache hits and synchronization events, then converts those
counts into simulated time with a two-resource (compute vs memory) model.
The conversion constants live here, taken from the public datasheets of the
two boards the paper evaluates (§5.1.1, §5.4.2):

* **Tesla V100** — 80 SMs, 5120 CUDA cores, 900 GB/s HBM2, 128 KB unified
  L1/tex per SM, ~1.53 GHz boost;
* **Tesla T4**   — 40 SMs, 2560 CUDA cores, 320 GB/s GDDR6, 64 KB unified
  L1/tex per SM, ~1.59 GHz boost.

The paper's own scaling analysis (§5.4.2) — "taking parallelism resources
and memory bandwidth into consideration … V100 should be two to three times
better than T4" — is exactly what these numbers imply, so Fig. 12's shape
follows from the specs rather than from tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["GPUSpec", "V100", "T4", "A100"]


@dataclass(frozen=True)
class GPUSpec:
    """Parameters of one simulated GPU platform."""

    name: str
    #: number of streaming multiprocessors
    num_sms: int
    #: CUDA cores (FP32 lanes) in total; per-SM cores = cuda_cores / num_sms
    cuda_cores: int
    #: SIMT width — threads per warp
    warp_size: int
    #: boost clock in GHz
    clock_ghz: float
    #: peak global-memory bandwidth in GB/s
    mem_bandwidth_gbps: float
    #: unified L1/tex capacity per SM in KiB
    l1_kb_per_sm: int
    #: cache line size in bytes (transactions are 32 B sectors of this line)
    cache_line_bytes: int
    #: memory transaction granularity in bytes (one L1 sector)
    sector_bytes: int
    #: warp instructions each SM can issue per cycle
    issue_per_sm_per_cycle: float
    #: host-side kernel launch latency (seconds)
    kernel_launch_s: float
    #: device-side (dynamic parallelism) child-kernel launch cost (seconds).
    #: This is an amortized *throughput* cost, not a latency: with Hyper-Q,
    #: 32 hardware queues keep child launches in flight concurrently, so a
    #: burst of launches pipelines (the KLAP observation) — each one only
    #: occupies the launch path for a few tens of nanoseconds
    child_launch_s: float
    #: device-wide synchronization barrier latency (seconds)
    barrier_s: float
    #: scheduling overhead of one asynchronous work-list round (seconds);
    #: orders of magnitude below a barrier — the BASYN saving of §4.3
    async_round_s: float
    #: maximum resident warps per SM (occupancy ceiling)
    max_warps_per_sm: int
    #: average extra latency of an atomic RMW vs a plain store, in cycles,
    #: charged per *conflicting* atomic within a transaction group
    atomic_serialization_cycles: float

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def clock_hz(self) -> float:
        """Boost clock in Hz."""
        return self.clock_ghz * 1e9

    @property
    def mem_bandwidth_bytes_per_s(self) -> float:
        """Peak bandwidth in bytes/second."""
        return self.mem_bandwidth_gbps * 1e9

    @property
    def total_l1_bytes(self) -> int:
        """Aggregate L1/tex capacity across all SMs."""
        return self.l1_kb_per_sm * 1024 * self.num_sms

    @property
    def total_l1_lines(self) -> int:
        """Aggregate L1 capacity in cache lines."""
        return self.total_l1_bytes // self.cache_line_bytes

    @property
    def issue_slots_per_s(self) -> float:
        """Aggregate warp-instruction issue rate of the whole device."""
        return self.num_sms * self.issue_per_sm_per_cycle * self.clock_hz

    @property
    def resident_warps(self) -> int:
        """Device-wide resident-warp ceiling (parallelism limit)."""
        return self.num_sms * self.max_warps_per_sm

    def scaled_for_workload(self, workload_scale: float) -> "GPUSpec":
        """Spec for running a workload scaled down by ``workload_scale``.

        The benchmark datasets are 1/64–1/256-scale surrogates of the
        paper's graphs.  Running them against full-size constants would
        distort the regime twice over: a 10 MB aggregate L1 swallows a
        3 MB graph whole (hiding every locality effect), and microsecond
        launch latencies dwarf microsecond kernel bodies (hiding every
        work/balance effect).  The standard scaled-simulation remedy is to
        shrink the *capacity and latency* constants by the same factor as
        the workload while keeping throughputs (SMs, bandwidth, clock)
        untouched — kernel bodies already scale naturally with the input.

        Concretely: L1 capacity, kernel-launch, child-launch, barrier and
        async-round latencies are multiplied by ``workload_scale``.
        """
        if not 0 < workload_scale <= 1:
            raise ValueError("workload_scale must be in (0, 1]")
        if workload_scale == 1.0:
            return self
        return replace(
            self,
            name=f"{self.name}@{workload_scale:g}",
            l1_kb_per_sm=max(1, int(round(self.l1_kb_per_sm * workload_scale))),
            kernel_launch_s=self.kernel_launch_s * workload_scale,
            child_launch_s=self.child_launch_s * workload_scale,
            barrier_s=self.barrier_s * workload_scale,
            async_round_s=self.async_round_s * workload_scale,
        )


#: NVIDIA Tesla V100 (paper's primary platform, §5.1.1).
V100 = GPUSpec(
    name="V100",
    num_sms=80,
    cuda_cores=5120,
    warp_size=32,
    clock_ghz=1.53,
    mem_bandwidth_gbps=900.0,
    l1_kb_per_sm=128,
    cache_line_bytes=128,
    sector_bytes=32,
    issue_per_sm_per_cycle=4.0,
    kernel_launch_s=5e-6,
    child_launch_s=2.5e-8,
    barrier_s=3e-6,
    async_round_s=1.5e-7,
    max_warps_per_sm=64,
    atomic_serialization_cycles=20.0,
)

#: NVIDIA Tesla T4 (the scalability platform of §5.4.2).
T4 = GPUSpec(
    name="T4",
    num_sms=40,
    cuda_cores=2560,
    warp_size=32,
    clock_ghz=1.59,
    mem_bandwidth_gbps=320.0,
    l1_kb_per_sm=64,
    cache_line_bytes=128,
    sector_bytes=32,
    issue_per_sm_per_cycle=4.0,
    kernel_launch_s=5e-6,
    child_launch_s=2.5e-8,
    barrier_s=3e-6,
    async_round_s=1.5e-7,
    max_warps_per_sm=32,
    atomic_serialization_cycles=20.0,
)

#: NVIDIA A100 (not in the paper; provided for the what-if example).
A100 = GPUSpec(
    name="A100",
    num_sms=108,
    cuda_cores=6912,
    warp_size=32,
    clock_ghz=1.41,
    mem_bandwidth_gbps=1555.0,
    l1_kb_per_sm=192,
    cache_line_bytes=128,
    sector_bytes=32,
    issue_per_sm_per_cycle=4.0,
    kernel_launch_s=5e-6,
    child_launch_s=2.5e-8,
    barrier_s=3e-6,
    async_round_s=1.5e-7,
    max_warps_per_sm=64,
    atomic_serialization_cycles=20.0,
)
