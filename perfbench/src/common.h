// Shared pieces of the four workloads: run configuration, input helpers,
// and the correctness checks every workload applies to its answers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <cstdint>
#include <string>
#include <vector>

#include "matroid/color_constraint.h"
#include "metric/metric.h"
#include "metric/point.h"
#include "report.h"
#include "sequential/fair_center_solver.h"
#include "trace.h"

namespace perfbench {

/// One benchmark invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured seconds of the untraced closed loop (--trace 0).
  double seconds = 10.0;
  /// --trace 1: a fixed-work untraced pass, then the same work traced.
  bool trace = false;
  /// Small windows and short runs, for the benchmark's own smoke test.
  bool tiny = false;
  /// Temporary directory for on-disk state (inside the checkout).
  std::string tmp_dir;
};

/// Seed of an independent input stream derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// The paper's caps: sum k_i = 14, proportional to the color frequencies of
/// `points`; a color absent from the sample still gets one slot, so no
/// arrival of the stream can be rejected for a zero cap.
fkc::ColorConstraint PaperCaps(const std::vector<fkc::Point>& points, int ell);

/// FNV-1a digest of `bytes` as 16 hex digits.
std::string Digest(const std::string& bytes);

/// Bit-exact digest of an answer: objective value plus every center's
/// color and coordinates.
std::string AnswerDigest(double value, const std::vector<fkc::Point>& centers);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Seconds elapsed since `start_ns` (NowNanos clock).
inline double SecondsSince(int64_t start_ns) {
  return (NowNanos() - start_ns) * 1e-9;
}

/// Core-speed gauge. The host is shared, and the speed at which a thread
/// gets through the library's work drifts by up to ~40% from one stretch
/// of seconds to the next: turbo frequency follows the host's load, and
/// neighbours contend for the caches and memory. Left alone, that moves
/// every timing of a run together and dwarfs the changes the benchmark
/// exists to show. A gauge runs a fixed kernel of the benchmark's own in the
/// measuring thread between timed calls: a nearest-point scan over 3000
/// scattered seven-float points (ProbeKernel, about 25 us), the kind of work
/// the engines do, so it slows when they do. Scale() turns a time measured
/// now into reference-core time: the time times kReferenceProbeNs over the
/// median of the latest probes, which are timed in the thread's CPU time.
/// Every reported timing passes through it; the probe never runs inside a
/// timed call.
class SpeedGauge {
 public:
  /// A disabled gauge never probes and scales by 1: the traced runs keep
  /// raw wall time, so their per-layer times add up with the spans'.
  explicit SpeedGauge(bool enabled = true) : enabled_(enabled) {}

  /// Probe duration of the reference core, near the median probe on the
  /// host of RESULTS.md. It only sets the unit; it cancels in any ratio.
  static constexpr double kReferenceProbeNs = 25000.0;

  /// Runs the kernel once and records its duration.
  void Probe();
  /// Median duration of the latest probes (probes once when there are
  /// none yet).
  double ProbeNs();
  /// Reference-core seconds per measured second, from the latest probes.
  double Scale() { return kReferenceProbeNs / ProbeNs(); }
  /// Probes every `every`-th call; for threads whose calls are short.
  void Tick(int every) {
    if (ticks_++ % every == 0) Probe();
  }

 private:
  bool enabled_ = true;
  static constexpr int kKeep = 15;
  int64_t probes_ns_[kKeep] = {};
  int count_ = 0;
  int64_t ticks_ = 0;
};

/// CPU time of the calling thread, in ns. Unlike wall time it leaves out
/// the time the thread did not run: preemption and, on a virtual machine,
/// the time the hypervisor ran another guest on the vCPU (steal).
inline int64_t ThreadCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/// Times calls that run on the calling thread alone: no lock another
/// thread holds, no disk, no pool. For those, CPU time is the latency, and
/// wall time beyond it is time the thread was kept off its core, which on
/// a shared host arrives in bursts of steal that swamp the latency tails.
/// The timer also sums that off-core time, so a run can check the calls
/// did run alone: a change that makes them wait would show as a large
/// off-core share (CheckOnCpu) instead of vanishing from the figures.
class CpuTimer {
 public:
  /// With `cpu` false, Stop returns wall time instead: the traced runs keep
  /// raw wall time, so their per-layer times add up with the spans'.
  explicit CpuTimer(bool cpu = true) : cpu_(cpu) {}

  void Start() {
    wall_start_ = NowNanos();
    cpu_start_ = ThreadCpuNanos();
  }
  /// CPU ns since Start (wall ns without `cpu`).
  int64_t Stop() {
    const int64_t cpu = ThreadCpuNanos() - cpu_start_;
    const int64_t wall = NowNanos() - wall_start_;
    wall_ns_ += wall;
    off_ns_ += wall > cpu ? wall - cpu : 0;
    return cpu_ ? cpu : wall;
  }
  /// Share of the timed calls' wall time spent off the core.
  double OffShare() const {
    return wall_ns_ > 0 ? static_cast<double>(off_ns_) / wall_ns_ : 0.0;
  }

 private:
  bool cpu_ = true;
  int64_t wall_start_ = 0;
  int64_t cpu_start_ = 0;
  int64_t wall_ns_ = 0;
  int64_t off_ns_ = 0;
};

/// Fails the run when the CPU-timed calls spent a quarter or more of their
/// wall time off the core: either they waited for something, and CPU time
/// is no longer their latency, or the host took that much from the run.
void CheckOnCpu(double off_share, Report* report);

/// Filesystem type of `path` (ext4, xfs, tmpfs, overlay, ...).
std::string FilesystemType(const std::string& path);

/// Streaming radius over the exact window divided by the Jones radius of
/// that window: the quality metric. Also checks the (3 + eps) bound.
struct QualitySample {
  double ratio = 0.0;
  bool within_bound = false;
};
QualitySample MeasureQuality(const fkc::Metric& metric,
                             const std::vector<fkc::Point>& window,
                             const std::vector<fkc::Point>& centers,
                             const fkc::ColorConstraint& constraint,
                             double delta, double beta);

/// Workload entry points; each fills `report` and returns normally even
/// when a check fails (the report carries the failure).
void RunWindowWorkload(const RunConfig& config, Report* report);
void RunFleetMixed(const RunConfig& config, Report* report);
void RunReplicateRecover(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
