#include "common.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/fs_util.h"
#include "core/fair_center_sliding_window.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream): independent, reproducible sub-streams.
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

fkc::ColorConstraint PaperCaps(const std::vector<fkc::Point>& points,
                               int ell) {
  std::vector<int> caps =
      fkc::ColorConstraint::Proportional(points, ell, 14).caps();
  for (int& cap : caps) {
    if (cap < 1) cap = 1;
  }
  return fkc::ColorConstraint(caps);
}

namespace {

// The probe's data: 6000 points of seven coordinates, each in its own small
// heap block with a block of random size between neighbours, as the
// library's engines hold their points. Built once, then only read.
struct ProbeData {
  std::vector<std::unique_ptr<std::vector<float>>> points;
  std::vector<std::unique_ptr<std::vector<float>>> gaps;
};

const ProbeData& GetProbeData() {
  static const ProbeData* data = [] {
    auto* d = new ProbeData;
    uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < 6000; ++i) {
      auto p = std::make_unique<std::vector<float>>(7);
      for (float& c : *p) c = static_cast<float>(next() % 1000) * 0.001f;
      d->points.push_back(std::move(p));
      d->gaps.push_back(std::make_unique<std::vector<float>>(next() % 16 + 1));
    }
    return d;
  }();
  return *data;
}

// Nearest of 3000 of the points to one of them, visited in a scattered
// order: distance arithmetic on pointer-chased small blocks, the work the
// library's engines spend their time in. Not inlined, so its code does not
// change with its callers.
__attribute__((noinline)) float ProbeKernel(size_t round) {
  const auto& points = GetProbeData().points;
  const size_t n = points.size();
  const std::vector<float>& center = *points[round % n];
  float best = 3.0e38f;
  for (size_t i = 0; i < n; i += 2) {
    const std::vector<float>& p = *points[(i * 7919) % n];
    float d = 0.0f;
    for (int j = 0; j < 7; ++j) {
      const float e = p[j] - center[j];
      d += e * e;
    }
    best = std::min(best, d);
  }
  return best;
}

}  // namespace

void SpeedGauge::Probe() {
  if (!enabled_) return;
  // The first, untimed pass brings the probe's data into this core's
  // caches, so the timed pass does not depend on how much of it the
  // library's own work evicted: a change to the library's footprint must
  // not move the scale.
  const size_t round = static_cast<size_t>(count_);
  volatile float sink = ProbeKernel(round);
  const int64_t start = ThreadCpuNanos();
  sink = ProbeKernel(round);
  probes_ns_[count_++ % kKeep] = ThreadCpuNanos() - start;
  (void)sink;
}

double SpeedGauge::ProbeNs() {
  if (!enabled_) return kReferenceProbeNs;
  if (count_ == 0) Probe();
  const int n = std::min(count_, kKeep);
  int64_t recent[kKeep];
  std::copy(probes_ns_, probes_ns_ + n, recent);
  std::nth_element(recent, recent + n / 2, recent + n);
  return static_cast<double>(recent[n / 2]);
}

void CheckOnCpu(double off_share, Report* report) {
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "%.2f%% of the CPU-timed calls' wall time off the core",
                100.0 * off_share);
  report->Check("calls_on_cpu", off_share < 0.25, detail);
}

std::string Digest(const std::string& bytes) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fkc::Fnv1a64(bytes)));
  return buf;
}

std::string AnswerDigest(double value, const std::vector<fkc::Point>& centers) {
  std::string bytes(reinterpret_cast<const char*>(&value), sizeof(value));
  for (const fkc::Point& c : centers) {
    bytes.append(reinterpret_cast<const char*>(&c.color), sizeof(c.color));
    bytes.append(reinterpret_cast<const char*>(c.coords.data()),
                 c.coords.size() * sizeof(double));
  }
  return Digest(bytes);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string FilesystemType(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x9123683E: return "btrfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x01021997: return "9p";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

QualitySample MeasureQuality(const fkc::Metric& metric,
                             const std::vector<fkc::Point>& window,
                             const std::vector<fkc::Point>& centers,
                             const fkc::ColorConstraint& constraint,
                             double delta, double beta) {
  QualitySample sample;
  const fkc::JonesFairCenter jones;
  auto reference = jones.Solve(metric, window, constraint);
  if (!reference.ok() || reference.value().radius <= 0.0) return sample;
  const double streaming = fkc::ClusteringRadius(metric, window, centers);
  sample.ratio = streaming / reference.value().radius;
  const double eps =
      fkc::EpsilonForDelta(delta, beta, jones.ApproximationFactor());
  sample.within_bound = sample.ratio <= jones.ApproximationFactor() + eps;
  return sample;
}

}  // namespace perfbench
