#include "trace.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> next_tracer_id{1};

/// The innermost open span of this thread, and this thread's totals for the
/// tracer it last recorded into (keyed by tracer id, never by address, so a
/// new tracer at a recycled address cannot inherit stale totals).
thread_local Span* current_span = nullptr;
thread_local uint64_t cached_tracer_id = 0;
thread_local ThreadTotals* cached_totals = nullptr;

}  // namespace

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

ThreadTotals* Tracer::ForThisThread() {
  if (cached_tracer_id == id_) return cached_totals;
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<ThreadTotals>());
  cached_tracer_id = id_;
  cached_totals = threads_.back().get();
  return cached_totals;
}

template <typename Fn>
int64_t Tracer::Sum(Fn fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& t : threads_) total += fn(*t);
  return total;
}

int64_t Tracer::Busy(Layer layer, Phase phase) const {
  return Sum([&](const ThreadTotals& t) {
    return t.busy_ns[layer][phase].load(std::memory_order_relaxed);
  });
}

int64_t Tracer::BusyAll(Layer layer) const {
  int64_t total = 0;
  for (int p = 0; p < kNumPhases; ++p) total += Busy(layer, Phase(p));
  return total;
}

int64_t Tracer::Self(Layer layer, Phase phase) const {
  return Sum([&](const ThreadTotals& t) {
    return t.self_ns[layer][phase].load(std::memory_order_relaxed);
  });
}

int64_t Tracer::Calls(Layer layer, Phase phase) const {
  return Sum([&](const ThreadTotals& t) {
    return t.calls[layer][phase].load(std::memory_order_relaxed);
  });
}

int64_t Tracer::CallsAll(Layer layer) const {
  int64_t total = 0;
  for (int p = 0; p < kNumPhases; ++p) total += Calls(layer, Phase(p));
  return total;
}

int64_t Tracer::MetricEvals(Phase phase) const {
  return Sum([&](const ThreadTotals& t) {
    return t.metric_evals[phase].load(std::memory_order_relaxed);
  });
}

Span::Span(Tracer* tracer, Layer layer, Phase phase)
    : tracer_(tracer), layer_(layer) {
  if (tracer_ == nullptr) return;
  parent_ = current_span;
  phase_ = parent_ != nullptr ? parent_->phase_ : phase;
  current_span = this;
  start_ns_ = NowNanos();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const int64_t elapsed = NowNanos() - start_ns_;
  current_span = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += elapsed;
  ThreadTotals* totals = tracer_->ForThisThread();
  totals->busy_ns[layer_][phase_].fetch_add(elapsed, std::memory_order_relaxed);
  totals->self_ns[layer_][phase_].fetch_add(elapsed - child_ns_,
                                            std::memory_order_relaxed);
  totals->calls[layer_][phase_].fetch_add(1, std::memory_order_relaxed);
}

void Span::CountEvals(int64_t evals) {
  if (tracer_ == nullptr) return;
  tracer_->ForThisThread()->metric_evals[phase_].fetch_add(
      evals, std::memory_order_relaxed);
}

double TracedMetric::Distance(const fkc::Point& a, const fkc::Point& b) const {
  Span span(tracer_, kMetric);
  span.CountEvals(1);
  return inner_->Distance(a, b);
}

void TracedMetric::DistanceMany(const fkc::Point& p,
                                const fkc::Point* const* points, size_t count,
                                double* out) const {
  Span span(tracer_, kMetric);
  span.CountEvals(static_cast<int64_t>(count));
  inner_->DistanceMany(p, points, count, out);
}

void TracedMetric::DistanceSoA(const fkc::Point& p,
                               const fkc::CoordinatePool& pool,
                               double* out) const {
  Span span(tracer_, kMetric);
  span.CountEvals(static_cast<int64_t>(pool.size()));
  inner_->DistanceSoA(p, pool, out);
}

fkc::Result<fkc::FairCenterSolution> TracedSolver::Solve(
    const fkc::Metric& metric, const std::vector<fkc::Point>& points,
    const fkc::ColorConstraint& constraint) const {
  Span span(tracer_, kSequential);
  input_points_.fetch_add(static_cast<int64_t>(points.size()),
                          std::memory_order_relaxed);
  return inner_->Solve(metric, points, constraint);
}

fkc::Status TracedSpillStore::Put(const std::string& key, std::string blob) {
  const int64_t start = NowNanos();
  bytes_.fetch_add(static_cast<int64_t>(blob.size()),
                   std::memory_order_relaxed);
  fkc::Status status = inner_.Put(key, std::move(blob));
  put_ns_.fetch_add(NowNanos() - start, std::memory_order_relaxed);
  puts_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

fkc::Result<std::string> TracedSpillStore::Get(const std::string& key) const {
  const int64_t start = NowNanos();
  auto blob = inner_.Get(key);
  get_ns_.fetch_add(NowNanos() - start, std::memory_order_relaxed);
  gets_.fetch_add(1, std::memory_order_relaxed);
  if (blob.ok()) {
    bytes_.fetch_add(static_cast<int64_t>(blob.value().size()),
                     std::memory_order_relaxed);
  }
  return blob;
}

}  // namespace perfbench
