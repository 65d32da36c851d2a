#include "serving/shard_manager.h"

#include <cmath>
#include <condition_variable>
#include <sstream>
#include <thread>
#include <utility>

#include "common/checkpoint_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/options_io.h"
#include "serving/delta_log.h"

namespace fkc {
namespace serving {
namespace {

// Full-fleet formats: v1 (template + constraint + shards); v2 adds the
// per-tenant override table; v3 adds the fleet-default objective tag and
// the per-tenant objective table right after the magic. The writer always
// emits v3 / delta-v3; v1, v2 and delta-v2 are restore-only.
constexpr const char* kMagicV1 = "fkc-shards-v1";
constexpr const char* kMagicV2 = "fkc-shards-v2";
constexpr const char* kMagicV3 = "fkc-shards-v3";
constexpr const char* kDeltaMagicV2 = "fkc-shards-delta-v2";
constexpr const char* kDeltaMagicV3 = "fkc-shards-delta-v3";

// Shard keys travel as length-prefixed raw segments in the fleet checkpoint
// (CheckpointReader::NextRaw); this cap keeps write and read sides agreeing
// on what a plausible key is, so CheckpointAll can never emit a blob that
// Restore rejects. Oversized keys are rejected at ingest with a Status —
// one tenant's garbage must never abort the fleet.
constexpr size_t kMaxKeyBytes = 1u << 20;

// Upper bounds on checkpointed table sizes, rejected before any allocation.
constexpr int64_t kMaxShards = 1 << 24;

// Reads the v2 "<count> { <raw key> <options> }*" override table.
Status ReadOverrides(CheckpointReader* cursor,
                     std::map<std::string, SlidingWindowOptions>* out) {
  int64_t count = 0;
  FKC_RETURN_IF_ERROR(cursor->NextInt(&count));
  // Every entry occupies well over one byte, so the remaining blob length
  // bounds any honest count.
  if (count < 0 || count > kMaxShards ||
      static_cast<size_t>(count) > cursor->Remaining()) {
    return Status::InvalidArgument("implausible override count in checkpoint");
  }
  out->clear();
  for (int64_t i = 0; i < count; ++i) {
    std::string key;
    SlidingWindowOptions options;
    FKC_RETURN_IF_ERROR(cursor->NextRaw(&key, kMaxKeyBytes));
    FKC_RETURN_IF_ERROR(ReadSlidingWindowOptions(cursor, &options));
    options.num_threads = 1;
    if (!out->emplace(std::move(key), options).second) {
      return Status::InvalidArgument("duplicate override key in checkpoint");
    }
  }
  return Status::OK();
}

void WriteOverrides(std::ostringstream* out,
                    const std::map<std::string, SlidingWindowOptions>& map) {
  *out << map.size() << ' ';
  for (const auto& [key, options] : map) {
    WriteCheckpointRaw(out, key);
    WriteSlidingWindowOptions(out, options);
  }
}

// Reads the v3 "<count> { <raw key> <tag> }*" objective-override table.
// Unknown tags reject here (ReadObjectiveTag), before any engine exists.
Status ReadObjectiveOverrides(CheckpointReader* cursor,
                              std::map<std::string, ObjectiveKind>* out) {
  int64_t count = 0;
  FKC_RETURN_IF_ERROR(cursor->NextInt(&count));
  if (count < 0 || count > kMaxShards ||
      static_cast<size_t>(count) > cursor->Remaining()) {
    return Status::InvalidArgument(
        "implausible objective-override count in checkpoint");
  }
  out->clear();
  for (int64_t i = 0; i < count; ++i) {
    std::string key;
    ObjectiveKind kind = ObjectiveKind::kFairCenter;
    FKC_RETURN_IF_ERROR(cursor->NextRaw(&key, kMaxKeyBytes));
    FKC_RETURN_IF_ERROR(ReadObjectiveTag(cursor, &kind));
    if (!out->emplace(std::move(key), kind).second) {
      return Status::InvalidArgument(
          "duplicate objective-override key in checkpoint");
    }
  }
  return Status::OK();
}

void WriteObjectiveOverrides(std::ostringstream* out,
                             const std::map<std::string, ObjectiveKind>& map) {
  *out << map.size() << ' ';
  for (const auto& [key, kind] : map) {
    WriteCheckpointRaw(out, key);
    WriteObjectiveTag(out, kind);
  }
}

}  // namespace

/// Timer-thread state. The condition variable makes StopMaintenance prompt:
/// the loop sleeps on it, not on a bare sleep_for.
struct ShardManager::MaintenanceState {
  MaintenanceOptions options;
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  /// Set (under mu) by the loop as its last act. Distinguishes a finished
  /// thread awaiting its join (safe to reap, even from StartMaintenance)
  /// from a loop still executing ticks.
  bool exited = false;
};

/// Unpins an epoch snapshot on scope exit, whatever the exit path (normal
/// return, early error return) — a leaked pin would block that shard's
/// eviction forever.
class ShardManager::FleetPin {
 public:
  FleetPin(ShardManager* manager, const std::vector<PinnedShard>* pinned)
      : manager_(manager), pinned_(pinned) {}
  ~FleetPin() { manager_->UnpinFleet(*pinned_); }
  FleetPin(const FleetPin&) = delete;
  FleetPin& operator=(const FleetPin&) = delete;

 private:
  ShardManager* manager_;
  const std::vector<PinnedShard>* pinned_;
};

ShardManager::ShardManager(ShardManagerOptions options,
                           ColorConstraint constraint, const Metric* metric,
                           const FairCenterSolver* solver)
    : options_(std::move(options)),
      constraint_(std::move(constraint)),
      metric_(metric),
      solver_(solver),
      routing_(std::make_unique<Routing>()),
      gc_mu_(std::make_unique<std::mutex>()),
      maintenance_admin_mu_(std::make_unique<std::mutex>()) {
  FKC_CHECK(metric_ != nullptr);
  FKC_CHECK(solver_ != nullptr);
  // Shards run sequentially inside their manager-pool task; nesting pools
  // would oversubscribe and buys nothing (shard fan-out already covers the
  // cores).
  options_.window.num_threads = 1;
  if (options_.spill_store == nullptr) {
    options_.spill_store = std::make_shared<InMemorySpillStore>();
  }
  // Resolve and build the pool eagerly: concurrent fan-outs must never race
  // a lazy construction. num_threads = 0 on a single-core host resolves to
  // 1, in which case no pool is parked at all.
  const int resolved = options_.num_threads == 1
                           ? 1
                           : ThreadPool::ResolveThreadCount(options_.num_threads);
  if (resolved > 1) pool_ = std::make_unique<ThreadPool>(resolved);
}

namespace {

// Rewraps a backend failure with the operation and addressing context an
// operator needs (which shard, which store, doing what) while preserving
// the original code and the backend's own message (which names the path).
Status AnnotateBackendFailure(const Status& inner, const std::string& context) {
  const std::string message = context + ": " + inner.message();
  switch (inner.code()) {
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(message);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(message);
    case StatusCode::kInfeasible:
      return Status::Infeasible(message);
    case StatusCode::kIoError:
    case StatusCode::kOk:  // unreachable: only called on failures
      break;
  }
  return Status::IoError(message);
}

}  // namespace

ShardManager::~ShardManager() { StopMaintenance(); }

ShardManager::ShardManager(ShardManager&& other) noexcept
    : options_(std::move(other.options_)),
      constraint_(std::move(other.constraint_)),
      metric_(other.metric_),
      solver_(other.solver_),
      routing_(std::move(other.routing_)),
      gc_mu_(std::move(other.gc_mu_)),
      live_count_(other.live_count_.load()),
      pool_(std::move(other.pool_)),
      maintenance_admin_mu_(std::move(other.maintenance_admin_mu_)),
      maintenance_(std::move(other.maintenance_)),
      maintenance_ticks_(other.maintenance_ticks_.load()),
      clock_(other.clock_.load()),
      evictions_(other.evictions_.load()),
      rehydrations_(other.rehydrations_.load()),
      spill_write_failures_(other.spill_write_failures_.load()),
      rehydration_failures_(other.rehydration_failures_.load()),
      checkpoint_failures_(other.checkpoint_failures_.load()) {
  // Moving a manager whose maintenance thread is running is unsupported
  // (the thread would keep the old `this`); Restore/Replay outputs — the
  // only places managers are moved — never have one. A finished
  // (self-stopped) thread is fine: it no longer touches the manager.
  FKC_CHECK(maintenance_ == nullptr || !maintenance_->thread.joinable() ||
            [&] {
              std::lock_guard<std::mutex> lock(maintenance_->mu);
              return maintenance_->exited;
            }());
}

ShardManager& ShardManager::operator=(ShardManager&& other) noexcept {
  if (this == &other) return *this;
  StopMaintenance();  // join our thread before its state is replaced
  options_ = std::move(other.options_);
  constraint_ = std::move(other.constraint_);
  metric_ = other.metric_;
  solver_ = other.solver_;
  routing_ = std::move(other.routing_);
  gc_mu_ = std::move(other.gc_mu_);
  live_count_.store(other.live_count_.load());
  pool_ = std::move(other.pool_);
  maintenance_admin_mu_ = std::move(other.maintenance_admin_mu_);
  maintenance_ = std::move(other.maintenance_);
  maintenance_ticks_.store(other.maintenance_ticks_.load());
  clock_.store(other.clock_.load());
  evictions_.store(other.evictions_.load());
  rehydrations_.store(other.rehydrations_.load());
  spill_write_failures_.store(other.spill_write_failures_.load());
  rehydration_failures_.store(other.rehydration_failures_.load());
  checkpoint_failures_.store(other.checkpoint_failures_.load());
  FKC_CHECK(maintenance_ == nullptr || !maintenance_->thread.joinable() ||
            [&] {
              std::lock_guard<std::mutex> lock(maintenance_->mu);
              return maintenance_->exited;
            }());
  return *this;
}

bool ShardManager::IsDirty(const Shard& shard) const {
  return shard.live ? shard.live->state_epoch() != shard.clean_epoch
                    : shard.spill_dirty;
}

Status ShardManager::ValidateArrival(const std::string& key, const Point& p,
                                     int64_t pinned_dim) const {
  if (key.size() >= kMaxKeyBytes) {
    return Status::InvalidArgument(
        StrFormat("shard key of %zu bytes exceeds the checkpointable limit",
                  key.size()));
  }
  // The coordinate pools CHECK-abort on empty points and on dimension
  // changes while points are stored, and the checkpoint reader rejects
  // non-finite coordinates — so any of these, once ingested, would either
  // kill the process or make CheckpointAll emit a blob Restore refuses
  // (and a spilled shard permanently fail rehydration).
  if (p.coords.empty()) {
    return Status::InvalidArgument("arrival carries no coordinates");
  }
  for (double x : p.coords) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("non-finite coordinate in arrival");
    }
  }
  if (pinned_dim >= 0 && static_cast<int64_t>(p.dimension()) != pinned_dim) {
    return Status::InvalidArgument(StrFormat(
        "%zu-dimensional arrival for a shard pinned to %lld dimensions",
        p.dimension(), static_cast<long long>(pinned_dim)));
  }
  if (p.color < 0 || p.color >= constraint_.ell()) {
    return Status::InvalidArgument(
        StrFormat("color %d outside the constraint's [0, %d) range", p.color,
                  constraint_.ell()));
  }
  // In-range colors with a zero cap are representable in checkpoints but
  // can never host a center; GuessStructure::Update CHECK-aborts on them.
  if (constraint_.cap(p.color) < 1) {
    return Status::InvalidArgument(
        StrFormat("color %d has a zero cap and cannot be served", p.color));
  }
  return Status::OK();
}

int64_t ShardManager::PinnedDimensionLocked(const std::string& key) const {
  auto it = routing_->shards.find(key);
  return it == routing_->shards.end() ? -1 : it->second.dim;
}

SlidingWindowOptions ShardManager::OptionsForKey(const std::string& key) const {
  auto it = routing_->overrides.find(key);
  SlidingWindowOptions options =
      it == routing_->overrides.end() ? options_.window : it->second;
  options.num_threads = 1;
  return options;
}

ObjectiveKind ShardManager::ObjectiveForKey(const std::string& key) const {
  auto it = routing_->objective_overrides.find(key);
  return it == routing_->objective_overrides.end() ? options_.objective
                                                   : it->second;
}

ShardManager::Shard* ShardManager::RouteLocked(const std::string& key,
                                               bool create_missing,
                                               int64_t touch) {
  auto it = routing_->shards.find(key);
  if (it == routing_->shards.end()) {
    if (!create_missing) return nullptr;
    it = routing_->shards.try_emplace(key).first;
    it->second.kind = ObjectiveForKey(key);
    it->second.live = CreateObjectiveEngine(
        it->second.kind, OptionsForKey(key), constraint_, metric_, solver_);
    live_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Shard* shard = &it->second;
  if (shard->live != nullptr) {
    TouchLive(it->first, shard, touch);
  } else {
    // Spilled: refresh last_touch only — the LRU index tracks live shards.
    // If a later rehydration commits, it inserts this value.
    shard->last_touch = touch;
  }
  return shard;
}

Status ShardManager::EnsureLiveHeld(const std::string& key, Shard* shard) {
  if (shard->live != nullptr) return Status::OK();
  auto blob = options_.spill_store->Get(key);
  if (!blob.ok()) {
    rehydration_failures_.fetch_add(1, std::memory_order_relaxed);
    return AnnotateBackendFailure(
        blob.status(), "rehydrating shard '" + key + "' from the " +
                           options_.spill_store->Name() + " spill store");
  }
  auto engine = DeserializeObjectiveEngine(blob.value(), metric_, solver_);
  if (!engine.ok()) return engine.status();
  // Same forged-blob guards as Restore/ApplyDelta: with a durable backend
  // the bytes come from a directory two fleets could share (or anyone
  // could write — the FNV checksum is integrity, not authentication). A
  // shard under a different constraint would pass ValidateArrival yet
  // CHECK-abort in StampArrival on its next ingest; a different dimension
  // would feed mismatched points into the coordinate pools.
  if (engine.value()->constraint().caps() != constraint_.caps()) {
    return Status::InvalidArgument(
        "spilled shard's constraint does not match the fleet constraint");
  }
  {
    std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
    // The blob's own magic must agree with the objective this shard was
    // created under — a store handing back another objective's state is
    // corruption (or another fleet's entry), not a valid rehydration.
    if (engine.value()->kind() != shard->kind) {
      return Status::InvalidArgument(
          "spilled shard's objective does not match the shard's objective");
    }
    if (shard->dim >= 0 && engine.value()->dimension() >= 0 &&
        engine.value()->dimension() != shard->dim) {
      return Status::InvalidArgument(
          "spilled shard's dimension does not match its pinned dimension");
    }
    shard->live = std::move(engine).value();
    if (shard->live->dimension() >= 0) shard->dim = shard->live->dimension();
    // A fresh deserialization restarts the epoch counter at 0; a clean
    // spill therefore rehydrates clean, a dirty one stays dirty via the
    // sentinel.
    shard->clean_epoch = shard->spill_dirty ? kNeverCheckpointed : 0;
    shard->spill_dirty = false;
    live_count_.fetch_add(1, std::memory_order_relaxed);
    rehydrations_.fetch_add(1, std::memory_order_relaxed);
    routing_->live_lru.insert({shard->last_touch, key});
  }
  // Best-effort, still under the shard lock (so a concurrent QueryAll
  // cannot read a half-erased entry): a failed erase only leaves a stale
  // store entry behind — never read again (the shard is live now) and
  // swept by the next GC.
  options_.spill_store->Erase(key);
  return Status::OK();
}

void ShardManager::TouchLive(const std::string& key, Shard* shard,
                             int64_t touch) {
  // The erase is a no-op for a shard that just became live (its old
  // last_touch was removed from the index when it spilled, or never
  // inserted for a brand-new shard).
  routing_->live_lru.erase({shard->last_touch, key});
  shard->last_touch = touch;
  routing_->live_lru.insert({touch, key});
}

void ShardManager::Unpin(Shard* shard) {
  std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
  --shard->pins;
}

Result<ShardManager::SpillAttempt> ShardManager::TrySpillShard(
    const std::string& key, int64_t idle_ttl) {
  std::unique_lock<std::shared_mutex> routing_lock(routing_->mu);
  auto it = routing_->shards.find(key);
  if (it == routing_->shards.end()) return SpillAttempt::kSkipped;
  Shard* shard = &it->second;
  if (shard->live == nullptr || shard->pins > 0) return SpillAttempt::kSkipped;
  // Re-check idleness under the routing lock: the shard may have been
  // touched between the caller's candidate snapshot and now.
  if (idle_ttl >= 0 &&
      clock_.load(std::memory_order_relaxed) - shard->last_touch <= idle_ttl) {
    return SpillAttempt::kSkipped;
  }
  // Only ever try_lock a shard mutex under the routing lock (lock-order
  // protocol): a busy shard is mid-ingest or mid-query — skip it, the
  // next sweep catches it.
  std::unique_lock<std::mutex> shard_lock(shard->mu, std::try_to_lock);
  if (!shard_lock.owns_lock()) return SpillAttempt::kSkipped;
  const bool dirty = IsDirty(*shard);
  ObjectiveEngine* window = shard->live.get();
  routing_lock.unlock();

  // Serialize and write outside the routing lock (the shard lock keeps the
  // window stable). The GC mutex spans the write and the commit so a
  // concurrent GarbageCollectSpill, whose keep-set predates this spill,
  // can never reap the blob just written.
  std::string blob = window->SerializeState();
  std::lock_guard<std::mutex> gc(*gc_mu_);
  // Put before dropping the window: a failing backend must leave the shard
  // live and the fleet lossless.
  Status put = options_.spill_store->Put(key, std::move(blob));
  if (!put.ok()) {
    spill_write_failures_.fetch_add(1, std::memory_order_relaxed);
    return AnnotateBackendFailure(
        put, "spilling shard '" + key + "' to the " +
                 options_.spill_store->Name() + " spill store");
  }

  routing_lock.lock();
  if (shard->pins > 0) {
    // A fleet read pinned the shard while the blob was being written; the
    // reader expects live shards to stay live, so abort the spill and drop
    // the just-written entry (best-effort — GC would sweep it anyway).
    routing_lock.unlock();
    options_.spill_store->Erase(key);
    return SpillAttempt::kSkipped;
  }
  shard->spill_dirty = dirty;
  shard->live.reset();
  shard->clean_epoch = kNeverCheckpointed;
  routing_->live_lru.erase({shard->last_touch, key});
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return SpillAttempt::kSpilled;
}

void ShardManager::EnforceLiveCap(const std::string* exclude) {
  if (options_.max_live_shards <= 0) return;
  // Best-effort loop: each round picks the LRU victim — the first eligible
  // entry of the (touch, key)-ordered index — and attempts the spill
  // without any lock held. Victims whose attempt failed are not retried,
  // so the loop always terminates; pinned shards are skipped but stay
  // eligible for later rounds (their pin is transient).
  std::set<std::string> attempted;
  for (;;) {
    if (live_count_.load(std::memory_order_relaxed) <=
        static_cast<size_t>(options_.max_live_shards)) {
      return;
    }
    bool found = false;
    std::string victim;
    {
      std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
      for (const auto& [touch, key] : routing_->live_lru) {
        if (exclude != nullptr && key == *exclude) continue;
        if (attempted.count(key) != 0) continue;
        if (routing_->shards.find(key)->second.pins > 0) continue;
        victim = key;
        found = true;
        break;
      }
    }
    if (!found) return;  // everything left is excluded, pinned, or failed
    attempted.insert(victim);
    auto spilled = TrySpillShard(victim, /*idle_ttl=*/-1);
    if (!spilled.ok()) {
      // Spill backend down: the cap is enforced best-effort until the
      // backend recovers. Nothing is lost.
      return;
    }
  }
}

std::vector<ShardManager::PinnedShard> ShardManager::PinFleet(
    std::map<std::string, SlidingWindowOptions>* overrides_out,
    std::map<std::string, ObjectiveKind>* objectives_out) {
  // One routing-lock hold, so the snapshot is a consistent cut of the
  // routing layer: every shard that existed before the call is pinned, and
  // the override tables travel with exactly that shard set. The map yields
  // ascending key order, which checkpoint byte-equality rests on.
  std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
  std::vector<PinnedShard> pinned;
  pinned.reserve(routing_->shards.size());
  for (auto& [key, shard] : routing_->shards) {
    ++shard.pins;
    pinned.push_back(PinnedShard{&key, &shard});
  }
  if (overrides_out != nullptr) *overrides_out = routing_->overrides;
  if (objectives_out != nullptr) {
    *objectives_out = routing_->objective_overrides;
  }
  return pinned;
}

void ShardManager::UnpinFleet(const std::vector<PinnedShard>& pinned) {
  if (pinned.empty()) return;
  std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
  for (const PinnedShard& entry : pinned) --entry.shard->pins;
}

Status ShardManager::Ingest(const std::string& key, Point p) {
  Shard* shard = nullptr;
  {
    std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
    // Validate and route in ONE routing critical section, and pin the
    // dimension at routing time: two first arrivals racing on a fresh key
    // with different dimensions must resolve to first-writer-wins, the
    // loser rejected here instead of CHECK-aborting in the window.
    FKC_RETURN_IF_ERROR(ValidateArrival(key, p, PinnedDimensionLocked(key)));
    const int64_t tick = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    shard = RouteLocked(key, /*create_missing=*/true, tick);
    shard->dim = static_cast<int64_t>(p.dimension());
    ++shard->pins;
  }
  Status status;
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    status = EnsureLiveHeld(key, shard);
    if (status.ok()) shard->live->Update(std::move(p));
  }
  Unpin(shard);
  EnforceLiveCap(&key);
  return status;
}

Status ShardManager::IngestBatch(std::vector<KeyedPoint> batch) {
  if (batch.empty()) return Status::OK();
  const int64_t n = static_cast<int64_t>(batch.size());
  // Reserve the whole batch's clock range up front: arrival i owns tick
  // base + i + 1, so LRU order and TTL bookkeeping are identical run to
  // run (and to the serial build) however concurrent batches interleave.
  // The flip side: an arrival dropped by validation still consumes its
  // tick (Ingest, which validates before ticking, consumes none) —
  // documented in the header; the clock is an ordering device, not
  // checkpointed state.
  const int64_t base = clock_.fetch_add(n, std::memory_order_relaxed);

  // One per-shard group: arrival order preserved within the key (the only
  // order that matters — shards share no state, so cross-key interleaving
  // is unobservable).
  struct Group {
    const std::string* key = nullptr;
    std::vector<Point> points;
    int64_t size = 0;        ///< recorded at grouping, BEFORE any move
    int64_t last_clock = 0;  ///< manager clock at the group's last arrival
    int64_t dim = -1;        ///< dimension pinned by the first accepted point
    Shard* shard = nullptr;
    Status status;  ///< the group's ingest outcome
  };
  std::map<std::string, Group> groups;
  int64_t dropped = 0;
  Status first_error = Status::OK();  // earliest offender by position

  // One pass under the routing lock: group, validate, route and pin.
  // Validation and dimension pinning happen in the same critical section
  // that creates the shard, so a racing batch on the same fresh key
  // validates against the dimension pinned here.
  {
    std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
    for (int64_t i = 0; i < n; ++i) {
      KeyedPoint& kp = batch[i];
      // For a key already accepted earlier in this batch the group carries
      // the pinned dimension (a brand-new shard has none on record yet).
      auto git = groups.find(kp.key);
      const int64_t pinned = git != groups.end()
                                 ? git->second.dim
                                 : PinnedDimensionLocked(kp.key);
      Status status = ValidateArrival(kp.key, kp.point, pinned);
      if (!status.ok()) {
        if (dropped++ == 0) first_error = std::move(status);
        continue;
      }
      if (git == groups.end()) git = groups.try_emplace(kp.key).first;
      Group& group = git->second;
      group.dim = static_cast<int64_t>(kp.point.dimension());
      group.points.push_back(std::move(kp.point));
      ++group.size;
      group.last_clock = base + i + 1;
    }
    for (auto& [key, group] : groups) {
      group.key = &key;
      group.shard = RouteLocked(key, /*create_missing=*/true,
                                group.last_clock);
      group.shard->dim = group.dim;
      ++group.shard->pins;
    }
  }

  // Fan the per-shard groups out over the pool. Each task blocks only on
  // its own shard's lock (held by nobody else routing a disjoint key set).
  std::vector<Group*> work;
  work.reserve(groups.size());
  for (auto& [key, group] : groups) work.push_back(&group);
  FanOut(static_cast<int64_t>(work.size()), [&](int64_t i) {
    Group* group = work[i];
    std::lock_guard<std::mutex> shard_lock(group->shard->mu);
    group->status = EnsureLiveHeld(*group->key, group->shard);
    if (group->status.ok()) {
      group->shard->live->UpdateBatch(std::move(group->points));
    }
  });

  // Unpin and merge the accounting. Failed groups use the size recorded
  // at grouping time — the points vector is unreliable after the
  // std::move above.
  {
    std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
    for (Group* group : work) --group->shard->pins;
  }
  for (const Group* group : work) {
    if (!group->status.ok()) {
      // Rehydration failed: the whole group was dropped (points were only
      // consumed on success).
      dropped += group->size;
      if (first_error.ok()) first_error = group->status;
    }
  }
  EnforceLiveCap(nullptr);

  if (dropped > 0) {
    return Status::InvalidArgument(
        StrFormat("dropped %lld of %lld arrivals; first error: %s",
                  static_cast<long long>(dropped), static_cast<long long>(n),
                  first_error.message().c_str()));
  }
  return Status::OK();
}

Status ShardManager::SetTenantOptions(const std::string& key,
                                      SlidingWindowOptions options) {
  std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
  if (key.size() >= kMaxKeyBytes) {
    return Status::InvalidArgument("tenant key exceeds the size limit");
  }
  FKC_RETURN_IF_ERROR(ValidateSlidingWindowOptions(options));
  if (routing_->shards.count(key) != 0) {
    return Status::FailedPrecondition(
        "shard '" + key + "' already exists; options are fixed at creation");
  }
  options.num_threads = 1;
  if (SameCheckpointedOptions(options, options_.window)) {
    routing_->overrides.erase(key);  // identical to the template: no store
  } else {
    routing_->overrides[key] = options;
  }
  return Status::OK();
}

const SlidingWindowOptions* ShardManager::TenantOptions(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
  auto it = routing_->overrides.find(key);
  return it == routing_->overrides.end() ? nullptr : &it->second;
}

Status ShardManager::SetTenantObjective(const std::string& key,
                                        ObjectiveKind objective) {
  std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
  if (key.size() >= kMaxKeyBytes) {
    return Status::InvalidArgument("tenant key exceeds the size limit");
  }
  if (routing_->shards.count(key) != 0) {
    return Status::FailedPrecondition("shard '" + key +
                                      "' already exists; its objective is "
                                      "fixed at creation");
  }
  if (objective == options_.objective) {
    routing_->objective_overrides.erase(key);  // same as the default
  } else {
    routing_->objective_overrides[key] = objective;
  }
  return Status::OK();
}

ObjectiveKind ShardManager::TenantObjective(const std::string& key) const {
  std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
  return ObjectiveForKey(key);
}

Result<ObjectiveSolution> ShardManager::Query(const std::string& key,
                                              QueryStats* stats) {
  Shard* shard = nullptr;
  {
    std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
    shard = RouteLocked(key, /*create_missing=*/false,
                        clock_.load(std::memory_order_relaxed));
    if (shard == nullptr) {
      return Status::NotFound("no shard for key '" + key + "'");
    }
    ++shard->pins;
  }
  Result<ObjectiveSolution> result = [&]() -> Result<ObjectiveSolution> {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    FKC_RETURN_IF_ERROR(EnsureLiveHeld(key, shard));
    return shard->live->QueryObjective(stats);
  }();
  Unpin(shard);
  EnforceLiveCap(&key);
  return result;
}

std::vector<ShardAnswer> ShardManager::QueryAll() {
  // Epoch snapshot: pin the current shard set under one routing-lock
  // hold, then answer shard by shard under per-shard locks only —
  // ingest to unrelated shards proceeds throughout the round.
  std::vector<PinnedShard> pinned = PinFleet();
  FleetPin unpin(this, &pinned);

  // Live shards answer in place; spilled shards answer from an ephemeral
  // deserialization so a fleet-wide query round does not defeat eviction.
  // Each spilled task fetches its own blob inside the fan-out and drops it
  // with the task: fetching the whole fleet's blobs up front would
  // transiently hold every spilled shard in memory, the exact condition a
  // durable store plus live-shard cap exists to prevent.
  std::vector<ShardAnswer> answers(pinned.size());
  FanOut(static_cast<int64_t>(pinned.size()), [&](int64_t i) {
    answers[i].key = *pinned[i].key;
    Shard* shard = pinned[i].shard;
    std::unique_lock<std::mutex> shard_lock(shard->mu);
    if (shard->live != nullptr) {
      answers[i].solution = shard->live->QueryObjective(&answers[i].stats);
      return;
    }
    // The blob read happens under the shard lock (a concurrent rehydration
    // commits and erases the entry under the same lock); deserialization
    // and the query run outside every manager lock. The shard's objective
    // is captured beside the blob: ApplyDelta, the only post-creation
    // writer of `kind`, swaps it under this same shard lock.
    const ObjectiveKind expected = shard->kind;
    Result<std::string> blob = options_.spill_store->Get(answers[i].key);
    shard_lock.unlock();
    if (!blob.ok()) {
      answers[i].solution = blob.status();
      return;
    }
    auto engine = DeserializeObjectiveEngine(blob.value(), metric_, solver_);
    blob = std::string();  // the deserialized engine supersedes the bytes
    if (!engine.ok()) {
      answers[i].solution = engine.status();
      return;
    }
    if (engine.value()->kind() != expected) {
      answers[i].solution = Status::InvalidArgument(
          "spilled shard's objective does not match the shard's objective");
      return;
    }
    answers[i].solution = engine.value()->QueryObjective(&answers[i].stats);
  });
  return answers;
}

int64_t ShardManager::EvictIdle(int64_t idle_ttl, Status* spill_status) {
  if (spill_status != nullptr) *spill_status = Status::OK();
  if (idle_ttl < 0) return 0;
  // The LRU index orders live shards by last_touch, so the idle ones are
  // exactly its prefix — snapshot that under the routing lock, then spill
  // without any lock held. TrySpillShard re-checks idleness (and pins, and
  // the lock) per victim, so a candidate touched after the snapshot is
  // simply skipped.
  const int64_t now = clock_.load(std::memory_order_relaxed);
  std::vector<std::pair<int64_t, std::string>> candidates;
  {
    std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
    for (const auto& [touch, key] : routing_->live_lru) {
      if (now - touch <= idle_ttl) break;
      candidates.emplace_back(touch, key);
    }
  }
  int64_t evicted = 0;
  for (const auto& [touch, key] : candidates) {
    auto attempt = TrySpillShard(key, idle_ttl);
    if (!attempt.ok()) {
      // Backend down: stop the sweep, leave the remaining shards live.
      if (spill_status != nullptr) *spill_status = attempt.status();
      break;
    }
    if (attempt.value() == SpillAttempt::kSpilled) ++evicted;
  }
  return evicted;
}

Result<std::string> ShardManager::CheckpointSnapshot(bool dirty_only) {
  // Pin set and override table under ONE routing-lock hold, so the table
  // travels with the shard set it was snapshotted beside. Both are in
  // ascending key order whatever order the fleet was built in — the
  // contract that a concurrently built fleet checkpoints byte-equal to a
  // serially built one.
  std::map<std::string, SlidingWindowOptions> overrides;
  std::map<std::string, ObjectiveKind> objectives;
  std::vector<PinnedShard> pinned = PinFleet(&overrides, &objectives);
  FleetPin unpin(this, &pinned);

  // v3: magic, the fleet-default objective tag, the window template (full
  // checkpoints only), the constraint, the option overrides and the
  // objective table.
  std::ostringstream out;
  out << (dirty_only ? kDeltaMagicV3 : kMagicV3) << ' ';
  WriteObjectiveTag(&out, options_.objective);
  if (!dirty_only) {
    // The window template (needed to spawn shards for keys first seen
    // after a restore). num_threads, max_live_shards, and the spill store
    // are execution/resource knobs and are deliberately
    // excluded, like in the core checkpoint.
    WriteSlidingWindowOptions(&out, options_.window);
  }
  WriteColorCaps(&out, constraint_);
  WriteOverrides(&out, overrides);
  WriteObjectiveOverrides(&out, objectives);

  // Every captured shard: length-prefixed key, length-prefixed core
  // checkpoint, taken one shard lock at a time. A spilled shard's state is
  // its spill blob, verbatim. Clean marks are staged and committed only
  // after every blob is in hand — a failing spill read must not leave half
  // the fleet marked clean for a checkpoint that never existed. The epoch
  // recorded per live shard is the one at capture time, so arrivals
  // landing after a shard's segment was taken leave it dirty.
  struct CleanMark {
    Shard* shard;
    int64_t epoch;
    bool was_live;
  };
  std::vector<CleanMark> clean_marks;
  clean_marks.reserve(pinned.size());
  std::ostringstream body;
  int64_t written = 0;
  for (const PinnedShard& entry : pinned) {
    std::lock_guard<std::mutex> shard_lock(entry.shard->mu);
    if (dirty_only && !IsDirty(*entry.shard)) continue;
    WriteCheckpointRaw(&body, *entry.key);
    if (entry.shard->live) {
      WriteCheckpointRaw(&body, entry.shard->live->SerializeState());
      clean_marks.push_back(
          CleanMark{entry.shard, entry.shard->live->state_epoch(), true});
    } else {
      auto blob = options_.spill_store->Get(*entry.key);
      if (!blob.ok()) {
        checkpoint_failures_.fetch_add(1, std::memory_order_relaxed);
        return AnnotateBackendFailure(
            blob.status(),
            std::string(dirty_only ? "delta checkpoint" : "full checkpoint") +
                " aborted reading spilled shard '" + *entry.key +
                "' from the " + options_.spill_store->Name() + " spill store");
      }
      WriteCheckpointRaw(&body, blob.value());
      clean_marks.push_back(CleanMark{entry.shard, kNeverCheckpointed, false});
    }
    ++written;
  }
  out << written << ' ' << body.str();

  // Commit the staged marks while still holding the pins: a was_live shard
  // is therefore still live (pinned shards are never spilled). A shard
  // captured spilled but rehydrated since keeps its dirty state —
  // conservative, the next delta simply re-ships it.
  for (const CleanMark& mark : clean_marks) {
    std::lock_guard<std::mutex> shard_lock(mark.shard->mu);
    if (mark.was_live) {
      mark.shard->clean_epoch = mark.epoch;
    } else if (mark.shard->live == nullptr) {
      mark.shard->spill_dirty = false;
    }
  }
  return out.str();
}

Result<std::string> ShardManager::CheckpointAll() {
  return CheckpointSnapshot(/*dirty_only=*/false);
}

Result<std::string> ShardManager::CheckpointDelta() {
  return CheckpointSnapshot(/*dirty_only=*/true);
}

size_t ShardManager::dirty_shard_count() const {
  // Shard map entries are never erased, so the snapshot stays valid after
  // the routing lock is dropped; dirtiness is then read per shard lock.
  const std::vector<const Shard*> snapshot = ShardSnapshot();
  size_t dirty = 0;
  for (const Shard* shard : snapshot) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    if (IsDirty(*shard)) ++dirty;
  }
  return dirty;
}

Status ShardManager::ApplyDelta(const std::string& bytes) {
  CheckpointReader cursor(bytes);
  std::string magic;
  FKC_RETURN_IF_ERROR(cursor.NextToken(&magic));
  const bool v3 = magic == kDeltaMagicV3;
  if (!v3 && magic != kDeltaMagicV2) {
    return Status::InvalidArgument("not an fkc shard delta (bad magic '" +
                                   magic + "')");
  }

  // Parse and stage everything with NO manager lock held — the inputs
  // (constraint, metric, solver) are immutable after construction, and a
  // truncated or corrupt delta must leave the fleet exactly as it was.
  // A v2 delta (no objective data) is by construction all-fair-center.
  ObjectiveKind default_objective = ObjectiveKind::kFairCenter;
  if (v3) FKC_RETURN_IF_ERROR(ReadObjectiveTag(&cursor, &default_objective));
  if (default_objective != options_.objective) {
    return Status::InvalidArgument(
        "delta fleet objective does not match this manager's");
  }
  std::vector<int> caps;
  FKC_RETURN_IF_ERROR(ReadColorCaps(&cursor, &caps));
  if (caps != constraint_.caps()) {
    return Status::InvalidArgument(
        "delta constraint does not match this manager's");
  }
  std::map<std::string, SlidingWindowOptions> overrides;
  FKC_RETURN_IF_ERROR(ReadOverrides(&cursor, &overrides));
  std::map<std::string, ObjectiveKind> objective_overrides;
  if (v3) {
    FKC_RETURN_IF_ERROR(ReadObjectiveOverrides(&cursor, &objective_overrides));
  }

  int64_t shard_count = 0;
  FKC_RETURN_IF_ERROR(cursor.NextInt(&shard_count));
  if (shard_count < 0 || shard_count > kMaxShards ||
      static_cast<size_t>(shard_count) > cursor.Remaining()) {
    return Status::InvalidArgument("implausible shard count in delta");
  }
  // No reserve from the blob-supplied count: growth is paid only for
  // entries that actually parse.
  std::vector<std::pair<std::string, std::unique_ptr<ObjectiveEngine>>> staged;
  for (int64_t s = 0; s < shard_count; ++s) {
    std::string key, blob;
    FKC_RETURN_IF_ERROR(cursor.NextRaw(&key, kMaxKeyBytes));
    FKC_RETURN_IF_ERROR(cursor.NextRaw(&blob));
    auto engine = DeserializeObjectiveEngine(blob, metric_, solver_);
    if (!engine.ok()) return engine.status();
    // The blob's own magic must match the objective the delta's table
    // assigns this tenant — a forged or misfiled segment rejects here,
    // before anything has been mutated.
    auto ov = objective_overrides.find(key);
    const ObjectiveKind expected =
        ov == objective_overrides.end() ? default_objective : ov->second;
    if (engine.value()->kind() != expected) {
      return Status::InvalidArgument(
          "shard blob objective does not match the delta's objective table");
    }
    // An interior-corrupt or forged shard blob under a different constraint
    // would restore fine and then CHECK-abort on its next in-range ingest
    // (StampArrival checks color against the shard's own ell).
    if (engine.value()->constraint().caps() != constraint_.caps()) {
      return Status::InvalidArgument(
          "shard constraint does not match the fleet constraint in delta");
    }
    staged.emplace_back(std::move(key), std::move(engine).value());
  }

  {
    // Replace the override tables (options AND objectives) as one unit.
    std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
    routing_->overrides = std::move(overrides);
    routing_->objective_overrides = std::move(objective_overrides);
  }
  // Swap each staged shard in under its own lock: per-shard atomicity (a
  // concurrent QueryAll may see a partially applied delta, never a torn
  // shard), and ingest to untouched tenants proceeds throughout.
  for (auto& [key, engine] : staged) {
    Shard* shard = nullptr;
    {
      std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
      auto it = routing_->shards.find(key);
      if (it == routing_->shards.end()) {
        // A tenant first seen in this delta: build the entry fully formed
        // under the routing lock (nobody can hold its shard lock yet).
        it = routing_->shards.try_emplace(key).first;
        Shard* fresh = &it->second;
        fresh->kind = engine->kind();
        fresh->live = std::move(engine);
        fresh->dim = fresh->live->dimension();
        // The shard now matches the leader's checkpointed state exactly.
        fresh->clean_epoch = fresh->live->state_epoch();
        fresh->spill_dirty = false;
        live_count_.fetch_add(1, std::memory_order_relaxed);
        TouchLive(it->first, fresh, clock_.load(std::memory_order_relaxed));
        continue;
      }
      shard = &it->second;
      ++shard->pins;
    }
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    bool was_live;
    {
      std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
      was_live = shard->live != nullptr;
      // The kind follows the engine it was validated against above — an
      // objective change for an existing tenant arrives only this way, as
      // a whole replacement state, never as a live mutation.
      shard->kind = engine->kind();
      shard->live = std::move(engine);
      shard->dim = shard->live->dimension();
      shard->clean_epoch = shard->live->state_epoch();
      shard->spill_dirty = false;
      if (!was_live) live_count_.fetch_add(1, std::memory_order_relaxed);
      TouchLive(key, shard, clock_.load(std::memory_order_relaxed));
      --shard->pins;
    }
    if (!was_live) {
      // A previously spilled shard's store entry is superseded; drop it
      // under the shard lock (best-effort — a stale entry is never read
      // and GC sweeps it).
      options_.spill_store->Erase(key);
    }
  }
  EnforceLiveCap(nullptr);
  return Status::OK();
}

Result<ShardManager> ShardManager::Restore(
    const std::string& bytes, const Metric* metric,
    const FairCenterSolver* solver, int num_threads, int64_t max_live_shards,
    std::shared_ptr<SpillStore> spill_store) {
  CheckpointReader cursor(bytes);
  std::string magic;
  FKC_RETURN_IF_ERROR(cursor.NextToken(&magic));
  const bool v3 = magic == kMagicV3;
  const bool v2 = magic == kMagicV2;
  if (!v3 && !v2 && magic != kMagicV1) {
    return Status::InvalidArgument("not an fkc shard checkpoint (bad magic '" +
                                   magic + "')");
  }

  ShardManagerOptions options;
  options.num_threads = num_threads;
  options.max_live_shards = max_live_shards;
  options.spill_store = std::move(spill_store);
  // v1/v2 blobs predate the objective layer and restore unchanged, as
  // all-fair-center (the only objective those builds had).
  if (v3) FKC_RETURN_IF_ERROR(ReadObjectiveTag(&cursor, &options.objective));
  // ReadSlidingWindowOptions validates what it parses (window size, delta,
  // beta, variant, slack exponents, range bounds): a corrupted or
  // adversarial blob must fail here, not abort in a constructor CHECK.
  FKC_RETURN_IF_ERROR(ReadSlidingWindowOptions(&cursor, &options.window));

  std::vector<int> caps;
  FKC_RETURN_IF_ERROR(ReadColorCaps(&cursor, &caps));

  // Single-threaded throughout: the manager is not published to any other
  // thread until Restore returns, so its members are mutated directly.
  ShardManager manager(options, ColorConstraint(std::move(caps)), metric,
                       solver);
  Routing& routing = *manager.routing_;
  if (v2 || v3) FKC_RETURN_IF_ERROR(ReadOverrides(&cursor, &routing.overrides));
  if (v3) {
    FKC_RETURN_IF_ERROR(
        ReadObjectiveOverrides(&cursor, &routing.objective_overrides));
  }

  int64_t shard_count = 0;
  FKC_RETURN_IF_ERROR(cursor.NextInt(&shard_count));
  if (shard_count < 0 || shard_count > kMaxShards ||
      static_cast<size_t>(shard_count) > cursor.Remaining()) {
    return Status::InvalidArgument("implausible shard count in checkpoint");
  }
  // Verbatim blob segments of the currently-live shards, so enforcing the
  // cap mid-restore hands the exact bytes just read to the spill store
  // instead of re-serializing a window that was deserialized moments ago.
  // Holds at most max_live_shards entries at any time.
  std::map<std::string, std::string> verbatim;
  for (int64_t s = 0; s < shard_count; ++s) {
    std::string key, blob;
    FKC_RETURN_IF_ERROR(cursor.NextRaw(&key, kMaxKeyBytes));
    FKC_RETURN_IF_ERROR(cursor.NextRaw(&blob));
    auto engine = DeserializeObjectiveEngine(blob, metric, solver);
    if (!engine.ok()) return engine.status();
    // Same forged-blob guard as ApplyDelta: a shard under a different
    // constraint would pass the manager's ValidateArrival yet CHECK-abort
    // inside the window on the next ingest.
    if (engine.value()->constraint().caps() != manager.constraint_.caps()) {
      return Status::InvalidArgument(
          "shard constraint does not match the fleet constraint");
    }
    // The blob's own magic must match the objective the checkpoint's own
    // table (default tag + overrides, read above) assigns this tenant;
    // v1/v2 tables are implicitly all-fair-center. Forged or swapped
    // segments reject here, never abort.
    if (engine.value()->kind() != manager.ObjectiveForKey(key)) {
      return Status::InvalidArgument(
          "shard blob objective does not match the checkpoint's objective "
          "table");
    }
    // Shards carry their mutex, so entries are built in place.
    auto [pos, inserted] = routing.shards.try_emplace(std::move(key));
    if (!inserted) {
      return Status::InvalidArgument("duplicate shard key in checkpoint");
    }
    Shard& shard = pos->second;
    shard.kind = engine.value()->kind();
    shard.live = std::move(engine).value();
    shard.dim = shard.live->dimension();
    shard.clean_epoch = shard.live->state_epoch();  // restored = checkpointed
    routing.live_lru.insert({shard.last_touch, pos->first});
    manager.live_count_.fetch_add(1, std::memory_order_relaxed);
    if (max_live_shards <= 0) continue;
    verbatim.emplace(pos->first, std::move(blob));
    // Enforce the cap as shards stream in, not after: a fleet far larger
    // than max_live_shards must never be fully resident at once — that is
    // the exact condition the cap exists to prevent. All last_touch values
    // are equal here, so the LRU victim is the smallest key and the
    // surviving set (the largest keys) matches what one sweep at the end
    // would keep.
    while (manager.live_count_.load() >
           static_cast<size_t>(max_live_shards)) {
      const auto victim = routing.live_lru.begin();
      Shard& victim_shard = routing.shards.find(victim->second)->second;
      auto segment = verbatim.find(victim->second);
      // A spill backend that cannot even absorb the restore is fatal to
      // the restore, not the process.
      Status put = manager.options_.spill_store->Put(
          victim->second, std::move(segment->second));
      if (!put.ok()) {
        return AnnotateBackendFailure(
            put, "restore-time spill of shard '" + victim->second +
                     "' to the " + manager.options_.spill_store->Name() +
                     " spill store");
      }
      verbatim.erase(segment);
      victim_shard.live.reset();
      victim_shard.spill_dirty = false;  // restored = checkpointed = clean
      victim_shard.clean_epoch = kNeverCheckpointed;
      routing.live_lru.erase(victim);
      manager.live_count_.fetch_sub(1, std::memory_order_relaxed);
      manager.evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return manager;
}

Status ShardManager::StartMaintenance(MaintenanceOptions options) {
  if (options.cadence <= std::chrono::milliseconds::zero()) {
    return Status::InvalidArgument("maintenance cadence must be positive");
  }
  std::lock_guard<std::mutex> admin(*maintenance_admin_mu_);
  if (maintenance_ != nullptr) {
    bool exited;
    {
      std::lock_guard<std::mutex> lock(maintenance_->mu);
      exited = maintenance_->exited;
    }
    if (!exited) {
      return Status::FailedPrecondition("maintenance thread already running");
    }
    // The previous loop already exited (a hook-initiated self-stop, which
    // cannot join itself): reap the finished thread here. The join is
    // prompt — the thread is past its last statement — and cannot be the
    // calling thread (a hook caller would still be inside the loop, with
    // `exited` unset).
    if (maintenance_->thread.joinable()) maintenance_->thread.join();
    maintenance_.reset();
  }
  maintenance_ = std::make_unique<MaintenanceState>();
  maintenance_->options = std::move(options);
  maintenance_->thread = std::thread(
      [this, state = maintenance_.get()] { MaintenanceLoop(state); });
  return Status::OK();
}

void ShardManager::StopMaintenance() {
  if (maintenance_admin_mu_ == nullptr) return;  // moved-from shell
  // Detach the state from the manager under the admin lock, then signal
  // and join WITHOUT it: the maintenance thread may itself be inside a
  // re-entrant StopMaintenance (an on_tick hook) waiting on the admin
  // mutex, and joining while holding it would deadlock both sides.
  std::unique_ptr<MaintenanceState> state;
  {
    std::lock_guard<std::mutex> admin(*maintenance_admin_mu_);
    if (maintenance_ == nullptr) return;
    if (maintenance_->thread.get_id() == std::this_thread::get_id()) {
      // Called from the maintenance thread (an on_tick hook): joining
      // oneself is impossible. Signal the loop to exit after this tick;
      // the thread stays attached until another thread's Stop or Start
      // (or the destructor) reaps it.
      std::lock_guard<std::mutex> lock(maintenance_->mu);
      maintenance_->stop = true;
      return;
    }
    state = std::move(maintenance_);
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->stop = true;
  }
  state->cv.notify_all();
  if (state->thread.joinable()) state->thread.join();
}

bool ShardManager::maintenance_running() const {
  std::lock_guard<std::mutex> admin(*maintenance_admin_mu_);
  if (maintenance_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(maintenance_->mu);
  return !maintenance_->exited;
}

void ShardManager::MaintenanceLoop(MaintenanceState* state) {
  std::unique_lock<std::mutex> lock(state->mu);
  for (;;) {
    // wait_for returns true only when stop was signalled — a prompt,
    // race-free shutdown even when StopMaintenance lands mid-sleep.
    if (state->cv.wait_for(lock, state->options.cadence,
                           [state] { return state->stop; })) {
      state->exited = true;
      return;
    }
    lock.unlock();
    RunMaintenanceTick(state->options);
    lock.lock();
  }
}

MaintenanceTickReport ShardManager::RunMaintenanceTick(
    const MaintenanceOptions& options) {
  MaintenanceTickReport report;
  report.tick = maintenance_ticks_.fetch_add(1) + 1;

  if (options.idle_ttl >= 0) {
    Status spill_status;
    report.evicted = EvictIdle(options.idle_ttl, &spill_status);
    if (report.status.ok()) report.status = spill_status;
  }

  if (options.capture != nullptr && dirty_shard_count() > 0) {
    auto captured = options.capture->Capture(this);
    if (captured.ok()) {
      report.capture_bytes = captured.value().bytes;
      report.rebased = captured.value().rebased;
    } else if (report.status.ok()) {
      report.status = captured.status();
    }
  }

  if (options.gc_every > 0 && report.tick % options.gc_every == 0) {
    auto removed = GarbageCollectSpill();
    if (removed.ok()) {
      report.gc_removed = removed.value();
    } else if (report.status.ok()) {
      report.status = removed.status();
    }
  }

  if (options.on_tick) options.on_tick(report);
  return report;
}

Result<int64_t> ShardManager::GarbageCollectSpill() {
  // The GC mutex is taken BEFORE the routing lock (lock-order protocol) and
  // held across the whole sweep: no spill can commit between the keep-set
  // snapshot below and the store's delete pass, so the keep-set can never
  // under-approximate and reap a freshly spilled blob.
  std::lock_guard<std::mutex> gc(*gc_mu_);
  std::set<std::string> spilled;
  {
    std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
    for (const auto& [key, shard] : routing_->shards) {
      if (!shard.live) spilled.insert(key);
    }
  }
  return options_.spill_store->GarbageCollect(spilled);
}

std::vector<std::string> ShardManager::Keys() const {
  std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
  std::vector<std::string> keys;
  keys.reserve(routing_->shards.size());
  for (const auto& [key, shard] : routing_->shards) keys.push_back(key);
  return keys;
}

ObjectiveEngine* ShardManager::shard(const std::string& key) {
  Shard* shard = nullptr;
  {
    std::lock_guard<std::shared_mutex> routing_lock(routing_->mu);
    shard = RouteLocked(key, /*create_missing=*/false,
                        clock_.load(std::memory_order_relaxed));
    if (shard == nullptr) return nullptr;
    ++shard->pins;
  }
  ObjectiveEngine* window = nullptr;
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    if (EnsureLiveHeld(key, shard).ok()) window = shard->live.get();
  }
  Unpin(shard);
  EnforceLiveCap(&key);
  return window;
}

const ObjectiveEngine* ShardManager::shard(const std::string& key) const {
  std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
  auto it = routing_->shards.find(key);
  return it == routing_->shards.end() ? nullptr : it->second.live.get();
}

size_t ShardManager::shard_count() const {
  std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
  return routing_->shards.size();
}

size_t ShardManager::live_shard_count() const {
  return live_count_.load(std::memory_order_relaxed);
}

size_t ShardManager::spilled_shard_count() const {
  // Two relaxed reads; exact when quiescent, approximate under races (like
  // every fleet-wide count here).
  const size_t total = shard_count();
  const size_t live = live_count_.load(std::memory_order_relaxed);
  return total > live ? total - live : 0;
}

std::vector<const ShardManager::Shard*> ShardManager::ShardSnapshot() const {
  std::shared_lock<std::shared_mutex> routing_lock(routing_->mu);
  std::vector<const Shard*> snapshot;
  snapshot.reserve(routing_->shards.size());
  for (const auto& [key, shard] : routing_->shards) snapshot.push_back(&shard);
  return snapshot;
}

void ShardManager::FanOut(int64_t count,
                          const std::function<void(int64_t)>& fn) {
  ThreadPool* pool = Pool();
  if (pool == nullptr || count < 2) {
    for (int64_t i = 0; i < count; ++i) fn(i);
  } else {
    pool->ParallelFor(count, fn);
  }
}

MemoryStats ShardManager::TotalMemory() const {
  // Same stable-entry snapshot as dirty_shard_count: collect under the
  // routing lock, read each shard under its own.
  const std::vector<const Shard*> snapshot = ShardSnapshot();
  MemoryStats stats;
  for (const Shard* shard : snapshot) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    if (shard->live) stats += shard->live->Memory();
  }
  return stats;
}

}  // namespace serving
}  // namespace fkc
