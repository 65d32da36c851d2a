// A replayable, self-compacting log of fleet checkpoints: one full base
// blob (CheckpointAll) plus an ordered chain of incremental deltas
// (CheckpointDelta). Replay restores the base and applies the chain —
// bit-exactly the fleet that was captured, byte-equal per shard to a
// restore from a fresh full checkpoint.
//
// Without compaction a delta chain grows forever and replay cost grows with
// it, so the log re-bases itself: once the chain exceeds a configurable
// length or byte budget, the next Capture takes a full checkpoint as the
// new base and drops the chain. The budget trades capture cost (full blobs
// are expensive) against replay cost and log size.
//
// Capture is exactly what the ShardManager's background maintenance thread
// feeds each tick (MaintenanceOptions::capture); a replication transport
// would ship base_ and each appended delta to followers. Thread-safe: one
// internal mutex serializes Capture/Replay/accessors (the manager calls it
// from the maintenance thread while tests read from the main thread).
//
// Under the manager's two-level locking, a Capture runs concurrently with
// ingest: CheckpointDelta/CheckpointAll are epoch snapshots that pin the
// shard set under the routing lock and then serialize one shard lock at a
// time, so a capture never stalls ingest to unrelated tenants. Each
// captured shard segment is that shard's state at the moment its lock was
// taken; arrivals landing after a shard's segment was written leave the
// shard dirty for the NEXT capture (the epoch-based clean mark records
// what was captured, not what is latest), so a replayed log is always some
// prefix-consistent fleet, never a torn one.
#ifndef FKC_SERVING_DELTA_LOG_H_
#define FKC_SERVING_DELTA_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving/shard_manager.h"

namespace fkc {
namespace serving {

/// What one capture recorded.
struct CaptureStats {
  bool rebased = false;     ///< this capture replaced the base
  size_t bytes = 0;         ///< bytes appended (delta or new base)
  size_t chain_length = 0;  ///< deltas in the chain afterwards
};

/// A log a maintenance tick captures the fleet into
/// (MaintenanceOptions::capture): DeltaLog in memory, ReplicatedLog
/// (serving/replication/replicated_log.h) on disk.
class CaptureSink {
 public:
  virtual ~CaptureSink() = default;
  /// Appends `manager`'s dirty state (or a full re-base) to the log and
  /// marks the captured shards clean.
  virtual Result<CaptureStats> Capture(ShardManager* manager) = 0;
};

class DeltaLog : public CaptureSink {
 public:
  struct Options {
    /// Deltas tolerated in the chain before the next Capture re-bases;
    /// <= 0 re-bases on every capture (a chain of full blobs).
    int64_t max_chain_length = 16;
    /// Summed delta bytes tolerated before re-basing.
    int64_t max_chain_bytes = int64_t{1} << 26;  // 64 MiB
  };

  using CaptureStats = serving::CaptureStats;

  DeltaLog();  ///< default Options
  explicit DeltaLog(Options options);

  /// Captures `manager`'s current state into the log: the first call (and
  /// any call finding the chain over budget) takes a full checkpoint as
  /// the new base; every other call appends a CheckpointDelta. Marks the
  /// manager's shards clean either way, so consecutive captures ship only
  /// what changed in between. On a non-OK return the log is unchanged
  /// (and, for a failed full checkpoint, so are the manager's dirty bits).
  /// The dirty bit is a single-consumer cursor: a manager feeding this log
  /// must not also serve direct CheckpointDelta/CheckpointAll callers, or
  /// the log's deltas will silently omit whatever those calls marked clean
  /// (Replay then reproduces a stale fleet until the next re-base).
  Result<CaptureStats> Capture(ShardManager* manager) override;

  /// Replays the log: Restore(base), then ApplyDelta for each chained
  /// delta in order. kFailedPrecondition before the first Capture. The
  /// execution/resource knobs mirror ShardManager::Restore.
  Result<ShardManager> Replay(
      const Metric* metric, const FairCenterSolver* solver,
      int num_threads = 1, int64_t max_live_shards = 0,
      std::shared_ptr<SpillStore> spill_store = nullptr) const;

  bool has_base() const;
  size_t base_bytes() const;
  size_t chain_length() const;
  int64_t chain_bytes() const;
  /// Re-bases performed by Capture (the initial base does not count).
  int64_t rebases() const;

 private:
  mutable std::mutex mu_;
  Options options_;
  bool has_base_ = false;
  std::string base_;
  std::vector<std::string> chain_;
  int64_t chain_bytes_ = 0;
  int64_t rebases_ = 0;
};

}  // namespace serving
}  // namespace fkc

#endif  // FKC_SERVING_DELTA_LOG_H_
