// A crash-safe DeltaLog: the same base-plus-delta-chain capture contract
// (serving/delta_log.h), but every entry is ALSO published to a directory
// before Capture reports success, so a SIGKILL'd leader reconstructs its
// entire ShardManager fleet on restart by replaying the on-disk chain.
//
// On-disk layout (all IO through common/fs_util's atomic-publish helpers):
//
//   <dir>/MANIFEST               fkc-replog-manifest-v1 <checksum> <gen>
//   <dir>/seg-<gen>-<index>.seg  fkc-replog-seg-v1 <checksum> <gen> <index>
//                                <length-prefixed payload>
//
// One segment file per entry: index 0 is the generation's base (a full
// CheckpointAll blob), indexes 1..N its deltas, in capture order. Each
// file embeds an FNV-1a checksum over everything after the checksum token,
// and is published with WriteFileAtomic (write temp, fsync, rename, fsync
// directory), so a crash mid-append leaves either the previous chain or
// the extended chain — never a half-written segment under a live name. A
// re-base opens generation G+1: its base is written (and the MANIFEST
// updated) before generation G's files are retired with durable unlinks.
//
// Recovery (Open) trusts only what validates: it adopts the HIGHEST
// generation whose base segment decodes, then walks that generation's
// chain in index order and stops at the first missing or corrupt segment —
// the torn tail is truncated (the bad file deleted, later orphans swept)
// and the log continues from the surviving prefix, never aborting. The
// MANIFEST is an advisory fast-path and operator breadcrumb, not the
// source of truth: a torn or stale manifest is rebuilt from the scan.
// Because every Capture is atomic-published, the recovered prefix is
// always some exact capture boundary, and Replay of it is byte-equal (per
// shard) to the fleet as of that capture — the kill-and-recover tests
// assert exactly this at every truncation point.
//
// The same class serves both ends of the wire: a leader Captures into it
// (typically via MaintenanceOptions::replicated_log) and a LogSender
// streams EntriesFrom() to followers; a follower's LogReceiver can
// AppendBase/AppendDelta received entries into its own ReplicatedLog so
// the follower survives ITS next kill too.
//
// Thread-safe like DeltaLog: one internal mutex serializes Capture,
// appends, Replay, and accessors.
#ifndef FKC_SERVING_REPLICATION_REPLICATED_LOG_H_
#define FKC_SERVING_REPLICATION_REPLICATED_LOG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "serving/delta_log.h"
#include "serving/shard_manager.h"

namespace fkc {
namespace serving {

class ReplicatedLog : public CaptureSink {
 public:
  struct Options {
    /// Chain budgets, as in DeltaLog::Options: exceeding either makes the
    /// next Capture re-base into a fresh generation.
    int64_t max_chain_length = 16;
    int64_t max_chain_bytes = int64_t{1} << 26;  // 64 MiB
  };

  /// What Open() found (and repaired) on disk.
  struct RecoveryStats {
    int64_t recovered_entries = 0;   ///< base + deltas adopted from disk
    int64_t truncated_segments = 0;  ///< torn/corrupt tail files dropped
    int64_t swept_files = 0;  ///< stale-generation files + debris removed
    bool manifest_rebuilt = false;  ///< MANIFEST was absent, torn, or stale
  };

  /// One log entry, as shipped to followers. index 0 is the generation's
  /// base (CheckpointAll bytes); 1..N its deltas (CheckpointDelta bytes).
  struct Entry {
    int64_t generation = 0;
    int64_t index = 0;
    std::string payload;
  };

  explicit ReplicatedLog(std::string directory);
  ReplicatedLog(std::string directory, Options options);

  /// Recovers the log from `directory` (created if absent) — see the file
  /// comment for the adoption rules. Must be called once before any other
  /// method; every later call fails with kFailedPrecondition until Open
  /// has returned OK. Never fails on torn or corrupt segments (they are
  /// truncated away); only on directory-level IO trouble.
  Status Open();

  /// DeltaLog::Capture with durability: checkpoints `manager` (full blob
  /// when re-basing or on the first call, delta otherwise), publishes the
  /// segment file, and only then extends the in-memory chain. On a failed
  /// segment write the delta's bytes are NOT adopted and the next Capture
  /// is forced to re-base into a new generation — the manager's dirty bits
  /// were already consumed by CheckpointDelta, so the full re-base is what
  /// guarantees the lost delta's changes still reach the log. The same
  /// single-consumer dirty-bit rule as DeltaLog applies.
  Result<DeltaLog::CaptureStats> Capture(ShardManager* manager) override;

  /// Follower-side appends (the LogReceiver persisting what it applied).
  /// AppendBase opens `generation` (replacing any current chain, retiring
  /// the previous generation's files); AppendDelta must continue the
  /// current generation at exactly chain_length() + 1, else
  /// kFailedPrecondition (an out-of-order delivery — resync instead).
  Status AppendBase(int64_t generation, const std::string& payload);
  Status AppendDelta(int64_t generation, int64_t index,
                     const std::string& payload);

  /// Replays the in-memory (= durable) chain: Restore(base) then
  /// ApplyDelta per entry, as DeltaLog::Replay. kFailedPrecondition while
  /// the log is empty.
  Result<ShardManager> Replay(
      const Metric* metric, const FairCenterSolver* solver,
      int num_threads = 1, int64_t max_live_shards = 0,
      std::shared_ptr<SpillStore> spill_store = nullptr) const;

  /// Entries at or after `from_index` of `generation`, in order — what a
  /// follower at that position still needs. A stale or unknown
  /// `generation` (and any from_index past the chain on it) returns the
  /// WHOLE current chain, base first: the resync-from-base rule.
  std::vector<Entry> EntriesFrom(int64_t generation,
                                 int64_t from_index) const;

  bool has_base() const;
  /// Current generation number (0 while empty; the first base opens 1).
  int64_t generation() const;
  size_t chain_length() const;  ///< deltas in the current generation
  int64_t chain_bytes() const;
  int64_t rebases() const;  ///< re-bases performed (initial base excluded)
  RecoveryStats recovery_stats() const;
  const std::string& directory() const { return directory_; }

 private:
  Status OpenedLocked() const;  ///< kFailedPrecondition before Open()
  std::string SegmentPath(int64_t generation, int64_t index) const;
  /// Publishes one entry's segment file (atomic + durable).
  Status WriteSegment(int64_t generation, int64_t index,
                      const std::string& payload) const;
  /// Publishes the MANIFEST for `generation`.
  Status WriteManifest(int64_t generation) const;
  /// Best-effort retirement of every on-disk segment except
  /// `keep_generation`'s base (one directory sync for the batch) — run
  /// after a base adoption, whose chain is by definition empty.
  void SweepOtherGenerationsLocked(int64_t keep_generation);
  /// Shared tail of AppendBase/Capture-rebase: adopt `payload` as the base
  /// of `new_generation` in memory, publish the manifest, retire old
  /// files. Requires mu_; the segment file must already be on disk.
  Status AdoptBaseLocked(int64_t new_generation, std::string payload);

  const std::string directory_;
  const Options options_;

  mutable std::mutex mu_;
  bool opened_ = false;
  /// Set by a failed delta publish: the bytes CheckpointDelta consumed
  /// never reached the chain, so only a full re-base recovers them.
  bool force_rebase_ = false;
  int64_t generation_ = 0;
  bool has_base_ = false;
  std::string base_;
  std::vector<std::string> chain_;
  int64_t chain_bytes_ = 0;
  int64_t rebases_ = 0;
  RecoveryStats recovery_stats_;
};

}  // namespace serving
}  // namespace fkc

#endif  // FKC_SERVING_REPLICATION_REPLICATED_LOG_H_
