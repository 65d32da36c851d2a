// Objective-layer contract: the ObjectiveEngine seam and the second
// objective built on it. Every fleet, pure or mixed, checkpoints as
// fkc-shards-v3 and round-trips byte-equal;
// k-median engines serialize/restore bit-exactly and answer
// deterministically; forged or mismatched objective tags are rejected with
// a Status, never an abort; SetTenantObjective is creation-time-only; and
// the deterministic k-median local search honors its contract (medoids are
// input points, cost never above the Gonzalez seed, bit-identical reruns).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/checkpoint_io.h"
#include "common/random.h"
#include "core/k_median_sliding_window.h"
#include "core/objective_engine.h"
#include "metric/metric.h"
#include "sequential/jones_fair_center.h"
#include "sequential/k_median.h"
#include "serving/shard_manager.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;
const JonesFairCenter kJones;
const ColorConstraint kConstraint({2, 1, 1});
const char* kKeys[] = {"tenant-a", "tenant-b", "tenant-c", "tenant-d"};

std::vector<Point> RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    points.push_back(Point({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                           static_cast<int>(rng.NextBounded(3))));
  }
  return points;
}

std::vector<serving::KeyedPoint> KeyedStream(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<serving::KeyedPoint> stream;
  for (int i = 0; i < n; ++i) {
    serving::KeyedPoint kp;
    kp.key = kKeys[rng.NextBounded(4)];
    kp.point = Point({rng.NextUniform(0, 50), rng.NextUniform(0, 50)},
                     static_cast<int>(rng.NextBounded(3)));
    stream.push_back(std::move(kp));
  }
  return stream;
}

serving::ShardManagerOptions Options() {
  serving::ShardManagerOptions options;
  options.window.window_size = 60;
  options.window.delta = 1.0;
  options.window.adaptive_range = true;
  return options;
}

std::string MustCheckpoint(serving::ShardManager* manager) {
  auto blob = manager->CheckpointAll();
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ValueOr("");
}

SlidingWindowOptions WindowOptions() {
  SlidingWindowOptions options;
  options.window_size = 60;
  options.delta = 1.0;
  options.adaptive_range = true;
  return options;
}

// --- Wire tags. ---

TEST(ObjectiveTagTest, RoundTripsAndRejectsUnknown) {
  EXPECT_EQ(ObjectiveTag(ObjectiveKind::kFairCenter),
            std::string("fair-center"));
  EXPECT_EQ(ObjectiveTag(ObjectiveKind::kKMedian), std::string("k-median"));
  EXPECT_EQ(ParseObjectiveTag("fair-center").ValueOr(ObjectiveKind::kKMedian),
            ObjectiveKind::kFairCenter);
  EXPECT_EQ(ParseObjectiveTag("k-median").ValueOr(ObjectiveKind::kFairCenter),
            ObjectiveKind::kKMedian);
  for (const char* forged : {"k-center", "", "fair_center", "K-MEDIAN"}) {
    EXPECT_EQ(ParseObjectiveTag(forged).status().code(),
              StatusCode::kInvalidArgument)
        << forged;
  }
}

TEST(ObjectiveTagTest, SniffsBothBlobFamiliesAndRejectsGarbage) {
  auto fair = CreateObjectiveEngine(ObjectiveKind::kFairCenter,
                                    WindowOptions(), kConstraint, &kMetric,
                                    &kJones);
  auto median = CreateObjectiveEngine(ObjectiveKind::kKMedian, WindowOptions(),
                                      kConstraint, &kMetric, &kJones);
  for (const Point& p : RandomPoints(40, 7)) {
    fair->Update(p);
    median->Update(p);
  }
  EXPECT_EQ(SniffObjectiveBlob(fair->SerializeState())
                .ValueOr(ObjectiveKind::kKMedian),
            ObjectiveKind::kFairCenter);
  EXPECT_EQ(SniffObjectiveBlob(median->SerializeState())
                .ValueOr(ObjectiveKind::kFairCenter),
            ObjectiveKind::kKMedian);
  EXPECT_EQ(SniffObjectiveBlob("fkc-forged-v9 whatever").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SniffObjectiveBlob("").status().code(),
            StatusCode::kInvalidArgument);
}

// --- The k-median solver's determinism contract. ---

TEST(KMedianSolverTest, MedoidsAreInputPointsAndRerunsAreBitIdentical) {
  const auto points = RandomPoints(120, 11);
  const KMedianSolution first = KMedianLocalSearch(kMetric, points, 5);
  const KMedianSolution second = KMedianLocalSearch(kMetric, points, 5);
  ASSERT_EQ(first.centers.size(), 5u);
  EXPECT_EQ(first.cost, second.cost);
  ASSERT_EQ(first.centers.size(), second.centers.size());
  for (size_t i = 0; i < first.centers.size(); ++i) {
    EXPECT_EQ(first.centers[i].coords, second.centers[i].coords);
    bool is_input = false;
    for (const Point& p : points) {
      if (p.coords == first.centers[i].coords &&
          p.color == first.centers[i].color) {
        is_input = true;
        break;
      }
    }
    EXPECT_TRUE(is_input) << "medoid " << i << " is not an input point";
  }
}

TEST(KMedianSolverTest, LocalSearchNeverWorseThanSeedAndHandlesEdges) {
  const auto points = RandomPoints(90, 13);
  // max_rounds = 0 resolves to the default bound; a 1-round run applies at
  // most one swap past the Gonzalez seed. Cost is monotone in rounds.
  KMedianOptions one_round;
  one_round.max_rounds = 1;
  const double seeded = KMedianLocalSearch(kMetric, points, 4, one_round).cost;
  const double settled = KMedianLocalSearch(kMetric, points, 4).cost;
  EXPECT_LE(settled, seeded);
  // k >= n: every point its own medoid, zero cost.
  const auto tiny = RandomPoints(3, 17);
  const KMedianSolution all = KMedianLocalSearch(kMetric, tiny, 10);
  EXPECT_EQ(all.centers.size(), tiny.size());
  EXPECT_EQ(all.cost, 0.0);
  // Empty input: empty zero-cost solution, no crash.
  const KMedianSolution empty = KMedianLocalSearch(kMetric, {}, 4);
  EXPECT_TRUE(empty.centers.empty());
  EXPECT_EQ(empty.cost, 0.0);
}

// --- The k-median engine on the shared substrate. ---

TEST(KMedianEngineTest, SerializeRestoreIsByteEqualAndAnswersMatch) {
  KMedianSlidingWindow window(WindowOptions(), kConstraint, &kMetric, &kJones);
  for (const Point& p : RandomPoints(150, 19)) window.Update(p);

  const std::string blob = window.SerializeState();
  ASSERT_EQ(blob.rfind(KMedianSlidingWindow::kMagic, 0), 0u)
      << "k-median blob must open with its own magic";
  auto restored =
      KMedianSlidingWindow::DeserializeState(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().SerializeState(), blob);

  QueryStats stats;
  auto before = window.QueryObjective(&stats);
  auto after = restored.value().QueryObjective();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value().value, after.value().value);
  ASSERT_EQ(before.value().centers.size(), after.value().centers.size());
  for (size_t i = 0; i < before.value().centers.size(); ++i) {
    EXPECT_EQ(before.value().centers[i].coords,
              after.value().centers[i].coords);
  }
  EXPECT_EQ(before.value().centers.size(),
            static_cast<size_t>(kConstraint.TotalK()));
  EXPECT_GT(stats.coreset_size, 0);
  EXPECT_GT(before.value().value, 0.0);
}

TEST(KMedianEngineTest, GenericDeserializeDispatchesOnMagic) {
  auto median = CreateObjectiveEngine(ObjectiveKind::kKMedian, WindowOptions(),
                                      kConstraint, &kMetric, &kJones);
  for (const Point& p : RandomPoints(80, 23)) median->Update(p);
  const std::string blob = median->SerializeState();
  auto engine = DeserializeObjectiveEngine(blob, &kMetric, &kJones);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine.value()->kind(), ObjectiveKind::kKMedian);
  EXPECT_EQ(engine.value()->SerializeState(), blob);
  // Truncations of the blob fail with a Status at every cut, never abort.
  // (size - 1 would only shave the trailing raw-field separator, which the
  // cursor never needs, so the deepest cut here takes a real byte.)
  for (size_t cut : {blob.size() / 4, blob.size() / 2, blob.size() - 2}) {
    auto truncated =
        DeserializeObjectiveEngine(blob.substr(0, cut), &kMetric, &kJones);
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
  }
}

// --- Fleet formats: one writer (v3) for pure and mixed fleets. ---

TEST(ObjectiveFleetTest, PureFairCenterFleetWritesV3Bytes) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(200, 29)).ok());
  const std::string blob = MustCheckpoint(&manager);
  EXPECT_EQ(blob.rfind("fkc-shards-v3", 0), 0u)
      << "a default-objective fleet writes the one v3 format";

  auto restored =
      serving::ShardManager::Restore(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(MustCheckpoint(&restored.value()), blob)
      << "restore -> re-checkpoint must be byte-equal";
}

TEST(ObjectiveFleetTest, MixedFleetRoundTripsByteEqual) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-b", ObjectiveKind::kKMedian).ok());
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-d", ObjectiveKind::kKMedian).ok());
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(200, 31)).ok());
  const std::string blob = MustCheckpoint(&manager);
  EXPECT_EQ(blob.rfind("fkc-shards-v3", 0), 0u);

  auto restored = serving::ShardManager::Restore(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(MustCheckpoint(&restored.value()), blob);
  EXPECT_EQ(restored.value().TenantObjective("tenant-a"),
            ObjectiveKind::kFairCenter);
  EXPECT_EQ(restored.value().TenantObjective("tenant-b"),
            ObjectiveKind::kKMedian);

  // The restored mixed fleet answers exactly like the original, each
  // tenant under its own objective.
  auto before = manager.QueryAll();
  auto after = restored.value().QueryAll();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    ASSERT_TRUE(before[i].solution.ok());
    ASSERT_TRUE(after[i].solution.ok());
    EXPECT_EQ(before[i].key, after[i].key);
    EXPECT_EQ(before[i].solution.value().value,
              after[i].solution.value().value);
  }
}

TEST(ObjectiveFleetTest, NonDefaultFleetObjectiveSurvivesRestore) {
  serving::ShardManagerOptions options = Options();
  options.objective = ObjectiveKind::kKMedian;
  serving::ShardManager manager(options, kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(150, 37)).ok());
  const std::string blob = MustCheckpoint(&manager);
  EXPECT_EQ(blob.rfind("fkc-shards-v3", 0), 0u)
      << "non-default fleet objective forces the v3 format";
  auto restored = serving::ShardManager::Restore(blob, &kMetric, &kJones);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().TenantObjective("tenant-a"),
            ObjectiveKind::kKMedian);
  EXPECT_EQ(MustCheckpoint(&restored.value()), blob);
}

TEST(ObjectiveFleetTest, DeltaCarriesObjectiveTableToTheFollower) {
  serving::ShardManager leader(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      leader.SetTenantObjective("tenant-c", ObjectiveKind::kKMedian).ok());
  const auto stream = KeyedStream(240, 41);
  const std::vector<serving::KeyedPoint> first_half(stream.begin(),
                                                    stream.begin() + 120);
  const std::vector<serving::KeyedPoint> second_half(stream.begin() + 120,
                                                     stream.end());
  ASSERT_TRUE(leader.IngestBatch(first_half).ok());
  const std::string base = MustCheckpoint(&leader);

  auto follower = serving::ShardManager::Restore(base, &kMetric, &kJones);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();

  ASSERT_TRUE(leader.IngestBatch(second_half).ok());
  auto delta = leader.CheckpointDelta();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta.value().rfind("fkc-shards-delta-v3", 0), 0u)
      << "a mixed fleet's delta must carry the objective table";
  ASSERT_TRUE(follower.value().ApplyDelta(delta.value()).ok());
  EXPECT_EQ(MustCheckpoint(&follower.value()), MustCheckpoint(&leader));
  EXPECT_EQ(follower.value().TenantObjective("tenant-c"),
            ObjectiveKind::kKMedian);
}

// --- Forged tags and mismatched blobs degrade to Status. ---

TEST(ObjectiveFleetTest, ForgedObjectiveTagsAreRejectedNotFatal) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-b", ObjectiveKind::kKMedian).ok());
  ASSERT_TRUE(manager.IngestBatch(KeyedStream(120, 43)).ok());
  const std::string blob = MustCheckpoint(&manager);

  // Forge the fleet-default tag ("fair-center", right after the magic).
  std::string forged = blob;
  const size_t tag_at = forged.find("fair-center");
  ASSERT_NE(tag_at, std::string::npos);
  forged.replace(tag_at, 11, "k-mediocre!");
  auto bad_default =
      serving::ShardManager::Restore(forged, &kMetric, &kJones);
  ASSERT_FALSE(bad_default.ok());
  EXPECT_EQ(bad_default.status().code(), StatusCode::kInvalidArgument);

  // Forge the override table's tag the same way.
  std::string forged_override = blob;
  const size_t override_at = forged_override.find("k-median");
  ASSERT_NE(override_at, std::string::npos);
  forged_override.replace(override_at, 8, "k-maxian");
  auto bad_override =
      serving::ShardManager::Restore(forged_override, &kMetric, &kJones);
  ASSERT_FALSE(bad_override.ok());
  EXPECT_EQ(bad_override.status().code(), StatusCode::kInvalidArgument);

  // Every truncation of the v3 blob fails with a Status, never an abort.
  for (size_t cut = 0; cut < blob.size(); cut += 97) {
    auto truncated =
        serving::ShardManager::Restore(blob.substr(0, cut), &kMetric, &kJones);
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
  }
}

TEST(ObjectiveFleetTest, BlobObjectiveMustMatchTheCheckpointTable) {
  // Two fleets with the same single tenant under different objectives;
  // splice the k-median fleet's engine blob into the fair-center fleet's
  // checkpoint. The blob's own magic then contradicts the checkpoint's
  // objective table and the restore must say so.
  std::vector<serving::KeyedPoint> stream;
  for (const Point& p : RandomPoints(80, 47)) {
    stream.push_back({"tenant-a", p});
  }
  serving::ShardManager fair(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(fair.IngestBatch(stream).ok());
  serving::ShardManagerOptions median_options = Options();
  median_options.objective = ObjectiveKind::kKMedian;
  serving::ShardManager median(median_options, kConstraint, &kMetric,
                               &kJones);
  ASSERT_TRUE(median.IngestBatch(stream).ok());

  const std::string fair_blob = MustCheckpoint(&fair);
  const std::string median_blob = MustCheckpoint(&median);
  const std::string fair_engine = fair.shard("tenant-a")->SerializeState();
  const std::string median_engine = median.shard("tenant-a")->SerializeState();
  const size_t engine_at = fair_blob.find(fair_engine);
  ASSERT_NE(engine_at, std::string::npos);

  // Swap in the other objective's raw engine state, keeping the surrounding
  // length prefix honest (WriteCheckpointRaw = "<size> <bytes>").
  std::string spliced = fair_blob.substr(0, engine_at - 1);
  {
    std::ostringstream patch;
    // Rewrite the length prefix: drop the old "<size>" token that precedes
    // the engine bytes.
    const size_t prefix_end = spliced.find_last_of(' ');
    ASSERT_NE(prefix_end, std::string::npos);
    spliced.resize(prefix_end + 1);
    WriteCheckpointRaw(&patch, median_engine);
    spliced += patch.str();
  }
  spliced += fair_blob.substr(engine_at + fair_engine.size());
  auto mismatched =
      serving::ShardManager::Restore(spliced, &kMetric, &kJones);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

// --- SetTenantObjective lifecycle. ---

TEST(ObjectiveFleetTest, ObjectiveIsFixedAtShardCreation) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  EXPECT_EQ(manager.TenantObjective("tenant-a"), ObjectiveKind::kFairCenter);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-a", ObjectiveKind::kKMedian).ok());
  EXPECT_EQ(manager.TenantObjective("tenant-a"), ObjectiveKind::kKMedian);
  // Re-registering the default erases the override.
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-a", ObjectiveKind::kFairCenter).ok());
  EXPECT_EQ(manager.TenantObjective("tenant-a"), ObjectiveKind::kFairCenter);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-a", ObjectiveKind::kKMedian).ok());

  ASSERT_TRUE(manager.Ingest("tenant-a", Point({1.0, 2.0}, 0)).ok());
  auto late =
      manager.SetTenantObjective("tenant-a", ObjectiveKind::kFairCenter);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition)
      << "an existing shard's objective must be immutable";
  EXPECT_EQ(manager.TenantObjective("tenant-a"), ObjectiveKind::kKMedian);

  // The shard really runs k-median: its engine self-identifies.
  ASSERT_NE(manager.shard("tenant-a"), nullptr);
  EXPECT_EQ(manager.shard("tenant-a")->kind(), ObjectiveKind::kKMedian);
}

TEST(ObjectiveFleetTest, MixedFleetAnswersBothObjectivesOnOneStream) {
  serving::ShardManager manager(Options(), kConstraint, &kMetric, &kJones);
  ASSERT_TRUE(
      manager.SetTenantObjective("tenant-b", ObjectiveKind::kKMedian).ok());
  // Identical per-tenant streams so the objective is the only difference.
  std::vector<serving::KeyedPoint> stream;
  for (const Point& p : RandomPoints(100, 53)) {
    stream.push_back({"tenant-a", p});
    stream.push_back({"tenant-b", p});
  }
  ASSERT_TRUE(manager.IngestBatch(stream).ok());

  auto fair = manager.Query("tenant-a");
  auto median = manager.Query("tenant-b");
  ASSERT_TRUE(fair.ok()) << fair.status().ToString();
  ASSERT_TRUE(median.ok()) << median.status().ToString();
  // k-median reports a SUM of distances over the coreset; fair-center a
  // covering radius. On 100 spread-out points the sum exceeds the max.
  EXPECT_GT(median.value().value, fair.value().value);
  EXPECT_EQ(median.value().centers.size(),
            static_cast<size_t>(kConstraint.TotalK()));
}

}  // namespace
}  // namespace fkc
