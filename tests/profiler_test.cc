#include "util/profiler.h"

#include <gtest/gtest.h>

#include <string>

#include "server/server.h"
#include "util/thread_pool.h"

namespace ftms {
namespace {

// Each test runs with the profiler explicitly enabled and leaves it
// disabled and empty, so test order cannot matter.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::SetGlobalEnabled(true);
    Profiler::Reset();
  }
  void TearDown() override {
    Profiler::Reset();
    Profiler::SetGlobalEnabled(false);
  }
};

TEST_F(ProfilerTest, CountsScopeEntries) {
  for (int i = 0; i < 7; ++i) {
    FTMS_PROF_SCOPE("test/outer");
  }
  EXPECT_EQ(Profiler::CountOf("test/outer"), 7);
  EXPECT_EQ(Profiler::CountOf("test/never"), 0);
}

TEST_F(ProfilerTest, NestingBuildsATree) {
  {
    FTMS_PROF_SCOPE("test/parent");
    for (int i = 0; i < 3; ++i) {
      FTMS_PROF_SCOPE("test/child");
    }
  }
  Profiler::FoldAtSyncPoint();
  const Profiler::MergedNode tree = Profiler::MergedTree();
  ASSERT_EQ(tree.children.size(), 1u);
  const Profiler::MergedNode& parent = tree.children[0];
  EXPECT_EQ(parent.name, "test/parent");
  EXPECT_EQ(parent.count, 1);
  ASSERT_EQ(parent.children.size(), 1u);
  EXPECT_EQ(parent.children[0].name, "test/child");
  EXPECT_EQ(parent.children[0].count, 3);
  // Wall time flows upward: a parent's total covers its children.
  EXPECT_GE(parent.total_ns, parent.children[0].total_ns);
}

TEST_F(ProfilerTest, FoldPreservesCountsAcrossSyncPoints) {
  {
    FTMS_PROF_SCOPE("test/work");
  }
  Profiler::FoldAtSyncPoint();
  {
    FTMS_PROF_SCOPE("test/work");
  }
  Profiler::FoldAtSyncPoint();
  EXPECT_EQ(Profiler::CountOf("test/work"), 2);
}

TEST_F(ProfilerTest, DisabledScopesRecordNothing) {
  Profiler::SetGlobalEnabled(false);
  {
    FTMS_PROF_SCOPE("test/off");
  }
  Profiler::SetGlobalEnabled(true);
  EXPECT_EQ(Profiler::CountOf("test/off"), 0);
}

// The invariance contract: per-NAME counts depend only on how many
// times the annotated work unit ran, never on how the pool chunked the
// range across workers.
int64_t CountItemsWithPool(int pool_threads, int64_t items) {
  Profiler::Reset();
  ThreadPool pool(pool_threads);
  ParallelFor(&pool, 0, items, [](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      FTMS_PROF_SCOPE("test/item");
    }
  });
  Profiler::FoldAtSyncPoint();
  return Profiler::CountOf("test/item");
}

TEST_F(ProfilerTest, CountsAreThreadCountInvariant) {
  const int64_t kItems = 1000;
  EXPECT_EQ(CountItemsWithPool(1, kItems), kItems);
  EXPECT_EQ(CountItemsWithPool(4, kItems), kItems);
  EXPECT_EQ(CountItemsWithPool(8, kItems), kItems);
}

TEST_F(ProfilerTest, SnapshotJsonShape) {
  {
    FTMS_PROF_SCOPE("test/a");
    FTMS_PROF_SCOPE("test/b");
  }
  Profiler::FoldAtSyncPoint();
  const std::string json = Profiler::SnapshotJson();
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test/a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"test/b\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

TEST_F(ProfilerTest, ResetDropsEverything) {
  {
    FTMS_PROF_SCOPE("test/gone");
  }
  Profiler::FoldAtSyncPoint();
  ASSERT_EQ(Profiler::CountOf("test/gone"), 1);
  Profiler::Reset();
  EXPECT_EQ(Profiler::CountOf("test/gone"), 0);
  EXPECT_TRUE(Profiler::MergedTree().children.empty());
}

// First node named `name` in a depth-first walk of the merged tree.
const Profiler::MergedNode* FindNode(const Profiler::MergedNode& node,
                                     const std::string& name) {
  if (node.name == name) return &node;
  for (const Profiler::MergedNode& child : node.children) {
    if (const Profiler::MergedNode* found = FindNode(child, name)) {
      return found;
    }
  }
  return nullptr;
}

// A byte-level rebuild splits its reconstruct scope into group
// synthesis, the parity fold and the ground-truth check.
TEST_F(ProfilerTest, DataRebuildSplitsReconstructIntoLayers) {
  ServerConfig config;
  config.scheme = Scheme::kStreamingRaid;
  config.parity_group_size = 5;
  config.params.num_disks = 10;
  config.params.k_reserve = 2;
  config.params.disk.capacity_mb = 2.5;  // 50 tracks: a short rebuild
  auto server = std::move(MultimediaServer::Create(config).value());
  MediaObject movie;
  movie.id = 0;
  movie.rate_mb_s = 0.1875;
  movie.num_tracks = 40;
  ASSERT_TRUE(server->AddObject(movie).ok());
  ASSERT_TRUE(server->mutable_rebuild().AttachDataPath(0, 40, 256).ok());
  ASSERT_TRUE(server->FailDisk(1).ok());
  ASSERT_TRUE(server->StartRebuild(1).ok());
  const int64_t pending = server->rebuild().data_tracks_pending();
  ASSERT_GT(pending, 0);
  server->RunCycles(5);
  ASSERT_FALSE(server->rebuild().Active());
  ASSERT_EQ(server->rebuild().data_mismatches(), 0);

  Profiler::FoldAtSyncPoint();
  const Profiler::MergedNode tree = Profiler::MergedTree();
  const Profiler::MergedNode* reconstruct =
      FindNode(tree, "rebuild/reconstruct");
  ASSERT_NE(reconstruct, nullptr);
  int64_t synthesize = 0, fold = 0, verify = 0;
  for (const Profiler::MergedNode& child : reconstruct->children) {
    if (child.name == "rebuild/synthesize") synthesize = child.count;
    if (child.name == "parity/xor") fold = child.count;
    if (child.name == "rebuild/verify") verify = child.count;
  }
  // One group synthesis and one fold per rebuilt track, one check per
  // batch.
  EXPECT_EQ(synthesize, pending);
  EXPECT_EQ(fold, pending);
  EXPECT_EQ(verify, reconstruct->count);
}

}  // namespace
}  // namespace ftms
