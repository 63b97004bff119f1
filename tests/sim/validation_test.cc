#include "src/sim/validation.h"

#include <gtest/gtest.h>

#include "src/sim/config.h"

namespace coopfs {
namespace {

SimulationConfig Config() {
  SimulationConfig config;
  config.client_cache_blocks = 4;
  config.server_cache_blocks = 4;
  return config;
}

TEST(ValidationTest, FreshContextIsConsistent) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
}

TEST(ValidationTest, ConsistentStatePasses) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.NoteBlock(BlockId{1, 0});  // As the read that fetched it would.
  context.client_cache(0).Insert(BlockId{1, 0});
  context.directory().AddHolder(BlockId{1, 0}, 0);
  EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
}

TEST(ValidationTest, DetectsClientCachedButNotKnown) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.client_cache(0).Insert(BlockId{1, 0});
  context.directory().AddHolder(BlockId{1, 0}, 0);  // Held, but never noted.
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("not a known block of its file"), std::string::npos);
}

TEST(ValidationTest, DetectsServerCachedWithoutDirectoryEntry) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.server_cache().Insert(BlockId{1, 0});
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("server 0 caches"), std::string::npos);
  EXPECT_NE(status.message().find("no directory entry"), std::string::npos);
}

TEST(ValidationTest, NotedServerCopyPasses) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.NoteBlock(BlockId{1, 0});
  context.server_cache().Insert(BlockId{1, 0});
  EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
}

TEST(ValidationTest, DetectsCachedButUntracked) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.client_cache(0).Insert(BlockId{1, 0});  // No directory entry.
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("not a directory holder"), std::string::npos);
}

TEST(ValidationTest, DetectsTrackedButNotCached) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.directory().AddHolder(BlockId{1, 0}, 1);  // Client 1 caches nothing.
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("but it does not"), std::string::npos);
}

TEST(ValidationTest, DetectsHolderOutOfRange) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  context.directory().AddHolder(BlockId{1, 0}, 9);
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(ValidationTest, DetectsFalseSingletMarking) {
  const SimulationConfig config = Config();
  SimContext context(config, 2, 4, 4);
  CacheEntry& entry = context.client_cache(0).Insert(BlockId{1, 0});
  context.client_cache(1).Insert(BlockId{1, 0});
  context.directory().AddHolder(BlockId{1, 0}, 0);
  context.directory().AddHolder(BlockId{1, 0}, 1);
  context.client_cache(0).SetMarks(entry, 0, true);  // Lie: the block is duplicated.
  const Status status = CheckCacheDirectoryConsistency(context);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("marked singlet"), std::string::npos);
}

}  // namespace
}  // namespace coopfs
