#include "src/sim/validation.h"

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace coopfs {

namespace {

// The eviction-class index: LRU stamps must rise strictly from LRU to MRU,
// and every class must equal the LRU list filtered to it, which puts each
// entry in exactly the class its N-Chance marks select (and flag-marked
// singlets in none).
Status CheckClassIndex(BlockCache& cache, std::uint32_t client) {
  const std::string where = "client " + std::to_string(client) + " ";
  std::vector<std::vector<const CacheEntry*>> expected(cache.num_classes());
  Status status = Status::Ok();
  std::uint64_t older_stamp = 0;
  cache.ScanFromLru([&](const CacheEntry& entry) {
    if (older_stamp != 0 && entry.lru_stamp() <= older_stamp) {
      status = Status::Internal(where + "LRU stamps do not rise at " + entry.block.ToString());
      return true;
    }
    older_stamp = entry.lru_stamp();
    const std::size_t klass = BlockCache::ClassOf(entry);
    if (klass == BlockCache::kNoClass) {
      return false;
    }
    if (klass >= expected.size()) {
      status = Status::Internal(where + "has no class list for " + entry.block.ToString() +
                                " (class " + std::to_string(klass) + ")");
      return true;
    }
    expected[klass].push_back(&entry);
    return false;
  });
  if (!status.ok()) {
    return status;
  }
  for (std::size_t klass = 0; klass < expected.size(); ++klass) {
    const std::vector<const CacheEntry*>& want = expected[klass];
    std::size_t seen = 0;
    bool match = true;
    cache.ScanClassFromLru(klass, [&](const CacheEntry& entry) {
      match = seen < want.size() && want[seen] == &entry;
      ++seen;
      return !match;
    });
    if (!match || seen != want.size() || cache.ClassSize(klass) != want.size()) {
      return Status::Internal(where + "class " + std::to_string(klass) +
                              " is not its LRU-order filter (" + std::to_string(want.size()) +
                              " entries expected, size " +
                              std::to_string(cache.ClassSize(klass)) + ")");
    }
  }
  return Status::Ok();
}

// Every cached copy, client or server, must be of a known block: one with a
// directory entry, listed exactly once in its file's known-block list. Reads
// and writes of a block the requester already caches skip NoteBlock on the
// strength of this. The set of listed blocks is built per check, one file at
// a time as cached blocks name them.
class KnownBlockCheck {
 public:
  explicit KnownBlockCheck(SimContext& context) : context_(context) {}

  Status Check(BlockId block, const std::string& cached_at) {
    if (!context_.directory().Known(block)) {
      return Status::Internal(cached_at + " caches " + block.ToString() +
                              " but it has no directory entry");
    }
    if (Status status = ListFile(block.file); !status.ok()) {
      return status;
    }
    if (known_.count(block.Pack()) == 0) {
      return Status::Internal(cached_at + " caches " + block.ToString() +
                              " but it is not a known block of its file");
    }
    return Status::Ok();
  }

 private:
  Status ListFile(FileId file) {
    if (!listed_files_.insert(file).second) {
      return Status::Ok();
    }
    for (const BlockId& block : context_.KnownBlocksOfFile(file)) {
      if (!known_.insert(block.Pack()).second) {
        return Status::Internal("file " + std::to_string(file) + " lists known block " +
                                block.ToString() + " twice");
      }
    }
    return Status::Ok();
  }

  SimContext& context_;
  std::unordered_set<FileId> listed_files_;
  std::unordered_set<std::uint64_t> known_;
};

}  // namespace

Status CheckCacheDirectoryConsistency(SimContext& context) {
  KnownBlockCheck known(context);
  // Caches -> directory, capacity, and N-Chance metadata.
  for (std::uint32_t c = 0; c < context.num_clients(); ++c) {
    BlockCache& cache = context.client_cache(c);
    if (cache.size() > cache.capacity()) {
      return Status::Internal("client " + std::to_string(c) + " over capacity: " +
                              std::to_string(cache.size()) + " > " +
                              std::to_string(cache.capacity()));
    }
    const std::string cached_at = "client " + std::to_string(c);
    Status status = Status::Ok();
    cache.ForEachEntry([&](const CacheEntry& entry) {
      if (!status.ok()) {
        return;
      }
      const auto& holders = context.directory().Holders(entry.block);
      bool found = false;
      for (ClientId holder : holders) {
        found = found || holder == c;
      }
      if (!found) {
        status = Status::Internal("client " + std::to_string(c) + " caches " +
                                  entry.block.ToString() + " but is not a directory holder");
        return;
      }
      if ((entry.recirculating() || entry.singlet_flag()) && holders.size() != 1) {
        status = Status::Internal("client " + std::to_string(c) + " holds " +
                                  entry.block.ToString() +
                                  " marked singlet but it has " +
                                  std::to_string(holders.size()) + " holders");
        return;
      }
      status = known.Check(entry.block, cached_at);
    });
    if (!status.ok()) {
      return status;
    }
    if (status = CheckClassIndex(cache, c); !status.ok()) {
      return status;
    }
  }

  // Directory -> caches.
  Status status = Status::Ok();
  context.directory().ForEachBlock([&](BlockId block, const Directory::HolderList& holders) {
    if (!status.ok()) {
      return;
    }
    for (ClientId holder : holders) {
      if (holder >= context.num_clients()) {
        status = Status::Internal("directory holder out of range for " + block.ToString());
        return;
      }
      if (!context.client_cache(holder).Contains(block)) {
        status = Status::Internal("directory says client " + std::to_string(holder) +
                                  " caches " + block.ToString() + " but it does not");
        return;
      }
    }
  });
  if (!status.ok()) {
    return status;
  }

  for (std::uint32_t server = 0; server < context.num_servers(); ++server) {
    const BlockCache& cache = context.server_cache(server);
    if (cache.size() > cache.capacity()) {
      return Status::Internal("server " + std::to_string(server) + " cache over capacity");
    }
    const std::string cached_at = "server " + std::to_string(server);
    cache.ForEachEntry([&](const CacheEntry& entry) {
      if (status.ok()) {
        status = known.Check(entry.block, cached_at);
      }
    });
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

}  // namespace coopfs
