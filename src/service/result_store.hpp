#pragma once

/// \file result_store.hpp
/// Content-addressed result cache of the campaign service (ISSUE 5).
///
/// Results (the per-station seismograms of one job) are stored under the
/// request's content hash in the versioned CRC-32 `sfg_snapshot` format
/// (io/snapshot.*) — the same format the solver's checkpoints use, so
/// corruption and truncation are detected on load instead of serving wrong
/// physics. Blob key per result: `<16-hex-digits>.res`, placed by the
/// selected sfg_io backend (ISSUE 8): one durably-written file per key
/// (PerRankFiles), or one chunk of a single `results.sfgc` container
/// (Container — O(1) files however many jobs a campaign caches).
///
/// The store is shared by all workers and submitters; an in-memory index
/// mirrors the backend (scanned once at construction, so a store reopened
/// over an old campaign directory serves the previous results —
/// cross-campaign caching for free).

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "io/blob_store.hpp"
#include "service/job.hpp"
#include "solver/simulation.hpp"

namespace sfg::service {

/// The physics output of one job: one seismogram per requested station,
/// in station order.
struct JobResult {
  std::vector<Seismogram> seismograms;
};

class ResultStore {
 public:
  /// Opens (and creates if needed) `dir` with the given sfg_io backend,
  /// indexing any existing results. The default keeps the legacy
  /// one-file-per-result layout; campaigns select the container backend
  /// through FrontendConfig::io_backend.
  explicit ResultStore(
      const std::string& dir,
      io::IoBackendKind backend = io::IoBackendKind::PerRankFiles);

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  bool contains(RequestKey key) const;

  /// Load the result stored under `key`; nullopt when absent. Throws
  /// sfg::CheckError if the file exists but is corrupt (CRC/format).
  std::optional<JobResult> load(RequestKey key) const;

  /// Store `result` under `key` (overwrites an existing entry with the
  /// same key — content addressing makes that a no-op by construction).
  void store(RequestKey key, const JobResult& result);

  std::size_t size() const;
  const std::string& dir() const { return dir_; }
  io::IoBackendKind backend() const { return backend_; }
  /// Filesystem objects the store occupies (1 for the container backend).
  int file_count() const { return store_->file_count(); }
  /// Blob reads served from the backend (indexed `load` calls). The
  /// tiered-cache tests assert a memory-tier hit leaves this untouched.
  std::uint64_t reads() const;
  /// Blob writes issued to the backend (`store` calls).
  std::uint64_t writes() const;

  static std::string key_hex(RequestKey key);
  /// Filesystem path of one result — meaningful for the PerRankFiles
  /// backend only (container blobs share one file).
  std::string path_for(RequestKey key) const;

 private:
  std::string dir_;
  io::IoBackendKind backend_;
  std::unique_ptr<io::BlobStore> store_;
  mutable std::mutex mutex_;
  std::set<RequestKey> index_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace sfg::service
