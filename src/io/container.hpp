#pragma once

/// \file container.hpp
/// The `sfg_io` single-file chunked container (ISSUE 8): one seekable file
/// holding many named, individually CRC-32'd chunks behind a chunk index —
/// the aggregated-write layout that replaces the one-file-per-rank(-per-
/// interval) pattern whose file COUNT, not bandwidth, is the Figure 5
/// scaling wall (3.2M mesher files at 62K ranks). The design extends the
/// `sfg_snapshot` primitives (same CRC-32, same bounds-checked parse
/// discipline) the way Hapla et al.'s DMPlex parallel mesh I/O aggregates
/// per-rank data into shared containers.
///
/// File layout (little-endian, as written by the host):
///
///   header   8 bytes  magic "SFGCONT\0"
///            u32      format version (kContainerVersion)
///            u32      reserved (0)
///   chunks   per chunk record:
///            u32      chunk marker "CHNK"
///            u32      name length
///            u64      payload bytes
///            name bytes, payload bytes
///            u32      CRC-32 of the payload
///   index    u32      index marker "XDNI"
///            u32      chunk count
///            per entry: u32 name length, name bytes,
///                       u64 record offset, u64 payload bytes, u32 CRC-32
///            u32      CRC-32 over the index body (count + entries)
///   footer   u64      index offset
///            u32      CRC-32 of the index-offset field
///            8 bytes  end magic "SFGCEND\0"
///
/// Commit protocol: `append` pwrites chunk records at the tail (overwriting
/// the previous index+footer, which `commit` re-emits after the new
/// chunks); `commit` writes index + footer, truncates any stale tail, and
/// fsyncs. A reader accepts a container ONLY when the footer sits exactly
/// at end-of-file and index + per-chunk CRCs all verify — a torn append or
/// truncation at ANY byte offset is rejected with a clear error, never
/// partially served. Appending an existing name supersedes it (the old
/// record becomes dead space, see dead_bytes(); `sfg_ioconv pack` compacts).
///
/// Instances are not thread-safe; `ContainerStore` (blob_store.hpp) adds
/// the lock the multi-rank writers share.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sfg::io {

inline constexpr std::uint32_t kContainerVersion = 1;

/// One chunk as listed by the index.
struct ChunkInfo {
  std::string name;
  std::uint64_t offset = 0;  ///< file offset of the chunk record
  std::uint64_t bytes = 0;   ///< payload bytes
  std::uint32_t crc = 0;     ///< CRC-32 of the payload
};

class Container {
 public:
  /// Random-access strategy for read-only opens: positioned reads
  /// (pread) or a whole-file read-only memory map.
  enum class ReadMode { Pread, Mmap };

  /// Create a new empty container at `path` (truncates an existing file),
  /// open for appending. The file is a complete empty container until the
  /// first append; appends become readable at the next commit().
  static Container create(const std::string& path);
  /// Open an existing container for appending (full validation first), or
  /// create it when absent.
  static Container open_rw(const std::string& path);
  /// Open read-only; throws sfg::CheckError on any structural or CRC
  /// problem (bad magic, bad version, truncation anywhere, torn index).
  static Container open_ro(const std::string& path,
                           ReadMode mode = ReadMode::Pread);

  Container(Container&& other) noexcept;
  Container& operator=(Container&& other) noexcept;
  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;
  ~Container();

  const std::string& path() const { return path_; }
  bool writable() const { return writable_; }
  /// True when appends exist that commit() has not yet published.
  bool dirty() const { return dirty_; }

  // ---- writer ops (throw when opened read-only) ----
  /// Append one named chunk. A repeated name supersedes the old chunk in
  /// the index; its bytes become dead space until a pack/compaction.
  void append(const std::string& name, const void* data, std::size_t bytes);
  /// Publish every append so far: write index + footer at the tail,
  /// truncate stale bytes, fsync. The container on disk is valid exactly
  /// when the last commit() returned.
  void commit();

  // ---- reader ops ----
  bool has(const std::string& name) const;
  /// Index order (append order of the surviving chunks).
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }
  const ChunkInfo& info(const std::string& name) const;
  /// Read and CRC-verify one chunk's payload.
  std::vector<std::byte> read(const std::string& name) const;
  /// Zero-copy payload view (Mmap mode only); CRC-verified on first
  /// access to each chunk.
  std::span<const std::byte> view(const std::string& name) const;

  std::uint64_t file_bytes() const { return append_pos_; }
  /// Bytes of superseded chunk records still occupying the file.
  std::uint64_t dead_bytes() const { return dead_bytes_; }

  void close();

 private:
  Container() = default;
  void load_index_or_throw(std::uint64_t file_size);
  std::size_t index_of(const std::string& name) const;
  void pread_exact(void* dest, std::size_t bytes, std::uint64_t offset,
                   const char* what) const;
  void pwrite_exact_or_throw(const std::vector<std::byte>& data);
  void pwrite_exact_or_throw(const void* data, std::size_t bytes,
                             std::uint64_t offset);
  void verify_record_header(const ChunkInfo& c) const;

  std::string path_;
  int fd_ = -1;
  bool writable_ = false;
  bool dirty_ = false;
  std::uint64_t append_pos_ = 0;  ///< where the next record (or index) goes
  std::uint64_t dead_bytes_ = 0;
  std::vector<ChunkInfo> chunks_;
  // Mmap read path.
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  mutable std::vector<bool> view_verified_;
};

}  // namespace sfg::io
