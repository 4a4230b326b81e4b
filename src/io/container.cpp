#include "io/container.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "io/file_util.hpp"
#include "io/snapshot.hpp"  // crc32

namespace sfg::io {

namespace {

constexpr std::array<char, 8> kHeaderMagic = {'S', 'F', 'G', 'C',
                                              'O', 'N', 'T', '\0'};
constexpr std::array<char, 8> kEndMagic = {'S', 'F', 'G', 'C',
                                           'E', 'N', 'D', '\0'};
constexpr std::uint32_t kChunkMarker = 0x4B4E4843;  // "CHNK"
constexpr std::uint32_t kIndexMarker = 0x58444E49;  // "INDX" reversed LE

constexpr std::uint64_t kHeaderBytes = 16;
// index offset (8) + its CRC (4) + end magic (8)
constexpr std::uint64_t kFooterBytes = 20;

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + bytes);
}

template <typename T>
void append_value(std::vector<std::byte>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_bytes(out, &value, sizeof(T));
}

/// Bounds-checked sequential parser (the snapshot Cursor discipline): a
/// truncated or lying index fails with offsets, never reads garbage.
class Cursor {
 public:
  Cursor(const std::byte* data, std::size_t size, const std::string& path)
      : data_(data), size_(size), path_(path) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    read_into(&value, sizeof(T));
    return value;
  }

  void read_into(void* dest, std::size_t bytes) {
    SFG_CHECK_MSG(pos_ + bytes <= size_,
                  "container '" << path_ << "' index is truncated (needed "
                                << bytes << " bytes at index offset " << pos_
                                << ", index region has " << size_ << ")");
    std::memcpy(dest, data_ + pos_, bytes);
    pos_ += bytes;
  }

  std::size_t pos() const { return pos_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  const std::string& path_;
  std::size_t pos_ = 0;
};

std::uint64_t record_bytes(const ChunkInfo& c) {
  return 4 + 4 + 8 + c.name.size() + c.bytes + 4;
}

/// The index of `chunks` placed at `index_offset`, followed by the footer
/// that points at it: the bytes commit() writes at the tail.
std::vector<std::byte> index_and_footer(const std::vector<ChunkInfo>& chunks,
                                        std::uint64_t index_offset) {
  std::vector<std::byte> tail;
  append_value(tail, kIndexMarker);
  append_value(tail, static_cast<std::uint32_t>(chunks.size()));
  for (const ChunkInfo& c : chunks) {
    append_value(tail, static_cast<std::uint32_t>(c.name.size()));
    append_bytes(tail, c.name.data(), c.name.size());
    append_value(tail, c.offset);
    append_value(tail, c.bytes);
    append_value(tail, c.crc);
  }
  const std::uint32_t index_crc = crc32(tail.data() + 4, tail.size() - 4);
  append_value(tail, index_crc);
  append_value(tail, index_offset);
  append_value(tail, crc32(&index_offset, sizeof(index_offset)));
  append_bytes(tail, kEndMagic.data(), kEndMagic.size());
  return tail;
}

}  // namespace

Container Container::create(const std::string& path) {
  Container c;
  c.path_ = path;
  c.writable_ = true;
  c.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  SFG_CHECK_MSG(c.fd_ >= 0, "cannot create container '"
                                << path << "': " << std::strerror(errno));
  // Header, empty index and footer in one pwrite: a container that never
  // sees a commit still opens as empty. No fsync here (the first commit
  // makes the file durable); a crash before it leaves a short file that
  // readers reject.
  std::vector<std::byte> image;
  append_bytes(image, kHeaderMagic.data(), kHeaderMagic.size());
  append_value(image, kContainerVersion);
  append_value(image, std::uint32_t{0});
  const std::vector<std::byte> tail = index_and_footer({}, kHeaderBytes);
  image.insert(image.end(), tail.begin(), tail.end());
  c.pwrite_exact_or_throw(image);
  c.append_pos_ = kHeaderBytes;
  return c;
}

void Container::pread_exact(void* dest, std::size_t bytes,
                            std::uint64_t offset, const char* what) const {
  if (bytes == 0) return;  // empty chunk: dest may be null, memcpy/pread forbid that
  if (map_ != nullptr) {
    SFG_CHECK_MSG(offset + bytes <= map_bytes_,
                  "container '" << path_ << "' is truncated reading " << what
                                << " (needed " << bytes << " bytes at offset "
                                << offset << ", file has " << map_bytes_
                                << ")");
    std::memcpy(dest, static_cast<const std::byte*>(map_) + offset, bytes);
    return;
  }
  auto* p = static_cast<char*>(dest);
  std::size_t done = 0;
  while (done < bytes) {
    const ::ssize_t n =
        ::pread(fd_, p + done, bytes - done,
                static_cast<::off_t>(offset + done));
    SFG_CHECK_MSG(n > 0, "container '"
                             << path_ << "' is truncated reading " << what
                             << " (needed " << bytes << " bytes at offset "
                             << offset << ", got " << done << ")");
    done += static_cast<std::size_t>(n);
  }
}

Container Container::open_rw(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return create(path);
  Container c = open_ro(path, ReadMode::Pread);
  // Re-open the validated file writable; appends resume at the index
  // (the index + footer are re-emitted by the next commit).
  ::close(c.fd_);
  c.fd_ = ::open(path.c_str(), O_RDWR);
  SFG_CHECK_MSG(c.fd_ >= 0, "cannot reopen container '"
                                << path << "' writable: "
                                << std::strerror(errno));
  c.writable_ = true;
  return c;
}

Container Container::open_ro(const std::string& path, ReadMode mode) {
  Container c;
  c.path_ = path;
  c.writable_ = false;
  c.fd_ = ::open(path.c_str(), O_RDONLY);
  SFG_CHECK_MSG(c.fd_ >= 0, "cannot open container '"
                                << path << "': " << std::strerror(errno));
  struct ::stat st;
  SFG_CHECK(::fstat(c.fd_, &st) == 0);
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (mode == ReadMode::Mmap && file_size > 0) {
    void* m = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, c.fd_, 0);
    SFG_CHECK_MSG(m != MAP_FAILED, "cannot mmap container '"
                                       << path << "': "
                                       << std::strerror(errno));
    c.map_ = m;
    c.map_bytes_ = file_size;
  }
  c.load_index_or_throw(file_size);
  return c;
}

void Container::load_index_or_throw(std::uint64_t file_size) {
  SFG_CHECK_MSG(file_size >= kHeaderBytes + kFooterBytes,
                "container '" << path_ << "' is truncated (only "
                              << file_size << " bytes, a valid container "
                              << "needs at least "
                              << kHeaderBytes + kFooterBytes << ")");

  std::array<char, 8> magic;
  pread_exact(magic.data(), magic.size(), 0, "header magic");
  SFG_CHECK_MSG(std::memcmp(magic.data(), kHeaderMagic.data(), 8) == 0,
                "'" << path_ << "' is not an sfg_io container (bad magic)");
  std::uint32_t version = 0;
  pread_exact(&version, sizeof(version), 8, "format version");
  SFG_CHECK_MSG(version == kContainerVersion,
                "container '" << path_ << "' has format version " << version
                              << ", this build reads version "
                              << kContainerVersion);

  // Footer: end magic pinned to end-of-file, then the index offset it
  // vouches for. A container whose footer is not EXACTLY at EOF (torn
  // append, truncation, trailing garbage) is rejected wholesale.
  std::array<char, 8> end_magic;
  pread_exact(end_magic.data(), 8, file_size - 8, "end magic");
  SFG_CHECK_MSG(std::memcmp(end_magic.data(), kEndMagic.data(), 8) == 0,
                "container '" << path_
                              << "' has no valid footer at end-of-file "
                                 "(torn append or truncated commit — "
                                 "rejecting the whole container)");
  std::uint64_t index_offset = 0;
  std::uint32_t footer_crc = 0;
  pread_exact(&index_offset, 8, file_size - kFooterBytes, "index offset");
  pread_exact(&footer_crc, 4, file_size - kFooterBytes + 8,
              "footer CRC");
  SFG_CHECK_MSG(crc32(&index_offset, sizeof(index_offset)) == footer_crc,
                "container '" << path_
                              << "' footer failed its CRC check (corrupted "
                                 "or truncated file)");
  SFG_CHECK_MSG(index_offset >= kHeaderBytes &&
                    index_offset <= file_size - kFooterBytes,
                "container '" << path_ << "' footer points its index at "
                              << index_offset << ", outside the file ("
                              << file_size << " bytes)");

  // Parse the index region [index_offset, file_size - footer) with the
  // bounds-checked cursor, then CRC it before trusting any entry.
  const std::size_t index_bytes =
      static_cast<std::size_t>(file_size - kFooterBytes - index_offset);
  std::vector<std::byte> index(index_bytes);
  pread_exact(index.data(), index_bytes, index_offset, "chunk index");
  Cursor cur(index.data(), index.size(), path_);
  const std::uint32_t marker = cur.read<std::uint32_t>();
  SFG_CHECK_MSG(marker == kIndexMarker,
                "container '" << path_
                              << "' index marker is wrong (corrupted "
                                 "index or footer offset)");
  SFG_CHECK_MSG(index_bytes >= 4 + 4,
                "container '" << path_ << "' index region is too small");
  const std::uint32_t stored_crc = [&] {
    std::uint32_t v;
    std::memcpy(&v, index.data() + index.size() - 4, 4);
    return v;
  }();
  const std::uint32_t computed_crc =
      crc32(index.data() + 4, index.size() - 4 - 4);
  SFG_CHECK_MSG(stored_crc == computed_crc,
                "container '" << path_
                              << "' index failed its CRC check (corrupted "
                                 "or truncated file)");

  const std::uint32_t count = cur.read<std::uint32_t>();
  chunks_.clear();
  chunks_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ChunkInfo c;
    const std::uint32_t name_len = cur.read<std::uint32_t>();
    c.name.resize(name_len);
    cur.read_into(c.name.data(), name_len);
    c.offset = cur.read<std::uint64_t>();
    c.bytes = cur.read<std::uint64_t>();
    c.crc = cur.read<std::uint32_t>();
    SFG_CHECK_MSG(c.offset >= kHeaderBytes &&
                      c.offset + record_bytes(c) <= index_offset,
                  "container '" << path_ << "' chunk '" << c.name
                                << "' record [" << c.offset << ", +"
                                << record_bytes(c)
                                << ") lies outside the chunk region");
    chunks_.push_back(std::move(c));
  }
  SFG_CHECK_MSG(cur.pos() == index.size() - 4,
                "container '" << path_ << "' index has "
                              << (index.size() - 4 - cur.pos())
                              << " trailing bytes after the last entry");

  append_pos_ = index_offset;
  dead_bytes_ = 0;
  std::uint64_t live = 0;
  for (const ChunkInfo& c : chunks_) live += record_bytes(c);
  dead_bytes_ = index_offset - kHeaderBytes - live;
  view_verified_.assign(chunks_.size(), false);
}

void Container::pwrite_exact_or_throw(const std::vector<std::byte>& data) {
  pwrite_exact_or_throw(data.data(), data.size(), append_pos_);
}

void Container::pwrite_exact_or_throw(const void* data, std::size_t bytes,
                                      std::uint64_t offset) {
  const auto* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < bytes) {
    const ::ssize_t n = ::pwrite(fd_, p + done, bytes - done,
                                 static_cast<::off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    SFG_CHECK_MSG(n > 0, "write to container '"
                             << path_ << "' failed at offset "
                             << offset + done << ": "
                             << std::strerror(errno));
    done += static_cast<std::size_t>(n);
  }
}

void Container::append(const std::string& name, const void* data,
                       std::size_t bytes) {
  SFG_CHECK_MSG(writable_, "container '" << path_ << "' is read-only");
  SFG_CHECK_MSG(!name.empty(), "container chunk needs a name");

  ChunkInfo info;
  info.name = name;
  info.offset = append_pos_;
  info.bytes = bytes;
  info.crc = crc32(data, bytes);

  std::vector<std::byte> record;
  record.reserve(static_cast<std::size_t>(record_bytes(info)));
  append_value(record, kChunkMarker);
  append_value(record, static_cast<std::uint32_t>(name.size()));
  append_value(record, static_cast<std::uint64_t>(bytes));
  append_bytes(record, name.data(), name.size());
  append_bytes(record, data, bytes);
  append_value(record, info.crc);
  pwrite_exact_or_throw(record);
  append_pos_ += record.size();
  dirty_ = true;

  const std::size_t existing = index_of(name);
  if (existing == chunks_.size()) {
    chunks_.push_back(std::move(info));
  } else {
    // Superseded: the old record's bytes stay in the file as dead space
    // until a pack/compaction rewrites the container.
    dead_bytes_ += record_bytes(chunks_[existing]);
    chunks_[existing] = std::move(info);
  }
}

void Container::commit() {
  SFG_CHECK_MSG(writable_, "container '" << path_ << "' is read-only");
  const std::vector<std::byte> tail = index_and_footer(chunks_, append_pos_);
  pwrite_exact_or_throw(tail);

  // A reopened container may hold stale bytes past the new footer (the
  // previous, larger index) — trim them so the footer is exactly at EOF,
  // then make the whole image durable.
  const std::uint64_t end = append_pos_ + tail.size();
  SFG_CHECK_MSG(::ftruncate(fd_, static_cast<::off_t>(end)) == 0,
                "cannot truncate container '" << path_ << "' to " << end
                                              << " bytes: "
                                              << std::strerror(errno));
  fsync_fd(fd_, "container '" + path_ + "'");
  dirty_ = false;
}

bool Container::has(const std::string& name) const {
  return index_of(name) != chunks_.size();
}

std::size_t Container::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < chunks_.size(); ++i)
    if (chunks_[i].name == name) return i;
  return chunks_.size();
}

const ChunkInfo& Container::info(const std::string& name) const {
  const std::size_t i = index_of(name);
  SFG_CHECK_MSG(i != chunks_.size(), "container '" << path_
                                                   << "' has no chunk '"
                                                   << name << "'");
  return chunks_[i];
}

void Container::verify_record_header(const ChunkInfo& c) const {
  std::uint32_t marker = 0, name_len = 0;
  std::uint64_t payload_len = 0;
  pread_exact(&marker, 4, c.offset, "chunk marker");
  pread_exact(&name_len, 4, c.offset + 4, "chunk name length");
  pread_exact(&payload_len, 8, c.offset + 8, "chunk payload length");
  SFG_CHECK_MSG(marker == kChunkMarker && name_len == c.name.size() &&
                    payload_len == c.bytes,
                "container '" << path_ << "' chunk '" << c.name
                              << "' record at offset " << c.offset
                              << " disagrees with the index (corrupted "
                                 "chunk region)");
}

std::vector<std::byte> Container::read(const std::string& name) const {
  const ChunkInfo& c = info(name);
  verify_record_header(c);
  std::vector<std::byte> payload(static_cast<std::size_t>(c.bytes));
  pread_exact(payload.data(), payload.size(),
              c.offset + 16 + c.name.size(), "chunk payload");
  SFG_CHECK_MSG(crc32(payload.data(), payload.size()) == c.crc,
                "container '" << path_ << "' chunk '" << name
                              << "' failed its CRC check (corrupted or "
                                 "truncated file)");
  return payload;
}

std::span<const std::byte> Container::view(const std::string& name) const {
  SFG_CHECK_MSG(map_ != nullptr,
                "container '" << path_
                              << "' was not opened in Mmap mode; use "
                                 "read() or open_ro(path, ReadMode::Mmap)");
  const std::size_t i = index_of(name);
  SFG_CHECK_MSG(i != chunks_.size(), "container '" << path_
                                                   << "' has no chunk '"
                                                   << name << "'");
  const ChunkInfo& c = chunks_[i];
  const std::uint64_t payload_off = c.offset + 16 + c.name.size();
  SFG_CHECK_MSG(payload_off + c.bytes <= map_bytes_,
                "container '" << path_ << "' chunk '" << name
                              << "' payload extends past end-of-file");
  const auto* base = static_cast<const std::byte*>(map_) + payload_off;
  if (!view_verified_[i]) {
    verify_record_header(c);
    SFG_CHECK_MSG(crc32(base, static_cast<std::size_t>(c.bytes)) == c.crc,
                  "container '" << path_ << "' chunk '" << name
                                << "' failed its CRC check (corrupted or "
                                   "truncated file)");
    view_verified_[i] = true;
  }
  return {base, static_cast<std::size_t>(c.bytes)};
}

void Container::close() {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Container::Container(Container&& other) noexcept { *this = std::move(other); }

Container& Container::operator=(Container&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    writable_ = other.writable_;
    dirty_ = other.dirty_;
    append_pos_ = other.append_pos_;
    dead_bytes_ = other.dead_bytes_;
    chunks_ = std::move(other.chunks_);
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    view_verified_ = std::move(other.view_verified_);
  }
  return *this;
}

Container::~Container() { close(); }

}  // namespace sfg::io
