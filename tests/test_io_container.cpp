// Tests for the sfg_io single-container format layer (ISSUE 8): container
// structural integrity (a truncation at EVERY byte offset is rejected,
// never partially served), CRC corruption detection, per-rank <->
// container conversion bit-identity, the pluggable BlobStore backends,
// the unique-tmp durable write protocol under concurrent writers, the
// solver checkpoint path over both backends, and the out-of-core
// MeshCache spill.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "io/blob_store.hpp"
#include "io/container.hpp"
#include "io/file_util.hpp"
#include "io/ioconv.hpp"
#include "io/mesh_files.hpp"
#include "io/snapshot.hpp"
#include "mesh/cartesian.hpp"
#include "service/frontend.hpp"
#include "service/worker.hpp"
#include "solver/simulation.hpp"

namespace sfg {
namespace {

namespace fs = std::filesystem;

struct TmpDir {
  std::string path;
  TmpDir() {
    path = (fs::temp_directory_path() /
            ("sfg_ioc_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    fs::create_directories(path);
  }
  ~TmpDir() { fs::remove_all(path); }
  static int counter;
};
int TmpDir::counter = 0;

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

GlobeSlice small_prem_slice() {
  static PremModel prem;
  GlobeMeshSpec spec;
  spec.nex_xi = 4;
  spec.nchunks = 6;
  spec.model = &prem;
  GllBasis basis(4);
  return build_globe_slice(spec, basis, 0);
}

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

TEST(Container, RoundTripPreadAndMmap) {
  TmpDir tmp;
  const std::string path = tmp.path + "/c.sfgc";
  const std::vector<char> a = {'h', 'e', 'l', 'l', 'o'};
  std::vector<char> b(4096);  // spans multiple "pages", includes zeros
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<char>(i * 37 % 251);
  {
    io::Container c = io::Container::create(path);
    c.append("a", a.data(), a.size());
    c.append("b", b.data(), b.size());
    c.append("empty", nullptr, 0);
    c.commit();
  }
  for (const auto mode :
       {io::Container::ReadMode::Pread, io::Container::ReadMode::Mmap}) {
    io::Container c = io::Container::open_ro(path, mode);
    ASSERT_EQ(c.chunks().size(), 3u);
    EXPECT_EQ(c.chunks()[0].name, "a");  // index preserves append order
    EXPECT_EQ(c.chunks()[1].name, "b");
    EXPECT_TRUE(c.has("empty"));
    EXPECT_FALSE(c.has("missing"));
    const auto ra = c.read("a");
    ASSERT_EQ(ra.size(), a.size());
    EXPECT_EQ(std::memcmp(ra.data(), a.data(), a.size()), 0);
    const auto rb = c.read("b");
    ASSERT_EQ(rb.size(), b.size());
    EXPECT_EQ(std::memcmp(rb.data(), b.data(), b.size()), 0);
    EXPECT_TRUE(c.read("empty").empty());
    EXPECT_THROW(c.read("missing"), CheckError);
    if (mode == io::Container::ReadMode::Mmap) {
      const auto vb = c.view("b");  // zero-copy random access
      ASSERT_EQ(vb.size(), b.size());
      EXPECT_EQ(std::memcmp(vb.data(), b.data(), b.size()), 0);
    }
    EXPECT_THROW(c.append("x", "x", 1), CheckError);  // read-only
  }
}

TEST(Container, AppendSupersedesAndTracksDeadBytes) {
  TmpDir tmp;
  const std::string path = tmp.path + "/c.sfgc";
  {
    io::Container c = io::Container::create(path);
    c.append("k", "old-bytes", 9);
    c.append("k", "new", 3);
    c.commit();
  }
  io::Container c = io::Container::open_ro(path);
  ASSERT_EQ(c.chunks().size(), 1u);
  const auto r = c.read("k");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(std::memcmp(r.data(), "new", 3), 0);
  EXPECT_GT(c.dead_bytes(), 0u);  // the superseded record's bytes

  // open_rw over an existing container keeps appending.
  {
    io::Container w = io::Container::open_rw(path);
    w.append("k2", "more", 4);
    w.commit();
  }
  io::Container again = io::Container::open_ro(path);
  EXPECT_EQ(again.chunks().size(), 2u);
  EXPECT_EQ(std::memcmp(again.read("k").data(), "new", 3), 0);
}

TEST(Container, UncommittedAppendsAreInvisibleOnDisk) {
  TmpDir tmp;
  const std::string path = tmp.path + "/c.sfgc";
  io::Container w = io::Container::create(path);
  w.append("k", "payload", 7);
  EXPECT_TRUE(w.dirty());
  // No commit yet: the on-disk file has no footer, so a reader must
  // reject it wholesale (a rank killed mid-write leaves exactly this).
  EXPECT_THROW(io::Container::open_ro(path), CheckError);
  w.commit();
  EXPECT_FALSE(w.dirty());
  EXPECT_NO_THROW(io::Container::open_ro(path));
  EXPECT_THROW(io::Container::open_ro(tmp.path + "/absent.sfgc"),
               CheckError);
}

// The satellite-4 sweep: a commit torn at ANY byte offset — and trailing
// garbage after the footer — must reject the whole container.
TEST(Container, TruncationSweepRejectsEveryPrefix) {
  TmpDir tmp;
  const std::string path = tmp.path + "/c.sfgc";
  {
    io::Container c = io::Container::create(path);
    c.append("alpha", "0123456789", 10);
    c.append("beta", "abcdef", 6);
    c.commit();
  }
  const std::vector<char> whole = slurp(path);
  ASSERT_GT(whole.size(), 100u);
  const std::string trunc = tmp.path + "/trunc.sfgc";
  for (std::size_t len = 0; len < whole.size(); ++len) {
    spit(trunc, {whole.begin(), whole.begin() + static_cast<long>(len)});
    EXPECT_THROW(io::Container::open_ro(trunc), CheckError)
        << "prefix of " << len << " bytes was accepted";
    EXPECT_THROW(io::Container::open_ro(trunc, io::Container::ReadMode::Mmap),
                 CheckError)
        << "mmap accepted a prefix of " << len << " bytes";
  }
  // Footer not at EOF (torn append after the last commit).
  std::vector<char> padded = whole;
  padded.push_back('\0');
  spit(trunc, padded);
  EXPECT_THROW(io::Container::open_ro(trunc), CheckError);
}

// Flip every byte of a committed container: each flip must be caught at
// open or at chunk read — except bytes no reader can vouch for (the
// reserved header word, a record's inline name copy and trailing CRC,
// which are write-side redundancy; the INDEX copy is authoritative).
TEST(Container, BitFlipSweepIsDetected) {
  TmpDir tmp;
  const std::string path = tmp.path + "/c.sfgc";
  {
    io::Container c = io::Container::create(path);
    c.append("alpha", "0123456789", 10);
    c.append("beta", "abcdef", 6);
    c.commit();
  }
  std::set<std::uint64_t> exempt;
  for (std::uint64_t off = 12; off < 16; ++off) exempt.insert(off);
  {
    io::Container c = io::Container::open_ro(path);
    for (const io::ChunkInfo& ci : c.chunks()) {
      for (std::uint64_t o = 0; o < ci.name.size(); ++o)
        exempt.insert(ci.offset + 16 + o);  // record's inline name copy
      for (std::uint64_t o = 0; o < 4; ++o)
        exempt.insert(ci.offset + 16 + ci.name.size() + ci.bytes + o);
    }
  }
  const std::vector<char> whole = slurp(path);
  const std::string flip = tmp.path + "/flip.sfgc";
  int detected = 0;
  for (std::size_t off = 0; off < whole.size(); ++off) {
    std::vector<char> bad = whole;
    bad[off] = static_cast<char>(bad[off] ^ 0xff);
    spit(flip, bad);
    bool caught = false;
    try {
      io::Container c = io::Container::open_ro(flip);
      for (const io::ChunkInfo& ci : c.chunks()) c.read(ci.name);
    } catch (const CheckError&) {
      caught = true;
    }
    if (caught)
      ++detected;
    else
      EXPECT_TRUE(exempt.count(off))
          << "flip at offset " << off << " went undetected";
  }
  EXPECT_GT(detected, static_cast<int>(whole.size() * 3 / 4));
}

// ---------------------------------------------------------------------------
// Conversion CLI library: per-rank files <-> container, bit for bit
// ---------------------------------------------------------------------------

TEST(Ioconv, PackUnpackReproducesEveryFileBitForBit) {
  TmpDir tmp;
  const std::string src = tmp.path + "/src";
  fs::create_directories(src + "/sub/deep");
  std::vector<char> binary(3000);
  for (std::size_t i = 0; i < binary.size(); ++i)
    binary[i] = static_cast<char>((i * 131 + 7) % 256);
  spit(src + "/a.bin", binary);
  spit(src + "/empty.dat", {});
  spit(src + "/sub/deep/c.txt", {'t', 'e', 'x', 't', '\n'});

  const std::string cont = tmp.path + "/packed.sfgc";
  const io::ConvStats packed = io::pack_directory(src, cont, true);
  EXPECT_EQ(packed.files, 3);
  EXPECT_EQ(packed.bytes, binary.size() + 0 + 5);
  EXPECT_EQ(io::verify_container(cont).files, 3);

  const std::string dst = tmp.path + "/dst";
  const io::ConvStats unpacked = io::unpack_container(cont, dst, true);
  EXPECT_EQ(unpacked.files, 3);
  for (const char* rel : {"a.bin", "empty.dat", "sub/deep/c.txt"})
    EXPECT_EQ(slurp(src + "/" + rel), slurp(dst + "/" + rel)) << rel;
  EXPECT_EQ(directory_file_count(dst), 3);
}

TEST(Ioconv, MeshContainerMatchesPackedLegacyFilesBitForBit) {
  TmpDir tmp;
  const GlobeSlice slice = small_prem_slice();

  // Leg 1: legacy per-rank files, packed into a container by the CLI path.
  const std::string legacy = tmp.path + "/legacy";
  const std::uint64_t legacy_bytes =
      write_legacy_mesh_files(legacy, 0, slice);
  ASSERT_EQ(directory_file_count(legacy), kLegacyFilesPerRank);
  const std::string packed = tmp.path + "/packed.sfgc";
  const io::ConvStats ps = io::pack_directory(legacy, packed, true);
  EXPECT_EQ(ps.files, kLegacyFilesPerRank);
  EXPECT_EQ(ps.bytes, legacy_bytes);

  // Leg 2: the same slice written DIRECTLY to a container.
  const std::string direct = tmp.path + "/direct.sfgc";
  {
    io::Container c = io::Container::create(direct);
    EXPECT_EQ(write_mesh_container(c, 0, slice), legacy_bytes);
    c.commit();
  }

  // Same chunk names, same payload bytes — the formats are convertible
  // without loss in either direction.
  io::Container a = io::Container::open_ro(packed);
  io::Container b = io::Container::open_ro(direct, io::Container::ReadMode::Mmap);
  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  std::set<std::string> names;
  for (const io::ChunkInfo& ci : a.chunks()) names.insert(ci.name);
  for (const io::ChunkInfo& ci : b.chunks()) {
    ASSERT_TRUE(names.count(ci.name)) << ci.name;
    EXPECT_EQ(a.read(ci.name), b.read(ci.name)) << ci.name;
  }

  // And the direct container unpacks into files identical to the legacy
  // writer's output.
  const std::string unpacked = tmp.path + "/unpacked";
  io::unpack_container(direct, unpacked, true);
  for (const auto& entry : fs::recursive_directory_iterator(legacy))
    if (entry.is_regular_file()) {
      const std::string rel =
          fs::relative(entry.path(), legacy).string();
      EXPECT_EQ(slurp(entry.path().string()),
                slurp(unpacked + "/" + rel))
          << rel;
    }

  // The in-memory read path agrees with the legacy reader.
  const GlobeSlice back = read_mesh_container(b, 0);
  const GlobeSlice filed = read_legacy_mesh_files(legacy, 0);
  EXPECT_EQ(back.mesh.xstore, filed.mesh.xstore);
  EXPECT_EQ(back.mesh.ibool, filed.mesh.ibool);
  EXPECT_EQ(back.mesh.jacobian, filed.mesh.jacobian);
  EXPECT_EQ(back.materials.rho, filed.materials.rho);
  EXPECT_EQ(back.materials.element_is_fluid,
            filed.materials.element_is_fluid);
  EXPECT_EQ(back.boundary_keys, filed.boundary_keys);
}

// ---------------------------------------------------------------------------
// Satellite 3: read_array bounds checks against the actual file size
// ---------------------------------------------------------------------------

TEST(MeshFiles, TruncatedArrayFileIsRejected) {
  TmpDir tmp;
  const GlobeSlice slice = small_prem_slice();
  write_legacy_mesh_files(tmp.path, 5, slice);
  const std::string victim = tmp.path + "/proc000005_xstore.bin";

  // Payload shorter than the header's count promises.
  std::vector<char> bytes = slurp(victim);
  ASSERT_GT(bytes.size(), 24u);
  spit(victim, {bytes.begin(), bytes.end() - 8});
  try {
    read_legacy_mesh_files(tmp.path, 5);
    FAIL() << "truncated mesh array accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }

  // Count field inflated to promise more values than any file could hold:
  // the count*sizeof(T) product would overflow without the division-form
  // bounds check.
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
  spit(victim, bytes);
  EXPECT_THROW(read_legacy_mesh_files(tmp.path, 5), CheckError);

  // Trailing junk after the promised payload is rejected too.
  bytes = slurp(tmp.path + "/proc000005_ystore.bin");
  bytes.push_back('x');
  spit(tmp.path + "/proc000005_ystore.bin", bytes);
  EXPECT_THROW(read_legacy_mesh_files(tmp.path, 5), CheckError);
}

// ---------------------------------------------------------------------------
// BlobStore backends
// ---------------------------------------------------------------------------

TEST(BlobStore, DirectoryAndContainerBackendsAgree) {
  TmpDir tmp;
  const std::vector<std::pair<std::string, std::string>> blobs = {
      {"rank0.snap", "payload-zero"},
      {"rank1.snap", "payload-one-longer"},
      {"note", ""}};
  auto dir_store = io::make_store(io::IoBackendKind::PerRankFiles,
                                  tmp.path + "/dir");
  auto cont_store =
      io::make_store(io::IoBackendKind::Container, tmp.path + "/cont");
  for (io::BlobStore* s : {dir_store.get(), cont_store.get()}) {
    for (const auto& [k, v] : blobs) s->write(k, v.data(), v.size());
    for (const auto& [k, v] : blobs) {
      ASSERT_TRUE(s->contains(k)) << s->describe();
      const auto r = s->read(k);
      ASSERT_EQ(r.size(), v.size());
      if (!v.empty()) EXPECT_EQ(std::memcmp(r.data(), v.data(), v.size()), 0);
    }
    EXPECT_FALSE(s->contains("missing"));
    EXPECT_THROW(s->read("missing"), CheckError);
    // Keys must be flat names: no escaping the store.
    EXPECT_THROW(s->write("../escape", "x", 1), CheckError);
    EXPECT_THROW(s->write("a/b", "x", 1), CheckError);
    std::vector<std::string> keys = s->list();
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(keys, (std::vector<std::string>{"note", "rank0.snap",
                                              "rank1.snap"}));
    // Overwrite replaces content.
    s->write("rank0.snap", "v2", 2);
    EXPECT_EQ(std::memcmp(s->read("rank0.snap").data(), "v2", 2), 0);
  }
  // The Figure 5 metric: O(blobs) files vs O(1).
  EXPECT_EQ(dir_store->file_count(), 3);
  EXPECT_EQ(cont_store->file_count(), 1);

  // A reopened container store serves the previous blobs.
  io::ContainerStore reopened(tmp.path + "/cont.sfgc");
  EXPECT_EQ(std::memcmp(reopened.read("rank0.snap").data(), "v2", 2), 0);
  EXPECT_EQ(reopened.list().size(), 3u);

  // Batched write: many blobs under one commit.
  std::vector<std::pair<std::string, std::vector<std::byte>>> batch;
  for (int i = 0; i < 4; ++i)
    batch.emplace_back("batch" + std::to_string(i),
                       std::vector<std::byte>(7, static_cast<std::byte>(i)));
  reopened.write_batch(batch);
  EXPECT_EQ(reopened.list().size(), 7u);
  EXPECT_EQ(reopened.file_count(), 1);
}

TEST(BlobStore, ConcurrentContainerWritersSerialize) {
  TmpDir tmp;
  io::ContainerStore store(tmp.path + "/shared.sfgc");
  constexpr int kThreads = 8;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&store, t] {
      const std::string payload(64 + t, static_cast<char>('A' + t));
      store.write("rank" + std::to_string(t) + ".snap", payload.data(),
                  payload.size());
    });
  for (auto& t : ts) t.join();
  io::Container check = io::Container::open_ro(tmp.path + "/shared.sfgc");
  ASSERT_EQ(check.chunks().size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    const auto r = check.read("rank" + std::to_string(t) + ".snap");
    ASSERT_EQ(r.size(), static_cast<std::size_t>(64 + t));
    for (const std::byte b : r)
      ASSERT_EQ(static_cast<char>(b), static_cast<char>('A' + t));
  }
}

// ---------------------------------------------------------------------------
// Satellites 1+2: the unique-tmp durable write protocol
// ---------------------------------------------------------------------------

TEST(FileUtil, UniqueTmpPathsNeverCollide) {
  std::set<std::string> seen;
  for (int i = 0; i < 100; ++i)
    EXPECT_TRUE(seen.insert(io::unique_tmp_path("/x/target")).second);
  const std::string one = io::unique_tmp_path("/x/target");
  EXPECT_EQ(one.find("/x/target.tmp."), 0u);
}

TEST(FileUtil, ConcurrentWritersOfOnePathNeverTearAndLeaveNoLitter) {
  TmpDir tmp;
  const std::string target = tmp.path + "/contested.bin";
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<std::string> payloads;
  for (int t = 0; t < kThreads; ++t)
    payloads.push_back(std::string(512 + 17 * t, static_cast<char>('a' + t)));
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r)
        io::atomic_write_file(target, payloads[static_cast<std::size_t>(t)].data(),
                              payloads[static_cast<std::size_t>(t)].size());
    });
  for (auto& t : ts) t.join();
  // The survivor is EXACTLY one writer's payload — rename atomicity plus
  // unique tmp names make interleaved torn output impossible.
  const std::vector<char> got = slurp(target);
  bool matches_one = false;
  for (const std::string& p : payloads)
    matches_one |= (got.size() == p.size() &&
                    std::memcmp(got.data(), p.data(), p.size()) == 0);
  EXPECT_TRUE(matches_one) << "torn write: " << got.size() << " bytes";
  // No .tmp litter: every temporary was renamed or unlinked.
  EXPECT_EQ(directory_file_count(tmp.path), 1);
}

TEST(FileUtil, FailedWriteRemovesItsTemporary) {
  TmpDir tmp;
  // Target's parent directory does not exist: open fails, nothing litters.
  EXPECT_THROW(
      io::atomic_write_file(tmp.path + "/no_dir/x.bin", "data", 4),
      CheckError);
  EXPECT_EQ(directory_file_count(tmp.path), 0);
}

// ---------------------------------------------------------------------------
// Checkpoints through the store vtable: byte and physics identity
// ---------------------------------------------------------------------------

MaterialSample rock_sample() {
  MaterialSample s;
  s.rho = 2500.0;
  s.vp = 3000.0;
  s.vs = 1800.0;
  s.q_mu = 0.0;
  return s;
}

io::SnapshotIdentity box_identity() {
  io::SnapshotIdentity id;
  id.nex = 4;
  id.nproc = 1;
  id.nchunks = 1;
  return id;
}

std::unique_ptr<Simulation> make_box_sim(const GllBasis& basis,
                                         HexMesh& mesh,
                                         MaterialFields& mat) {
  SimulationConfig cfg;
  cfg.dt = 1.5e-3;
  auto sim = std::make_unique<Simulation>(mesh, basis, mat, cfg);
  PointSource src;
  src.x = 320.0;
  src.y = 480.0;
  src.z = 510.0;
  src.force = {1e9, 5e8, 0.0};
  src.stf = ricker_wavelet(14.0, 0.09);
  sim->add_source(src);
  sim->add_receiver(700.0, 510.0, 480.0);
  return sim;
}

TEST(CheckpointStore, BackendsStoreIdenticalBytesAndRestoreBitIdentically) {
  TmpDir tmp;
  GllBasis basis(4);
  CartesianBoxSpec spec;
  spec.nx = spec.ny = spec.nz = 4;
  spec.lx = spec.ly = spec.lz = 1000.0;
  HexMesh mesh = build_cartesian_box(spec, basis);
  MaterialFields mat =
      assign_materials(mesh, [](double, double, double) { return rock_sample(); });

  auto sim = make_box_sim(basis, mesh, mat);
  for (int s = 0; s < 5; ++s) sim->step();

  const std::string path = tmp.path + "/direct.snap";
  io::DirectoryStore dstore(tmp.path + "/per_rank");
  io::ContainerStore cstore(tmp.path + "/checkpoints.sfgc");
  sim->write_checkpoint(path, box_identity());
  sim->write_checkpoint(dstore, "rank0.snap", box_identity());
  sim->write_checkpoint(cstore, "rank0.snap", box_identity());

  // One serialization, three placements: the bytes are identical.
  const std::vector<char> direct = slurp(path);
  const auto from_dir = dstore.read("rank0.snap");
  const auto from_cont = cstore.read("rank0.snap");
  ASSERT_EQ(from_dir.size(), direct.size());
  ASSERT_EQ(from_cont.size(), direct.size());
  EXPECT_EQ(std::memcmp(from_dir.data(), direct.data(), direct.size()), 0);
  EXPECT_EQ(std::memcmp(from_cont.data(), direct.data(), direct.size()), 0);

  // Restoring from the container continues the run bit-identically to the
  // uninterrupted one.
  for (int s = 5; s < 12; ++s) sim->step();
  const Seismogram want = sim->seismogram(0);

  auto resumed = make_box_sim(basis, mesh, mat);
  resumed->restore_checkpoint(cstore, "rank0.snap", box_identity());
  EXPECT_EQ(resumed->step_count(), 5);
  for (int s = 5; s < 12; ++s) resumed->step();
  const Seismogram got = resumed->seismogram(0);
  ASSERT_EQ(got.displ.size(), want.displ.size());
  for (std::size_t i = 0; i < got.displ.size(); ++i)
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(got.displ[i][static_cast<std::size_t>(c)],
                want.displ[i][static_cast<std::size_t>(c)]);

  // Identity mismatch through the store path is rejected like the file
  // path rejects it.
  io::SnapshotIdentity wrong = box_identity();
  wrong.nex = 8;
  auto fresh = make_box_sim(basis, mesh, mat);
  EXPECT_THROW(fresh->restore_checkpoint(cstore, "rank0.snap", wrong),
               CheckError);
}

// ---------------------------------------------------------------------------
// Out-of-core MeshCache spill through the container
// ---------------------------------------------------------------------------

TEST(MeshCache, SpillsLruSlicesAndReloadsThemIntact) {
  TmpDir tmp;
  GllBasis basis(4);
  service::MeshCache cache(basis);
  cache.configure_spill(tmp.path + "/mesh_cache", 1);

  service::JobRequest a;
  a.nex = 3;
  service::JobRequest b;
  b.nex = 4;

  auto sa = cache.get(a, 0);  // build A
  const auto ax = sa->mesh.xstore;
  const auto ai = sa->mesh.ibool;
  const auto ar = sa->materials.rho;

  auto sb = cache.get(b, 0);  // build B; A is now over-cap and spills
  EXPECT_GE(cache.spills(), 1u);
  EXPECT_LE(cache.resident(), 1u);

  auto sa2 = cache.get(a, 0);  // A comes back from the container
  EXPECT_GE(cache.spill_hits(), 1u);
  EXPECT_EQ(sa2->mesh.xstore, ax);
  EXPECT_EQ(sa2->mesh.ibool, ai);
  EXPECT_EQ(sa2->materials.rho, ar);
  EXPECT_EQ(sa2->mesh.nspec, sa->mesh.nspec);
  EXPECT_EQ(sa2->mesh.nglob, sa->mesh.nglob);

  // The spill store is ONE container file.
  EXPECT_EQ(directory_file_count(tmp.path), 1);
}

// ---------------------------------------------------------------------------
// End to end: a container-backend campaign occupies O(1) files
// ---------------------------------------------------------------------------

TEST(Campaign, ContainerBackendKeepsWholeCampaignInOneFile) {
  TmpDir tmp;
  service::FrontendConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = 2;
  cfg.work_dir = tmp.path + "/camp";
  cfg.io_backend = io::IoBackendKind::Container;

  service::JobRequest base;
  base.nex = 4;
  base.source = {320.0, 480.0, 510.0, {1e9, 5e8, 0.0}, 14.0, 0.09};
  base.stations = {{700.0, 510.0, 480.0}};
  base.nsteps = 12;

  {
    service::ShardedFrontend svc(cfg);
    for (int i = 0; i < 3; ++i) {
      service::JobRequest r = base;
      r.source.z = 500.0 + 10.0 * i;
      r.nranks = (i == 2) ? 2 : 1;
      if (i == 2) {  // exercise the container scratch-checkpoint path
        r.checkpoint_interval_steps = 4;
        r.fault = {1, 8};
      }
      svc.submit(r);
    }
    svc.wait_all();
    for (const service::FrontendJob& j : svc.jobs())
      ASSERT_EQ(j.state, service::JobState::Done) << j.error;
    EXPECT_EQ(svc.store().size(), 3u);
    EXPECT_EQ(svc.store().file_count(), 1);
    // Scratch checkpoints are cleaned up on success; the surviving
    // footprint of the whole campaign is the one results container.
    EXPECT_EQ(directory_file_count(cfg.work_dir), 1);
    const service::FrontendJob faulted = svc.jobs()[2];
    EXPECT_EQ(faulted.attempts, 2);
    EXPECT_GT(faulted.resumed_from_step, 0);  // resumed via the container
  }

  // A fresh service over the same work dir serves the cache from the
  // container (cross-campaign reuse through the sfg_io layer).
  service::ShardedFrontend svc2(cfg);
  service::JobRequest r = base;
  r.source.z = 500.0;
  svc2.submit(r);
  svc2.wait_all();
  EXPECT_EQ(svc2.stats().cache_hits, 1u);
}

// ---------------------------------------------------------------------------
// ResultStore over the container backend
// ---------------------------------------------------------------------------

TEST(ResultStore, ContainerBackendRoundTripsAndReopens) {
  TmpDir tmp;
  Seismogram seis;
  for (int i = 0; i < 32; ++i) {
    seis.time.push_back(0.01 * i);
    seis.displ.push_back({1.0 * i, -2.0 * i, 0.5 * i});
  }
  service::JobResult result;
  result.seismograms = {seis};
  const service::RequestKey key = 0x1234abcd5678ef90ull;
  {
    // A store closed before its first write (e.g. a front-end whose only
    // job failed) must reopen as empty, not as a truncated container.
    service::ResultStore never_written(tmp.path, io::IoBackendKind::Container);
  }
  {
    service::ResultStore store(tmp.path, io::IoBackendKind::Container);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.contains(key));
    store.store(key, result);
    EXPECT_TRUE(store.contains(key));
    EXPECT_EQ(store.file_count(), 1);
  }
  service::ResultStore reopened(tmp.path, io::IoBackendKind::Container);
  ASSERT_TRUE(reopened.contains(key));
  const auto loaded = reopened.load(key);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->seismograms.size(), 1u);
  EXPECT_EQ(loaded->seismograms[0].time, seis.time);
  EXPECT_EQ(loaded->seismograms[0].displ, seis.displ);
  EXPECT_EQ(reopened.size(), 1u);
}

}  // namespace
}  // namespace sfg
