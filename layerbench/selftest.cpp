// Self-test of the benchmark's correctness checks and workload generators:
// each check must reject a deliberately broken input, and the seeded
// workloads must replay exactly for one seed and change for another.
//
//   layerbench_selftest <checkout root>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "layerbench.hpp"

namespace {

using namespace layerbench;
using sfg::service::FrontendJob;
using sfg::service::FrontendStats;
using sfg::service::JobState;

std::string g_repo = ".";

sfg::Seismogram golden() {
  return read_golden(g_repo + "/tests/golden/globe_nex8_seismogram.txt");
}

double peak(const sfg::Seismogram& s) {
  double p = 0.0;
  for (const auto& u : s.displ)
    for (double c : u) p = std::max(p, std::abs(c));
  return p;
}

TEST(SeismogramCheck, AcceptsTheGoldenAndRoundoff) {
  const sfg::Seismogram ref = golden();
  ASSERT_EQ(ref.time.size(), 150u);
  EXPECT_EQ(check_seismogram(ref, ref, 150), "");
  sfg::Seismogram got = ref;
  got.displ[75][1] += 1e-6 * peak(ref);
  EXPECT_EQ(check_seismogram(ref, got, 150), "");
}

TEST(SeismogramCheck, RejectsPerturbationBeyondTolerance) {
  const sfg::Seismogram ref = golden();
  sfg::Seismogram got = ref;
  got.displ[140][2] -= 1e-5 * peak(ref);
  EXPECT_NE(check_seismogram(ref, got, 150), "");
}

TEST(SeismogramCheck, RejectsShortRecordAndShiftedTimeAxis) {
  const sfg::Seismogram ref = golden();
  sfg::Seismogram short_rec = ref;
  short_rec.time.resize(149);
  short_rec.displ.resize(149);
  EXPECT_NE(check_seismogram(ref, short_rec, 150), "");
  sfg::Seismogram shifted = ref;
  shifted.time[10] *= 1.001;
  EXPECT_NE(check_seismogram(ref, shifted, 150), "");
}

/// A consistent ledger: four submissions of three keys, one of them a
/// cache hit.
void healthy(std::vector<FrontendJob>* jobs, FrontendStats* stats) {
  jobs->assign(4, FrontendJob{});
  for (int i = 0; i < 4; ++i) {
    (*jobs)[static_cast<std::size_t>(i)].id = i;
    (*jobs)[static_cast<std::size_t>(i)].state = JobState::Done;
  }
  *stats = FrontendStats{};
  stats->submitted = 4;
  stats->completed = 4;
  stats->cache_hits = 1;
  stats->executed = 3;
}

TEST(LedgerCheck, AcceptsAConsistentLedger) {
  std::vector<FrontendJob> jobs;
  FrontendStats stats;
  healthy(&jobs, &stats);
  EXPECT_EQ(check_ledger(jobs, stats, 3), "");
}

TEST(LedgerCheck, RejectsALostJob) {
  std::vector<FrontendJob> jobs;
  FrontendStats stats;
  healthy(&jobs, &stats);
  jobs[2].state = JobState::Queued;  // never finished
  stats.completed = 3;
  EXPECT_NE(check_ledger(jobs, stats, 3), "");

  healthy(&jobs, &stats);
  jobs.pop_back();  // submitted, but missing from the ledger
  stats.completed = 3;
  EXPECT_NE(check_ledger(jobs, stats, 3), "");

  healthy(&jobs, &stats);
  stats.completed = 3;  // a terminal job the counters lost
  EXPECT_NE(check_ledger(jobs, stats, 3), "");
}

TEST(LedgerCheck, RejectsExecutedNotEqualDistinctKeys) {
  std::vector<FrontendJob> jobs;
  FrontendStats stats;
  healthy(&jobs, &stats);
  EXPECT_NE(check_ledger(jobs, stats, 2), "");  // a key computed twice
  EXPECT_NE(check_ledger(jobs, stats, 4), "");  // a key never computed
}

TEST(ResultCheck, BitIdentityCatchesOneUlp) {
  sfg::service::JobResult a;
  a.seismograms.resize(2);
  for (auto& s : a.seismograms) {
    s.time = {0.1, 0.2};
    s.displ = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  }
  sfg::service::JobResult b = a;
  EXPECT_TRUE(bit_identical(a, b));
  b.seismograms[1].displ[1][2] = std::nextafter(6.0, 7.0);
  EXPECT_FALSE(bit_identical(a, b));
  b = a;
  b.seismograms.pop_back();
  EXPECT_FALSE(bit_identical(a, b));
}

TEST(Workloads, ZipfReplaysForOneSeedAndChangesForAnother) {
  const auto a = zipf_workload(7, 2.0);
  const auto b = zipf_workload(7, 2.0);
  const auto c = zipf_workload(8, 2.0);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(request_key(a[i].request), request_key(b[i].request));
    if (i < c.size())
      differs = differs || a[i].due_s != c[i].due_s ||
                request_key(a[i].request) != request_key(c[i].request);
  }
  EXPECT_TRUE(differs);
  EXPECT_DOUBLE_EQ(a.back().due_s, 2.0);  // the window is fully offered
  std::set<sfg::service::RequestKey> keys;
  for (const Arrival& x : a) keys.insert(request_key(x.request));
  EXPECT_LT(keys.size(), a.size());  // zipf repeats keys
}

TEST(Workloads, ColdKeysAreDistinctAndSeeded) {
  const auto a = cold_workload(7, 0, 300);
  const auto b = cold_workload(7, 0, 300);
  const auto c = cold_workload(8, 0, 300);
  const auto tail = cold_workload(7, 200, 100);
  std::set<sfg::service::RequestKey> keys;
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    keys.insert(request_key(a[i].request));
    EXPECT_EQ(request_key(a[i].request), request_key(b[i].request));
    EXPECT_EQ(a[i].due_s, 0.0);
    EXPECT_GT(a[i].request.checkpoint_interval_steps, 0);
    differs = differs || request_key(a[i].request) != request_key(c[i].request);
  }
  EXPECT_EQ(keys.size(), a.size());
  EXPECT_TRUE(differs);
  for (std::size_t i = 0; i < tail.size(); ++i)
    EXPECT_EQ(request_key(tail[i].request), request_key(a[200 + i].request));
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer on(true), off(false);
  const int root = on.add("root", 0.0, 10.0);
  on.add("child", 1.0, 3.0, root, 7);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, root);
  EXPECT_EQ(off.add("x", 0.0, 1.0), -1);
  off.end(-1, 2.0);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Stats, TailPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(supported_tail_percentile(1000), 99.0);
  EXPECT_EQ(supported_tail_percentile(200), 95.0);
  EXPECT_EQ(supported_tail_percentile(100), 90.0);
  EXPECT_EQ(supported_tail_percentile(40), 75.0);
  EXPECT_EQ(supported_tail_percentile(10), 50.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

}  // namespace

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  if (argc > 1) g_repo = argv[1];
  return RUN_ALL_TESTS();
}
