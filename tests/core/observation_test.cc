#include "core/observation.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace rockhopper::core {
namespace {

Observation Obs(double runtime, double data_size = 1.0) {
  Observation o;
  o.config = {1.0, 2.0, 3.0};
  o.data_size = data_size;
  o.runtime = runtime;
  o.iteration = -1;
  return o;
}

TEST(ObservationStoreTest, AppendAssignsIterations) {
  ObservationStore store;
  store.Append(7, Obs(10.0));
  store.Append(7, Obs(20.0));
  store.Append(7, Obs(30.0));
  const auto& history = store.History(7);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].iteration, 0);
  EXPECT_EQ(history[2].iteration, 2);
}

TEST(ObservationStoreTest, ExplicitIterationPreserved) {
  ObservationStore store;
  Observation o = Obs(10.0);
  o.iteration = 42;
  store.Append(1, o);
  EXPECT_EQ(store.History(1)[0].iteration, 42);
}

TEST(ObservationStoreTest, SignaturesAreIsolated) {
  ObservationStore store;
  store.Append(1, Obs(10.0));
  store.Append(2, Obs(99.0));
  EXPECT_EQ(store.Count(1), 1u);
  EXPECT_EQ(store.Count(2), 1u);
  EXPECT_DOUBLE_EQ(store.History(1)[0].runtime, 10.0);
  EXPECT_DOUBLE_EQ(store.History(2)[0].runtime, 99.0);
}

TEST(ObservationStoreTest, UnknownSignatureIsEmpty) {
  ObservationStore store;
  EXPECT_TRUE(store.History(404).empty());
  EXPECT_EQ(store.Count(404), 0u);
  EXPECT_TRUE(store.LastN(404, 5).empty());
}

TEST(ObservationStoreTest, LastNReturnsSuffix) {
  ObservationStore store;
  for (int i = 0; i < 10; ++i) store.Append(3, Obs(i));
  const ObservationWindow w = store.LastN(3, 4);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0].runtime, 6.0);
  EXPECT_DOUBLE_EQ(w[3].runtime, 9.0);
  // Asking for more than exists returns everything.
  EXPECT_EQ(store.LastN(3, 100).size(), 10u);
}

TEST(ObservationStoreTest, SignaturesListsAllKeys) {
  ObservationStore store;
  store.Append(5, Obs(1.0));
  store.Append(9, Obs(2.0));
  const std::vector<uint64_t> sigs = store.Signatures();
  EXPECT_EQ(sigs.size(), 2u);
}

TEST(ObservationPersistenceTest, ExportImportRoundTrip) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  ObservationStore store;
  common::Rng rng(1);
  const uint64_t sig_a = 0xdeadbeefcafef00dULL;  // full 64-bit signature
  const uint64_t sig_b = 17;
  for (int i = 0; i < 5; ++i) {
    Observation o;
    o.config = space.Sample(&rng);
    o.data_size = rng.Uniform(0.5, 3.0);
    o.runtime = rng.Uniform(10.0, 100.0);
    store.Append(sig_a, o);
    if (i < 2) store.Append(sig_b, o);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "rockhopper_obs.csv")
          .string();
  ASSERT_TRUE(ExportObservations(space, store, path).ok());
  Result<ImportedObservations> loaded = ImportObservations(space, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->skipped_rows, 0u);
  EXPECT_EQ(loaded->store.Count(sig_a), 5u);
  EXPECT_EQ(loaded->store.Count(sig_b), 2u);
  for (size_t i = 0; i < 5; ++i) {
    const Observation& orig = store.History(sig_a)[i];
    const Observation& back = loaded->store.History(sig_a)[i];
    EXPECT_EQ(back.iteration, orig.iteration);
    EXPECT_EQ(back.failed, orig.failed);
    EXPECT_NEAR(back.runtime, orig.runtime, 1e-4 * orig.runtime);
    EXPECT_NEAR(back.config[2], orig.config[2], 1e-3);
  }
  std::remove(path.c_str());
}

TEST(ObservationPersistenceTest, ImportRejectsWrongSchema) {
  const sparksim::ConfigSpace query = sparksim::QueryLevelSpace();
  const sparksim::ConfigSpace joint = sparksim::JointSpace();
  ObservationStore store;
  Observation o = Obs(1.0);
  store.Append(1, o);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rockhopper_obs2.csv")
          .string();
  ASSERT_TRUE(ExportObservations(query, store, path).ok());
  EXPECT_FALSE(ImportObservations(joint, path).ok());
  std::remove(path.c_str());
}

TEST(ObservationPersistenceTest, ImportSkipsCorruptRowsWithCount) {
  // A corrupt event file (NaN, negative, zero, and infinite runtimes/sizes)
  // must not poison a replay: bad rows are skipped and counted, good
  // rows survive.
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::ostringstream csv;
  csv << "signature,iteration,data_size,runtime,failed";
  for (const sparksim::ParamSpec& p : space.params()) csv << "," << p.name;
  const std::string config_cells = ",100000,100000,100";
  csv << "\n7,0,1.0,50.0,0" << config_cells;       // good
  csv << "\n7,1,1.0,nan,0" << config_cells;        // NaN runtime
  csv << "\n7,2,1.0,-3.0,0" << config_cells;       // negative runtime
  csv << "\n7,3,0.0,40.0,0" << config_cells;       // zero data size
  csv << "\n7,4,inf,40.0,0" << config_cells;       // infinite data size
  csv << "\n7,5,1.0,45.0,1" << config_cells;       // good (failed run)
  const std::string path =
      (std::filesystem::temp_directory_path() / "rockhopper_corrupt.csv")
          .string();
  {
    std::ofstream out(path);
    out << csv.str() << "\n";
  }
  Result<ImportedObservations> loaded = ImportObservations(space, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->skipped_rows, 4u);
  ASSERT_EQ(loaded->store.Count(7), 2u);
  EXPECT_DOUBLE_EQ(loaded->store.History(7)[0].runtime, 50.0);
  EXPECT_FALSE(loaded->store.History(7)[0].failed);
  EXPECT_TRUE(loaded->store.History(7)[1].failed);
  std::remove(path.c_str());
}

TEST(ObservationPersistenceTest, ImportAcceptsPreFailedColumnFiles) {
  // Event files written before the `failed` column existed still load.
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  std::ostringstream csv;
  csv << "signature,iteration,data_size,runtime";
  for (const sparksim::ParamSpec& p : space.params()) csv << "," << p.name;
  csv << "\n9,0,1.0,25.0,100000,100000,100\n";
  const std::string path =
      (std::filesystem::temp_directory_path() / "rockhopper_legacy.csv")
          .string();
  {
    std::ofstream out(path);
    out << csv.str();
  }
  Result<ImportedObservations> loaded = ImportObservations(space, path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->store.Count(9), 1u);
  EXPECT_FALSE(loaded->store.History(9)[0].failed);
  std::remove(path.c_str());
}

TEST(ObservationPersistenceTest, ExportRejectsMismatchedConfigWidth) {
  const sparksim::ConfigSpace space = sparksim::QueryLevelSpace();
  ObservationStore store;
  Observation o;
  o.config = {1.0};  // wrong width
  store.Append(1, o);
  EXPECT_FALSE(
      ExportObservations(space, store, "/tmp/rockhopper_never.csv").ok());
}

TEST(ObservationRetentionTest, WindowBoundsHistoryAndKeepsIterationNumbers) {
  ObservationStore store;
  store.SetRetention(4);
  for (int i = 0; i < 10; ++i) store.Append(7, Obs(1.0 + i));
  EXPECT_EQ(store.Count(7), 4u);
  EXPECT_EQ(store.TotalAppended(7), 10u);
  EXPECT_EQ(store.TruncatedTotal(), 6u);
  const std::vector<Observation>& history = store.History(7);
  ASSERT_EQ(history.size(), 4u);
  // Auto-assigned iteration numbering never repeats across truncation.
  EXPECT_EQ(history.front().iteration, 6);
  EXPECT_EQ(history.back().iteration, 9);
  EXPECT_DOUBLE_EQ(history.back().runtime, 10.0);
}

TEST(ObservationRetentionTest, RetroactiveTruncationAndByteAccounting) {
  ObservationStore store;
  for (int i = 0; i < 100; ++i) store.Append(3, Obs(1.0));
  const size_t full_bytes = store.ApproxBytes();
  EXPECT_GT(full_bytes, 0u);
  store.SetRetention(10);
  EXPECT_EQ(store.Count(3), 10u);
  EXPECT_EQ(store.TotalAppended(3), 100u);
  // Byte accounting shrinks proportionally with the dropped rows.
  EXPECT_EQ(store.ApproxBytes(), full_bytes / 10);
  store.SetRetention(0);
  for (int i = 0; i < 5; ++i) store.Append(3, Obs(1.0));
  EXPECT_EQ(store.Count(3), 15u);
}

TEST(ObservationRetentionTest, LastNSeesOnlyRetainedWindow) {
  ObservationStore store;
  store.SetRetention(3);
  for (int i = 0; i < 6; ++i) store.Append(1, Obs(10.0 + i));
  ObservationWindow w = store.LastN(1, 5);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.front().runtime, 13.0);
  EXPECT_DOUBLE_EQ(w.back().runtime, 15.0);
}

TEST(MinRuntimeTest, FindsMinimumAndRejectsEmpty) {
  ObservationWindow w = {Obs(5.0), Obs(2.0), Obs(9.0)};
  Result<double> r = MinRuntime(w);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 2.0);
  EXPECT_FALSE(MinRuntime({}).ok());
}

}  // namespace
}  // namespace rockhopper::core
