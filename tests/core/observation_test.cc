#include "core/observation.h"

#include <gtest/gtest.h>

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
