// Unit tests for the stats module: time series semantics, Jain index,
// flow tracking and CSV emission.
#include <gtest/gtest.h>

#include <sstream>

#include "net/types.h"
#include "stats/csv_writer.h"
#include "stats/fairness.h"
#include "stats/flow_tracker.h"
#include "stats/time_series.h"

namespace corelite::stats {
namespace {

// ---------------------------------------------------------------------------
// TimeSeries

TEST(TimeSeries, StepValueSemantics) {
  TimeSeries ts;
  ts.add(1.0, 10.0);
  ts.add(3.0, 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.5), 0.0);   // before first sample
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 10.0);  // right-continuous
  EXPECT_DOUBLE_EQ(ts.value_at(2.999), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(3.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100.0), 20.0);
}

TEST(TimeSeries, AverageOverIsTimeWeighted) {
  TimeSeries ts;
  ts.add(0.0, 10.0);
  ts.add(1.0, 30.0);
  // [0,2]: 10 for 1 s + 30 for 1 s => mean 20.
  EXPECT_DOUBLE_EQ(ts.average_over(0.0, 2.0), 20.0);
  // [0.5, 1.5]: 10 for 0.5 + 30 for 0.5 => mean 20.
  EXPECT_DOUBLE_EQ(ts.average_over(0.5, 1.5), 20.0);
  // [1, 2]: constant 30.
  EXPECT_DOUBLE_EQ(ts.average_over(1.0, 2.0), 30.0);
}

TEST(TimeSeries, AverageOfEmptyIsZero) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.average_over(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(5.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.last_value(), 0.0);
}

TEST(TimeSeries, MinMaxOverWindow) {
  TimeSeries ts;
  ts.add(0.0, 5.0);
  ts.add(1.0, 1.0);
  ts.add(2.0, 9.0);
  ts.add(3.0, 4.0);
  EXPECT_DOUBLE_EQ(ts.min_over(0.5, 2.5), 1.0);
  EXPECT_DOUBLE_EQ(ts.max_over(0.5, 2.5), 9.0);
  // Sample-free window: the step function still carries the last value
  // (4.0 from t=3) across it, consistent with value_at/average_over.
  EXPECT_DOUBLE_EQ(ts.min_over(10.0, 20.0), 4.0);
  EXPECT_DOUBLE_EQ(ts.max_over(10.0, 20.0), 4.0);
}

TEST(TimeSeries, MinMaxIncludeValueCarriedIntoWindow) {
  TimeSeries ts;
  ts.add(0.0, 7.0);
  ts.add(5.0, 2.0);
  // (1, 4] has no samples, but the series is 7.0 throughout.
  EXPECT_DOUBLE_EQ(ts.min_over(1.0, 4.0), 7.0);
  EXPECT_DOUBLE_EQ(ts.max_over(1.0, 4.0), 7.0);
  // A window straddling a sample sees both the carried-in and the new value.
  EXPECT_DOUBLE_EQ(ts.min_over(1.0, 6.0), 2.0);
  EXPECT_DOUBLE_EQ(ts.max_over(1.0, 6.0), 7.0);
  // Before the first sample the series is 0 (value_at semantics).
  TimeSeries late;
  late.add(10.0, 5.0);
  EXPECT_DOUBLE_EQ(late.min_over(0.0, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(late.max_over(0.0, 20.0), 5.0);
  // Empty series and inverted windows stay 0.
  EXPECT_DOUBLE_EQ(TimeSeries{}.min_over(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.max_over(4.0, 1.0), 0.0);
}

// ---------------------------------------------------------------------------
// Jain index

TEST(Fairness, JainPerfectlyFair) {
  const std::vector<double> x{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 1.0);
}

TEST(Fairness, JainMaximallyUnfair) {
  const std::vector<double> x{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 0.25);  // 1/n
}

TEST(Fairness, JainWeightedNormalization) {
  // Rates exactly proportional to weights are perfectly weighted-fair.
  const std::vector<double> rates{10.0, 20.0, 30.0};
  const std::vector<double> weights{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(jain_index(rates, weights), 1.0);
}

TEST(Fairness, JainEmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(jain_index(std::vector<double>{}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

// ---------------------------------------------------------------------------
// FlowTracker

TEST(FlowTracker, CountsAndSeries) {
  FlowTracker t;
  t.declare_flow(1, 2.0);
  t.record_rate(1, sim::SimTime::seconds(0), 10.0);
  t.record_rate(1, sim::SimTime::seconds(1), 20.0);
  t.on_sent(1);
  t.on_sent(1);
  t.on_delivered(1);
  t.on_dropped(1);
  t.on_feedback(1, 3);
  t.sample_cumulative(sim::SimTime::seconds(2));

  const auto& fs = t.series(1);
  EXPECT_DOUBLE_EQ(fs.weight, 2.0);
  EXPECT_EQ(fs.sent, 2u);
  EXPECT_EQ(fs.delivered, 1u);
  EXPECT_EQ(fs.dropped, 1u);
  EXPECT_EQ(fs.feedback_received, 3u);
  EXPECT_DOUBLE_EQ(fs.allotted_rate.value_at(1.5), 20.0);
  EXPECT_DOUBLE_EQ(fs.cumulative_delivered.value_at(2.0), 1.0);
  EXPECT_EQ(t.total_delivered(), 1u);
  EXPECT_EQ(t.total_dropped(), 1u);
}

// ---------------------------------------------------------------------------
// CSV / table writers

TEST(CsvWriter, GridAndHeader) {
  TimeSeries a;
  a.add(0.0, 1.0);
  a.add(1.0, 2.0);
  TimeSeries b;
  b.add(0.5, 10.0);
  std::ostringstream os;
  write_csv(os, {{"a", a}, {"b", b}}, 0.0, 2.0, 1.0);
  EXPECT_EQ(os.str(), "t,a,b\n0,1,0\n1,2,10\n2,2,10\n");
}

TEST(CsvWriter, TableContainsValues) {
  TimeSeries a;
  a.add(0.0, 3.25);
  std::ostringstream os;
  write_table(os, {{"x", a}}, 0.0, 1.0, 1.0);
  const std::string out = os.str();
  EXPECT_NE(out.find("3.25"), std::string::npos);
  EXPECT_NE(out.find("x"), std::string::npos);
}

}  // namespace
}  // namespace corelite::stats
