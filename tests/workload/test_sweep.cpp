#include "workload/sweep.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workload/paper_configs.hpp"

namespace {

using namespace gs::workload;

TEST(Sweep, CollectsModelResultsPerPoint) {
  const auto make = [](double quantum) {
    PaperKnobs knobs;
    knobs.quantum_mean = quantum;
    return paper_system(knobs);
  };
  const auto pts = sweep({0.5, 1.0, 2.0}, make);
  ASSERT_EQ(pts.size(), 3u);
  for (const auto& pt : pts) {
    EXPECT_TRUE(pt.error.empty());
    ASSERT_EQ(pt.model_n.size(), 4u);
    for (double n : pt.model_n) EXPECT_GT(n, 0.0);
    EXPECT_GE(pt.iterations, 1);
    EXPECT_TRUE(pt.converged);
    EXPECT_TRUE(pt.sim_n.empty());  // simulation not requested
  }
  EXPECT_DOUBLE_EQ(pts[1].x, 1.0);
}

TEST(Sweep, UnstablePointsAreRecordedNotFatal) {
  const auto make = [](double rate) {
    PaperKnobs knobs;
    knobs.arrival_rate = rate;
    return paper_system(knobs);
  };
  const auto pts = sweep({0.4, 1.2}, make);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_TRUE(pts[0].error.empty());
  EXPECT_FALSE(pts[1].error.empty());
  EXPECT_TRUE(pts[1].model_n.empty());
  EXPECT_FALSE(pts[1].converged);
}

TEST(Sweep, SimulationColumnsWhenRequested) {
  const auto make = [](double quantum) {
    PaperKnobs knobs;
    knobs.quantum_mean = quantum;
    return paper_system(knobs);
  };
  SweepOptions opts;
  opts.sim_horizon = 20000.0;
  opts.sim_warmup = 1000.0;
  const auto pts = sweep({1.0}, make, opts);
  ASSERT_EQ(pts.size(), 1u);
  ASSERT_EQ(pts[0].sim_n.size(), 4u);
  // Model and a short simulation agree to the decomposition error.
  for (std::size_t p = 0; p < 4; ++p)
    EXPECT_NEAR(pts[0].model_n[p], pts[0].sim_n[p],
                0.5 * (1.0 + pts[0].sim_n[p]));
}

TEST(Sweep, TableLaysOutPointsAndNotes) {
  const auto make = [](double rate) {
    PaperKnobs knobs;
    knobs.arrival_rate = rate;
    return paper_system(knobs);
  };
  const auto pts = sweep({0.4, 1.5}, make);
  const auto table = sweep_table("rho", pts, 4);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.cols(), 6u);  // x + 4 classes + note
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("unstable"), std::string::npos);
  EXPECT_NE(os.str().find("rho"), std::string::npos);
}

TEST(Sweep, UnconvergedPointsAreFlaggedAndNoted) {
  // Two iterations cannot reach the 1e-6 tolerance on the paper's
  // Figure 2 system: each row keeps its last iterate, is flagged, and
  // the table says so instead of printing it as a normal row.
  const auto make = [](double quantum) {
    PaperKnobs knobs;
    knobs.quantum_mean = quantum;
    return paper_system(knobs);
  };
  SweepOptions opts;
  opts.solver.max_iterations = 2;
  const auto pts = sweep({0.5, 1.0}, make, opts);
  ASSERT_EQ(pts.size(), 2u);
  for (const auto& pt : pts) {
    EXPECT_TRUE(pt.error.empty());
    EXPECT_EQ(pt.iterations, 2);
    EXPECT_FALSE(pt.converged);
    EXPECT_EQ(pt.model_n.size(), 4u);
  }
  std::ostringstream os;
  sweep_table("quantum", pts, 4).print(os);
  std::size_t notes = 0;
  for (std::size_t at = os.str().find("unconverged"); at != std::string::npos;
       at = os.str().find("unconverged", at + 1))
    ++notes;
  EXPECT_EQ(notes, 2u);

  // With the default budget the same points converge and carry no note.
  std::ostringstream ok;
  sweep_table("quantum", sweep({0.5, 1.0}, make), 4).print(ok);
  EXPECT_EQ(ok.str().find("unconverged"), std::string::npos);
}

}  // namespace
