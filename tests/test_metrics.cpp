// Unit tests for hm::metrics: summaries, worst-k%, per-edge evaluation,
// training-history thresholds, TSV emission.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.hpp"
#include "metrics/evaluation.hpp"
#include "metrics/history.hpp"
#include "nn/softmax_regression.hpp"
#include "tensor/vecops.hpp"

namespace hm::metrics {
namespace {

TEST(Summary, BasicStatistics) {
  const std::vector<scalar_t> acc = {0.9, 0.8, 0.7};
  const AccuracySummary s = summarize(acc);
  EXPECT_NEAR(s.average, 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(s.worst, 0.7);
  EXPECT_DOUBLE_EQ(s.best, 0.9);
  // Accuracies in % are 90, 80, 70 -> population variance = 200/3.
  EXPECT_NEAR(s.variance_pct2, 200.0 / 3.0, 1e-9);
}

TEST(Summary, SingleEdgeHasZeroVariance) {
  const AccuracySummary s = summarize({0.5});
  EXPECT_DOUBLE_EQ(s.average, 0.5);
  EXPECT_DOUBLE_EQ(s.worst, 0.5);
  EXPECT_DOUBLE_EQ(s.variance_pct2, 0.0);
}

TEST(Summary, EmptyThrows) {
  EXPECT_THROW(summarize({}), CheckError);
}

TEST(Summary, VarianceMatchesPaperUnits) {
  // Table 2 reports variances like 21.05 for accuracies ~0.80-0.90;
  // sanity-check our unit convention lands in that magnitude.
  const std::vector<scalar_t> acc = {0.90, 0.85, 0.88, 0.80, 0.92,
                                     0.87, 0.83, 0.89, 0.91, 0.86};
  const AccuracySummary s = summarize(acc);
  EXPECT_GT(s.variance_pct2, 1.0);
  EXPECT_LT(s.variance_pct2, 100.0);
}

TEST(Gini, UniformIsZeroAndConcentrationGrows) {
  EXPECT_NEAR(gini_coefficient({0.8, 0.8, 0.8, 0.8}), 0.0, 1e-12);
  const scalar_t mild = gini_coefficient({0.7, 0.8, 0.9});
  const scalar_t strong = gini_coefficient({0.1, 0.5, 0.9});
  EXPECT_GT(mild, 0.0);
  EXPECT_GT(strong, mild);
  // Scale-free: multiplying all accuracies leaves Gini unchanged.
  EXPECT_NEAR(gini_coefficient({0.2, 1.0, 1.8}),
              gini_coefficient({0.1, 0.5, 0.9}), 1e-12);
  // Extreme concentration approaches (n-1)/n.
  EXPECT_NEAR(gini_coefficient({0.0, 0.0, 0.0, 1.0}), 0.75, 1e-12);
}

TEST(Gini, RejectsBadInput) {
  EXPECT_THROW(gini_coefficient({}), CheckError);
  EXPECT_THROW(gini_coefficient({0.5, -0.1}), CheckError);
}

TEST(Entropy, MaximalForUniform) {
  const scalar_t uniform = accuracy_entropy({0.5, 0.5, 0.5, 0.5});
  EXPECT_NEAR(uniform, std::log(4.0), 1e-12);
  EXPECT_LT(accuracy_entropy({0.9, 0.1, 0.1, 0.1}), uniform);
  // Degenerate single mass -> zero entropy.
  EXPECT_NEAR(accuracy_entropy({1.0, 0.0, 0.0}), 0.0, 1e-12);
  EXPECT_THROW(accuracy_entropy({0.0, 0.0}), CheckError);
}

TEST(WorstFraction, PicksBottomShare) {
  std::vector<scalar_t> acc;
  for (int i = 1; i <= 100; ++i) acc.push_back(i / 100.0);
  // Worst 10% = mean of 0.01..0.10 = 0.055.
  EXPECT_NEAR(worst_fraction_accuracy(acc, 0.10), 0.055, 1e-12);
  // Fraction 1.0 = overall mean.
  EXPECT_NEAR(worst_fraction_accuracy(acc, 1.0), 0.505, 1e-12);
}

TEST(WorstFraction, AtLeastOneEdge) {
  EXPECT_DOUBLE_EQ(worst_fraction_accuracy({0.3, 0.9}, 0.01), 0.3);
}

TEST(Evaluation, PerEdgeAccuracyAndLossShapes) {
  const auto all = data::make_gaussian_classes({});
  rng::Xoshiro256 gen(1);
  const auto tt = data::split_train_test(all, 0.2, gen);
  const auto fed = data::partition_one_class_per_edge(tt, 5, 2, gen);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
  parallel::ThreadPool pool(4);
  const auto acc = per_edge_accuracy(model, w, fed, pool);
  ASSERT_EQ(acc.size(), 5u);
  const auto losses = per_edge_loss(model, w, fed, pool);
  ASSERT_EQ(losses.size(), 5u);
  for (const scalar_t l : losses) EXPECT_NEAR(l, std::log(10.0), 1e-9);
}

TEST(Evaluation, PerfectModelScoresOneOnItsEdge) {
  // One-class-per-edge: a strong logistic model trained globally gets
  // each single-class edge either right or wrong; train it well enough
  // and per-edge accuracy is high.
  data::GaussianSpec spec;
  spec.separation = 5.0;  // easy task
  const auto all = data::make_gaussian_classes(spec);
  rng::Xoshiro256 gen(2);
  const auto tt = data::split_train_test(all, 0.2, gen);
  const auto fed = data::partition_one_class_per_edge(tt, 10, 2, gen);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()), 0);
  std::vector<scalar_t> grad(w.size());
  auto ws = model.make_workspace();
  const auto batch = nn::all_indices(tt.train.size());
  for (int it = 0; it < 60; ++it) {
    model.loss_and_grad(w, tt.train, batch, grad, *ws);
    tensor::axpy(-0.5, grad, nn::VecView(w));
  }
  parallel::ThreadPool pool(4);
  const auto acc = per_edge_accuracy(model, w, fed, pool);
  const auto s = summarize(acc);
  EXPECT_GT(s.worst, 0.9);
}

TEST(Evaluation, OneRegionMatchesTheSeparateSweepsBitForBit) {
  // evaluate_edges runs loss and accuracy tasks in one region; on a pool
  // that really dispatches, and on one that runs inline, every value must
  // equal the separate per_edge_loss / per_edge_accuracy calls.
  const auto all = data::make_gaussian_classes({});
  rng::Xoshiro256 gen(3);
  const auto tt = data::split_train_test(all, 0.2, gen);
  const auto fed = data::partition_one_class_per_edge(tt, 5, 2, gen);
  const nn::SoftmaxRegression model(fed.dim(), fed.num_classes());
  std::vector<scalar_t> w(static_cast<std::size_t>(model.num_params()));
  for (auto& x : w) x = gen.normal() * 0.1;
  parallel::ThreadPool serial(1);
  const auto acc = per_edge_accuracy(model, w, fed, serial);
  const auto losses = per_edge_loss(model, w, fed, serial);
  for (const std::size_t threads : {1, 4}) {
    parallel::ThreadPool pool(threads);
    const EdgeEvaluation eval = evaluate_edges(model, w, fed, pool);
    ASSERT_EQ(eval.accuracy.size(), acc.size());
    ASSERT_EQ(eval.loss.size(), losses.size());
    for (std::size_t e = 0; e < acc.size(); ++e) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(eval.accuracy[e]),
                std::bit_cast<std::uint64_t>(acc[e]))
          << "threads=" << threads << " edge " << e;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(eval.loss[e]),
                std::bit_cast<std::uint64_t>(losses[e]))
          << "threads=" << threads << " edge " << e;
    }
  }
}

RoundRecord record_at(index_t round, std::uint64_t total_rounds,
                      scalar_t worst, scalar_t avg) {
  RoundRecord r;
  r.round = round;
  r.comm.edge_cloud_rounds = total_rounds;
  r.edge_acc = {avg + (avg - worst), worst};  // avg of the two == avg
  r.summary = summarize(r.edge_acc);
  return r;
}

TEST(History, RoundsToThreshold) {
  TrainingHistory h;
  h.add(record_at(0, 0, 0.1, 0.2));
  h.add(record_at(10, 30, 0.4, 0.5));
  h.add(record_at(20, 60, 0.7, 0.8));
  EXPECT_EQ(h.rounds_to_worst_accuracy(0.4).value(), 30u);
  EXPECT_EQ(h.rounds_to_worst_accuracy(0.5).value(), 60u);
  EXPECT_FALSE(h.rounds_to_worst_accuracy(0.9).has_value());
  EXPECT_EQ(h.rounds_to_average_accuracy(0.75).value(), 60u);
}

TEST(History, TsvHasOneLinePerRecordWithLabel) {
  TrainingHistory h;
  h.add(record_at(0, 0, 0.1, 0.2));
  h.add(record_at(5, 12, 0.3, 0.4));
  std::ostringstream os;
  h.write_tsv(os, "hierminimax");
  const std::string out = os.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_EQ(out.rfind("hierminimax\t", 0), 0u);
}

/// The header comes from the rows' own column list: as many fields as a
/// row, and each name over the value it labels, the msgs_* roll-ups
/// included.
TEST(History, TsvHeaderNamesEveryRowColumn) {
  RoundRecord r;
  r.round = 7;
  r.comm.client_edge_rounds = 11;
  r.comm.edge_cloud_rounds = 13;
  r.comm.edge_cloud_models_up = 17;
  r.comm.client_edge_fault.delivered = 19;
  r.comm.edge_cloud_fault.dropped = 23;
  r.comm.client_edge_fault.straggled = 29;
  r.summary.average = 0.5;
  r.summary.worst = 0.25;
  r.summary.variance_pct2 = 3;
  r.global_loss = 0.125;
  TrainingHistory h;
  h.add(r);
  std::ostringstream os;
  TrainingHistory::write_tsv_header(os);
  h.write_tsv(os, "m");
  std::istringstream lines(os.str());
  const auto fields = [&] {
    std::string line, field;
    std::getline(lines, line);
    std::istringstream in(line);
    std::vector<std::string> out;
    while (std::getline(in, field, '\t')) out.push_back(field);
    return out;
  };
  const std::vector<std::string> header = fields();
  const std::vector<std::string> row = fields();
  const std::vector<std::pair<std::string, std::string>> want = {
      {"method", "m"},          {"round", "7"},
      {"comm_rounds", "24"},    {"client_edge_rounds", "11"},
      {"edge_cloud_rounds", "13"}, {"edge_cloud_models", "17"},
      {"msgs_delivered", "19"}, {"msgs_dropped", "23"},
      {"msgs_straggled", "29"}, {"avg_acc", "0.5"},
      {"worst_acc", "0.25"},    {"variance_pct2", "3"},
      {"loss", "0.125"}};
  ASSERT_EQ(header.size(), want.size());
  ASSERT_EQ(row.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(header[i], want[i].first) << "column " << i;
    EXPECT_EQ(row[i], want[i].second) << want[i].first;
  }
}

TEST(History, TailSummaryAveragesLastWindow) {
  TrainingHistory h;
  h.add(record_at(0, 0, 0.1, 0.2));
  h.add(record_at(1, 1, 0.3, 0.4));
  h.add(record_at(2, 2, 0.5, 0.6));
  const auto tail2 = h.tail_summary(2);
  EXPECT_NEAR(tail2.worst, 0.4, 1e-12);
  EXPECT_NEAR(tail2.average, 0.5, 1e-12);
  // Window larger than the history clamps to everything.
  const auto tail9 = h.tail_summary(9);
  EXPECT_NEAR(tail9.worst, 0.3, 1e-12);
}

TEST(History, SustainedThresholdIgnoresSpikes) {
  TrainingHistory h;
  RoundRecord spike;
  spike.round = 0;
  spike.comm.edge_cloud_models_up = 10;
  spike.edge_acc = {0.9, 0.9};  // single spike
  spike.summary = summarize(spike.edge_acc);
  h.add(spike);
  for (int i = 1; i <= 4; ++i) {
    RoundRecord r;
    r.round = i;
    r.comm.edge_cloud_models_up = static_cast<std::uint64_t>(10 * (i + 1));
    const scalar_t worst = i <= 1 ? 0.2 : 0.85;
    r.edge_acc = {worst, worst};
    r.summary = summarize(r.edge_acc);
    h.add(r);
  }
  // Plain threshold is fooled by the round-0 spike; sustained (window 3)
  // waits for records 2..4 all >= 0.8.
  EXPECT_EQ(h.wan_payloads_to_worst_accuracy(0.8).value(), 10u);
  EXPECT_EQ(h.wan_payloads_to_sustained_worst(0.8, 3).value(), 50u);
  EXPECT_FALSE(h.wan_payloads_to_sustained_worst(0.95, 3).has_value());
}

TEST(History, EmptyAndBack) {
  TrainingHistory h;
  EXPECT_TRUE(h.empty());
  h.add(record_at(3, 9, 0.2, 0.3));
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.back().round, 3);
}

}  // namespace
}  // namespace hm::metrics
