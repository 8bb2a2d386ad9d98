// Unit + property tests for hm::data: dataset manipulation, synthetic
// generators, and federated partitioning protocols.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "data/dataset.hpp"
#include "data/federated.hpp"
#include "data/csv.hpp"
#include "data/generators.hpp"
#include "tensor/vecops.hpp"

namespace hm::data {
namespace {

/// ||a - b||_2.
scalar_t distance(tensor::ConstVecView a, tensor::ConstVecView b) {
  std::vector<scalar_t> diff(a.begin(), a.end());
  tensor::axpy(-1.0, b, diff);
  return tensor::nrm2(diff);
}

Dataset tiny_dataset() {
  Dataset d;
  d.num_classes = 3;
  d.x.resize(6, 2);
  for (index_t i = 0; i < 6; ++i) {
    d.x(i, 0) = static_cast<scalar_t>(i);
    d.x(i, 1) = static_cast<scalar_t>(-i);
  }
  d.y = {0, 1, 2, 0, 1, 2};
  return d;
}

TEST(Dataset, SubsetPreservesOrderAndAllowsRepeats) {
  const Dataset d = tiny_dataset();
  const Dataset s = d.subset({4, 0, 4});
  ASSERT_EQ(s.size(), 3);
  EXPECT_DOUBLE_EQ(s.x(0, 0), 4);
  EXPECT_DOUBLE_EQ(s.x(1, 0), 0);
  EXPECT_DOUBLE_EQ(s.x(2, 0), 4);
  EXPECT_EQ(s.y, (std::vector<index_t>{1, 0, 1}));
}

TEST(Dataset, SubsetOutOfRangeThrows) {
  const Dataset d = tiny_dataset();
  EXPECT_THROW(d.subset({6}), CheckError);
  EXPECT_THROW(d.subset({-1}), CheckError);
}

TEST(Dataset, AppendConcatenates) {
  Dataset a = tiny_dataset();
  const Dataset b = tiny_dataset();
  a.append(b);
  EXPECT_EQ(a.size(), 12);
  EXPECT_DOUBLE_EQ(a.x(7, 0), 1);
  EXPECT_EQ(a.y[9], 0);
}

TEST(Dataset, ValidateCatchesBadLabels) {
  Dataset d = tiny_dataset();
  d.y[0] = 5;
  EXPECT_THROW(d.validate(), CheckError);
}

TEST(Dataset, SplitTrainTestPartitions) {
  const Dataset d = make_gaussian_classes({});
  rng::Xoshiro256 gen(1);
  const TrainTest tt = split_train_test(d, 0.25, gen);
  EXPECT_EQ(tt.train.size() + tt.test.size(), d.size());
  EXPECT_NEAR(static_cast<double>(tt.test.size()) / d.size(), 0.25, 0.03);
}

TEST(Dataset, HistogramAndClassIndices) {
  const Dataset d = tiny_dataset();
  const auto hist = label_histogram(d);
  EXPECT_EQ(hist, (std::vector<index_t>{2, 2, 2}));
  EXPECT_EQ(indices_of_class(d, 1), (std::vector<index_t>{1, 4}));
}

TEST(Gaussian, ShapesAndLabelRange) {
  GaussianSpec spec;
  spec.num_samples = 500;
  spec.dim = 16;
  spec.num_classes = 4;
  const Dataset d = make_gaussian_classes(spec);
  EXPECT_EQ(d.size(), 500);
  EXPECT_EQ(d.dim(), 16);
  d.validate();
  // All classes present.
  const auto hist = label_histogram(d);
  for (const index_t h : hist) EXPECT_GT(h, 50);
}

TEST(Gaussian, DeterministicInSeed) {
  GaussianSpec spec;
  spec.num_samples = 50;
  const Dataset a = make_gaussian_classes(spec);
  const Dataset b = make_gaussian_classes(spec);
  EXPECT_EQ(a.y, b.y);
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.x(i, 0), b.x(i, 0));
  }
  spec.seed += 1;
  const Dataset c = make_gaussian_classes(spec);
  EXPECT_NE(a.y, c.y);
}

TEST(Gaussian, SeparationControlsOverlap) {
  // Nearest-class-mean classification should get easier with separation.
  auto error_rate = [](scalar_t separation) {
    GaussianSpec spec;
    spec.num_samples = 2000;
    spec.separation = separation;
    spec.seed = 3;
    const Dataset d = make_gaussian_classes(spec);
    // Recompute class means from the data, then 1-NN to means.
    tensor::Matrix means(d.num_classes, d.dim());
    std::vector<index_t> counts(static_cast<std::size_t>(d.num_classes), 0);
    for (index_t i = 0; i < d.size(); ++i) {
      tensor::axpy(1.0, d.x.row(i),
                   means.row(d.y[static_cast<std::size_t>(i)]));
      ++counts[static_cast<std::size_t>(d.y[static_cast<std::size_t>(i)])];
    }
    for (index_t c = 0; c < d.num_classes; ++c) {
      tensor::scale(1.0 / static_cast<scalar_t>(
                               counts[static_cast<std::size_t>(c)]),
                    means.row(c));
    }
    index_t wrong = 0;
    for (index_t i = 0; i < d.size(); ++i) {
      scalar_t best = 1e30;
      index_t best_c = -1;
      for (index_t c = 0; c < d.num_classes; ++c) {
        const scalar_t dist = distance(d.x.row(i), means.row(c));
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      if (best_c != d.y[static_cast<std::size_t>(i)]) ++wrong;
    }
    return static_cast<double>(wrong) / static_cast<double>(d.size());
  };
  EXPECT_LT(error_rate(4.0), error_rate(1.5));
}

TEST(Gaussian, PresetDifficultyOrdering) {
  // Fashion-like must be harder (smaller separation, more noise).
  EXPECT_LT(fashion_like_spec().separation, mnist_like_spec().separation);
  EXPECT_GT(fashion_like_spec().label_noise, mnist_like_spec().label_noise);
}

TEST(LiSynthetic, DevicesHaveValidDataAndVaryingSizes) {
  LiSyntheticSpec spec;
  spec.num_devices = 20;
  const auto devices = make_li_synthetic(spec);
  ASSERT_EQ(devices.size(), 20u);
  std::set<index_t> sizes;
  for (const auto& d : devices) {
    d.validate();
    EXPECT_EQ(d.dim(), spec.dim);
    EXPECT_GE(d.size(), spec.min_samples);
    sizes.insert(d.size());
  }
  EXPECT_GT(sizes.size(), 5u);  // lognormal sizes should differ
}

TEST(LiSynthetic, BetaIncreasesFeatureHeterogeneity) {
  // beta controls the spread of per-device feature centers
  // (v_k[j] ~ N(B_k, 1) with B_k ~ N(0, beta)): larger beta must increase
  // the across-device variance of the mean feature value. (Note: alpha's
  // common mean-shift u_k cancels in the label argmax, so label
  // distributions are NOT a valid heterogeneity probe — see generator
  // docs.)
  auto center_spread = [](scalar_t beta) {
    LiSyntheticSpec spec;
    spec.alpha = 1.0;
    spec.beta = beta;
    spec.num_devices = 30;
    spec.seed = 5;
    const auto devices = make_li_synthetic(spec);
    std::vector<double> device_means;
    for (const auto& d : devices) {
      double mean = 0;
      for (const scalar_t v : d.x.flat()) mean += v;
      device_means.push_back(mean / static_cast<double>(d.x.size()));
    }
    double avg = 0;
    for (const double m : device_means) avg += m;
    avg /= static_cast<double>(device_means.size());
    double var = 0;
    for (const double m : device_means) var += (m - avg) * (m - avg);
    return var / static_cast<double>(device_means.size());
  };
  EXPECT_GT(center_spread(4.0), 2.0 * center_spread(0.0));
}

TEST(AdultLike, TwoGroupsWithImbalanceAndBothLabels) {
  AdultLikeSpec spec;
  const auto groups = make_adult_like(spec);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].size(), spec.num_samples_group0);
  EXPECT_EQ(groups[1].size(), spec.num_samples_group1);
  for (const auto& g : groups) {
    g.validate();
    const auto hist = label_histogram(g);
    EXPECT_GT(hist[0], 0);
    EXPECT_GT(hist[1], 0);
  }
  // The two groups' label distributions must genuinely differ (they have
  // shifted coefficients and intercepts).
  const auto h0 = label_histogram(groups[0]);
  const auto h1 = label_histogram(groups[1]);
  const double rate0 = static_cast<double>(h0[1]) / groups[0].size();
  const double rate1 = static_cast<double>(h1[1]) / groups[1].size();
  EXPECT_GT(std::abs(rate1 - rate0), 0.03);
}

TEST(Partition, OneClassPerEdgeIsPure) {
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen(2);
  const TrainTest tt = split_train_test(all, 0.2, gen);
  const auto fed = partition_one_class_per_edge(tt, 10, 3, gen);
  EXPECT_EQ(fed.num_edges(), 10);
  EXPECT_EQ(fed.num_clients(), 30);
  for (index_t e = 0; e < 10; ++e) {
    for (index_t i = 0; i < 3; ++i) {
      for (const index_t y : fed.shard(e, i).y) EXPECT_EQ(y, e % 10);
    }
    for (const index_t y : fed.edge_test[static_cast<std::size_t>(e)].y) {
      EXPECT_EQ(y, e % 10);
    }
  }
}

TEST(Partition, OneClassPerEdgeBalancedAcrossClients) {
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen(3);
  const TrainTest tt = split_train_test(all, 0.2, gen);
  const auto fed = partition_one_class_per_edge(tt, 5, 4, gen);
  for (index_t e = 0; e < 5; ++e) {
    const index_t first = fed.shard(e, 0).size();
    for (index_t i = 1; i < 4; ++i) {
      EXPECT_NEAR(fed.shard(e, i).size(), first, 1);
    }
  }
}

TEST(Partition, SimilarityZeroIsFullySorted) {
  // s=0: each edge's train data comes from contiguous label-sorted
  // shards, so each edge sees very few distinct labels.
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen(4);
  const TrainTest tt = split_train_test(all, 0.2, gen);
  const auto fed = partition_similarity(tt, 10, 3, 0.0, gen);
  for (index_t e = 0; e < 10; ++e) {
    std::set<index_t> labels;
    for (index_t i = 0; i < 3; ++i) {
      for (const index_t y : fed.shard(e, i).y) labels.insert(y);
    }
    EXPECT_LE(labels.size(), 3u);  // at most a couple of boundary labels
  }
}

TEST(Partition, SimilarityOneIsRoughlyUniform) {
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen(5);
  const TrainTest tt = split_train_test(all, 0.2, gen);
  const auto fed = partition_similarity(tt, 10, 3, 1.0, gen);
  for (index_t e = 0; e < 10; ++e) {
    std::set<index_t> labels;
    for (index_t i = 0; i < 3; ++i) {
      for (const index_t y : fed.shard(e, i).y) labels.insert(y);
    }
    EXPECT_EQ(labels.size(), 10u);  // all classes present
  }
}

TEST(Partition, SimilarityTrainSamplesArePartitioned) {
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen(6);
  const TrainTest tt = split_train_test(all, 0.2, gen);
  const auto fed = partition_similarity(tt, 10, 3, 0.5, gen);
  index_t total = 0;
  for (const auto& shard : fed.client_train) total += shard.size();
  EXPECT_EQ(total, tt.train.size());
}

TEST(Partition, SimilarityTestSetMatchesTrainDistribution) {
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen(7);
  const TrainTest tt = split_train_test(all, 0.3, gen);
  const auto fed = partition_similarity(tt, 5, 2, 0.5, gen);
  for (index_t e = 0; e < 5; ++e) {
    // Edge train histogram (over all clients of the edge).
    std::vector<scalar_t> train_frac(10, 0);
    index_t n_train = 0;
    for (index_t i = 0; i < 2; ++i) {
      for (const index_t y : fed.shard(e, i).y) {
        train_frac[static_cast<std::size_t>(y)] += 1;
        ++n_train;
      }
    }
    const auto& test = fed.edge_test[static_cast<std::size_t>(e)];
    std::vector<scalar_t> test_frac(10, 0);
    for (const index_t y : test.y) test_frac[static_cast<std::size_t>(y)] += 1;
    for (index_t c = 0; c < 10; ++c) {
      const double tr = train_frac[static_cast<std::size_t>(c)] / n_train;
      const double te =
          test_frac[static_cast<std::size_t>(c)] / test.size();
      EXPECT_NEAR(te, tr, 0.08) << "edge " << e << " class " << c;
    }
  }
}

TEST(Partition, IidMatchesSimilarityOne) {
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen_a(8), gen_b(8);
  const TrainTest tt = split_train_test(all, 0.2, gen_a);
  rng::Xoshiro256 gen_c(9), gen_d(9);
  const auto fed_iid = partition_iid(tt, 4, 2, gen_c);
  const auto fed_sim = partition_similarity(tt, 4, 2, 1.0, gen_d);
  EXPECT_EQ(fed_iid.shard(0, 0).y, fed_sim.shard(0, 0).y);
}

TEST(Partition, ByGroupOneEdgePerGroup) {
  const auto groups = make_adult_like({});
  rng::Xoshiro256 gen(10);
  const auto fed = partition_by_group(groups, 3, 0.25, gen);
  EXPECT_EQ(fed.num_edges(), 2);
  EXPECT_EQ(fed.num_clients(), 6);
  fed.validate();
  // Per-edge totals should be ~75% of the group sizes.
  index_t e0 = 0;
  for (index_t i = 0; i < 3; ++i) e0 += fed.shard(0, i).size();
  EXPECT_NEAR(static_cast<double>(e0), 0.75 * groups[0].size(),
              0.05 * groups[0].size());
}

TEST(Partition, ValidationCatchesShapeMismatch) {
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen(11);
  const TrainTest tt = split_train_test(all, 0.2, gen);
  auto fed = partition_iid(tt, 2, 2, gen);
  fed.clients_per_edge = 3;  // corrupt
  EXPECT_THROW(fed.validate(), CheckError);
}

TEST(Csv, RoundTripPreservesData) {
  const Dataset original = make_gaussian_classes(
      GaussianSpec{.dim = 5, .num_classes = 3, .num_samples = 40});
  const std::string path = "/tmp/hm_test_data.csv";
  save_csv(path, original);
  const Dataset loaded = load_csv(path, original.num_classes);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dim(), original.dim());
  EXPECT_EQ(loaded.y, original.y);
  for (index_t i = 0; i < original.size(); ++i) {
    for (index_t j = 0; j < original.dim(); ++j) {
      EXPECT_DOUBLE_EQ(loaded.x(i, j), original.x(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(Csv, SkipsHeaderAndComments) {
  const std::string path = "/tmp/hm_test_hdr.csv";
  {
    std::ofstream out(path);
    out << "f0,f1,label\n# a comment\n\n1.0,2.0,0\n3.0,4.0,1\n";
  }
  const Dataset d = load_csv(path);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.dim(), 2);
  EXPECT_EQ(d.num_classes, 2);
  EXPECT_DOUBLE_EQ(d.x(1, 1), 4.0);
  std::remove(path.c_str());
}

TEST(Csv, InfersNumClasses) {
  const std::string path = "/tmp/hm_test_cls.csv";
  {
    std::ofstream out(path);
    out << "0.0,0\n0.1,4\n0.2,2\n";
  }
  EXPECT_EQ(load_csv(path).num_classes, 5);
  std::remove(path.c_str());
}

TEST(Csv, RejectsMalformedRows) {
  const std::string path = "/tmp/hm_test_bad.csv";
  {
    std::ofstream out(path);
    out << "1.0,2.0,0\n1.0,0\n";  // inconsistent column count
  }
  EXPECT_THROW(load_csv(path), CheckError);
  {
    std::ofstream out(path);
    out << "1.0,2.0,0\n1.0,2.0,1.5\n";  // fractional label
  }
  EXPECT_THROW(load_csv(path), CheckError);
  {
    std::ofstream out(path);
    out << "1.0,2.0,0\nabc,2.0,1\n";  // non-numeric mid-file
  }
  EXPECT_THROW(load_csv(path), CheckError);
  EXPECT_THROW(load_csv("/tmp/hm_no_such_file.csv"), CheckError);
  std::remove(path.c_str());
}

class SimilaritySweep : public ::testing::TestWithParam<double> {};

TEST_P(SimilaritySweep, LabelDiversityGrowsWithSimilarity) {
  const double s = GetParam();
  const Dataset all = make_gaussian_classes({});
  rng::Xoshiro256 gen(12);
  const TrainTest tt = split_train_test(all, 0.2, gen);
  const auto fed = partition_similarity(tt, 10, 3, s, gen);
  fed.validate();
  // Mean distinct labels per edge should be monotone-ish in s; at least
  // verify the two endpoints of the property here per-instance.
  double mean_labels = 0;
  for (index_t e = 0; e < 10; ++e) {
    std::set<index_t> labels;
    for (index_t i = 0; i < 3; ++i) {
      for (const index_t y : fed.shard(e, i).y) labels.insert(y);
    }
    mean_labels += static_cast<double>(labels.size());
  }
  mean_labels /= 10;
  if (s <= 0.01) {
    EXPECT_LE(mean_labels, 3.0);
  }
  if (s >= 0.99) {
    EXPECT_GE(mean_labels, 9.0);
  }
  if (s >= 0.3) {
    EXPECT_GE(mean_labels, 5.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimilaritySweep,
                         ::testing::Values(0.0, 0.3, 0.5, 0.8, 1.0));

}  // namespace
}  // namespace hm::data
