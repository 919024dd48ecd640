#include "experiments/batch_runner.h"

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "util/thread_pool.h"

namespace savg {
namespace {

std::vector<SvgicInstance> MakeInstances(int count) {
  std::vector<SvgicInstance> instances;
  for (int i = 0; i < count; ++i) {
    DatasetParams params;
    params.kind = i % 2 == 0 ? DatasetKind::kTimik : DatasetKind::kYelp;
    params.num_users = 8;
    params.num_items = 12;
    params.num_slots = 3;
    params.seed = 100 + 31 * i;
    auto inst = GenerateDataset(params);
    EXPECT_TRUE(inst.ok()) << inst.status();
    instances.push_back(std::move(inst).value());
  }
  return instances;
}

std::vector<const SvgicInstance*> Pointers(
    const std::vector<SvgicInstance>& instances) {
  std::vector<const SvgicInstance*> ptrs;
  for (const SvgicInstance& inst : instances) ptrs.push_back(&inst);
  return ptrs;
}

Result<BatchReport> RunWithWorkers(
    const std::vector<const SvgicInstance*>& instances, int workers,
    int repeats) {
  BatchOptions options;
  options.num_workers = workers;
  options.repeats = repeats;
  options.base_seed = 42;
  options.solver.avg_repeats = 2;
  BatchRunner runner(options);
  return runner.Run(instances,
                    std::vector<std::string>{"AVG", "AVG-D", "GRF", "IR"});
}

std::string ConfigFingerprint(const Configuration& config) {
  std::string out;
  for (UserId u = 0; u < config.num_users(); ++u) {
    for (SlotId s = 0; s < config.num_slots(); ++s) {
      out += std::to_string(config.At(u, s));
      out += ',';
    }
  }
  return out;
}

TEST(BatchRunnerTest, ResultsAreIdenticalForOneAndEightWorkers) {
  const auto instances = MakeInstances(3);
  auto serial = RunWithWorkers(Pointers(instances), 1, 2);
  auto parallel = RunWithWorkers(Pointers(instances), 8, 2);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_TRUE(serial->FirstError().ok()) << serial->FirstError();
  ASSERT_TRUE(parallel->FirstError().ok()) << parallel->FirstError();
  ASSERT_EQ(serial->tasks.size(), parallel->tasks.size());
  for (size_t t = 0; t < serial->tasks.size(); ++t) {
    const SolverRun& a = serial->tasks[t].run;
    const SolverRun& b = parallel->tasks[t].run;
    EXPECT_EQ(a.solver, b.solver);
    // Bit-identical objective and identical configurations: seeds derive
    // from task indices, never from scheduling.
    EXPECT_EQ(a.scaled_total, b.scaled_total) << a.solver << " task " << t;
    EXPECT_EQ(ConfigFingerprint(a.config), ConfigFingerprint(b.config))
        << a.solver << " task " << t;
  }
}

TEST(BatchRunnerTest, RepeatsDifferButAreReproducible) {
  const auto instances = MakeInstances(1);
  auto first = RunWithWorkers(Pointers(instances), 4, 3);
  auto second = RunWithWorkers(Pointers(instances), 2, 3);
  ASSERT_TRUE(first.ok() && second.ok());
  // Same (instance, solver, repeat) cell reproduces across runs...
  for (size_t t = 0; t < first->tasks.size(); ++t) {
    EXPECT_EQ(first->tasks[t].run.scaled_total,
              second->tasks[t].run.scaled_total);
  }
  // ...while randomized repeats draw distinct seeds.
  EXPECT_NE(BatchTaskSeed(42, 0, "AVG", 0), BatchTaskSeed(42, 0, "AVG", 1));
  EXPECT_NE(BatchTaskSeed(42, 0, "AVG", 0), BatchTaskSeed(42, 1, "AVG", 0));
  EXPECT_NE(BatchTaskSeed(42, 0, "AVG", 0), BatchTaskSeed(43, 0, "AVG", 0));
  // Case differences must not change a solver's seed stream.
  EXPECT_EQ(BatchTaskSeed(42, 0, "AVG", 0), BatchTaskSeed(42, 0, "avg", 0));
}

TEST(BatchRunnerTest, LpRelaxationSolvedExactlyOncePerInstance) {
  const auto instances = MakeInstances(2);
  const int repeats = 3;
  BatchOptions options;
  options.num_workers = 4;
  options.repeats = repeats;
  options.solver.avg_repeats = 3;
  BatchRunner runner(options);
  // Three relaxation consumers x 2 instances x 3 repeats.
  auto report = runner.Run(
      Pointers(instances), std::vector<std::string>{"AVG", "AVG-D", "AVG+LS"});
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->FirstError().ok()) << report->FirstError();
  EXPECT_EQ(report->lp_cache_misses, 2);  // one solve per instance
  EXPECT_EQ(report->lp_cache_hits, 2 * 3 * repeats - 2);
  for (const BatchTaskResult& task : report->tasks) {
    EXPECT_TRUE(task.run.used_shared_relaxation) << task.run.solver;
    EXPECT_GT(task.run.scaled_total, 0.0);
  }
}

TEST(BatchRunnerTest, WarmStartedLambdaSweepCutsSimplexIterations) {
  // The lambda-sweep pattern of bench_fig4_lambda: the same instances
  // re-solved at successive lambdas share the compact LP's constraint
  // matrix, so handing the previous point's bases to the next point's
  // relaxation cache must (a) reproduce the cold-start LP optima and
  // (b) cut the total pivot count by at least 30% (acceptance criterion).
  const double kLambdas[] = {0.33, 0.5, 0.67};
  auto make_instances = [&](double lambda) {
    std::vector<SvgicInstance> instances;
    for (int i = 0; i < 2; ++i) {
      DatasetParams params;
      params.kind = DatasetKind::kTimik;
      params.num_users = 10;
      params.num_items = 14;
      params.num_slots = 3;
      params.lambda = lambda;
      params.seed = 500 + 17 * i;
      auto inst = GenerateDataset(params);
      EXPECT_TRUE(inst.ok()) << inst.status();
      instances.push_back(std::move(inst).value());
    }
    return instances;
  };

  auto run_sweep = [&](bool warm, std::vector<std::vector<double>>* objs) {
    int64_t total_iterations = 0;
    int64_t warm_started = 0;
    std::vector<LpBasis> bases;
    for (double lambda : kLambdas) {
      const auto instances = make_instances(lambda);
      BatchOptions options;
      options.num_workers = 2;
      if (warm && !bases.empty()) options.relaxation_warm_starts = &bases;
      BatchRunner runner(options);
      auto report = runner.Run(Pointers(instances),
                               std::vector<std::string>{"AVG", "AVG-D"});
      EXPECT_TRUE(report.ok()) << report.status();
      if (!report.ok()) return std::pair<int64_t, int64_t>{0, 0};
      EXPECT_TRUE(report->FirstError().ok()) << report->FirstError();
      total_iterations += report->lp_simplex_iterations;
      warm_started += report->lp_warm_started_solves;
      bases = std::move(report->relaxation_bases);
      objs->push_back(report->relaxation_objectives);
    }
    return std::pair<int64_t, int64_t>{total_iterations, warm_started};
  };

  std::vector<std::vector<double>> cold_objs, warm_objs;
  const auto [cold_iters, cold_warm_count] = run_sweep(false, &cold_objs);
  const auto [warm_iters, warm_warm_count] = run_sweep(true, &warm_objs);

  // Every solve after the first sweep point reused a basis...
  EXPECT_EQ(cold_warm_count, 0);
  EXPECT_EQ(warm_warm_count, 2 * (std::size(kLambdas) - 1));
  // ...reproducing the cold-start LP optima...
  ASSERT_EQ(cold_objs.size(), warm_objs.size());
  for (size_t p = 0; p < cold_objs.size(); ++p) {
    ASSERT_EQ(cold_objs[p].size(), warm_objs[p].size());
    for (size_t i = 0; i < cold_objs[p].size(); ++i) {
      EXPECT_NEAR(cold_objs[p][i], warm_objs[p][i], 1e-6)
          << "point " << p << " instance " << i;
    }
  }
  // ...with >= 30% fewer total simplex iterations.
  ASSERT_GT(cold_iters, 0);
  EXPECT_LE(warm_iters, (cold_iters * 7) / 10)
      << "warm " << warm_iters << " vs cold " << cold_iters;
}

TEST(BatchRunnerTest, SolversWithoutRelaxationSkipTheCache) {
  const auto instances = MakeInstances(1);
  BatchOptions options;
  options.num_workers = 2;
  BatchRunner runner(options);
  auto report = runner.Run(Pointers(instances),
                           std::vector<std::string>{"PER", "FMG", "SDP"});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->lp_cache_misses, 0);
  EXPECT_EQ(report->lp_cache_hits, 0);
}

// Pins BatchTaskSeed for a few (base, instance, solver, repeat) tuples, so
// a change to how the seed is mixed cannot move the stream of any
// randomized solver in a batch. Names hash case-insensitively.
TEST(BatchRunnerTest, TaskSeedsArePinned) {
  EXPECT_EQ(BatchTaskSeed(0, 0, "AVG", 0), 0x72d6f50c12a71b58ull);
  EXPECT_EQ(BatchTaskSeed(42, 3, "AVG-D", 2), 0xb2ea2c4a88eef968ull);
  EXPECT_EQ(BatchTaskSeed(7, 1, "GRF", 0), 0x7075d78d742dee5full);
  EXPECT_EQ(BatchTaskSeed(7, 1, "grf", 0), 0x7075d78d742dee5full);
  EXPECT_EQ(BatchTaskSeed(~0ull, 9, "IR", 4), 0xf159055520a5c7f1ull);
}

TEST(BatchRunnerTest, UnknownSolverNameFailsUpFront) {
  const auto instances = MakeInstances(1);
  BatchRunner runner;
  auto report = runner.Run(Pointers(instances),
                           std::vector<std::string>{"AVG", "nope"});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(BatchRunnerTest, EmptyBatchIsInvalid) {
  BatchRunner runner;
  auto no_instances =
      runner.Run({}, std::vector<std::string>{"AVG"});
  EXPECT_EQ(no_instances.status().code(), StatusCode::kInvalidArgument);
  const auto instances = MakeInstances(1);
  auto no_solvers =
      runner.Run(Pointers(instances), std::vector<std::string>{});
  EXPECT_EQ(no_solvers.status().code(), StatusCode::kInvalidArgument);
}

TEST(ThreadPoolTest, RunsAllTasksAndWaits) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
  // The pool stays usable after a Wait().
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 101);
}

}  // namespace
}  // namespace savg
