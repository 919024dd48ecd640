// Golden digests of every built-in solver's answers.
//
// Each registry name runs on fixed small instances (including the lambda
// endpoints where AVG-SHARD falls back to AVG) under two task seeds, with
// and without a pre-solved shared relaxation. Every SolverRun field except
// the two timings (`seconds`, `relaxation_seconds`) and every error
// status feeds one FNV-1a 64 digest per solver, so a refactor of the
// solver layer that moves any answer, iteration count or flag fails here.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/lp_formulation.h"
#include "datagen/datasets.h"
#include "solvers/solver_options.h"
#include "solvers/solver_registry.h"

namespace savg {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void AddRun(const Result<SolverRun>& result, Fnv1a* fnv) {
  fnv->I64(static_cast<int64_t>(result.status().code()));
  if (!result.ok()) {
    fnv->Str(result.status().message());
    return;
  }
  const SolverRun& run = *result;
  fnv->Str(run.solver);
  const Configuration& config = run.config;
  fnv->I64(config.num_users());
  fnv->I64(config.num_slots());
  fnv->I64(config.num_items());
  for (UserId u = 0; u < config.num_users(); ++u) {
    for (SlotId s = 0; s < config.num_slots(); ++s) {
      fnv->I64(config.At(u, s));
    }
  }
  fnv->F64(run.breakdown.preference);
  fnv->F64(run.breakdown.social_direct);
  fnv->F64(run.breakdown.social_indirect);
  fnv->F64(run.breakdown.lambda);
  fnv->F64(run.breakdown.d_tel);
  fnv->F64(run.scaled_total);
  fnv->U64(run.used_shared_relaxation ? 1 : 0);
  fnv->U64(run.proven_optimal ? 1 : 0);
  fnv->I64(run.iterations);
}

SvgicInstance MakeInstance(DatasetKind kind, int n, int m, int k,
                           double lambda, uint64_t seed) {
  DatasetParams params;
  params.kind = kind;
  params.num_users = n;
  params.num_items = m;
  params.num_slots = k;
  params.lambda = lambda;
  params.seed = seed;
  auto instance = GenerateDataset(params);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return std::move(instance).value();
}

struct GoldenCase {
  SvgicInstance instance;
  /// Small enough for the exhaustive BRUTE and the exact IP.
  bool tiny;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  cases.push_back({MakeInstance(DatasetKind::kTimik, 4, 5, 2, 0.5, 3), true});
  cases.push_back({MakeInstance(DatasetKind::kYelp, 4, 6, 2, 0.7, 8), true});
  // The lambda endpoints, where AVG-SHARD rounds like AVG.
  cases.push_back({MakeInstance(DatasetKind::kTimik, 4, 5, 2, 0.0, 5), true});
  cases.push_back({MakeInstance(DatasetKind::kTimik, 4, 5, 2, 1.0, 6), true});
  cases.push_back(
      {MakeInstance(DatasetKind::kEpinions, 14, 12, 3, 0.5, 2), false});
  // The cases above round to one answer whatever the draw; this one's CSF
  // draws differ, so best-of-k depends on k.
  cases.push_back(
      {MakeInstance(DatasetKind::kYelp, 10, 10, 3, 0.5, 3), false});
  return cases;
}

/// One digest over every case, seed and relaxation mode of `name`;
/// `failures` counts the runs that returned an error.
uint64_t SolverDigest(const std::string& name, const SolverOptions& options,
                      const std::vector<GoldenCase>& cases, int* failures) {
  auto found = SolverRegistry::Global().Find(name);
  EXPECT_TRUE(found.ok()) << found.status();
  if (!found.ok()) return 0;
  const Solver* solver = *found;
  Fnv1a fnv;
  for (const GoldenCase& golden : cases) {
    if (!golden.tiny && (name == "BRUTE" || name == "IP")) continue;
    auto shared = SolveRelaxation(golden.instance, options.relaxation);
    EXPECT_TRUE(shared.ok()) << shared.status();
    if (!shared.ok()) return 0;
    for (uint64_t seed : {uint64_t{0}, uint64_t{7}}) {
      for (bool use_shared : {false, true}) {
        SolverContext context;
        context.seed = seed;
        context.options = &options;
        if (use_shared) context.shared_relaxation = &*shared;
        fnv.U64(solver->NeedsRelaxation(context) ? 1 : 0);
        const Result<SolverRun> run = solver->Solve(golden.instance, context);
        if (!run.ok()) ++*failures;
        AddRun(run, &fnv);
      }
    }
  }
  return fnv.value();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

struct Golden {
  std::string name;
  uint64_t digest;
  /// Runs that end in an error (IP and the exact ST LP need lambda > 0).
  int failures;
};

void ExpectGolden(const Golden& golden, const SolverOptions& options,
                  const std::vector<GoldenCase>& cases) {
  int failures = 0;
  EXPECT_EQ(Hex(SolverDigest(golden.name, options, cases, &failures)),
            Hex(golden.digest))
      << golden.name;
  EXPECT_EQ(failures, golden.failures) << golden.name;
}

TEST(SolverGoldenTest, EverySolverRunIsPinned) {
  const std::vector<GoldenCase> cases = GoldenCases();
  const std::vector<Golden> expected = {
      {"AVG", 0xec7864237766624b, 0},   {"AVG+LS", 0x358b3d33de6dc02d, 0},
      {"AVG-SHARD", 0xcf9a40d037f4207b, 0},
      {"AVG-D", 0xf1c1cb5f20f28181, 0}, {"PER", 0xf46b4b3429102a15, 0},
      {"FMG", 0xa623e68094d387a9, 0},   {"SDP", 0xbbcdc0632e9b8bf5, 0},
      {"GRF", 0x15ae515ef75583b1, 0},   {"IP", 0x9c4f28dc1a5c6465, 4},
      {"AVG-ST", 0x607364ba74e1f4ad, 0}, {"BRUTE", 0xc02027e6ec1db5e1, 0},
      {"IR", 0xabb45581377af735, 0},
  };
  std::vector<std::string> names;
  for (const Golden& golden : expected) {
    names.push_back(golden.name);
    ExpectGolden(golden, SolverOptions{}, cases);
  }
  EXPECT_EQ(SolverRegistry::Global().Names(), names);
}

TEST(SolverGoldenTest, OptionVariantsArePinned) {
  const std::vector<GoldenCase> cases = GoldenCases();
  // AVG-ST on the exact slot-indexed ST LP, which takes no shared
  // relaxation.
  SolverOptions st_lp;
  st_lp.st.use_st_lp = true;
  ExpectGolden({"AVG-ST", 0x73796ad4e37417c5, 4}, st_lp, cases);
  // An invalid size cap fails the same way with or without a shared
  // relaxation.
  SolverOptions bad_cap;
  bad_cap.st.size_cap = 0;
  ExpectGolden({"AVG-ST", 0x626c73fe429ef045, 24}, bad_cap, cases);
  // A subgroup size cap, more rounding repeats and three shards.
  SolverOptions capped;
  capped.avg.size_cap = 2;
  capped.avg_repeats = 5;
  capped.shard.plan.num_shards = 3;
  ExpectGolden({"AVG", 0x628048fa8530b4b7, 0}, capped, cases);
  ExpectGolden({"AVG+LS", 0xd2f7dfb88fb8e77d, 0}, capped, cases);
  ExpectGolden({"AVG-SHARD", 0x3a0817f543c24c67, 0}, capped, cases);
  // One rounding draw each: the repeat counts reach the rounding.
  SolverOptions single;
  single.avg_repeats = 1;
  single.st.avg_repeats = 1;
  ExpectGolden({"AVG", 0x16c2a11da7b7914f, 0}, single, cases);
  ExpectGolden({"AVG+LS", 0xd9e68cb6bdbbbd2d, 0}, single, cases);
  ExpectGolden({"AVG-SHARD", 0x416589286f1b013b, 0}, single, cases);
  ExpectGolden({"AVG-ST", 0xe069131fa067b7a5, 0}, single, cases);
}

}  // namespace
}  // namespace savg
