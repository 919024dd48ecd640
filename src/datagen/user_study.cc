#include "datagen/user_study.h"

#include <algorithm>
#include <cmath>

#include "baselines/fmg.h"
#include "baselines/grf.h"
#include "baselines/per.h"
#include "core/avg.h"
#include "core/lp_formulation.h"
#include "core/objective.h"
#include "datagen/datasets.h"
#include "util/stats.h"

namespace savg {

namespace {

/// Per-user utility parts under a personal lambda: preference and directed
/// social sums of the user's assignment.
void PerUserParts(const SvgicInstance& instance, const Configuration& config,
                  std::vector<double>* pref, std::vector<double>* soc) {
  const int n = instance.num_users();
  pref->assign(n, 0.0);
  soc->assign(n, 0.0);
  for (UserId u = 0; u < n; ++u) {
    for (SlotId s = 0; s < instance.num_slots(); ++s) {
      const ItemId c = config.At(u, s);
      if (c != kNoItem) (*pref)[u] += instance.p(u, c);
    }
  }
  for (const FriendPair& pair : instance.pairs()) {
    for (const ItemValue& iv : pair.weights) {
      const SlotId su = config.SlotOf(pair.u, iv.item);
      if (su == kNoSlot || config.At(pair.v, su) != iv.item) continue;
      if (pair.uv >= 0) (*soc)[pair.u] += instance.TauOf(pair.uv, iv.item);
      if (pair.vu >= 0) (*soc)[pair.v] += instance.TauOf(pair.vu, iv.item);
    }
  }
}

/// Personal-lambda upper bound analogous to UpperBoundUtility.
double PersonalUpperBound(const SvgicInstance& instance, UserId u,
                          double lambda) {
  const int m = instance.num_items();
  std::vector<double> w_bar(m, 0.0);
  for (ItemId c = 0; c < m; ++c) w_bar[c] = (1.0 - lambda) * instance.p(u, c);
  for (const EdgeId e : instance.graph().OutEdgeIds(u)) {
    for (const ItemValue& iv : instance.TauEntries(e)) {
      w_bar[iv.item] += lambda * iv.value;
    }
  }
  std::nth_element(w_bar.begin(), w_bar.begin() + instance.num_slots() - 1,
                   w_bar.end(), std::greater<double>());
  double bound = 0.0;
  for (SlotId s = 0; s < instance.num_slots(); ++s) bound += w_bar[s];
  return bound;
}

}  // namespace

Result<UserStudyResult> RunUserStudy(const UserStudyParams& params) {
  Rng rng(params.seed);
  // Cohort instance: a Yelp-like shopping group — recruited humans bring
  // diverse individual tastes with social clusters among acquaintances,
  // which is the diversified-preference regime, not the popularity-driven
  // VR-hub regime.
  DatasetParams data;
  data.kind = DatasetKind::kYelp;
  data.num_users = params.num_participants;
  data.num_items = params.num_items;
  data.num_slots = params.num_slots;
  data.seed = rng.Next();
  SAVG_ASSIGN_OR_RETURN(SvgicInstance instance, GenerateDataset(data));

  UserStudyResult result;
  result.lambdas.resize(params.num_participants);
  for (double& l : result.lambdas) l = rng.Uniform(0.15, 0.85);
  // The system optimizes with the cohort's mean lambda (the store picks one
  // configuration policy); satisfaction is judged per personal lambda.
  instance.set_lambda(Mean(result.lambdas));

  struct MethodConfig {
    std::string name;
    Configuration config;
  };
  std::vector<MethodConfig> methods;
  {
    SAVG_ASSIGN_OR_RETURN(FractionalSolution frac, SolveRelaxation(instance));
    AvgOptions avg_opt;
    avg_opt.seed = rng.Next();
    SAVG_ASSIGN_OR_RETURN(AvgResult avg,
                          RunAvgBest(instance, frac, 5, avg_opt));
    methods.push_back({"AVG", std::move(avg.config)});
  }
  {
    SAVG_ASSIGN_OR_RETURN(Configuration per, RunPersonalizedTopK(instance));
    methods.push_back({"PER", std::move(per)});
  }
  {
    SAVG_ASSIGN_OR_RETURN(Configuration fmg, RunFmg(instance));
    methods.push_back({"FMG", std::move(fmg)});
  }
  {
    SAVG_ASSIGN_OR_RETURN(Configuration grf, RunGrf(instance));
    methods.push_back({"GRF", std::move(grf)});
  }

  std::vector<double> all_utilities, all_satisfaction;
  std::vector<double> pref, soc;
  for (const MethodConfig& mc : methods) {
    UserStudyMethodRecord record;
    record.method = mc.name;
    record.total_savg_utility =
        Evaluate(instance, mc.config).ScaledTotal();
    record.subgroup = ComputeSubgroupMetrics(instance, mc.config);
    PerUserParts(instance, mc.config, &pref, &soc);
    double sat_sum = 0.0;
    for (UserId u = 0; u < params.num_participants; ++u) {
      const double lambda = result.lambdas[u];
      const double utility = (1.0 - lambda) * pref[u] + lambda * soc[u];
      const double bound =
          std::max(1e-9, PersonalUpperBound(instance, u, lambda));
      const double quality = std::clamp(utility / bound, 0.0, 1.0);
      double likert = 1.0 + 4.0 * quality +
                      rng.Normal(0.0, params.satisfaction_noise);
      likert = std::clamp(std::round(likert), 1.0, 5.0);
      sat_sum += likert;
      all_utilities.push_back(utility);
      all_satisfaction.push_back(likert);
    }
    record.mean_satisfaction = sat_sum / params.num_participants;
    result.methods.push_back(std::move(record));
  }
  result.spearman = SpearmanCorrelation(all_utilities, all_satisfaction);
  result.pearson = PearsonCorrelation(all_utilities, all_satisfaction);
  return result;
}

}  // namespace savg
