#include "baselines/st_prepartition.h"

#include "graph/community.h"
#include "util/random.h"

namespace savg {

Result<Configuration> RunWithPrepartition(const SvgicInstance& instance,
                                          int size_cap, uint64_t seed,
                                          const BaselineRunner& runner) {
  if (size_cap < 1) return Status::InvalidArgument("size cap must be >= 1");
  Rng rng(seed);
  Partition partition = BalancedPartition(instance.graph(), size_cap, &rng);
  Configuration merged(instance.num_users(), instance.num_slots(),
                       instance.num_items());
  for (const auto& members : partition.Groups()) {
    if (members.empty()) continue;
    auto sub = ExtractSubInstance(instance, members);
    if (!sub.ok()) return sub.status();
    auto sub_config = runner(*sub);
    if (!sub_config.ok()) return sub_config.status();
    for (size_t i = 0; i < members.size(); ++i) {
      for (SlotId s = 0; s < instance.num_slots(); ++s) {
        const ItemId c = sub_config->At(static_cast<UserId>(i), s);
        if (c != kNoItem) {
          SAVG_RETURN_NOT_OK(merged.Set(members[i], s, c));
        }
      }
    }
  }
  return merged;
}

}  // namespace savg
